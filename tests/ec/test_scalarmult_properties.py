"""Property-based agreement tests for every scalar-multiplication strategy.

Seeded ``random`` (no extra dependencies) drives all registered curves
through random scalars, edge scalars and a naive affine double-and-add
oracle that shares no code with the Jacobian strategies.  Any perturbation
of the comb table, the wNAF loop, the ladder or batch normalization breaks
the cross-checks here.
"""

from __future__ import annotations

import random

import pytest

from repro.backend import get_backend
from repro.ec import (
    CURVES,
    Point,
    mul_base,
    mul_base_batch,
    mul_double,
    mul_ladder,
    mul_point,
)

#: Deterministic scalar source: the whole module draws from one stream.
_SEED = 0xC0FFEE


def naive_double_and_add(k: int, point: Point) -> Point:
    """Affine right-to-left double-and-add: the independent oracle.

    Uses only the affine addition formulas (``Point._add_raw``), none of
    the Jacobian machinery the real strategies run on.
    """
    k %= point.curve.n
    acc = Point.infinity(point.curve)
    addend = point
    while k:
        if k & 1:
            acc = acc._add_raw(addend)
        addend = addend._add_raw(addend)
        k >>= 1
    return acc


def _scalars_for(curve, rng: random.Random, n_random: int) -> list[int]:
    edges = [0, 1, 2, curve.n - 1, curve.n, curve.n + 1]
    return edges + [rng.randrange(1, curve.n) for _ in range(n_random)]


@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_all_strategies_match_oracle(curve_name):
    curve = CURVES[curve_name]
    g = curve.generator
    rng = random.Random(_SEED ^ int.from_bytes(curve_name.encode(), "big"))
    for k in _scalars_for(curve, rng, n_random=3):
        expected = naive_double_and_add(k, g)
        assert mul_point(k, g) == expected, (curve_name, k)
        assert mul_base(k, curve) == expected, (curve_name, k)
        assert mul_ladder(k, g) == expected, (curve_name, k)


@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_mul_base_batch_matches_oracle(curve_name):
    curve = CURVES[curve_name]
    g = curve.generator
    rng = random.Random(_SEED ^ int.from_bytes(curve_name.encode(), "big") ^ 1)
    scalars = _scalars_for(curve, rng, n_random=2)
    batch = mul_base_batch(scalars, curve)
    assert len(batch) == len(scalars)
    for k, result in zip(scalars, batch):
        assert result == naive_double_and_add(k, g), (curve_name, k)


@pytest.mark.parametrize("curve_name", sorted(CURVES))
def test_mul_double_matches_oracle(curve_name):
    curve = CURVES[curve_name]
    g = curve.generator
    rng = random.Random(_SEED ^ int.from_bytes(curve_name.encode(), "big") ^ 2)
    q = mul_point(rng.randrange(2, curve.n), g)
    for _ in range(2):
        u = rng.randrange(0, curve.n)
        v = rng.randrange(0, curve.n)
        expected = naive_double_and_add(u, g)._add_raw(
            naive_double_and_add(v, q)
        )
        assert mul_double(u, g, v, q) == expected, (curve_name, u, v)


def test_strategies_agree_on_arbitrary_points():
    # Not just the base point: wNAF and the ladder must agree on random
    # points of every curve (mul_base is base-point-only by design).
    for curve_name in sorted(CURVES):
        curve = CURVES[curve_name]
        rng = random.Random(_SEED ^ int.from_bytes(curve_name.encode(), "big") ^ 3)
        point = mul_base(rng.randrange(2, curve.n), curve)
        k = rng.randrange(1, curve.n)
        assert mul_point(k, point) == mul_ladder(k, point), curve_name


def test_edge_scalars_collapse_consistently():
    for curve in CURVES.values():
        g = curve.generator
        assert mul_point(0, g).is_infinity
        assert mul_base(curve.n, curve).is_infinity
        assert mul_ladder(0, g).is_infinity
        assert mul_point(curve.n + 1, g) == g
        assert mul_base(curve.n - 1, curve) == -g


class TestDegenerateAdditionPaths:
    """P + (−P), doubling degeneracy and infinity chains through the
    public strategies — the branches a formula bug in the mixed-addition
    helpers (unreduced coordinates, wrong degeneracy test) would corrupt
    silently."""

    def test_sum_with_own_negation_is_infinity(self):
        # u*P + v*(−P) with u == v walks both wNAF digit streams into
        # exact cancellation — the P + (−P) branch of the shared chain.
        for curve in CURVES.values():
            g = curve.generator
            assert mul_double(5, g, 5, -g).is_infinity
            assert mul_double(1, g, curve.n - 1, g).is_infinity

    def test_doubling_degeneracy_through_mul_double(self):
        # u*P + v*P must equal (u+v)*P even when the interleaved chain
        # lands on the add-equal-points (doubling) degeneracy.
        for curve in CURVES.values():
            g = curve.generator
            q = mul_base(3, curve)
            expected = naive_double_and_add(7, g)
            assert mul_double(4, g, 1, q) == expected
            assert mul_double(2, q, 1, g) == expected

    def test_infinity_chains(self):
        # Infinity inputs and zero scalars must thread through every
        # strategy (and the batch forms) without touching the formulas.
        for curve in CURVES.values():
            g = curve.generator
            inf = Point.infinity(curve)
            assert mul_point(12345, inf).is_infinity
            assert mul_ladder(777, inf).is_infinity
            assert mul_double(0, g, 0, g).is_infinity
            assert mul_double(9, inf, 0, g).is_infinity
            assert mul_double(3, inf, 4, g) == naive_double_and_add(4, g)
            batch = mul_base_batch([0, curve.n, 1, 0], curve)
            assert [r.is_infinity for r in batch] == [True, True, False, True]
            assert batch[2] == g
            # A sum collapsing to infinity inside a batch must normalize
            # cleanly next to non-degenerate neighbours (None marks a
            # degenerate term, which the backend maps to infinity).
            terms = [(2, g, curve.n - 2, g), None, (1, g, 1, g)]
            results = get_backend().ec_mul_double_batch(curve, terms)
            assert results[0].is_infinity
            assert results[1].is_infinity
            assert results[2] == naive_double_and_add(2, g)
