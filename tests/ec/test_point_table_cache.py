"""Shared wNAF point-table cache: correctness, keying and boundedness.

Mirrors the discipline of ``test_base_table_cache.py``: precomputation
must key on the full curve *parameters* plus the point coordinates, never
on the curve name alone, and must never grow implicitly from ephemeral
call-site points.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.backend import get_backend, use_backend
from repro.ec import (
    SECP192R1,
    SECP256R1,
    Point,
    clear_point_tables,
    mul_double,
    mul_point,
    precompute_point,
)
from repro.ec.scalarmult import _POINT_TABLES
from repro.errors import CurveError


@pytest.fixture(autouse=True)
def _isolated_cache():
    clear_point_tables()
    yield
    clear_point_tables()


def _hot_point(curve=SECP256R1):
    return mul_point(0xA5A5A5A5, curve.generator)


class TestCorrectness:
    def test_precomputed_mul_matches_fresh(self):
        point = _hot_point()
        k = 0x1234_5678_9ABC_DEF0
        fresh = mul_point(k, point)
        precompute_point(point)
        assert mul_point(k, point) == fresh

    def test_precomputed_mul_double_matches_fresh(self):
        q = _hot_point()
        expected = mul_double(0xDEAD, SECP256R1.generator, 0xBEEF, q)
        precompute_point(q)
        assert mul_double(0xDEAD, SECP256R1.generator, 0xBEEF, q) == expected

    def test_mul_double_batch_matches_sequential(self):
        q = _hot_point()
        precompute_point(q)
        terms = [
            (3 + i, SECP256R1.generator, 1000 + i, q) for i in range(12)
        ]
        batched = get_backend().ec_mul_double_batch(SECP256R1, terms)
        sequential = [mul_double(u, p, v, qq) for u, p, v, qq in terms]
        assert batched == sequential

    def test_degenerate_terms_pass_through(self):
        # None marks a term the caller collapsed to infinity; a term with
        # one degenerate side still computes the other.
        q = _hot_point()
        inf = Point.infinity(SECP256R1)
        results = get_backend().ec_mul_double_batch(
            SECP256R1, [None, (1, q, 0, inf)]
        )
        assert results[0].is_infinity
        assert results[1] == q


class TestCacheKeying:
    def test_cache_keys_on_full_curve_not_name(self):
        original = SECP192R1
        g2 = mul_point(2, original.generator)
        twisted = replace(original, gx=g2.x, gy=g2.y)
        point = mul_point(5, original.generator)
        precompute_point(point)
        clone = Point(twisted, point.x, point.y)
        assert (original, point.x, point.y) in _POINT_TABLES
        assert (twisted, clone.x, clone.y) not in _POINT_TABLES
        # Using the clone must not silently reuse the original's slot.
        mul_point(7, clone)
        assert (twisted, clone.x, clone.y) not in _POINT_TABLES

    def test_generators_cache_automatically(self):
        # The wNAF generator table belongs to the reference path; the
        # accelerated backend hands OpenSSL curves to OpenSSL instead.
        with use_backend("reference"):
            mul_point(3, SECP256R1.generator)
        key = (SECP256R1, SECP256R1.gx, SECP256R1.gy)
        assert key in _POINT_TABLES

    def test_arbitrary_points_do_not_grow_the_cache(self):
        baseline = len(_POINT_TABLES)
        for i in range(2, 12):
            mul_point(i * 17, _hot_point())
        # Only the generator (used to derive the hot point) may appear.
        assert len(_POINT_TABLES) <= baseline + 1

    def test_precompute_is_idempotent(self):
        point = _hot_point()
        precompute_point(point)
        table = _POINT_TABLES[(SECP256R1, point.x, point.y)]
        precompute_point(point)
        assert _POINT_TABLES[(SECP256R1, point.x, point.y)] is table

    def test_infinity_rejected(self):
        with pytest.raises(CurveError):
            precompute_point(Point.infinity(SECP256R1))

    def test_cache_is_bounded_with_fifo_eviction(self):
        from repro.ec.scalarmult import _POINT_TABLE_LIMIT

        points = [
            mul_point(1000 + i, SECP192R1.generator)
            for i in range(_POINT_TABLE_LIMIT + 5)
        ]
        for point in points:
            precompute_point(point)
        assert len(_POINT_TABLES) <= _POINT_TABLE_LIMIT
        # The oldest registrations were evicted, the newest survive.
        newest = points[-1]
        assert (SECP192R1, newest.x, newest.y) in _POINT_TABLES
        oldest = points[0]
        assert (SECP192R1, oldest.x, oldest.y) not in _POINT_TABLES
        # An evicted point still multiplies correctly (table rebuilt).
        from repro.ec import mul_ladder

        assert mul_point(7, oldest) == mul_ladder(7, oldest)
