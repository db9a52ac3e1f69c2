"""Scalar multiplication strategies.

Four strategies are provided, mirroring the menu an embedded crypto library
offers:

* :func:`mul_point` — width-4 wNAF, the general-purpose workhorse
  (traces ``ec.mul_point``).
* :func:`mul_base` — fixed-base comb multiplication of the curve base point
  with a cached per-curve precomputation table (traces ``ec.mul_base``);
  :func:`mul_base_batch` amortizes the final Jacobian normalization over a
  whole batch of scalars via Montgomery-trick batch inversion.
* :func:`mul_double` — interleaved-wNAF simultaneous multiplication
  ``u*P + v*Q`` for callers that need the point, such as the fused
  reconstruct-and-derive step of the SCIANC protocol (traces
  ``ec.mul_double``); :func:`mul_double_check` asks only whether
  ``u*G + v*Q`` is finite with ``x mod n == r`` (ECDSA verification's
  last step, so a backend may answer without the point) and records the
  same event per term.
* :func:`mul_ladder` — a uniform double-and-add-always ladder approximating
  the constant-time behaviour of hardened embedded code
  (traces ``ec.mul_point``; same price class).

Hot points can share precomputation: :func:`precompute_point` registers a
point's odd-multiples wNAF table in a cache keyed on the *full* curve
parameters plus the affine coordinates, so repeated multiplications of a
long-lived public key (a fleet gateway, a root CA) skip the per-call table
build.  Curve generators are cached automatically on first use; arbitrary
(ephemeral) points are never cached implicitly, keeping the cache bounded
by the set of explicitly registered keys.

All strategies agree on results (property-tested) and differ only in
operation schedule, which is what the hardware model prices.

Since the EC extension of the backend seam, the public functions here are
*dispatch wrappers*: they own scalar reduction, degenerate-case collapsing
and the ``ec.mul_*`` trace events, then hand the non-degenerate core to
:func:`repro.backend.get_backend` (``ec_mul_base`` / ``ec_mul`` /
``ec_mul_double``, ``ec_mul_base_batch`` and ``ec_mul_double_check``).  The
default backend methods call straight back into the ``_mul_*`` reference
cores below, so the ``reference`` backend runs the exact seed code path;
``accelerated`` substitutes OpenSSL point math on the curves OpenSSL
serves and inherits those defaults everywhere else, with bit-identical
results (affine coordinates of a group element are unique) and —
because no backend may record trace events — bit-identical accounting.
:func:`mul_ladder` stays backend-independent on purpose: it is the
uniform-schedule oracle the tests cross-check every backend against.
"""

from __future__ import annotations

from .. import trace
from ..backend import get_backend
from ..errors import CurveError
from .curve import Curve
from .point import (
    JAC_INFINITY,
    Jacobian,
    Point,
    from_jacobian,
    jac_add,
    jac_add_affine,
    jac_add_mixed,
    jac_double,
    normalize_batch,
    to_jacobian,
)

_WNAF_WIDTH = 4
#: Number of comb teeth for fixed-base multiplication: each tooth reads one
#: bit of the scalar, so a window touches ``_COMB_TEETH`` bits spaced
#: ``columns`` apart and the main loop runs ``columns ≈ bits/teeth`` times.
_COMB_TEETH = 4

# Per-curve cache of base-point comb tables.  Keyed on the full (frozen,
# hashable) Curve value — NOT on curve.name — so two distinct Curve objects
# that happen to share a name can never silently share precomputation.
# Value: (columns, [T_1 .. T_{2^teeth - 1}]) with
# T_pattern = sum_{i: bit i of pattern} 2^(i*columns) * G.
_BASE_TABLES: dict[Curve, tuple[int, list[Point]]] = {}

# Shared wNAF odd-multiples tables [P, 3P, 5P, ...] for registered hot
# points, keyed on (full Curve value, x, y) — the same aliasing discipline
# as _BASE_TABLES.  Populated only by precompute_point() and, lazily, for
# curve generators; never for arbitrary call-site points.  Bounded: once
# _POINT_TABLE_LIMIT entries exist, the oldest registration is evicted
# (FIFO via dict insertion order), so a long-lived process that builds
# many fleets (a parameter study, the test suite) cannot grow this
# without bound — an evicted point just pays the per-call table build
# again until re-registered.
_POINT_TABLES: dict[tuple[Curve, int, int], list[Point]] = {}
_POINT_TABLE_LIMIT = 256


def _wnaf(k: int, width: int) -> list[int]:
    """Compute the width-``w`` non-adjacent form of ``k`` (LSB first)."""
    digits: list[int] = []
    window = 1 << width
    half = window >> 1
    while k > 0:
        if k & 1:
            d = k % window
            if d >= half:
                d -= window
            k -= d
        else:
            d = 0
        digits.append(d)
        k >>= 1
    return digits


def _odd_multiples(point: Point) -> list[Point]:
    """Affine odd multiples ``[P, 3P, 5P, ..., (2^(w-1)-1)P]`` of a point.

    Accumulated in Jacobian coordinates and normalized together in one
    batch inversion, so building a table costs a single real inversion.
    """
    curve = point.curve
    jacs: list[Jacobian] = [to_jacobian(point)]
    twice = jac_double(curve, jacs[0])
    for _ in range((1 << (_WNAF_WIDTH - 1)) // 2 - 1):
        jacs.append(jac_add(curve, jacs[-1], twice))
    return normalize_batch(curve, jacs)


def _store_point_table(
    key: tuple[Curve, int, int], table: list[Point]
) -> None:
    """Insert a table, evicting the oldest entries past the size bound."""
    while len(_POINT_TABLES) >= _POINT_TABLE_LIMIT:
        _POINT_TABLES.pop(next(iter(_POINT_TABLES)))
    _POINT_TABLES[key] = table


def precompute_point(point: Point) -> None:
    """Register a hot point's wNAF table in the shared cache.

    Intended for long-lived public keys multiplied many times — a
    gateway's key verified by a whole fleet, a root CA's reconstruction
    point validated on every cross-shard handshake.  Subsequent
    :func:`mul_point` / :func:`mul_double` calls on the same point (same
    full curve parameters, same coordinates) reuse the table instead of
    rebuilding it.  Results are bit-identical either way; only host time
    changes, so cost traces and simulation digests are unaffected.
    """
    if point.is_infinity:
        raise CurveError("cannot precompute a table for the point at infinity")
    key = (point.curve, point.x, point.y)
    if key not in _POINT_TABLES:
        _store_point_table(key, _odd_multiples(point))


def clear_point_tables() -> None:
    """Drop every shared wNAF table (test isolation / memory reclaim)."""
    _POINT_TABLES.clear()


def _wnaf_table(point: Point) -> list[Point]:
    """The odd-multiples table for a point: cached if registered, else fresh.

    Curve generators are cached automatically (bounded: one entry per
    distinct curve value); any other unregistered point gets a throwaway
    table so ephemeral points can never grow the cache.
    """
    curve = point.curve
    key = (curve, point.x, point.y)
    cached = _POINT_TABLES.get(key)
    if cached is not None:
        return cached
    table = _odd_multiples(point)
    if point.x == curve.gx and point.y == curve.gy:
        _store_point_table(key, table)
    return table


def _wnaf_accumulate(
    curve: Curve, acc: Jacobian, digit: int, table: list[Point]
) -> Jacobian:
    """Add ``digit``'s odd multiple (or its negation) from an affine table."""
    if digit > 0:
        entry = table[(digit - 1) // 2]
        return jac_add_affine(curve, acc, entry.x, entry.y)
    entry = table[(-digit - 1) // 2]
    return jac_add_affine(curve, acc, entry.x, curve.p - entry.y)


def mul_point(scalar: int, point: Point) -> Point:
    """Multiply an arbitrary point by a scalar using width-4 wNAF."""
    curve = point.curve
    k = scalar % curve.n
    if k == 0 or point.is_infinity:
        return Point.infinity(curve)
    trace.record("ec.mul_point")
    return get_backend().ec_mul(curve, k, point)


def _mul_wnaf_untraced(k: int, point: Point) -> Point:
    curve = point.curve
    table = _wnaf_table(point)
    digits = _wnaf(k, _WNAF_WIDTH)
    acc: Jacobian = JAC_INFINITY
    for d in reversed(digits):
        acc = jac_double(curve, acc)
        if d:
            acc = _wnaf_accumulate(curve, acc, d, table)
    return from_jacobian(curve, acc)


def _base_table(curve: Curve) -> tuple[int, list[Point]]:
    """Cached comb precomputation for the base point of ``curve``.

    Returns ``(columns, table)`` where ``table[pattern - 1]`` holds the
    affine sum of ``2^(i*columns) * G`` over the set bits ``i`` of
    ``pattern``.  The 2^teeth - 1 combinations are accumulated in Jacobian
    coordinates and normalized together in one batch inversion.
    """
    cached = _BASE_TABLES.get(curve)
    if cached is not None:
        return cached
    columns = -(-curve.n.bit_length() // _COMB_TEETH)  # ceil division
    # Spine: G, 2^columns * G, 2^(2*columns) * G, ... (one per tooth).
    spine: list[Jacobian] = [to_jacobian(curve.generator)]
    for _ in range(_COMB_TEETH - 1):
        jac = spine[-1]
        for _ in range(columns):
            jac = jac_double(curve, jac)
        spine.append(jac)
    combos: list[Jacobian] = []
    for pattern in range(1, 1 << _COMB_TEETH):
        acc: Jacobian = JAC_INFINITY
        for tooth in range(_COMB_TEETH):
            if (pattern >> tooth) & 1:
                acc = jac_add(curve, acc, spine[tooth])
        combos.append(acc)
    table = (columns, normalize_batch(curve, combos))
    _BASE_TABLES[curve] = table
    return table


def _mul_base_jac(k: int, curve: Curve) -> Jacobian:
    """Comb multiplication of the base point; result left in Jacobian.

    The caller normalizes — singly (:func:`mul_base`) or batched across
    many scalars (:func:`mul_base_batch`).  Requires ``1 <= k < n``.
    """
    columns, table = _base_table(curve)
    acc: Jacobian = JAC_INFINITY
    for col in range(columns - 1, -1, -1):
        acc = jac_double(curve, acc)
        pattern = 0
        for tooth in range(_COMB_TEETH):
            if (k >> (tooth * columns + col)) & 1:
                pattern |= 1 << tooth
        if pattern:
            acc = jac_add_mixed(curve, acc, table[pattern - 1])
    return acc


def mul_base(scalar: int, curve: Curve) -> Point:
    """Multiply the curve base point by a scalar (fixed-base comb, cached).

    Embedded libraries special-case base-point multiplication because the
    window table can live in flash; we model the same asymmetry by tracing
    a distinct ``ec.mul_base`` event.  The comb schedule needs only
    ``bits/teeth`` doublings per multiplication (vs. ``bits`` for a
    sliding window), which is what makes CA issuance bursts cheap.
    """
    k = scalar % curve.n
    if k == 0:
        return Point.infinity(curve)
    trace.record("ec.mul_base")
    return get_backend().ec_mul_base(curve, k)


def mul_base_batch(scalars, curve: Curve) -> list[Point]:
    """Base-point multiplication of many scalars with shared normalization.

    Computes ``[k*G for k in scalars]`` leaving every result in Jacobian
    coordinates, then converts the whole batch to affine with a single
    Montgomery-trick inversion (:func:`~repro.ec.point.normalize_batch`).
    Records one ``ec.mul_base`` event per non-zero scalar, exactly like
    the scalar-at-a-time path, so protocol cost traces are unchanged.
    """
    ks: list[int] = []
    for scalar in scalars:
        k = scalar % curve.n
        if k:
            trace.record("ec.mul_base")
        ks.append(k)
    return get_backend().ec_mul_base_batch(curve, ks)


def _mul_double_jac(
    u: int, p_point: Point, v: int, q_point: Point
) -> Jacobian:
    """Shared-double interleaved wNAF core of ``u*P + v*Q`` (Jacobian out).

    Both scalars walk their width-4 wNAF digits over one doubling chain,
    drawing odd multiples from the per-point tables — so a registered hot
    point (:func:`precompute_point`), or the automatically cached curve
    generator, contributes zero per-call precomputation.  Requires at
    least one scalar non-zero after reduction.
    """
    curve = p_point.curve
    table_p = _wnaf_table(p_point) if u and not p_point.is_infinity else None
    table_q = _wnaf_table(q_point) if v and not q_point.is_infinity else None
    digits_u = _wnaf(u, _WNAF_WIDTH) if table_p is not None else []
    digits_v = _wnaf(v, _WNAF_WIDTH) if table_q is not None else []
    acc: Jacobian = JAC_INFINITY
    for i in range(max(len(digits_u), len(digits_v)) - 1, -1, -1):
        acc = jac_double(curve, acc)
        if i < len(digits_u) and digits_u[i]:
            acc = _wnaf_accumulate(curve, acc, digits_u[i], table_p)
        if i < len(digits_v) and digits_v[i]:
            acc = _wnaf_accumulate(curve, acc, digits_v[i], table_q)
    return acc


def mul_double(u: int, p_point: Point, v: int, q_point: Point) -> Point:
    """Compute ``u*P + v*Q`` with interleaved wNAF on one doubling chain.

    Costs roughly 1.25 single multiplications instead of 2, which is why
    ECDSA verification (``u1*G + u2*Q``) and SCIANC's fused
    reconstruct-and-derive are cheaper than two independent multiplies.
    """
    if p_point.curve.name != q_point.curve.name:
        raise CurveError("mul_double requires points on the same curve")
    curve = p_point.curve
    u %= curve.n
    v %= curve.n
    if (u == 0 or p_point.is_infinity) and (v == 0 or q_point.is_infinity):
        return Point.infinity(curve)
    trace.record("ec.mul_double")
    return get_backend().ec_mul_double(curve, u, p_point, v, q_point)


def mul_double_check(terms, curve: Curve) -> list[bool]:
    """Whether each ``u*G + v*Q`` is finite with ``x mod n == r``.

    Args:
        terms: iterable of ``(u, v, q_point, r)`` tuples.
        curve: common domain parameters (every ``q_point`` must live on
            it; ``G`` is its generator).

    The last step of ECDSA verification as one yes/no question, so a
    backend may answer it without producing the point.  Scalars are
    reduced and degenerate terms answer ``False`` here, with one
    ``ec.mul_double`` event per non-degenerate term, exactly as
    :func:`mul_double` would record; only those terms reach
    :meth:`~repro.backend.CryptoBackend.ec_mul_double_check`, whose
    reference path evaluates them through one shared normalization.
    """
    reduced: list[tuple[int, int, Point, int] | None] = []
    for u, v, q_point, r in terms:
        if q_point.curve != curve:
            raise CurveError("mul_double_check requires points on one curve")
        u %= curve.n
        v %= curve.n
        if u == 0 and (v == 0 or q_point.is_infinity):
            reduced.append(None)
            continue
        trace.record("ec.mul_double")
        reduced.append((u, v, q_point, r))
    live = [term for term in reduced if term is not None]
    answers = iter(
        get_backend().ec_mul_double_check(curve, live) if live else ()
    )
    return [term is not None and next(answers) for term in reduced]


def mul_ladder(scalar: int, point: Point) -> Point:
    """Uniform double-and-add-always scalar multiplication.

    Executes an addition on every bit regardless of its value, mimicking the
    regular operation schedule of side-channel-hardened embedded code.  Used
    by tests as an independent oracle for the faster strategies.
    """
    curve = point.curve
    k = scalar % curve.n
    if k == 0 or point.is_infinity:
        return Point.infinity(curve)
    trace.record("ec.mul_point")
    r0: Jacobian = JAC_INFINITY
    r1: Jacobian = to_jacobian(point)
    for i in range(k.bit_length() - 1, -1, -1):
        if (k >> i) & 1:
            r0 = jac_add(curve, r0, r1)
            r1 = jac_double(curve, r1)
        else:
            r1 = jac_add(curve, r0, r1)
            r0 = jac_double(curve, r0)
    return from_jacobian(curve, r0)
