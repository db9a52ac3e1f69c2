"""Modular arithmetic over prime fields.

Inversion runs on Python's built-in ``pow(a, -1, m)`` wrapped in explicit
range checks, typed errors and tracing: a stand-alone modular inversion is
one of the priced events in the hardware cost model (``mod.inv``).  Square
roots take one exponentiation for ``p ≡ 3 (mod 4)`` (every registered
curve but secp224r1) and Tonelli–Shanks otherwise.  :func:`egcd` and
:func:`legendre_symbol` stay as the textbook formulas the tests check
these fast paths against.
"""

from __future__ import annotations

import math

from ..errors import MathError, NonResidueError, NotInvertibleError
from .. import trace


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` with ``g = gcd(a, b)`` and ``a*x + b*y == g``.
    Iterative formulation to avoid Python recursion limits on large inputs.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_mod(a: int, m: int) -> int:
    """Return the multiplicative inverse of ``a`` modulo ``m``.

    Raises:
        NotInvertibleError: if ``gcd(a, m) != 1`` (includes ``a == 0``).
    """
    if m <= 1:
        raise MathError(f"modulus must be > 1, got {m}")
    a %= m
    if a == 0:
        raise NotInvertibleError(f"0 has no inverse modulo {m}")
    try:
        inverse = pow(a, -1, m)
    except ValueError:
        raise NotInvertibleError(
            f"{a} is not invertible modulo {m} (gcd={math.gcd(a, m)})"
        ) from None
    trace.record("mod.inv")
    return inverse


def batch_inverse_untraced(values: list[int], m: int) -> list[int]:
    """Montgomery-trick simultaneous inversion without tracing or checks.

    Inverts ``len(values)`` elements with a *single* real inversion plus
    ``3*(len(values)-1)`` modular multiplications.  Inputs must be non-zero
    modulo ``m``; a non-invertible element surfaces as :class:`ValueError`
    from :func:`pow`.  Internal hot path — callers wanting validation,
    typed errors and cost tracing use :func:`batch_inverse`.
    """
    count = len(values)
    if count == 0:
        return []
    prefix: list[int] = []
    acc = 1
    for v in values:
        acc = acc * v % m
        prefix.append(acc)
    inv = pow(acc, -1, m)
    out = [0] * count
    for i in range(count - 1, 0, -1):
        out[i] = inv * prefix[i - 1] % m
        inv = inv * values[i] % m
    out[0] = inv % m
    return out


def batch_inverse(values, m: int) -> list[int]:
    """Simultaneous modular inversion of many elements (Montgomery's trick).

    Computes ``[v^-1 mod m for v in values]`` using one real inversion and
    three multiplications per element — the batching primitive behind
    fleet-scale Jacobian normalization.  Records a single ``mod.inv`` trace
    event regardless of batch size, which is exactly the hardware-model
    price of the trick.

    Raises:
        NotInvertibleError: if any element is not invertible modulo ``m``
            (the message identifies the first offending index).
    """
    if m <= 1:
        raise MathError(f"modulus must be > 1, got {m}")
    residues = [v % m for v in values]
    if not residues:
        return []
    for i, r in enumerate(residues):
        if r == 0:
            raise NotInvertibleError(
                f"element {i}: 0 has no inverse modulo {m}"
            )
    try:
        out = batch_inverse_untraced(residues, m)
    except ValueError:
        for i, r in enumerate(residues):
            if egcd(r, m)[0] != 1:
                raise NotInvertibleError(
                    f"element {i} ({r}) is not invertible modulo {m}"
                ) from None
        raise  # pragma: no cover - every failure has an offending element
    trace.record("mod.inv")
    return out


def legendre_symbol(a: int, p: int) -> int:
    """Legendre symbol ``(a/p)`` for an odd prime ``p``.

    Returns 1 if ``a`` is a non-zero quadratic residue mod ``p``, -1 if it is
    a non-residue and 0 if ``a ≡ 0 (mod p)``.
    """
    a %= p
    if a == 0:
        return 0
    ls = pow(a, (p - 1) // 2, p)
    return -1 if ls == p - 1 else 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of ``a`` modulo an odd prime ``p``.

    For ``p ≡ 3 (mod 4)`` (every registered curve but secp224r1) the
    candidate ``a^((p+1)/4)`` is a root exactly when ``a`` is a residue, so
    one exponentiation plus a squaring check replaces a separate Legendre
    test; other primes fall back to Tonelli–Shanks.  The returned root
    ``r`` satisfies ``r*r ≡ a (mod p)``; the caller picks the root parity
    it needs (relevant for SEC 1 point decompression).

    Raises:
        NonResidueError: if ``a`` is a quadratic non-residue mod ``p``.
    """
    a %= p
    if a == 0:
        return 0
    if p % 4 == 3:
        root = pow(a, (p + 1) // 4, p)
        if root * root % p != a:
            raise NonResidueError(
                f"{a:#x} is not a quadratic residue mod {p:#x}"
            )
        return root
    if legendre_symbol(a, p) != 1:
        raise NonResidueError(f"{a:#x} is not a quadratic residue mod {p:#x}")
    # Tonelli-Shanks: factor p-1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # Find a non-residue z.
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        # Find least i, 0 < i < m, with t^(2^i) == 1.
        i = 0
        t2i = t
        while t2i != 1:
            t2i = (t2i * t2i) % p
            i += 1
            if i == m:
                raise NonResidueError(
                    f"Tonelli-Shanks failed for a={a:#x}, p={p:#x}"
                )
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = (b * b) % p
        t = (t * c) % p
        r = (r * b) % p
    return r


def crt_pair(r1: int, m1: int, r2: int, m2: int) -> tuple[int, int]:
    """Chinese remainder theorem for two coprime moduli.

    Returns ``(r, m1*m2)`` with ``r ≡ r1 (mod m1)`` and ``r ≡ r2 (mod m2)``.
    """
    g, p, _ = egcd(m1, m2)
    if g != 1:
        raise MathError(f"moduli {m1} and {m2} are not coprime (gcd={g})")
    lcm = m1 * m2
    diff = (r2 - r1) % m2
    r = (r1 + m1 * ((diff * p) % m2)) % lcm
    return r, lcm


def is_probable_prime(n: int, rounds: int = 24) -> bool:
    """Deterministic-for-our-sizes Miller–Rabin primality test.

    Used by tests and parameter validation; the fixed witness schedule is
    deterministic so results are reproducible.
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for sp in small_primes:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    # Fixed pseudo-random witnesses derived from n keep this deterministic.
    witnesses = [(2 + 3 * i * i + (n % (i + 5))) % (n - 3) + 2 for i in range(rounds)]
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True
