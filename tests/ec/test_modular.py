"""Tests for modular arithmetic: egcd, inversion, square roots, primality."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.ec.modular import (
    crt_pair,
    egcd,
    inverse_mod,
    is_probable_prime,
    legendre_symbol,
    sqrt_mod,
)
from repro import trace
from repro.errors import MathError, NonResidueError, NotInvertibleError

P256 = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
P192 = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFFFFFFFFFFFF
#: secp224r1's field prime: p ≡ 1 (mod 2^96), so its square roots still
#: take Tonelli–Shanks.
P224 = 2**224 - 2**96 + 1
SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 101, 257, 65537]


def _first_non_residue(p: int) -> int:
    z = 2
    while legendre_symbol(z, p) != -1:
        z += 1
    return z


class TestEgcd:
    def test_coprime(self):
        g, x, y = egcd(240, 46)
        assert g == 2
        assert 240 * x + 46 * y == 2

    def test_identity_with_zero(self):
        assert egcd(7, 0)[0] == 7
        assert egcd(0, 7)[0] == 7

    @given(st.integers(1, 10**12), st.integers(1, 10**12))
    def test_bezout_identity(self, a, b):
        g, x, y = egcd(a, b)
        assert a * x + b * y == g
        assert a % g == 0 and b % g == 0


class TestInverseMod:
    def test_known_inverse(self):
        assert inverse_mod(3, 7) == 5

    def test_inverse_of_one(self):
        assert inverse_mod(1, P256) == 1

    def test_zero_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            inverse_mod(0, 17)

    def test_noncoprime_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            inverse_mod(6, 9)

    def test_bad_modulus(self):
        with pytest.raises(MathError):
            inverse_mod(1, 1)

    @given(st.integers(1, P256 - 1))
    @settings(max_examples=50)
    def test_inverse_roundtrip_p256(self, a):
        assert (a * inverse_mod(a, P256)) % P256 == 1

    def test_matches_builtin_pow(self):
        for a in (2, 3, 12345, P256 - 2):
            assert inverse_mod(a, P256) == pow(a, -1, P256)


class TestLegendreSymbol:
    def test_zero(self):
        assert legendre_symbol(0, 7) == 0
        assert legendre_symbol(14, 7) == 0

    def test_residues_mod_7(self):
        # squares mod 7: 1, 2, 4
        assert legendre_symbol(1, 7) == 1
        assert legendre_symbol(2, 7) == 1
        assert legendre_symbol(4, 7) == 1
        assert legendre_symbol(3, 7) == -1
        assert legendre_symbol(5, 7) == -1

    @given(st.integers(1, P256 - 1))
    @settings(max_examples=30)
    def test_squares_are_residues(self, a):
        assert legendre_symbol(a * a % P256, P256) == 1


class TestSqrtMod:
    def test_sqrt_of_zero(self):
        assert sqrt_mod(0, 7) == 0

    @pytest.mark.parametrize("p", SMALL_PRIMES)
    def test_all_squares_small_primes(self, p):
        for a in range(1, p):
            square = a * a % p
            root = sqrt_mod(square, p)
            assert root * root % p == square

    def test_non_residue_raises(self):
        with pytest.raises(NonResidueError):
            sqrt_mod(3, 7)

    @given(st.integers(1, P256 - 1))
    @settings(max_examples=30)
    def test_p256_shortcut_path(self, a):
        # p ≡ 3 (mod 4): fast exponent path
        square = a * a % P256
        root = sqrt_mod(square, P256)
        assert root * root % P256 == square

    def test_tonelli_shanks_path(self):
        # p ≡ 1 (mod 4) exercises the general algorithm.
        p = 13  # 13 % 4 == 1
        for a in range(1, p):
            square = a * a % p
            root = sqrt_mod(square, p)
            assert root * root % p == square

    def test_tonelli_shanks_large(self):
        p = 2**255 - 19  # ≡ 5 (mod 8), forces the general path
        a = 123456789
        square = a * a % p
        root = sqrt_mod(square, p)
        assert root * root % p == square


class TestFastPathsMatchFormulas:
    """``inverse_mod``/``sqrt_mod`` against the egcd and Legendre formulas."""

    @given(st.integers(-(2**300), 2**300), st.integers(2, 2**260))
    @settings(max_examples=200)
    def test_inverse_matches_egcd(self, a, m):
        g, x, _ = egcd(a % m, m)
        with trace.trace() as cost:
            if g == 1:
                assert inverse_mod(a, m) == x % m
            else:
                with pytest.raises(NotInvertibleError):
                    inverse_mod(a, m)
        assert cost.as_dict() == ({"mod.inv": 1} if g == 1 else {})

    @given(
        st.integers(2, 2**128), st.integers(1, 2**128), st.integers(2, 2**128)
    )
    @settings(max_examples=50)
    def test_non_invertible_names_the_gcd(self, g, a, b):
        m = g * b
        if (g * a) % m == 0:
            return  # the zero residue has its own message
        gcd = egcd(g * a % m, m)[0]
        with pytest.raises(NotInvertibleError, match=f"gcd={gcd}\\)"):
            inverse_mod(g * a, m)

    @pytest.mark.parametrize("p", [P256, P224])
    @given(x=st.integers(1, 2**256), residue=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_sqrt_matches_legendre(self, p, x, residue):
        square = x * x % p
        a = square if residue else _first_non_residue(p) * square % p
        if legendre_symbol(a, p) == -1:
            with pytest.raises(NonResidueError):
                sqrt_mod(a, p)
            return
        root = sqrt_mod(a, p)
        assert root * root % p == a % p
        if p % 4 == 3:
            # The same root the Legendre-then-exponentiate path returned.
            assert root == pow(a, (p + 1) // 4, p)


class TestCrt:
    def test_simple(self):
        r, m = crt_pair(2, 3, 3, 5)
        assert m == 15
        assert r % 3 == 2 and r % 5 == 3

    def test_non_coprime_raises(self):
        with pytest.raises(MathError):
            crt_pair(1, 6, 2, 9)

    @given(st.integers(0, 10**6), st.integers(0, 10**6))
    @settings(max_examples=30)
    def test_reconstruction(self, r1, r2):
        m1, m2 = 10007, 10009  # coprime primes
        r, m = crt_pair(r1 % m1, m1, r2 % m2, m2)
        assert r % m1 == r1 % m1
        assert r % m2 == r2 % m2
        assert 0 <= r < m


class TestPrimality:
    @pytest.mark.parametrize("p", SMALL_PRIMES + [P192, P256])
    def test_primes(self, p):
        assert is_probable_prime(p)

    @pytest.mark.parametrize(
        "n", [0, 1, 4, 9, 100, 561, 41041, P256 - 1, P256 + 1]
    )
    def test_composites(self, n):
        assert not is_probable_prime(n)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must not fool Miller-Rabin.
        for carmichael in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_probable_prime(carmichael)
