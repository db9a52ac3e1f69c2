"""Accelerated elliptic-curve arithmetic for the ``accelerated`` backend.

Two speed tiers, selected per curve with graceful fallback:

1. **OpenSSL point math** (optional ``cryptography`` package), for the
   named curves whose parameters match a curve OpenSSL also ships:

   * ``k*G`` comes straight from ``ec.derive_private_key(k).public_key()``
     — both affine coordinates, one C call;
   * ``k*P`` for an arbitrary point uses two ECDH evaluations.  ECDH
     only exposes the *x* coordinate of the shared point, so the *y*
     coordinate of ``R = k*P`` is recovered algebraically from
     ``x(k*P)``, ``x((k+1)*P)`` and ``P`` with the Okeya–Sakurai
     y-recovery identity for short-Weierstrass curves::

         y_R = (2b + (a + x_P*x_R)(x_P + x_R) - x_S (x_P - x_R)^2) / (2 y_P)

     where ``S = (k+1)*P = R + P``.  One modular inversion, no square
     root, no sign ambiguity.  ``k in {1, n-1}`` (where ``S`` would
     degenerate or ``x_R == x_P``) short-circuits to ``±P``.
   * ``u*P + v*Q`` decomposes into the two single multiplications above
     plus one untraced affine addition;
   * the yes/no check "is ``u*G + v*Q`` finite with ``x mod n == r``?"
     is one ECDSA verification: with ``s' = r/v`` and ``e' = u*s'``
     (mod ``n``), OpenSSL's verifier recomputes ``u1 = e'/s' = u`` and
     ``u2 = r/s' = v`` and answers exactly that question.  No point
     leaves OpenSSL, so there is nothing to re-validate; a wrong answer
     on honest traffic would abort an establishment and break the
     pinned digest of every run that verifies, so it cannot pass
     silently either.

   Every result is rebuilt as a :class:`~repro.ec.point.Point`, whose
   constructor re-validates the curve equation — an incorrect C result
   or recovery step fails loudly instead of corrupting a protocol run.

2. **Pure-Python affine-window fallback** for unknown/custom curves or
   when ``cryptography`` is not importable: fixed-base multiplication
   uses a *wider* comb (8 teeth instead of the reference 4 — an eighth
   of the doublings per multiplication, with the 255-entry affine table
   normalized through one shared-Z batch inversion), while arbitrary-
   point and double multiplications fall back to the reference
   wNAF code, which is already the fastest pure-Python schedule here.

Nothing in this module records trace events: the scalar-multiplication
wrappers in :mod:`repro.ec.scalarmult` own the ``ec.mul_*`` accounting,
so trace streams are bit-identical across backends by construction.
Byte parity is automatic because affine coordinates of a group element
are unique; ``tests/backend/test_parity_fuzz.py`` locks both down over
edge scalars (``1, 2, n-2, n-1, n, n+1``) and random scalars on every
registered curve.
"""

from __future__ import annotations

try:  # EC offload is optional; the pure-Python fallback covers its absence.
    from cryptography.exceptions import InvalidSignature as _InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ec as _x_ec
    from cryptography.hazmat.primitives.asymmetric.utils import (
        Prehashed as _Prehashed,
        encode_dss_signature as _encode_dss_signature,
    )
    from cryptography.hazmat.primitives.hashes import SHA512 as _SHA512

    #: The verification scheme of :meth:`AcceleratedEc.mul_double_check`:
    #: a 64-byte digest that OpenSSL truncates to the order's bit length.
    _PREHASHED_ECDSA = _x_ec.ECDSA(_Prehashed(_SHA512()))
    OPENSSL_EC = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _x_ec = None
    OPENSSL_EC = False

#: Our SEC/Brainpool curve names -> ``cryptography`` curve class names.
#: Only curves whose *full* parameters match the canonical registry entry
#: are ever offloaded (see :meth:`AcceleratedEc._curve_impl`).
_OPENSSL_CURVE_CLASSES = {
    "secp192r1": "SECP192R1",
    "secp224r1": "SECP224R1",
    "secp256r1": "SECP256R1",
    "secp256k1": "SECP256K1",
    "secp384r1": "SECP384R1",
    "brainpoolP256r1": "BrainpoolP256R1",
    "brainpoolP384r1": "BrainpoolP384R1",
}

#: Comb teeth of the pure-Python fallback (reference uses 4): twice the
#: teeth means half the doublings and half the window additions per
#: multiplication, paid for by a 2^8 - 1 = 255-entry per-curve table.
_FALLBACK_TEETH = 8

#: Bound on cached OpenSSL public-key objects / fallback comb tables, so
#: a long-lived process multiplying many distinct points cannot grow
#: either cache without bound (FIFO eviction, like the wNAF table cache
#: in :mod:`repro.ec.scalarmult`).
_PUB_CACHE_LIMIT = 256
_COMB_CACHE_LIMIT = 16


def _bounded_insert(cache: dict, limit: int, key, value) -> None:
    """Insert into a FIFO-bounded cache (dict insertion order)."""
    while len(cache) >= limit:
        cache.pop(next(iter(cache)))
    cache[key] = value


class AcceleratedEc:
    """Per-backend EC engine: OpenSSL when it matches, fast comb otherwise."""

    def __init__(self) -> None:
        # Curve -> cryptography curve instance, or None (= fall back).
        self._impls: dict = {}
        # (Curve, x, y) -> cached OpenSSL public-key object.
        self._pub_keys: dict = {}
        # Curve -> (columns, affine table) for the wide fallback comb.
        self._comb_tables: dict = {}

    # -- OpenSSL plumbing ---------------------------------------------------

    def _curve_impl(self, curve):
        """The OpenSSL curve for ``curve``, or ``None`` to fall back.

        A curve is offloaded only when its **full parameters** equal the
        canonical registry entry of the same name (the aliasing
        discipline every EC cache in this codebase follows) *and* a
        probe multiplication reproduces the generator — so an OpenSSL
        build without (say) Brainpool support degrades per curve instead
        of failing.
        """
        try:
            return self._impls[curve]
        except KeyError:
            pass
        impl = None
        if OPENSSL_EC:
            from ..ec.curve import CURVES

            class_name = _OPENSSL_CURVE_CLASSES.get(curve.name)
            if class_name is not None and CURVES.get(curve.name) == curve:
                candidate = getattr(_x_ec, class_name, None)
                if candidate is not None:
                    try:
                        numbers = (
                            _x_ec.derive_private_key(1, candidate())
                            .public_key()
                            .public_numbers()
                        )
                        if (numbers.x, numbers.y) == (curve.gx, curve.gy):
                            impl = candidate()
                    except Exception:
                        impl = None
        self._impls[curve] = impl
        return impl

    def _public_key(self, impl, curve, point):
        """OpenSSL public-key object for an affine point (cached)."""
        key = (curve, point.x, point.y)
        cached = self._pub_keys.get(key)
        if cached is None:
            cached = _x_ec.EllipticCurvePublicNumbers(
                point.x, point.y, impl
            ).public_key()
            _bounded_insert(self._pub_keys, _PUB_CACHE_LIMIT, key, cached)
        return cached

    def _shared_x(self, impl, curve, k: int, point) -> int:
        """x coordinate of ``k*point`` via one ECDH evaluation."""
        private = _x_ec.derive_private_key(k, impl)
        shared = private.exchange(_x_ec.ECDH(), self._public_key(impl, curve, point))
        return int.from_bytes(shared, "big")

    # -- backend-facing operations ------------------------------------------

    def mul_base(self, curve, k: int):
        """``k*G`` for ``1 <= k < n``."""
        from ..ec.point import Point, from_jacobian

        impl = self._curve_impl(curve)
        if impl is None:
            return from_jacobian(curve, self._comb_mul_base_jac(curve, k))
        numbers = (
            _x_ec.derive_private_key(k, impl).public_key().public_numbers()
        )
        return Point(curve, numbers.x, numbers.y)

    def mul(self, curve, k: int, point):
        """``k*P`` for ``1 <= k < n`` and non-infinity ``P``."""
        from ..ec.point import Point
        from ..ec.scalarmult import _mul_wnaf_untraced

        impl = self._curve_impl(curve)
        # point.y == 0 would make the recovery denominator vanish; such
        # points cannot exist on the h=1 prime-order curves OpenSSL
        # handles, but the guard keeps the dispatch total.
        if impl is None or point.y == 0:
            return _mul_wnaf_untraced(k, point)
        if k == 1:
            return point
        if k == curve.n - 1:
            return -point
        x_r = self._shared_x(impl, curve, k, point)
        x_s = self._shared_x(impl, curve, k + 1, point)
        p = curve.p
        diff = point.x - x_r
        numerator = (
            2 * curve.b
            + (curve.a + point.x * x_r) * (point.x + x_r)
            - x_s * diff * diff
        ) % p
        y_r = numerator * pow(2 * point.y, -1, p) % p
        return Point(curve, x_r, y_r)

    def mul_double(self, curve, u: int, p_point, v: int, q_point):
        """``u*P + v*Q``, not both terms degenerate."""
        from ..ec.point import from_jacobian
        from ..ec.scalarmult import _mul_double_jac

        impl = self._curve_impl(curve)
        if impl is None:
            return from_jacobian(curve, _mul_double_jac(u, p_point, v, q_point))
        left = self._term(curve, u, p_point)
        right = self._term(curve, v, q_point)
        return left._add_raw(right)

    def mul_double_check(self, curve, terms: list) -> list:
        """OpenSSL's answer to each ``(u, v, Q, r)`` check, or ``None``.

        ``None`` marks a term OpenSSL cannot phrase as a signature —
        ``v == 0``, ``Q`` at infinity or ``r`` outside ``[1, n-1]`` —
        and every term on a curve it does not serve; the backend sends
        those down the default path.
        """
        impl = self._curve_impl(curve)
        if impl is None:
            return [None] * len(terms)
        n = curve.n
        shift = 512 - n.bit_length()
        answers = []
        for u, v, q_point, r in terms:
            if not v or q_point.is_infinity or not 0 < r < n:
                answers.append(None)
                continue
            s = r * pow(v, -1, n) % n
            digest = ((u * s % n) << shift).to_bytes(64, "big")
            try:
                self._public_key(impl, curve, q_point).verify(
                    _encode_dss_signature(r, s), digest, _PREHASHED_ECDSA
                )
            except _InvalidSignature:
                answers.append(False)
            else:
                answers.append(True)
        return answers

    def _term(self, curve, k: int, point):
        """One side of a double multiplication (may be degenerate)."""
        from ..ec.point import Point

        if k == 0 or point.is_infinity:
            return Point.infinity(curve)
        if point.x == curve.gx and point.y == curve.gy:
            return self.mul_base(curve, k)
        return self.mul(curve, k, point)

    def mul_base_batch(self, curve, ks: list) -> list:
        """``[k*G for k in ks]``; zeros map to infinity."""
        from ..ec.point import JAC_INFINITY, Point, normalize_batch

        impl = self._curve_impl(curve)
        if impl is not None:
            # OpenSSL results are already affine — no normalization pass.
            return [
                Point.infinity(curve) if k == 0 else self.mul_base(curve, k)
                for k in ks
            ]
        jacs = [
            JAC_INFINITY if k == 0 else self._comb_mul_base_jac(curve, k)
            for k in ks
        ]
        return normalize_batch(curve, jacs)

    def mul_double_batch(self, curve, terms: list) -> list:
        """Many ``u*P + v*Q`` terms; ``None`` entries are degenerate."""
        from ..ec.point import JAC_INFINITY, Point, normalize_batch
        from ..ec.scalarmult import _mul_double_jac

        impl = self._curve_impl(curve)
        if impl is not None:
            return [
                Point.infinity(curve)
                if term is None
                else self.mul_double(curve, *term)
                for term in terms
            ]
        jacs = [
            JAC_INFINITY if term is None else _mul_double_jac(*term)
            for term in terms
        ]
        return normalize_batch(curve, jacs)

    # -- pure-Python affine-window fallback ----------------------------------

    def _comb_table(self, curve):
        """Wide-comb precomputation for ``curve`` (cached, bounded).

        Same construction as the reference 4-tooth comb
        (:func:`repro.ec.scalarmult._base_table`) with 8 teeth: the
        255 tooth combinations are accumulated in Jacobian coordinates
        and normalized together through one shared batch inversion.
        """
        cached = self._comb_tables.get(curve)
        if cached is not None:
            return cached
        from ..ec.point import (
            JAC_INFINITY,
            jac_add,
            jac_double,
            normalize_batch,
            to_jacobian,
        )

        columns = -(-curve.n.bit_length() // _FALLBACK_TEETH)
        spine = [to_jacobian(curve.generator)]
        for _ in range(_FALLBACK_TEETH - 1):
            jac = spine[-1]
            for _ in range(columns):
                jac = jac_double(curve, jac)
            spine.append(jac)
        combos = []
        for pattern in range(1, 1 << _FALLBACK_TEETH):
            acc = JAC_INFINITY
            for tooth in range(_FALLBACK_TEETH):
                if (pattern >> tooth) & 1:
                    acc = jac_add(curve, acc, spine[tooth])
            combos.append(acc)
        table = (columns, normalize_batch(curve, combos))
        _bounded_insert(self._comb_tables, _COMB_CACHE_LIMIT, curve, table)
        return table

    def _comb_mul_base_jac(self, curve, k: int):
        """Wide-comb ``k*G`` left in Jacobian coordinates (``1 <= k < n``)."""
        from ..ec.point import JAC_INFINITY, jac_add_mixed, jac_double

        columns, table = self._comb_table(curve)
        acc = JAC_INFINITY
        for col in range(columns - 1, -1, -1):
            acc = jac_double(curve, acc)
            pattern = 0
            for tooth in range(_FALLBACK_TEETH):
                if (k >> (tooth * columns + col)) & 1:
                    pattern |= 1 << tooth
            if pattern:
                acc = jac_add_mixed(curve, acc, table[pattern - 1])
        return acc

    def describe(self) -> str:
        """One-line implementation summary for ``describe()`` cells."""
        if OPENSSL_EC:
            return (
                "cryptography (OpenSSL scalar mult; ECDH x-coordinates +"
                " Okeya-Sakurai y-recovery for arbitrary points;"
                " ECDSA verify for the u*G + v*Q check;"
                " wide-comb fallback for non-OpenSSL curves)"
            )
        return (
            "pure-Python affine-window fallback (8-tooth comb, shared-Z"
            " batch normalization; cryptography not importable)"
        )
