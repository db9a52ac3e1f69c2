"""OpenSSL elliptic-curve arithmetic for the ``accelerated`` backend.

:class:`OpenSslEcBackend` overrides five EC operations of
:class:`~repro.backend.base.CryptoBackend`.  Each answers through
OpenSSL (the optional ``cryptography`` package) on a curve whose
parameters match a curve OpenSSL also ships, and otherwise returns the
inherited reference result — so a custom curve, an OpenSSL build without
(say) Brainpool, or a host without ``cryptography`` runs the from-scratch
Jacobian code of :mod:`repro.ec.scalarmult`, nothing in between.

On a served curve:

* ``k*G`` comes straight from ``ec.derive_private_key(k).public_key()``
  — both affine coordinates, one C call;
* ``k*P`` for an arbitrary point uses two ECDH evaluations.  ECDH only
  exposes the *x* coordinate of the shared point, so the *y* coordinate
  of ``R = k*P`` is recovered algebraically from ``x(k*P)``,
  ``x((k+1)*P)`` and ``P`` with the Okeya–Sakurai y-recovery identity
  for short-Weierstrass curves::

      y_R = (2b + (a + x_P*x_R)(x_P + x_R) - x_S (x_P - x_R)^2) / (2 y_P)

  where ``S = (k+1)*P = R + P``.  One modular inversion, no square
  root, no sign ambiguity.  ``k in {1, n-1}`` (where ``S`` would
  degenerate or ``x_R == x_P``) short-circuits to ``±P``.
* ``u*P + v*Q`` decomposes into the two single multiplications above
  plus one untraced affine addition;
* the yes/no check "is ``u*G + v*Q`` finite with ``x mod n == r``?" is
  one ECDSA verification: with ``s' = r/v`` and ``e' = u*s'`` (mod
  ``n``), OpenSSL's verifier recomputes ``u1 = e'/s' = u`` and
  ``u2 = r/s' = v`` and answers exactly that question.  No point leaves
  OpenSSL, so there is nothing to re-validate; a wrong answer on honest
  traffic would abort an establishment and break the pinned digest of
  every run that verifies, so it cannot pass silently either.

``ec_mul_double_batch`` and ``ec_normalize_batch`` are inherited: the
batch's one caller is the check's reference path, which on a served
curve only sees the terms without a signature form.

Every point result is rebuilt as a :class:`~repro.ec.point.Point`, whose
constructor re-validates the curve equation — an incorrect C result or
recovery step fails loudly instead of corrupting a protocol run.

Nothing in this module records trace events: the scalar-multiplication
wrappers in :mod:`repro.ec.scalarmult` own the ``ec.mul_*`` accounting,
so trace streams are bit-identical across backends by construction.
Byte parity is automatic because affine coordinates of a group element
are unique; ``tests/backend/test_parity_fuzz.py`` locks both down over
edge scalars (``1, 2, n-2, n-1, n, n+1``) and random scalars on every
registered curve.
"""

from __future__ import annotations

from .base import CryptoBackend

try:  # EC offload is optional; the reference code covers its absence.
    from cryptography.exceptions import InvalidSignature as _InvalidSignature
    from cryptography.hazmat.primitives.asymmetric import ec as _x_ec
    from cryptography.hazmat.primitives.asymmetric.utils import (
        Prehashed as _Prehashed,
        encode_dss_signature as _encode_dss_signature,
    )
    from cryptography.hazmat.primitives.hashes import SHA512 as _SHA512

    #: The scheme :meth:`OpenSslEcBackend.ec_mul_double_check` verifies
    #: with: a 64-byte digest OpenSSL truncates to the order's bit length.
    _PREHASHED_ECDSA = _x_ec.ECDSA(_Prehashed(_SHA512()))
    OPENSSL_EC = True
except ImportError:  # pragma: no cover - exercised via the fallback tests
    _x_ec = None
    OPENSSL_EC = False

#: Our SEC/Brainpool curve names -> ``cryptography`` curve class names.
#: Only curves whose *full* parameters match the canonical registry entry
#: are ever offloaded (see :meth:`OpenSslEcBackend._curve_impl`).
_OPENSSL_CURVE_CLASSES = {
    "secp192r1": "SECP192R1",
    "secp224r1": "SECP224R1",
    "secp256r1": "SECP256R1",
    "secp256k1": "SECP256K1",
    "secp384r1": "SECP384R1",
    "brainpoolP256r1": "BrainpoolP256R1",
    "brainpoolP384r1": "BrainpoolP384R1",
}

#: Bound on cached OpenSSL public-key objects, so a long-lived process
#: multiplying many distinct points cannot grow the cache without bound
#: (FIFO eviction, like the wNAF table cache in :mod:`repro.ec.scalarmult`).
_PUB_CACHE_LIMIT = 256


class OpenSslEcBackend(CryptoBackend):
    """EC operations through OpenSSL where it serves the curve.

    Every other curve — and every curve when ``cryptography`` is not
    importable — gets the inherited reference result.
    """

    #: True when the optional ``cryptography`` package provides EC point
    #: math; without it every EC operation runs the reference code (and
    #: so does every curve unknown to the local OpenSSL build).
    ec_accelerated = OPENSSL_EC

    def __init__(self) -> None:
        # Per-instance caches die with the backend instance, so registry
        # resets in tests cannot leak state across backend generations.
        # Curve -> cryptography curve instance, or None (= reference).
        self._impls: dict = {}
        # (Curve, x, y) -> cached OpenSSL public-key object.
        self._pub_keys: dict = {}

    # -- OpenSSL plumbing ---------------------------------------------------

    def _curve_impl(self, curve):
        """The OpenSSL curve for ``curve``, or ``None`` for the reference.

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
            while len(self._pub_keys) >= _PUB_CACHE_LIMIT:
                self._pub_keys.pop(next(iter(self._pub_keys)))
            self._pub_keys[key] = cached
        return cached

    def _shared_x(self, impl, curve, k: int, point) -> int:
        """x coordinate of ``k*point`` via one ECDH evaluation."""
        private = _x_ec.derive_private_key(k, impl)
        shared = private.exchange(_x_ec.ECDH(), self._public_key(impl, curve, point))
        return int.from_bytes(shared, "big")

    def _term(self, curve, k: int, point):
        """One side of a double multiplication (may be degenerate)."""
        from ..ec.point import Point

        if k == 0 or point.is_infinity:
            return Point.infinity(curve)
        if point.x == curve.gx and point.y == curve.gy:
            return self.ec_mul_base(curve, k)
        return self.ec_mul(curve, k, point)

    # -- the EC seam ----------------------------------------------------------

    def ec_mul_base(self, curve, k: int):
        """``k*G`` through OpenSSL key derivation."""
        from ..ec.point import Point

        impl = self._curve_impl(curve)
        if impl is None:
            return super().ec_mul_base(curve, k)
        numbers = (
            _x_ec.derive_private_key(k, impl).public_key().public_numbers()
        )
        return Point(curve, numbers.x, numbers.y)

    def ec_mul(self, curve, k: int, point):
        """``k*P`` through ECDH x-coordinates + y-recovery."""
        from ..ec.point import Point

        impl = self._curve_impl(curve)
        # point.y == 0 would make the recovery denominator vanish; such
        # points cannot exist on the h=1 prime-order curves OpenSSL
        # handles, but the guard keeps the dispatch total.
        if impl is None or point.y == 0:
            return super().ec_mul(curve, k, point)
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

    def ec_mul_double(self, curve, u: int, p_point, v: int, q_point):
        """``u*P + v*Q`` from two OpenSSL multiplies + one addition."""
        if self._curve_impl(curve) is None:
            return super().ec_mul_double(curve, u, p_point, v, q_point)
        left = self._term(curve, u, p_point)
        return left._add_raw(self._term(curve, v, q_point))

    def ec_mul_base_batch(self, curve, ks: list) -> list:
        """Batched ``k*G`` (OpenSSL results need no normalization pass)."""
        from ..ec.point import Point

        if self._curve_impl(curve) is None:
            return super().ec_mul_base_batch(curve, ks)
        return [
            Point.infinity(curve) if k == 0 else self.ec_mul_base(curve, k)
            for k in ks
        ]

    def ec_mul_double_check(self, curve, terms: list) -> list:
        """One OpenSSL ECDSA verification per term that has a signature form.

        The terms that have none — ``v == 0``, ``Q`` at infinity or ``r``
        outside ``[1, n-1]`` — go through one reference call together.
        """
        impl = self._curve_impl(curve)
        if impl is None:
            return super().ec_mul_double_check(curve, terms)
        n = curve.n
        shift = 512 - n.bit_length()
        answers, rest = [], []
        for term in terms:
            u, v, q_point, r = term
            if not v or q_point.is_infinity or not 0 < r < n:
                answers.append(None)
                rest.append(term)
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
        if rest:
            fallback = iter(super().ec_mul_double_check(curve, rest))
            answers = [
                next(fallback) if answer is None else answer
                for answer in answers
            ]
        return answers

    def describe(self) -> dict:
        """The base description plus this backend's EC implementation."""
        if OPENSSL_EC:
            ec = (
                "cryptography (OpenSSL scalar mult; ECDH x-coordinates +"
                " Okeya-Sakurai y-recovery for arbitrary points;"
                " ECDSA verify for the u*G + v*Q check;"
                " reference code for curves OpenSSL does not serve)"
            )
        else:
            ec = (
                "reference: from-scratch Jacobian wNAF/comb (pure Python;"
                " cryptography not importable)"
            )
        return {**super().describe(), "ec": ec}
