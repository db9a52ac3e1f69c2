"""Elliptic-curve arithmetic substrate (from scratch).

Public surface:

* :class:`Curve` and the SEC 2 named curves (``SECP256R1`` etc.),
* :class:`Point` with affine arithmetic and operator overloads,
* scalar multiplication strategies (:func:`mul_base`, :func:`mul_point`,
  :func:`mul_double`, :func:`mul_ladder`) plus the batch-optimized
  :func:`mul_base_batch`, and the ECDSA-verification check
  :func:`mul_double_check` (a batch of yes/no double multiplications),
* SEC 1 point encoding (:func:`encode_point`, :func:`decode_point`),
* modular helpers (:func:`inverse_mod`, :func:`sqrt_mod`,
  :func:`batch_inverse`),
* batched Jacobian→affine conversion (:func:`normalize_batch`).

"From scratch" describes the reference implementation, which stays the
default: the scalar-multiplication wrappers additionally dispatch their
non-degenerate cores through the pluggable backend seam
(:mod:`repro.backend`), so ``use_backend("accelerated")`` swaps in
OpenSSL point math on the curves OpenSSL serves, with bit-identical
points and trace events, and keeps this code for every other curve.
"""

from .curve import (
    BRAINPOOLP256R1,
    BRAINPOOLP384R1,
    CURVES,
    CURVE_IDS,
    Curve,
    SECP192R1,
    SECP224R1,
    SECP256K1,
    SECP256R1,
    SECP384R1,
    curve_by_id,
    curve_id,
    get_curve,
)
from .encoding import decode_point, encode_point, point_size
from .modular import (
    batch_inverse,
    egcd,
    inverse_mod,
    is_probable_prime,
    legendre_symbol,
    sqrt_mod,
)
from .point import Point, normalize_batch
from .scalarmult import (
    clear_point_tables,
    mul_base,
    mul_base_batch,
    mul_double,
    mul_double_check,
    mul_ladder,
    mul_point,
    precompute_point,
)

__all__ = [
    "BRAINPOOLP256R1",
    "BRAINPOOLP384R1",
    "CURVES",
    "CURVE_IDS",
    "Curve",
    "Point",
    "SECP192R1",
    "SECP224R1",
    "SECP256K1",
    "SECP256R1",
    "SECP384R1",
    "batch_inverse",
    "clear_point_tables",
    "curve_by_id",
    "curve_id",
    "decode_point",
    "egcd",
    "encode_point",
    "get_curve",
    "inverse_mod",
    "is_probable_prime",
    "legendre_symbol",
    "mul_base",
    "mul_base_batch",
    "mul_double",
    "mul_double_check",
    "mul_ladder",
    "mul_point",
    "normalize_batch",
    "point_size",
    "precompute_point",
    "sqrt_mod",
]
