"""ECDSA signing and verification (SEC 1 §4.1, nonces per RFC 6979).

Signatures are the authentication backbone of both the paper's STS design
(Algorithms 1 and 2) and the static S-ECDSA baseline.  Verification uses a
Strauss–Shamir double multiplication (``u1*G + u2*Q``), the optimization
every embedded ECC library applies.

Trace events: ``ecdsa.sign`` / ``ecdsa.verify`` wrap the scalar
multiplications recorded by the EC layer.

Backend note: every scalar multiplication here dispatches through the
:mod:`repro.backend` EC seam — ``mul_base`` in signing, and in
verification :func:`~repro.ec.mul_double_check`, which asks only whether
``u1*G + u2*Q`` is finite with ``x mod n == r``.  The reference backend
computes the point and compares; the accelerated backend answers with
one OpenSSL ECDSA verification per signature.  Bytes, booleans and
traces are identical either way, and nothing in this module is
backend-aware.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import trace
from ..ec import Curve, Point, inverse_mod, mul_base, mul_double_check
from ..errors import SignatureError
from ..backend import HASH_INFO
from ..primitives import new_hash
from ..primitives.drbg import rfc6979_nonce
from ..utils import bytes_to_int, int_to_bytes


@dataclass(frozen=True)
class Signature:
    """An ECDSA signature ``(r, s)`` over ``curve``."""

    curve: Curve
    r: int
    s: int

    def __post_init__(self) -> None:
        if not (1 <= self.r < self.curve.n and 1 <= self.s < self.curve.n):
            raise SignatureError("signature components out of range")

    def to_bytes(self) -> bytes:
        """Fixed-width ``r || s`` encoding (64 bytes on secp256r1).

        This is the raw encoding the paper's Table II assumes for its
        64-byte ``Sign``/``Resp`` fields (as opposed to ASN.1 DER).
        """
        width = self.curve.scalar_bytes
        return int_to_bytes(self.r, width) + int_to_bytes(self.s, width)

    @classmethod
    def from_bytes(cls, curve: Curve, data: bytes) -> "Signature":
        """Parse a fixed-width ``r || s`` encoding."""
        width = curve.scalar_bytes
        if len(data) != 2 * width:
            raise SignatureError(
                f"signature must be {2 * width} bytes, got {len(data)}"
            )
        return cls(curve, bytes_to_int(data[:width]), bytes_to_int(data[width:]))

    @property
    def wire_size(self) -> int:
        """Size of :meth:`to_bytes` output."""
        return 2 * self.curve.scalar_bytes


def _hash_to_int(message_hash: bytes, n: int) -> int:
    """Convert a hash to an integer per SEC 1 (truncate to order bits)."""
    e = bytes_to_int(message_hash)
    excess = len(message_hash) * 8 - n.bit_length()
    if excess > 0:
        e >>= excess
    return e


def sign(
    curve: Curve,
    private_key: int,
    message: bytes,
    hash_name: str = "sha256",
    extra_entropy: bytes = b"",
) -> Signature:
    """Sign ``message`` with deterministic RFC 6979 nonces.

    Args:
        curve: domain parameters.
        private_key: scalar in ``[1, n-1]``.
        message: the raw message (hashed internally).
        hash_name: digest used both for the message and the nonce HMAC.
        extra_entropy: optional additional nonce entropy (RFC 6979 §3.6),
            used by tests to exercise distinct nonces for one message.
    """
    if not 1 <= private_key < curve.n:
        raise SignatureError("private key out of range")
    if hash_name not in HASH_INFO:
        raise SignatureError(f"unknown hash {hash_name!r}")
    trace.record("ecdsa.sign")
    message_hash = new_hash(hash_name, message).digest()
    e = _hash_to_int(message_hash, curve.n)
    attempt = 0
    while True:
        entropy = extra_entropy + (bytes([attempt]) if attempt else b"")
        k = rfc6979_nonce(private_key, message_hash, curve.n, hash_name, entropy)
        point = mul_base(k, curve)
        r = point.x % curve.n
        if r == 0:
            attempt += 1
            continue
        k_inv = inverse_mod(k, curve.n)
        s = (k_inv * (e + r * private_key)) % curve.n
        if s == 0:
            attempt += 1
            continue
        return Signature(curve, r, s)


def verify(
    public_key: Point,
    message: bytes,
    signature: Signature,
    hash_name: str = "sha256",
) -> bool:
    """Verify an ECDSA signature; returns True/False (never raises on bad sig).

    A batch of one: :func:`verify_batch` records the same events in the
    same order as a dedicated single-item path would.
    """
    return verify_batch([(public_key, message, signature)], hash_name)[0]


def verify_batch(
    items,
    hash_name: str = "sha256",
) -> list[bool]:
    """Verify many ECDSA signatures through one EC check call.

    Args:
        items: iterable of ``(public_key, message, signature)`` triples;
            all public keys must live on one curve.
        hash_name: digest for every message.

    Each verification still asks its own ``u1*G + u2*Q`` question — the
    asymptotic cost is unchanged and one ``ecdsa.verify`` event is
    recorded per item, exactly like calling :func:`verify` in a loop —
    but all of them go to :func:`~repro.ec.mul_double_check` at once.
    The reference backend shares one Montgomery-trick
    :func:`~repro.ec.batch_inverse` across the batch; the accelerated
    backend answers each item with one OpenSSL verification.  This is
    the CA-side win when a whole queue of enrollment-request signatures
    is authenticated at once.

    Returns a per-item list of booleans (malformed items verify False,
    mirroring :func:`verify`'s never-raises contract).
    """
    items = list(items)
    if not items:
        return []
    if hash_name not in HASH_INFO:
        raise SignatureError(f"unknown hash {hash_name!r}")
    results = [False] * len(items)
    terms = []
    indices: list[int] = []
    curve_name: str | None = None
    for index, (public_key, message, signature) in enumerate(items):
        curve = public_key.curve
        if curve_name is None:
            curve_name = curve.name
        elif curve.name != curve_name:
            raise SignatureError(
                "verify_batch requires all public keys on one curve"
            )
        if public_key.is_infinity or signature.curve.name != curve.name:
            continue
        trace.record("ecdsa.verify")
        message_hash = new_hash(hash_name, message).digest()
        e = _hash_to_int(message_hash, curve.n)
        try:
            s_inv = inverse_mod(signature.s, curve.n)
        except Exception:
            continue
        u1 = (e * s_inv) % curve.n
        u2 = (signature.r * s_inv) % curve.n
        terms.append((u1, u2, public_key, signature.r))
        indices.append(index)
    if terms:
        answers = mul_double_check(terms, terms[0][2].curve)
        for index, answer in zip(indices, answers):
            results[index] = answer
    return results


def verify_strict(
    public_key: Point,
    message: bytes,
    signature: Signature,
    hash_name: str = "sha256",
) -> None:
    """Like :func:`verify` but raises :class:`SignatureError` on failure."""
    if not verify(public_key, message, signature, hash_name):
        raise SignatureError("ECDSA signature verification failed")
