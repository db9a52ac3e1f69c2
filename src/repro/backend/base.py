"""Backend contract: the seam between *what* is computed and *how*.

Every symmetric/hash primitive in :mod:`repro.primitives` — and, since
the EC extension of the seam, every scalar multiplication in
:mod:`repro.ec.scalarmult` — dispatches its heavy lifting through a
:class:`CryptoBackend`.  Two things are fixed by this module and
therefore identical across backends:

1. **Bytes.**  Both backends implement the same FIPS functions, so every
   digest, tag, keystream and ciphertext is bit-identical.  The
   hypothesis fuzz suite (``tests/backend/test_parity_fuzz.py``) locks
   this down over random inputs.
2. **Trace events.**  The hardware cost model prices *counted primitive
   events* (``sha2.block``, ``aes.block``, ``hmac.call``, ...), not host
   wall-clock.  The reference backend emits one event per actual
   compression; an accelerated backend cannot observe individual
   compressions inside ``hashlib``/OpenSSL, so it computes the exact
   same counts **analytically** from message lengths using the helpers
   below.  Because :class:`repro.trace.CostTrace` is a pure counter and
   no trace scope can open or close in the middle of a primitive call,
   emitting ``n`` events in one :func:`repro.trace.record` call is
   indistinguishable from ``n`` single-event calls — which is what makes
   every fleet digest bit-identical under both backends.

The analytic accounting mirrors FIPS 180-4 padding: a message of ``L``
bytes is padded with ``0x80``, zero bytes and a ``length_bytes``-byte
bit-length field up to a whole number of ``block_size``-byte blocks.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HashInfo:
    """Backend-independent metadata of one SHA-2 family member.

    Attributes:
        name: canonical lowercase name (``sha256`` ...).
        block_size: compression-function input size in bytes (64/128).
        digest_size: output size in bytes after truncation.
        length_bytes: size of the FIPS 180-4 message-length field
            appended by the padding (8 for 64-byte blocks, 16 for
            128-byte blocks).
    """

    name: str
    block_size: int
    digest_size: int
    length_bytes: int


#: The four supported hashes.  This table is the single source of truth
#: for block/digest geometry; both backends and every primitive that
#: only needs metadata (HKDF, DRBG, RFC 6979) read it instead of
#: touching a concrete implementation.
HASH_INFO: dict[str, HashInfo] = {
    "sha224": HashInfo("sha224", 64, 28, 8),
    "sha256": HashInfo("sha256", 64, 32, 8),
    "sha384": HashInfo("sha384", 128, 48, 16),
    "sha512": HashInfo("sha512", 128, 64, 16),
}


def compression_blocks(message_len: int, info: HashInfo) -> int:
    """Compressions needed to hash an ``message_len``-byte message.

    FIPS 180-4 padding appends ``0x80``, zeros and the bit-length field,
    so the padded message spans ``(message_len + length_bytes) //
    block_size + 1`` blocks.  This is exactly how many ``sha2.block``
    events the reference implementation records for a one-shot hash.
    Given the not-yet-compressed tail of a streaming hash (``total %
    block_size`` bytes), it counts the blocks its finalization adds.
    """
    return (message_len + info.length_bytes) // info.block_size + 1


def hmac_sha2_blocks(key_len: int, message_len: int, info: HashInfo) -> int:
    """Total ``sha2.block`` events of one HMAC computation.

    Mirrors RFC 2104 over the reference implementation: an over-long key
    is hashed down first, then the inner hash absorbs one key block plus
    the message and the outer hash absorbs one key block plus the inner
    digest.
    """
    blocks = 0
    if key_len > info.block_size:
        blocks += compression_blocks(key_len, info)
    blocks += compression_blocks(info.block_size + message_len, info)
    blocks += compression_blocks(info.block_size + info.digest_size, info)
    return blocks


class CryptoBackend:
    """Abstract provider of the symmetric/hash primitives.

    Implementations must preserve the two invariants documented in the
    module docstring (byte parity and trace parity).  The primitive
    layer (:mod:`repro.primitives`) is the only caller; user code keeps
    importing ``repro.primitives`` and never sees the backend directly
    unless it wants to switch it via :func:`repro.backend.set_backend`.
    """

    #: Registry name of the backend (``reference`` / ``accelerated``).
    name: str = "abstract"

    def create_hash(self, name: str, data: bytes = b""):
        """Return a streaming hash object for ``name``.

        The object must offer the reference surface: ``update(data)``
        (chainable), ``digest()``/``hexdigest()`` (non-destructive,
        repeatable), ``copy()``, plus ``name``, ``block_size`` and
        ``digest_size`` attributes.
        """
        raise NotImplementedError

    def hash_digest(self, name: str, data: bytes) -> bytes:
        """One-shot digest of ``data`` (same events as a streamed hash)."""
        raise NotImplementedError

    def hmac_digest(self, key: bytes, message: bytes, hash_name: str) -> bytes:
        """One-shot HMAC tag, emitting ``hmac.call`` + its hash blocks."""
        raise NotImplementedError

    def create_cipher(self, key: bytes):
        """Return an AES cipher for ``key`` (16/24/32 bytes).

        The object must offer ``encrypt_block``/``decrypt_block`` (one
        ``aes.block`` event each) and the bulk helpers
        ``encrypt_ecb``/``decrypt_ecb``, ``encrypt_cbc``/``decrypt_cbc``
        (IV + whole blocks, no padding) and ``ctr_keystream`` — each
        emitting one ``aes.block`` event per 16-byte block processed.
        """
        raise NotImplementedError

    # -- elliptic-curve operations -----------------------------------------
    #
    # The EC seam mirrors the primitive seam one layer up: the *callers*
    # (:mod:`repro.ec.scalarmult`) keep ownership of scalar reduction,
    # degenerate-case collapsing (``k == 0``/infinity inputs) and trace
    # events (``ec.mul_base``/``ec.mul_point``/``ec.mul_double``), so a
    # backend only ever sees the non-degenerate core computation and
    # must not record anything.  Because affine coordinates of a group
    # element are unique, byte parity is automatic for any *correct*
    # implementation — which is what makes this seam safe to accelerate.
    #
    # The default implementations below ARE the reference path: they
    # delegate to the unchanged from-scratch Jacobian/wNAF/comb code in
    # :mod:`repro.ec.scalarmult` (imported lazily to avoid cycles), so
    # the reference backend and any registered custom backend inherit
    # bit-exact behaviour without writing a line of EC code.

    def ec_mul_base(self, curve, k: int):
        """``k*G`` for ``1 <= k < n`` (fixed-base path); returns a Point."""
        from ..ec.point import from_jacobian
        from ..ec.scalarmult import _mul_base_jac

        return from_jacobian(curve, _mul_base_jac(k, curve))

    def ec_mul(self, curve, k: int, point):
        """``k*P`` for ``1 <= k < n`` and non-infinity ``P`` on ``curve``."""
        from ..ec.scalarmult import _mul_wnaf_untraced

        return _mul_wnaf_untraced(k, point)

    def ec_mul_double(self, curve, u: int, p_point, v: int, q_point):
        """``u*P + v*Q`` with ``0 <= u, v < n``, not both terms degenerate."""
        from ..ec.point import from_jacobian
        from ..ec.scalarmult import _mul_double_jac

        return from_jacobian(curve, _mul_double_jac(u, p_point, v, q_point))

    def ec_mul_base_batch(self, curve, ks: list) -> list:
        """``[k*G for k in ks]`` with scalars already reduced mod ``n``.

        Zero scalars map to the point at infinity.  The reference path
        leaves every result in Jacobian coordinates and converts the
        whole batch through one shared :meth:`ec_normalize_batch`
        inversion — the Montgomery-trick win batched CA issuance rides
        on.
        """
        from ..ec.point import JAC_INFINITY
        from ..ec.scalarmult import _mul_base_jac

        jacs = [
            JAC_INFINITY if k == 0 else _mul_base_jac(k, curve) for k in ks
        ]
        return self.ec_normalize_batch(curve, jacs)

    def ec_mul_double_batch(self, curve, terms: list) -> list:
        """Many ``u*P + v*Q`` terms; ``None`` entries mark degenerate terms.

        ``terms`` holds ``(u, p_point, v, q_point)`` tuples already
        reduced and validated by the caller, or ``None`` where the
        caller collapsed a term to infinity.
        """
        from ..ec.point import JAC_INFINITY
        from ..ec.scalarmult import _mul_double_jac

        jacs = [
            JAC_INFINITY if term is None else _mul_double_jac(*term)
            for term in terms
        ]
        return self.ec_normalize_batch(curve, jacs)

    def ec_mul_double_check(self, curve, terms: list) -> list:
        """Whether each ``u*G + v*Q`` is finite with ``x mod n == r``.

        ``terms`` holds non-degenerate ``(u, v, q_point, r)`` tuples
        already reduced and validated by the caller; the answer is one
        bool per term, so no point leaves the backend.  The default
        computes the points through :meth:`ec_mul_double_batch` and
        compares their ``x`` coordinates.
        """
        generator = curve.generator
        points = self.ec_mul_double_batch(
            curve, [(u, generator, v, q_point) for u, v, q_point, _ in terms]
        )
        return [
            not point.is_infinity and point.x % curve.n == r
            for point, (_, _, _, r) in zip(points, terms)
        ]

    def ec_normalize_batch(self, curve, jacs: list) -> list:
        """Jacobian→affine conversion of a whole batch (shared inversion)."""
        from ..ec.point import normalize_batch

        return normalize_batch(curve, jacs)

    def describe(self) -> dict:
        """Introspection for benchmarks and docs (JSON-serialisable)."""
        return {"name": self.name}
