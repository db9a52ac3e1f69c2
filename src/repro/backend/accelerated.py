"""The accelerated backend: stdlib ``hashlib``/``hmac`` + OpenSSL AES and EC.

Swaps the pure-Python compression loops for C implementations while
emitting **exactly** the trace events the reference backend would have:

* SHA-2 streaming objects wrap ``hashlib`` and count compressed blocks
  analytically from the number of buffered bytes (FIPS 180-4 padding is
  deterministic, so the count is a pure function of message length);
* one-shot HMAC goes through :func:`hmac.digest` (C fast path in
  CPython) with the full inner/outer/key-hash block accounting of
  :func:`repro.backend.base.hmac_sha2_blocks`;
* AES uses the optional ``cryptography`` package (OpenSSL) when it is
  importable — single blocks and CTR counter blocks through a persistent
  ECB context, CBC through one C call per message — and **falls back
  gracefully** to the from-scratch AES otherwise (hashes stay
  accelerated; only the cipher drops back);
* EC operations are inherited from
  :class:`repro.backend.ec_accelerated.OpenSslEcBackend`: OpenSSL point
  math on the curves the local build serves, with ECDSA verification's
  ``u*G + v*Q`` check as one OpenSSL ECDSA verify, and the reference
  code on every other curve.  Trace events stay with the callers in
  :mod:`repro.ec.scalarmult`, so EC accounting is backend-invariant by
  construction.

Because the trace streams are identical and every primitive is
deterministic, fleet digests, hardware pricing and energy accounting are
bit-for-bit the same under this backend; only host wall-clock drops.
``benchmarks/bench_fleet_scale.py`` measures and asserts the speedup.
"""

from __future__ import annotations

import hashlib
import hmac as _stdlib_hmac

from .. import trace
from ..errors import CryptoError
from .base import HASH_INFO, HashInfo, compression_blocks, hmac_sha2_blocks
from .ec_accelerated import OpenSslEcBackend

try:  # AES offload is optional; hashes accelerate regardless.
    from cryptography.hazmat.primitives.ciphers import (
        Cipher as _CrCipher,
        algorithms as _cr_algorithms,
        modes as _cr_modes,
    )

    AES_ACCELERATED = True
except ImportError:  # pragma: no cover - exercised via the fallback test
    _CrCipher = _cr_algorithms = _cr_modes = None
    AES_ACCELERATED = False

_HASHLIB_CTORS = {
    "sha224": hashlib.sha224,
    "sha256": hashlib.sha256,
    "sha384": hashlib.sha384,
    "sha512": hashlib.sha512,
}

_AES_BLOCK = 16
_COUNTER_MASK = (1 << 128) - 1
_AES_ROUNDS = {16: 10, 24: 12, 32: 14}


def _check_hash_name(name: str) -> HashInfo:
    """Resolve hash metadata with the reference error message."""
    try:
        return HASH_INFO[name]
    except KeyError:
        raise CryptoError(
            f"unknown hash {name!r}; known: {sorted(HASH_INFO)}"
        ) from None


class _AcceleratedHash:
    """``hashlib``-backed streaming hash with analytic block accounting.

    Mirrors the reference surface (``update``/``digest``/``hexdigest``/
    ``copy`` plus ``name``/``block_size``/``digest_size``) and emits
    ``sha2.block`` events at the same call boundaries: full blocks as
    they are absorbed by :meth:`update`, padding blocks on every
    (repeatable, non-destructive) :meth:`digest`.
    """

    __slots__ = ("_hash", "_buffered", "_info")

    def __init__(self, info: HashInfo, data: bytes = b"") -> None:
        self._info = info
        self._hash = _HASHLIB_CTORS[info.name]()
        self._buffered = 0
        if data:
            self.update(data)

    @property
    def name(self) -> str:
        """Canonical hash name (``sha224``/``sha256``/...)."""
        return self._info.name

    @property
    def block_size(self) -> int:
        """Compression block size in bytes."""
        return self._info.block_size

    @property
    def digest_size(self) -> int:
        """Digest size in bytes."""
        return self._info.digest_size

    def update(self, data: bytes) -> "_AcceleratedHash":
        """Absorb more message bytes; returns self for chaining."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise CryptoError("hash input must be bytes-like")
        # bytes() first, like the reference: a memoryview's len() counts
        # elements, not bytes, and the block accounting needs bytes.
        data = bytes(data)
        pending = self._buffered + len(data)
        full, self._buffered = divmod(pending, self._info.block_size)
        if full:
            trace.record("sha2.block", full)
        self._hash.update(data)
        return self

    def copy(self) -> "_AcceleratedHash":
        """Independent copy of the running hash state (no trace events)."""
        dup = object.__new__(type(self))
        dup._info = self._info
        dup._hash = self._hash.copy()
        dup._buffered = self._buffered
        return dup

    def digest(self) -> bytes:
        """Finalize (non-destructively) and return the digest bytes."""
        trace.record(
            "sha2.block", compression_blocks(self._buffered, self._info)
        )
        return self._hash.digest()

    def hexdigest(self) -> str:
        """Digest as a lowercase hex string."""
        return self.digest().hex()


class _AcceleratedAes:
    """OpenSSL-backed AES with per-block events and bulk fast paths.

    Single blocks, ECB and CTR keystreams go through one persistent ECB
    context, so a cipher kept for many messages sets up its key schedule
    once; CBC runs each message through one C call.  Every helper
    records the same one-event-per-block accounting the reference loops
    produce.
    """

    __slots__ = ("key_size", "rounds", "_key", "_ecb_enc", "_ecb_dec")

    def __init__(self, key: bytes) -> None:
        if len(key) not in _AES_ROUNDS:
            raise CryptoError(
                f"AES key must be 16/24/32 bytes, got {len(key)}"
            )
        self.key_size = len(key)
        self.rounds = _AES_ROUNDS[len(key)]
        self._key = bytes(key)
        # ECB contexts are built on first use: a cipher made for one CBC
        # message never needs them.
        self._ecb_enc = None
        self._ecb_dec = None

    def _ecb_encryptor(self):
        if self._ecb_enc is None:
            self._ecb_enc = _CrCipher(
                _cr_algorithms.AES(self._key), _cr_modes.ECB()
            ).encryptor()
        return self._ecb_enc

    def _ecb_decryptor(self):
        if self._ecb_dec is None:
            self._ecb_dec = _CrCipher(
                _cr_algorithms.AES(self._key), _cr_modes.ECB()
            ).decryptor()
        return self._ecb_dec

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != _AES_BLOCK:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        trace.record("aes.block")
        return self._ecb_encryptor().update(block)

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != _AES_BLOCK:
            raise CryptoError(f"block must be 16 bytes, got {len(block)}")
        trace.record("aes.block")
        return self._ecb_decryptor().update(block)

    def encrypt_ecb(self, data: bytes) -> bytes:
        """ECB over whole blocks in one C call."""
        if len(data) % _AES_BLOCK:
            raise CryptoError("ECB requires whole blocks")
        if data:
            trace.record("aes.block", len(data) // _AES_BLOCK)
        return self._ecb_encryptor().update(data)

    def decrypt_ecb(self, data: bytes) -> bytes:
        """ECB decryption of whole blocks in one C call."""
        if len(data) % _AES_BLOCK:
            raise CryptoError("ECB requires whole blocks")
        if data:
            trace.record("aes.block", len(data) // _AES_BLOCK)
        return self._ecb_decryptor().update(data)

    def encrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        """CBC over pre-padded whole blocks in one C call."""
        if len(data) % _AES_BLOCK:
            raise CryptoError("unpadded CBC requires whole blocks")
        if data:
            trace.record("aes.block", len(data) // _AES_BLOCK)
        enc = _CrCipher(
            _cr_algorithms.AES(self._key), _cr_modes.CBC(iv)
        ).encryptor()
        return enc.update(data) + enc.finalize()

    def decrypt_cbc(self, iv: bytes, data: bytes) -> bytes:
        """CBC decryption of whole blocks in one C call (no unpadding)."""
        if len(data) % _AES_BLOCK:
            raise CryptoError("CBC ciphertext must be whole non-empty blocks")
        if data:
            trace.record("aes.block", len(data) // _AES_BLOCK)
        dec = _CrCipher(
            _cr_algorithms.AES(self._key), _cr_modes.CBC(iv)
        ).decryptor()
        return dec.update(data) + dec.finalize()

    def ctr_keystream(self, nonce: bytes, length: int) -> bytes:
        """AES-CTR keystream (128-bit big-endian counter, wraps mod 2^128).

        The counter blocks go through the persistent ECB context in one
        C call.
        """
        if length <= 0:
            return b""
        n_blocks = (length + _AES_BLOCK - 1) // _AES_BLOCK
        trace.record("aes.block", n_blocks)
        first = int.from_bytes(nonce, "big")
        counters = b"".join(
            ((first + i) & _COUNTER_MASK).to_bytes(_AES_BLOCK, "big")
            for i in range(n_blocks)
        )
        return self._ecb_encryptor().update(counters)[:length]


class AcceleratedBackend(OpenSslEcBackend):
    """``hashlib``/``hmac``/OpenSSL-backed primitives, trace-identical."""

    name = "accelerated"

    #: True when the optional ``cryptography`` package provides AES; the
    #: cipher falls back to the from-scratch AES otherwise.
    aes_accelerated = AES_ACCELERATED

    def create_hash(self, name: str, data: bytes = b""):
        """Streaming hash over ``hashlib`` with analytic accounting."""
        return _AcceleratedHash(_check_hash_name(name), data)

    def hash_digest(self, name: str, data: bytes) -> bytes:
        """One-shot digest: count blocks analytically, hash in C."""
        info = _check_hash_name(name)
        trace.record("sha2.block", compression_blocks(len(data), info))
        return _HASHLIB_CTORS[name](data).digest()

    def hmac_digest(self, key: bytes, message: bytes, hash_name: str) -> bytes:
        """One-shot HMAC through :func:`hmac.digest` (C fast path)."""
        info = _check_hash_name(hash_name)
        trace.record("hmac.call")
        trace.record(
            "sha2.block", hmac_sha2_blocks(len(key), len(message), info)
        )
        return _stdlib_hmac.digest(key, message, hash_name)

    def create_cipher(self, key: bytes):
        """OpenSSL AES when available, from-scratch AES otherwise."""
        if self.aes_accelerated:
            return _AcceleratedAes(key)
        from ..primitives.aes import Aes

        return Aes(key)

    def describe(self) -> dict:
        """Introspection for benchmarks and docs."""
        return {
            "name": self.name,
            "sha2": "hashlib (OpenSSL/C)",
            "hmac": "stdlib hmac.digest (C fast path)",
            "aes": (
                "cryptography (OpenSSL)"
                if self.aes_accelerated
                else "from-scratch fallback (cryptography not importable)"
            ),
            "ec": super().describe()["ec"],
        }
