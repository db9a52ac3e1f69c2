"""SHA-2 family implemented from scratch (FIPS 180-4).

Provides SHA-224/256 (32-bit schedule, 64-byte blocks) and SHA-384/512
(64-bit schedule, 128-byte blocks) with the familiar
``update()/digest()/hexdigest()`` interface plus one-shot helpers.

Every compression-function invocation records one ``sha2.block`` trace
event — hashing cost on embedded devices is linear in compressed blocks,
which is exactly what the hardware model prices.

The classes in this module are the **reference** implementation; the
module-level entry points (:func:`new_hash` and the one-shot helpers)
dispatch through the active :mod:`repro.backend`, so an accelerated
backend can swap in ``hashlib`` while emitting the identical trace
stream.  Instantiating a class directly always yields the from-scratch
implementation.
"""

from __future__ import annotations

import struct

from .. import trace
from ..backend import get_backend
from ..errors import CryptoError

_K256 = (
    0x428A2F98, 0x71374491, 0xB5C0FBCF, 0xE9B5DBA5, 0x3956C25B, 0x59F111F1,
    0x923F82A4, 0xAB1C5ED5, 0xD807AA98, 0x12835B01, 0x243185BE, 0x550C7DC3,
    0x72BE5D74, 0x80DEB1FE, 0x9BDC06A7, 0xC19BF174, 0xE49B69C1, 0xEFBE4786,
    0x0FC19DC6, 0x240CA1CC, 0x2DE92C6F, 0x4A7484AA, 0x5CB0A9DC, 0x76F988DA,
    0x983E5152, 0xA831C66D, 0xB00327C8, 0xBF597FC7, 0xC6E00BF3, 0xD5A79147,
    0x06CA6351, 0x14292967, 0x27B70A85, 0x2E1B2138, 0x4D2C6DFC, 0x53380D13,
    0x650A7354, 0x766A0ABB, 0x81C2C92E, 0x92722C85, 0xA2BFE8A1, 0xA81A664B,
    0xC24B8B70, 0xC76C51A3, 0xD192E819, 0xD6990624, 0xF40E3585, 0x106AA070,
    0x19A4C116, 0x1E376C08, 0x2748774C, 0x34B0BCB5, 0x391C0CB3, 0x4ED8AA4A,
    0x5B9CCA4F, 0x682E6FF3, 0x748F82EE, 0x78A5636F, 0x84C87814, 0x8CC70208,
    0x90BEFFFA, 0xA4506CEB, 0xBEF9A3F7, 0xC67178F2,
)

_K512 = (
    0x428A2F98D728AE22, 0x7137449123EF65CD, 0xB5C0FBCFEC4D3B2F,
    0xE9B5DBA58189DBBC, 0x3956C25BF348B538, 0x59F111F1B605D019,
    0x923F82A4AF194F9B, 0xAB1C5ED5DA6D8118, 0xD807AA98A3030242,
    0x12835B0145706FBE, 0x243185BE4EE4B28C, 0x550C7DC3D5FFB4E2,
    0x72BE5D74F27B896F, 0x80DEB1FE3B1696B1, 0x9BDC06A725C71235,
    0xC19BF174CF692694, 0xE49B69C19EF14AD2, 0xEFBE4786384F25E3,
    0x0FC19DC68B8CD5B5, 0x240CA1CC77AC9C65, 0x2DE92C6F592B0275,
    0x4A7484AA6EA6E483, 0x5CB0A9DCBD41FBD4, 0x76F988DA831153B5,
    0x983E5152EE66DFAB, 0xA831C66D2DB43210, 0xB00327C898FB213F,
    0xBF597FC7BEEF0EE4, 0xC6E00BF33DA88FC2, 0xD5A79147930AA725,
    0x06CA6351E003826F, 0x142929670A0E6E70, 0x27B70A8546D22FFC,
    0x2E1B21385C26C926, 0x4D2C6DFC5AC42AED, 0x53380D139D95B3DF,
    0x650A73548BAF63DE, 0x766A0ABB3C77B2A8, 0x81C2C92E47EDAEE6,
    0x92722C851482353B, 0xA2BFE8A14CF10364, 0xA81A664BBC423001,
    0xC24B8B70D0F89791, 0xC76C51A30654BE30, 0xD192E819D6EF5218,
    0xD69906245565A910, 0xF40E35855771202A, 0x106AA07032BBD1B8,
    0x19A4C116B8D2D0C8, 0x1E376C085141AB53, 0x2748774CDF8EEB99,
    0x34B0BCB5E19B48A8, 0x391C0CB3C5C95A63, 0x4ED8AA4AE3418ACB,
    0x5B9CCA4F7763E373, 0x682E6FF3D6B2B8A3, 0x748F82EE5DEFB2FC,
    0x78A5636F43172F60, 0x84C87814A1F0AB72, 0x8CC702081A6439EC,
    0x90BEFFFA23631E28, 0xA4506CEBDE82BDE9, 0xBEF9A3F7B2C67915,
    0xC67178F2E372532B, 0xCA273ECEEA26619C, 0xD186B8C721C0C207,
    0xEADA7DD6CDE0EB1E, 0xF57D4F7FEE6ED178, 0x06F067AA72176FBA,
    0x0A637DC5A2C898A6, 0x113F9804BEF90DAE, 0x1B710B35131C471B,
    0x28DB77F523047D84, 0x32CAAB7B40C72493, 0x3C9EBE0A15C9BEBC,
    0x431D67C49C100D4C, 0x4CC5D4BECB3E42B6, 0x597F299CFC657E2A,
    0x5FCB6FAB3AD6FAEC, 0x6C44198C4A475817,
)

_IV224 = (
    0xC1059ED8, 0x367CD507, 0x3070DD17, 0xF70E5939,
    0xFFC00B31, 0x68581511, 0x64F98FA7, 0xBEFA4FA4,
)
_IV256 = (
    0x6A09E667, 0xBB67AE85, 0x3C6EF372, 0xA54FF53A,
    0x510E527F, 0x9B05688C, 0x1F83D9AB, 0x5BE0CD19,
)
_IV384 = (
    0xCBBB9D5DC1059ED8, 0x629A292A367CD507, 0x9159015A3070DD17,
    0x152FECD8F70E5939, 0x67332667FFC00B31, 0x8EB44A8768581511,
    0xDB0C2E0D64F98FA7, 0x47B5481DBEFA4FA4,
)
_IV512 = (
    0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B,
    0xA54FF53A5F1D36F1, 0x510E527FADE682D1, 0x9B05688C2B3E6C1F,
    0x1F83D9ABFB41BD6B, 0x5BE0CD19137E2179,
)

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

_BLOCK256 = struct.Struct(">16I")
_BLOCK512 = struct.Struct(">16Q")


class _Sha2Base:
    """Shared streaming machinery for the four digest variants."""

    block_size: int
    digest_size: int
    name: str

    def __init__(self, data: bytes = b"") -> None:
        self._state = list(self._iv())
        self._buffer = b""
        self._length = 0  # total message bytes
        if data:
            self.update(data)

    def _iv(self) -> tuple[int, ...]:
        raise NotImplementedError

    def _compress(self, block: bytes) -> None:
        raise NotImplementedError

    def update(self, data: bytes) -> "_Sha2Base":
        """Absorb more message bytes; returns self for chaining."""
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise CryptoError("hash input must be bytes-like")
        data = bytes(data)
        self._length += len(data)
        buf = self._buffer + data
        bs = self.block_size
        offset = 0
        while len(buf) - offset >= bs:
            self._compress(buf[offset : offset + bs])
            offset += bs
        self._buffer = buf[offset:]
        return self

    def copy(self) -> "_Sha2Base":
        """Independent copy of the running hash state."""
        dup = type(self)()
        dup._state = list(self._state)
        dup._buffer = self._buffer
        dup._length = self._length
        return dup

    def digest(self) -> bytes:
        """Finalize (on a copy) and return the digest bytes."""
        clone = self.copy()
        bs = self.block_size
        length_field = 8 if bs == 64 else 16
        bit_len = clone._length * 8
        pad_len = (bs - 1 - length_field - clone._length) % bs
        clone._absorb_final(
            b"\x80" + b"\x00" * pad_len + bit_len.to_bytes(length_field, "big")
        )
        word_fmt = ">%dI" % len(clone._state) if bs == 64 else ">%dQ" % len(clone._state)
        full = struct.pack(word_fmt, *clone._state)
        return full[: self.digest_size]

    def _absorb_final(self, padding: bytes) -> None:
        buf = self._buffer + padding
        bs = self.block_size
        for off in range(0, len(buf), bs):
            self._compress(buf[off : off + bs])
        self._buffer = b""

    def hexdigest(self) -> str:
        """Digest as a lowercase hex string."""
        return self.digest().hex()


class _Sha256Core(_Sha2Base):
    block_size = 64

    def _compress(self, block: bytes) -> None:
        # Rotations are inlined and left unmasked: the bits above 31 only
        # ever reach sums, never the low 32 bits of one, so a word is masked
        # where it is stored (w[i], e, a, the state) — exactly the words
        # that are later shifted right.
        trace.record("sha2.block")
        w = list(_BLOCK256.unpack(block))
        for i in range(16, 64):
            x = w[i - 15]
            y = w[i - 2]
            s0 = (x >> 7 | x << 25) ^ (x >> 18 | x << 14) ^ x >> 3
            s1 = (y >> 17 | y << 15) ^ (y >> 19 | y << 13) ^ y >> 10
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK32)
        st = self._state
        a, b, c, d, e, f, g, h = st
        for k, wi in zip(_K256, w):
            s1 = (e >> 6 | e << 26) ^ (e >> 11 | e << 21) ^ (e >> 25 | e << 7)
            t1 = h + s1 + (g ^ (e & (f ^ g))) + k + wi
            s0 = (a >> 2 | a << 30) ^ (a >> 13 | a << 19) ^ (a >> 22 | a << 10)
            t2 = s0 + ((a & b) | (c & (a | b)))
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & _MASK32, c, b, a, (t1 + t2) & _MASK32,
            )
        for idx, val in enumerate((a, b, c, d, e, f, g, h)):
            st[idx] = (st[idx] + val) & _MASK32


class _Sha512Core(_Sha2Base):
    block_size = 128

    def _compress(self, block: bytes) -> None:
        # The same round loop on 64-bit words (see _Sha256Core._compress).
        trace.record("sha2.block")
        w = list(_BLOCK512.unpack(block))
        for i in range(16, 80):
            x = w[i - 15]
            y = w[i - 2]
            s0 = (x >> 1 | x << 63) ^ (x >> 8 | x << 56) ^ x >> 7
            s1 = (y >> 19 | y << 45) ^ (y >> 61 | y << 3) ^ y >> 6
            w.append((w[i - 16] + s0 + w[i - 7] + s1) & _MASK64)
        st = self._state
        a, b, c, d, e, f, g, h = st
        for k, wi in zip(_K512, w):
            s1 = (e >> 14 | e << 50) ^ (e >> 18 | e << 46) ^ (e >> 41 | e << 23)
            t1 = h + s1 + (g ^ (e & (f ^ g))) + k + wi
            s0 = (a >> 28 | a << 36) ^ (a >> 34 | a << 30) ^ (a >> 39 | a << 25)
            t2 = s0 + ((a & b) | (c & (a | b)))
            h, g, f, e, d, c, b, a = (
                g, f, e, (d + t1) & _MASK64, c, b, a, (t1 + t2) & _MASK64,
            )
        for idx, val in enumerate((a, b, c, d, e, f, g, h)):
            st[idx] = (st[idx] + val) & _MASK64


class Sha224(_Sha256Core):
    """SHA-224 streaming hash."""

    digest_size = 28
    name = "sha224"

    def _iv(self) -> tuple[int, ...]:
        return _IV224


class Sha256(_Sha256Core):
    """SHA-256 streaming hash."""

    digest_size = 32
    name = "sha256"

    def _iv(self) -> tuple[int, ...]:
        return _IV256


class Sha384(_Sha512Core):
    """SHA-384 streaming hash."""

    digest_size = 48
    name = "sha384"

    def _iv(self) -> tuple[int, ...]:
        return _IV384


class Sha512(_Sha512Core):
    """SHA-512 streaming hash."""

    digest_size = 64
    name = "sha512"

    def _iv(self) -> tuple[int, ...]:
        return _IV512


#: The reference implementation registry (name -> from-scratch class).
#: The reference backend instantiates these; backend-neutral metadata
#: (block/digest sizes) lives in :data:`repro.backend.HASH_INFO`.
HASHES: dict[str, type[_Sha2Base]] = {
    "sha224": Sha224,
    "sha256": Sha256,
    "sha384": Sha384,
    "sha512": Sha512,
}


def new_hash(name: str, data: bytes = b""):
    """Instantiate a hash by name (``sha224/256/384/512``).

    Dispatches through the active :mod:`repro.backend`; the returned
    object offers the streaming ``update()/digest()/hexdigest()/copy()``
    surface regardless of backend.
    """
    return get_backend().create_hash(name, data)


def sha224(data: bytes) -> bytes:
    """One-shot SHA-224 (dispatches through the active backend)."""
    return get_backend().hash_digest("sha224", data)


def sha256(data: bytes) -> bytes:
    """One-shot SHA-256 (dispatches through the active backend)."""
    return get_backend().hash_digest("sha256", data)


def sha384(data: bytes) -> bytes:
    """One-shot SHA-384 (dispatches through the active backend)."""
    return get_backend().hash_digest("sha384", data)


def sha512(data: bytes) -> bytes:
    """One-shot SHA-512 (dispatches through the active backend)."""
    return get_backend().hash_digest("sha512", data)
