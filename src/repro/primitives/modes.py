"""Block-cipher chaining modes and padding: ECB, CBC, CTR, PKCS#7.

The paper's protocols encrypt the STS authentication response
(``Resp = encrypt(K_S, dsign)``) with AES-128; we default to CBC with
PKCS#7, matching the typical tiny-AES deployment, and provide CTR for
stream-style use.

Padding and argument validation live here and are backend-independent;
the block chaining itself is delegated to the active
:mod:`repro.backend` cipher, whose bulk helpers process whole messages
(one C call each on the accelerated backend) while recording the same
one-``aes.block``-event-per-block accounting the reference loops do.
"""

from __future__ import annotations

from ..backend import get_backend
from ..errors import CryptoError
from ..utils import xor_bytes
from .aes import BLOCK_SIZE


def pkcs7_pad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Append PKCS#7 padding up to a whole number of blocks."""
    if not 1 <= block_size <= 255:
        raise CryptoError(f"invalid block size {block_size}")
    pad_len = block_size - (len(data) % block_size)
    return data + bytes([pad_len]) * pad_len


def pkcs7_unpad(data: bytes, block_size: int = BLOCK_SIZE) -> bytes:
    """Strip and validate PKCS#7 padding."""
    if not data or len(data) % block_size != 0:
        raise CryptoError("padded data length is not a multiple of block size")
    pad_len = data[-1]
    if not 1 <= pad_len <= block_size:
        raise CryptoError(f"invalid padding byte {pad_len}")
    if data[-pad_len:] != bytes([pad_len]) * pad_len:
        raise CryptoError("inconsistent PKCS#7 padding")
    return data[:-pad_len]


def ecb_encrypt(key: bytes, plaintext: bytes) -> bytes:
    """AES-ECB on pre-padded data (exposed mainly for tests/vectors)."""
    if len(plaintext) % BLOCK_SIZE:
        raise CryptoError("ECB requires whole blocks")
    return get_backend().create_cipher(key).encrypt_ecb(plaintext)


def ecb_decrypt(key: bytes, ciphertext: bytes) -> bytes:
    """AES-ECB decryption of whole blocks."""
    if len(ciphertext) % BLOCK_SIZE:
        raise CryptoError("ECB requires whole blocks")
    return get_backend().create_cipher(key).decrypt_ecb(ciphertext)


def cbc_encrypt(key: bytes, iv: bytes, plaintext: bytes, pad: bool = True) -> bytes:
    """AES-CBC encryption (PKCS#7-padded by default)."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if pad:
        plaintext = pkcs7_pad(plaintext)
    elif len(plaintext) % BLOCK_SIZE:
        raise CryptoError("unpadded CBC requires whole blocks")
    return get_backend().create_cipher(key).encrypt_cbc(iv, plaintext)


def cbc_decrypt(key: bytes, iv: bytes, ciphertext: bytes, pad: bool = True) -> bytes:
    """AES-CBC decryption (validates PKCS#7 padding by default)."""
    if len(iv) != BLOCK_SIZE:
        raise CryptoError(f"IV must be {BLOCK_SIZE} bytes, got {len(iv)}")
    if not ciphertext or len(ciphertext) % BLOCK_SIZE:
        raise CryptoError("CBC ciphertext must be whole non-empty blocks")
    plaintext = get_backend().create_cipher(key).decrypt_cbc(iv, ciphertext)
    return pkcs7_unpad(plaintext) if pad else plaintext


def ctr_keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    """Generate an AES-CTR keystream (128-bit big-endian counter)."""
    _check_ctr_nonce(nonce)
    return get_backend().create_cipher(key).ctr_keystream(nonce, length)


def ctr_crypt(key: bytes, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR encryption/decryption (symmetric)."""
    return ctr_crypt_with(get_backend().create_cipher(key), nonce, data)


def ctr_crypt_with(cipher, nonce: bytes, data: bytes) -> bytes:
    """AES-CTR under a cipher from a backend's ``create_cipher``.

    For callers that encrypt many messages under one key, such as
    :class:`repro.protocols.SecureSession`: the key schedule is built
    once, not per message.
    """
    _check_ctr_nonce(nonce)
    return xor_bytes(data, cipher.ctr_keystream(nonce, len(data)))


def _check_ctr_nonce(nonce: bytes) -> None:
    if len(nonce) != BLOCK_SIZE:
        raise CryptoError(f"CTR nonce must be {BLOCK_SIZE} bytes")
