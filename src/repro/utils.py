"""Small shared helpers: integer/byte conversions and constant-time compare.

These are the encoding conventions used throughout the library (and by the
SEC 1 / SEC 4 standards the ECQV layer implements): big-endian, fixed-width
octet strings.
"""

from __future__ import annotations

from hmac import compare_digest

from .errors import ReproError


def int_to_bytes(value: int, length: int) -> bytes:
    """Encode a non-negative integer as a big-endian octet string.

    Args:
        value: the integer to encode; must be ``>= 0``.
        length: exact number of output bytes.

    Raises:
        ReproError: if the value is negative or does not fit in ``length``
            bytes.
    """
    if value < 0:
        raise ReproError(f"cannot encode negative integer {value}")
    try:
        return value.to_bytes(length, "big")
    except OverflowError as exc:
        raise ReproError(
            f"integer {value:#x} does not fit in {length} bytes"
        ) from exc


def bytes_to_int(data: bytes) -> int:
    """Decode a big-endian octet string into a non-negative integer."""
    return int.from_bytes(data, "big")


def byte_length(value: int) -> int:
    """Number of bytes needed to represent ``value`` (at least 1)."""
    if value < 0:
        raise ReproError(f"cannot measure negative integer {value}")
    return max(1, (value.bit_length() + 7) // 8)


def constant_time_equal(a: bytes, b: bytes) -> bool:
    """Compare two byte strings without data-dependent early exit.

    Embedded implementations use this pattern to avoid timing side channels
    when comparing MACs or signatures.  :func:`hmac.compare_digest` does
    the comparison in C; a length mismatch returns ``False``.
    """
    return compare_digest(a, b)


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two equal-length byte strings (one big-integer XOR)."""
    n = len(a)
    if n != len(b):
        raise ReproError(f"xor_bytes length mismatch: {n} vs {len(b)}")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(
        n, "big"
    )


def chunks(data: bytes, size: int) -> list[bytes]:
    """Split ``data`` into consecutive chunks of at most ``size`` bytes."""
    if size <= 0:
        raise ReproError(f"chunk size must be positive, got {size}")
    return [data[i : i + size] for i in range(0, len(data), size)]


def hexstr(data: bytes, group: int = 0) -> str:
    """Render bytes as lowercase hex, optionally grouped for readability."""
    h = data.hex()
    if group <= 0:
        return h
    return " ".join(h[i : i + 2 * group] for i in range(0, len(h), 2 * group))
