"""Authenticated-encryption session channel over an established key.

Once a KD protocol completes, both stations hold ``SESSION_KEY_SIZE`` bytes
of key material.  :class:`SecureSession` turns that into a bidirectional
encrypt-then-MAC record channel (AES-128-CTR + HMAC-SHA-256), the "Encrypted
Session" of the paper's Fig. 1 and the App-Data traffic of the Fig. 6 CAN
stack.  The security attack simulations decrypt recorded channels with
recovered keys, so this layer must be byte-exact and deterministic.

Record layout::

    seq(4) || direction(1) || ciphertext(len(plaintext)) || tag(16)

Each record is encrypted from its own CTR counter blocks::

    direction(1) || 0(7) || seq(4) || block(4),   block = 0, 1, ...

CTR increments only the 32-bit block field, so no two records of a
session, in either direction, share a keystream block.
"""

from __future__ import annotations

from ..backend import get_backend
from ..errors import AuthenticationError, ProtocolError
from ..primitives import ctr_crypt, hmac
from ..primitives.modes import ctr_crypt_with
from ..utils import constant_time_equal, int_to_bytes
from .wire import SESSION_KEY_SIZE, enc_key, mac_key

HEADER_SIZE = 5
TAG_SIZE = 16
_DIR = {"A": b"\x0a", "B": b"\x0b"}
_ROLE = {byte[0]: role for role, byte in _DIR.items()}


def record_overhead() -> int:
    """Bytes a record adds over its plaintext."""
    return HEADER_SIZE + TAG_SIZE


def _counter_block(header: bytes) -> bytes:
    """First CTR counter block of the record whose header is ``header``."""
    return header[4:] + b"\x00" * 7 + header[:4] + b"\x00" * 4


def _authenticate(
    authentication_key: bytes, record: bytes
) -> tuple[bytes, bytes, int, str]:
    """Check a record's tag: ``(header, ciphertext, seq, sender_role)``."""
    if len(record) < HEADER_SIZE + TAG_SIZE:
        raise AuthenticationError("record too short")
    body = record[:-TAG_SIZE]
    expected = hmac(authentication_key, body)[:TAG_SIZE]
    if not constant_time_equal(record[-TAG_SIZE:], expected):
        raise AuthenticationError("record MAC verification failed")
    header = body[:HEADER_SIZE]
    direction = _ROLE.get(header[4])
    if direction is None:
        raise AuthenticationError("record has invalid direction byte")
    seq = int.from_bytes(header[:4], "big")
    return header, body[HEADER_SIZE:], seq, direction


class SecureSession:
    """One endpoint of an established secure session.

    The session builds its AES cipher on its first record, through the
    active backend, and keeps it; it builds a new one only when the active
    backend changes.  The cipher lives and dies with the session, so no
    key schedule outlives its session key.

    Args:
        session_key: the KD protocol output (:data:`SESSION_KEY_SIZE` bytes).
        role: this endpoint's role, ``"A"`` or ``"B"``; the sender role is
            bound into each record's nonce and MAC, preventing reflection.
    """

    def __init__(self, session_key: bytes, role: str) -> None:
        if len(session_key) != SESSION_KEY_SIZE:
            raise ProtocolError(
                f"session key must be {SESSION_KEY_SIZE} bytes,"
                f" got {len(session_key)}"
            )
        if role not in _DIR:
            raise ProtocolError(f"role must be 'A' or 'B', got {role!r}")
        self.role = role
        self._enc_key = enc_key(session_key)
        self._mac_key = mac_key(session_key)
        self._send_seq = 0
        self._recv_seq: dict[str, int] = {r: 0 for r in _DIR}
        self._backend = None
        self._cipher = None

    def _aes(self):
        """This session's AES cipher under the active backend."""
        backend = get_backend()
        if backend is not self._backend:
            self._cipher = backend.create_cipher(self._enc_key)
            self._backend = backend
        return self._cipher

    def encrypt(self, plaintext: bytes) -> bytes:
        """Produce the next outbound record."""
        seq = self._send_seq
        self._send_seq += 1
        header = int_to_bytes(seq, 4) + _DIR[self.role]
        body = header + ctr_crypt_with(
            self._aes(), _counter_block(header), plaintext
        )
        return body + hmac(self._mac_key, body)[:TAG_SIZE]

    def decrypt(self, record: bytes) -> bytes:
        """Verify and open an inbound record (enforces sequence order)."""
        header, ciphertext, seq, direction = _authenticate(
            self._mac_key, record
        )
        # Decrypt before the direction and order checks, as the stateless
        # open does: a rejected replay still costs its AES blocks.
        plaintext = ctr_crypt_with(
            self._aes(), _counter_block(header), ciphertext
        )
        if direction == self.role:
            raise AuthenticationError("record reflected from our own role")
        expected = self._recv_seq[direction]
        if seq != expected:
            raise AuthenticationError(
                f"out-of-order record: got seq {seq}, expected {expected}"
            )
        self._recv_seq[direction] = seq + 1
        return plaintext


def open_record_with_key(
    encryption_key: bytes, authentication_key: bytes, record: bytes
) -> tuple[bytes, int, str]:
    """Open a record given raw keys (no endpoint state).

    A stateless one-shot for the attack simulations, which model an
    adversary that recovered the keys later.

    Returns:
        ``(plaintext, sequence, sender_role)``.
    """
    header, ciphertext, seq, direction = _authenticate(
        authentication_key, record
    )
    plaintext = ctr_crypt(encryption_key, _counter_block(header), ciphertext)
    return plaintext, seq, direction


def session_pair(session_key: bytes) -> tuple[SecureSession, SecureSession]:
    """Both endpoints of one established session (testing convenience)."""
    return SecureSession(session_key, "A"), SecureSession(session_key, "B")
