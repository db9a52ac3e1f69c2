"""S-ECDSA: the static ECDSA key-derivation baseline (Basic et al. [5]).

Message flow (paper Table II)::

    A -> B   A1: ID_A(16), Nonce_A(32)
    B -> A   B1: ID_B(16), Cert_B(101), Sign_B(64), Nonce_B(32)
    A -> B   A2: Cert_A(101), Sign_A(64)
    B -> A   B2: ACK(1)                         [+ext: Fin_B(96)]
    A -> B   A3: Fin_A(96)                      [ext only]

The underlying secret is the **static** Diffie–Hellman product of the
certificate keys (``Sk = Prk_a * Puk_b``, paper §II-A); the exchanged
nonces only diversify the KDF output.  Because both certificates and
nonces are visible on the wire, anyone who later compromises a long-term
key can recompute every session key — the forward-secrecy gap the paper's
STS design closes.

The *extended* variant adds mutual key-confirmation ("finished") messages
after the style of Porambage et al.: symmetric-only, so its cost delta is
small (Table I shows ~0–3 %).
"""

from __future__ import annotations

from ..ecdsa import Signature, sign, static_shared_secret, verify
from ..ecqv import Certificate
from ..errors import AuthenticationError, ProtocolError
from ..primitives import cbc_decrypt, cbc_encrypt, hmac
from ..utils import constant_time_equal
from .base import (
    Message,
    OP2,
    OP3,
    OP4,
    OP_SYM,
    Party,
    ROLE_A,
    ROLE_B,
    SessionContext,
)
from .wire import ACK_BYTE, NONCE_SIZE, derive_session_key, enc_key, mac_key

#: Finished message layout: IV(16) || CBC(tag(32) || ID(16) || status(16)).
FIN_SIZE = 96
_FIN_STATUS = b"session-confirm!"  # 16 bytes


class SEcdsaParty(Party):
    """One station of the static-ECDSA key derivation protocol.

    Args:
        ctx: the device's session context.
        role: initiator or responder.
        extended: enable the authenticated-acknowledgement extension
            ("S-ECDSA (ext.)" in Tables I and II).
    """

    protocol_name = "s-ecdsa"

    def __init__(
        self, ctx: SessionContext, role: str, extended: bool = False
    ) -> None:
        super().__init__(ctx, role)
        self.extended = extended
        self._nonce_own: bytes | None = None
        self._nonce_peer: bytes | None = None
        self._announced_peer_id: bytes | None = None
        self._peer_cert: Certificate | None = None
        self._peer_public = None

    # -- building blocks ---------------------------------------------------------

    def _nonces_ordered(self) -> bytes:
        """``Nonce_A || Nonce_B`` regardless of which side we are."""
        if self.role == ROLE_A:
            return self._nonce_own + self._nonce_peer
        return self._nonce_peer + self._nonce_own

    def _sign_payload(self, signer_id: bytes, signer_role: str) -> bytes:
        """Nonce pair bound to the signer's identity and role."""
        return self._nonces_ordered() + signer_id + signer_role.encode()

    def _reconstruct_and_verify(self, cert_bytes: bytes, sig_bytes: bytes) -> None:
        """OP2 + OP4: implicit key reconstruction, then signature check."""
        with self.operation("pubkey_reconstruction", OP2):
            self._peer_cert, self._peer_public = self.ctx.peer_public_key(
                cert_bytes, self._announced_peer_id
            )
        with self.operation("verify_peer_signature", OP4):
            curve = self.ctx.credential.certificate.curve
            signature = Signature.from_bytes(curve, sig_bytes)
            peer_role = ROLE_B if self.role == ROLE_A else ROLE_A
            payload = self._sign_payload(self._peer_cert.subject_id, peer_role)
            if not verify(self._peer_public, payload, signature):
                raise AuthenticationError(
                    f"S-ECDSA: peer signature invalid at {self.role}"
                )
            self.peer_authenticated = True

    def _derive_static_key(self) -> None:
        """OP2: static DH secret + KDF (the SKD computation, §II-A)."""
        with self.operation("static_dh_and_kdf", OP2):
            secret = static_shared_secret(
                self.ctx.credential.private_key, self._peer_public
            )
            self.session_key = derive_session_key(secret, self._nonces_ordered())

    def _own_signature(self) -> bytes:
        """OP3: sign the nonce pair with the certificate key."""
        with self.operation("sign_nonces", OP3):
            signature = sign(
                self.ctx.credential.certificate.curve,
                self.ctx.credential.private_key,
                self._sign_payload(self.ctx.device_id, self.role),
            )
        return signature.to_bytes()

    def _make_finished(self) -> bytes:
        """Extension: encrypted key-confirmation blob (96 bytes)."""
        with self.operation("finished_generation", OP_SYM):
            tag = hmac(
                mac_key(self.session_key),
                b"finished" + self.role.encode() + self._nonces_ordered(),
            )
            iv = self.ctx.rng.generate(16)
            blob = cbc_encrypt(
                enc_key(self.session_key),
                iv,
                tag + self.ctx.device_id + _FIN_STATUS,
            )
        return iv + blob

    def _check_finished(self, fin: bytes) -> None:
        """Extension: validate the peer's key-confirmation blob."""
        if len(fin) != FIN_SIZE:
            raise ProtocolError(
                f"finished message must be {FIN_SIZE} bytes, got {len(fin)}"
            )
        with self.operation("finished_verification", OP_SYM):
            iv, blob = fin[:16], fin[16:]
            plain = cbc_decrypt(enc_key(self.session_key), iv, blob)
            tag, peer_id, status = plain[:32], plain[32:48], plain[48:]
            peer_role = ROLE_B if self.role == ROLE_A else ROLE_A
            expected = hmac(
                mac_key(self.session_key),
                b"finished" + peer_role.encode() + self._nonces_ordered(),
            )
            if status != _FIN_STATUS or not constant_time_equal(tag, expected):
                raise AuthenticationError(
                    f"S-ECDSA ext: finished verification failed at {self.role}"
                )
            if self._peer_cert and peer_id != self._peer_cert.subject_id:
                raise AuthenticationError(
                    "S-ECDSA ext: finished identity mismatch"
                )

    # -- state machine -------------------------------------------------------------

    def _advance(self, incoming: Message | None) -> Message | None:
        if self.role == ROLE_A:
            return self._advance_initiator(incoming)
        return self._advance_responder(incoming)

    def _advance_initiator(self, incoming: Message | None) -> Message | None:
        if incoming is None:
            with self.operation("nonce_generation", OP_SYM):
                self._nonce_own = self.ctx.rng.generate(NONCE_SIZE)
            return Message(
                sender=self.role,
                label="A1",
                fields=(
                    ("ID", self.ctx.device_id),
                    ("Nonce", self._nonce_own),
                ),
            )
        if incoming.label == "B1":
            self._announced_peer_id = incoming.field_value("ID")
            self._nonce_peer = incoming.field_value("Nonce")
            self._reconstruct_and_verify(
                incoming.field_value("Cert"), incoming.field_value("Sign")
            )
            self._derive_static_key()
            sig = self._own_signature()
            return Message(
                sender=self.role,
                label="A2",
                fields=(
                    ("Cert", self.ctx.credential.certificate.encode()),
                    ("Sign", sig),
                ),
            )
        if incoming.label == "B2":
            if incoming.field_value("ACK") != ACK_BYTE:
                raise ProtocolError("S-ECDSA: malformed ACK")
            if self.extended:
                self._check_finished(incoming.field_value("Fin"))
                fin = self._make_finished()
                self._finish(self.session_key, self._peer_cert.subject_id)
                return Message(
                    sender=self.role, label="A3", fields=(("Fin", fin),)
                )
            self._finish(self.session_key, self._peer_cert.subject_id)
            return None
        raise ProtocolError(f"S-ECDSA initiator: unexpected {incoming.label}")

    def _advance_responder(self, incoming: Message | None) -> Message | None:
        if incoming is None:
            raise ProtocolError("S-ECDSA responder cannot initiate")
        if incoming.label == "A1":
            self._announced_peer_id = incoming.field_value("ID")
            self._nonce_peer = incoming.field_value("Nonce")
            with self.operation("nonce_generation", OP_SYM):
                self._nonce_own = self.ctx.rng.generate(NONCE_SIZE)
            sig = self._own_signature()
            return Message(
                sender=self.role,
                label="B1",
                fields=(
                    ("ID", self.ctx.device_id),
                    ("Cert", self.ctx.credential.certificate.encode()),
                    ("Sign", sig),
                    ("Nonce", self._nonce_own),
                ),
            )
        if incoming.label == "A2":
            self._reconstruct_and_verify(
                incoming.field_value("Cert"), incoming.field_value("Sign")
            )
            self._derive_static_key()
            if self.extended:
                fin = self._make_finished()
                return Message(
                    sender=self.role,
                    label="B2",
                    fields=(("ACK", ACK_BYTE), ("Fin", fin)),
                )
            self._finish(self.session_key, self._peer_cert.subject_id)
            return Message(
                sender=self.role, label="B2", fields=(("ACK", ACK_BYTE),)
            )
        if incoming.label == "A3" and self.extended:
            self._check_finished(incoming.field_value("Fin"))
            self._finish(self.session_key, self._peer_cert.subject_id)
            return None
        raise ProtocolError(f"S-ECDSA responder: unexpected {incoming.label}")


def make_s_ecdsa_pair(
    ctx_a: SessionContext, ctx_b: SessionContext, extended: bool = False
) -> tuple[SEcdsaParty, SEcdsaParty]:
    """Create an initiator/responder S-ECDSA pair."""
    return (
        SEcdsaParty(ctx_a, ROLE_A, extended),
        SEcdsaParty(ctx_b, ROLE_B, extended),
    )
