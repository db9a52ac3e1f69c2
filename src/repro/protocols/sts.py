"""STS-ECQV: the paper's dynamic key derivation protocol (Section IV).

Message flow (paper Fig. 2)::

    A -> B   A1: ID_A(16), XG_A(64)
    B -> A   B1: ID_B(16), Cert_B(101), XG_B(64), Resp_B(64)
    A -> B   A2: Cert_A(101), Resp_A(64)
    B -> A   B2: ACK(1)

Each station derives a fresh ephemeral ``X ∈ [1, n-1]``, ``XG = X*G``
(Eq. 2), the premaster ``K_PM = X_A * XG_B = X_B * XG_A`` (Eq. 3) and the
session key ``K_S = KDF(K_PM, salt)`` (Eq. 4).  Authentication is the STS
signature-inside-encryption construction (Algorithms 1 and 2): each side
signs the ephemeral pair with its *certificate* key and encrypts the
signature under the fresh session key; the peer reconstructs the ECDSA
verification key implicitly from the ECQV certificate (Eq. 1).

Operation classes follow the paper's §IV-C decomposition (Op1..Op4), which
the Opt. I / Opt. II schedulers consume.

Variants: :data:`SCHEDULE_SEQUENTIAL`, :data:`SCHEDULE_OPT1` and
:data:`SCHEDULE_OPT2` share this message flow byte-for-byte — the paper
stresses "the sent data is identical to the original protocol" — and only
change how the discrete-event simulator overlaps computations.
"""

from __future__ import annotations

from ..ecdsa import Signature, ephemeral_shared_secret, sign, verify
from ..ec import mul_base
from ..ecqv import Certificate
from ..errors import AuthenticationError, ProtocolError
from .base import (
    Message,
    OP1,
    OP2,
    OP3,
    OP4,
    Party,
    ROLE_A,
    ROLE_B,
    SessionContext,
)
from .wire import (
    ACK_BYTE,
    decode_point_raw,
    decrypt_response,
    derive_session_key,
    encode_point_raw,
    encrypt_response,
)

SCHEDULE_SEQUENTIAL = "sequential"
SCHEDULE_OPT1 = "opt1"
SCHEDULE_OPT2 = "opt2"
SCHEDULES = (SCHEDULE_SEQUENTIAL, SCHEDULE_OPT1, SCHEDULE_OPT2)


class StsParty(Party):
    """One station of the STS-ECQV dynamic key derivation protocol.

    Args:
        ctx: the device's session context.
        role: initiator (:data:`ROLE_A`) or responder (:data:`ROLE_B`).
        schedule: execution schedule tag consumed by the simulator; does
            not change the wire protocol.
    """

    protocol_name = "sts"

    def __init__(
        self,
        ctx: SessionContext,
        role: str,
        schedule: str = SCHEDULE_SEQUENTIAL,
    ) -> None:
        super().__init__(ctx, role)
        if schedule not in SCHEDULES:
            raise ProtocolError(f"unknown STS schedule {schedule!r}")
        self.schedule = schedule
        self._ephemeral: int | None = None
        self._xg_own: bytes | None = None
        self._xg_peer: bytes | None = None
        self._announced_peer_id: bytes | None = None
        self._peer_cert: Certificate | None = None

    # -- shared building blocks ------------------------------------------------

    def _op1_generate_ephemeral(self) -> None:
        """Op1: random EC point derivation (paper Eq. 2).

        With an :class:`~repro.protocols.pool.EphemeralPool` attached to
        the context, the pair was batch-precomputed and Op1 collapses to a
        queue pop (its cost was paid, amortized, at pool build time); an
        empty or absent pool falls back to the classic on-demand path.
        """
        curve = self.ctx.credential.certificate.curve
        pool = self.ctx.ephemeral_pool
        with self.operation("xg_generation", OP1):
            if pool is not None and len(pool):
                self._ephemeral, self._xg_own = pool.take(curve)
                return
            self._ephemeral = self.ctx.rng.random_scalar(curve.n)
            xg = mul_base(self._ephemeral, curve)
            self._xg_own = encode_point_raw(xg)

    def _derive_key(self) -> None:
        """Premaster + KDF halves of Op2 (Eqs. 3 and 4)."""
        curve = self.ctx.credential.certificate.curve
        peer_point = decode_point_raw(curve, self._xg_peer)
        premaster = ephemeral_shared_secret(self._ephemeral, peer_point)
        # Salt binds the key to this session's ephemeral pair, ordered by
        # initiator/responder so both sides agree.
        if self.role == ROLE_A:
            salt = self._xg_own + self._xg_peer
        else:
            salt = self._xg_peer + self._xg_own
        self.session_key = derive_session_key(premaster, salt)

    def _sign_payload(self) -> bytes:
        """The ``XG_own || XG_peer`` byte string this station signs."""
        return self._xg_own + self._xg_peer

    def _verify_payload(self) -> bytes:
        """The byte string the *peer* signed (its own XG first)."""
        return self._xg_peer + self._xg_own

    def _make_response(self) -> bytes:
        """Op3: Algorithm 1 — sign the ephemerals, encrypt under K_S."""
        dsign = sign(
            self.ctx.credential.certificate.curve,
            self.ctx.credential.private_key,
            self._sign_payload(),
        )
        return encrypt_response(self.session_key, self.role, dsign.to_bytes())

    def _check_response(self, resp: bytes, peer_public) -> None:
        """Op4: Algorithm 2 — decrypt and verify the peer's response."""
        curve = self.ctx.credential.certificate.curve
        peer_role = ROLE_B if self.role == ROLE_A else ROLE_A
        dsign_bytes = decrypt_response(self.session_key, peer_role, resp)
        signature = Signature.from_bytes(curve, dsign_bytes)
        if not verify(peer_public, self._verify_payload(), signature):
            raise AuthenticationError(
                f"STS: peer response verification failed at {self.role}"
            )
        self.peer_authenticated = True

    # -- state machine -----------------------------------------------------------

    def _advance(self, incoming: Message | None) -> Message | None:
        if self.role == ROLE_A:
            return self._advance_initiator(incoming)
        return self._advance_responder(incoming)

    def _advance_initiator(self, incoming: Message | None) -> Message | None:
        if incoming is None:
            # Step A1: fresh ephemeral, send identity + XG.
            self._op1_generate_ephemeral()
            return Message(
                sender=self.role,
                label="A1",
                fields=(
                    ("ID", self.ctx.device_id),
                    ("XG", self._xg_own),
                ),
            )
        if incoming.label == "B1":
            self._announced_peer_id = incoming.field_value("ID")
            self._xg_peer = incoming.field_value("XG")
            with self.operation("pubkey_and_premaster", OP2):
                self._peer_cert, peer_public = self.ctx.peer_public_key(
                    incoming.field_value("Cert"), self._announced_peer_id
                )
                self._derive_key()
            with self.operation("verify_response", OP4):
                self._check_response(incoming.field_value("Resp"), peer_public)
            with self.operation("sign_response", OP3):
                resp = self._make_response()
            return Message(
                sender=self.role,
                label="A2",
                fields=(
                    ("Cert", self.ctx.credential.certificate.encode()),
                    ("Resp", resp),
                ),
            )
        if incoming.label == "B2":
            if incoming.field_value("ACK") != ACK_BYTE:
                raise ProtocolError("STS: malformed ACK")
            self._finish(self.session_key, self._peer_cert.subject_id)
            return None
        raise ProtocolError(f"STS initiator: unexpected {incoming.label}")

    def _advance_responder(self, incoming: Message | None) -> Message | None:
        msg = self._expect(incoming, "A1" if self._xg_peer is None else "A2")
        if msg.label == "A1":
            self._announced_peer_id = msg.field_value("ID")
            self._xg_peer = msg.field_value("XG")
            self._op1_generate_ephemeral()
            with self.operation("premaster_derivation", OP2):
                self._derive_key()
            with self.operation("sign_response", OP3):
                resp = self._make_response()
            return Message(
                sender=self.role,
                label="B1",
                fields=(
                    ("ID", self.ctx.device_id),
                    ("Cert", self.ctx.credential.certificate.encode()),
                    ("XG", self._xg_own),
                    ("Resp", resp),
                ),
            )
        # A2: the initiator's certificate and encrypted signature.
        with self.operation("pubkey_reconstruction", OP2):
            self._peer_cert, peer_public = self.ctx.peer_public_key(
                msg.field_value("Cert"), self._announced_peer_id
            )
        with self.operation("verify_response", OP4):
            self._check_response(msg.field_value("Resp"), peer_public)
        self._finish(self.session_key, self._peer_cert.subject_id)
        return Message(
            sender=self.role, label="B2", fields=(("ACK", ACK_BYTE),)
        )


def make_sts_pair(
    ctx_a: SessionContext,
    ctx_b: SessionContext,
    schedule: str = SCHEDULE_SEQUENTIAL,
) -> tuple[StsParty, StsParty]:
    """Create an initiator/responder pair sharing one schedule tag."""
    return (
        StsParty(ctx_a, ROLE_A, schedule),
        StsParty(ctx_b, ROLE_B, schedule),
    )
