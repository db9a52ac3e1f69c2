"""Protocol framework: messages, parties, transcripts and the step driver.

Every key-derivation protocol in this library is written as a pair of
:class:`Party` state machines exchanging :class:`Message` objects with
exact wire layouts (the byte counts of the paper's Table II fall out of
these layouts).  Each party wraps every logical computation in a named
:class:`Operation` whose primitive invocations are captured by a
:class:`~repro.trace.CostTrace` — the raw material for the hardware timing
models, the Fig. 7 timeline simulation and the Opt. I/II schedulers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from .. import trace
from ..ec import Point
from ..ecqv import (
    Certificate,
    EcqvCredential,
    KeyCache,
    TrustStore,
    ValidationPolicy,
    validate_certificate,
)
from ..errors import AuthenticationError, ProtocolError
from ..primitives import HmacDrbg
from .pool import EphemeralPool

#: Roles of the two stations; "A" always initiates.
ROLE_A = "A"
ROLE_B = "B"

#: Operation classes used by the STS optimization analysis (paper §IV-C).
OP1 = "op1"  # request phase: random XG point derivation
OP2 = "op2"  # public key + premaster session key generations
OP3 = "op3"  # auth. signature derivation and encryption
OP4 = "op4"  # auth. signature decryption and verification
OP_SYM = "sym"  # cheap symmetric-only bookkeeping (MACs, KDF-only steps)


@dataclass(frozen=True)
class Message:
    """A protocol message with named, fixed-width fields.

    The wire representation is the concatenation of the field values; the
    named structure exists so the overhead analysis can report per-field
    byte counts exactly as the paper's Table II does.
    """

    sender: str
    label: str
    fields: tuple[tuple[str, bytes], ...]

    def field_value(self, name: str) -> bytes:
        """Value of a named field; raises :class:`ProtocolError` if absent."""
        for key, value in self.fields:
            if key == name:
                return value
        raise ProtocolError(f"message {self.label} has no field {name!r}")

    def has_field(self, name: str) -> bool:
        """True if the message carries a field called ``name``."""
        return any(key == name for key, _ in self.fields)

    @property
    def payload(self) -> bytes:
        """Concatenated wire bytes of all fields."""
        return b"".join(value for _, value in self.fields)

    @property
    def size(self) -> int:
        """Application-layer size in bytes."""
        return sum(len(value) for _, value in self.fields)

    def summary(self) -> str:
        """Human-readable layout, e.g. ``A1: ID(16), XG(64)``."""
        parts = ", ".join(f"{name}({len(value)})" for name, value in self.fields)
        return f"{self.label}: {parts}"


@dataclass
class Operation:
    """One logical computation inside a protocol step.

    Attributes:
        name: semantic name (``"xg_generation"``, ``"derive_session_key"``…).
        op_class: one of :data:`OP1`..:data:`OP4`/:data:`OP_SYM`; the unit
            of the paper's optimization analysis.
        cost: primitive-invocation counts captured while the operation ran.
    """

    name: str
    op_class: str
    cost: trace.CostTrace


@dataclass
class StepRecord:
    """Everything one party did in reaction to one (possibly absent) message.

    Attributes:
        role: :data:`ROLE_A` or :data:`ROLE_B`.
        label: a human-readable step label (``"A1"``, ``"recv:B1"``…).
        operations: ordered computations performed during the step.
        message: the message sent at the end of the step, if any.
    """

    role: str
    label: str
    operations: list[Operation]
    message: Message | None


@dataclass
class SessionContext:
    """Per-device state a protocol party needs.

    Attributes:
        credential: the device's ECQV credential (cert + key pair).
        ca_public: the trusted CA public key ``Q_CA``.
        rng: the device's DRBG (ephemerals, nonces, IVs).
        now: current unix time for certificate validation.
        policy: certificate acceptance policy.
        pre_shared_keys: pairwise authentication keys indexed by peer
            identity — only the PORAMB baseline uses these (its documented
            deployment burden).
        ephemeral_pool: optional :class:`~repro.protocols.pool.EphemeralPool`
            of precomputed Op1 ephemerals; pool-aware protocols (STS) drain
            it instead of computing ``X*G`` per session.  ``None`` keeps
            the classic on-demand path.
        trust_store: optional :class:`~repro.ecqv.TrustStore` for
            multi-CA deployments; chain-aware protocols (STS) resolve a
            peer certificate's issuer through it, so peers enrolled at
            *different* subordinate CAs (cross-shard fleet members)
            authenticate via the shared root.  ``None`` keeps the classic
            single-CA path where ``ca_public`` is the direct issuer.
        key_cache: the :class:`~repro.ecqv.KeyCache` that decodes peer
            certificates and rebuilds peer keys in :meth:`peer_public_key`.
            A fleet run shares one across all its contexts; by default
            every context gets a fresh one.
    """

    credential: EcqvCredential
    ca_public: Point
    rng: HmacDrbg
    now: int = 1_700_000_000
    policy: ValidationPolicy = field(default_factory=ValidationPolicy)
    pre_shared_keys: dict[bytes, bytes] = field(default_factory=dict)
    ephemeral_pool: "EphemeralPool | None" = None
    trust_store: "TrustStore | None" = None
    key_cache: KeyCache = field(default_factory=KeyCache)

    @property
    def device_id(self) -> bytes:
        """The device's 16-byte identity (from its certificate)."""
        return self.credential.subject_id

    def issuer_public_for(self, certificate) -> Point:
        """The trusted issuer key for a peer certificate.

        Resolved through the trust store when one is attached (the peer
        may be enrolled at any subordinate CA of the shared root — the
        multi-shard fleet case); otherwise ``ca_public`` is the direct
        issuer, the classic single-CA deployment.  Every
        certificate-validating protocol funnels through this, so all of
        them speak chained trust uniformly.
        """
        if self.trust_store is not None:
            return self.trust_store.resolve_issuer(certificate, self.now)
        return self.ca_public

    def peer_public_key(
        self, cert_bytes: bytes, announced_id: bytes
    ) -> tuple[Certificate, Point]:
        """Authenticate a peer certificate and rebuild its key (Eq. 1).

        Decodes the certificate, requires its subject to be the identity
        the peer announced in its first message, resolves the issuer
        (:meth:`issuer_public_for`), applies :attr:`policy`, and
        reconstructs the peer's public key.  Decoding and reconstruction
        go through :attr:`key_cache`; the checks run on every call.

        Raises:
            AuthenticationError: the certificate's subject is not
                ``announced_id``.
            CertificateError: the certificate is malformed or fails
                validation.
        """
        cert = self.key_cache.decode(cert_bytes)
        if cert.subject_id != announced_id:
            raise AuthenticationError(
                "peer certificate subject differs from its announced identity"
            )
        issuer_public = self.issuer_public_for(cert)
        validate_certificate(cert, issuer_public, self.now, self.policy)
        return cert, self.key_cache.reconstruct(cert, issuer_public)


class Party(ABC):
    """Abstract protocol party driven by :func:`run_protocol`.

    Subclasses implement :meth:`_advance`, reading ``incoming`` (``None``
    for the initiator's first step) and returning the next message or
    ``None`` when they have nothing further to send.  Completion is
    signalled by setting :attr:`complete`.
    """

    #: Protocol identifier, overridden by subclasses (e.g. ``"sts"``).
    protocol_name: str = "abstract"

    def __init__(self, ctx: SessionContext, role: str) -> None:
        if role not in (ROLE_A, ROLE_B):
            raise ProtocolError(f"invalid role {role!r}")
        self.ctx = ctx
        self.role = role
        self.records: list[StepRecord] = []
        self.session_key: bytes | None = None
        self.peer_id: bytes | None = None
        self.peer_authenticated = False
        self.complete = False
        self._step_ops: list[Operation] = []

    # -- operation recording -------------------------------------------------

    @contextmanager
    def operation(self, name: str, op_class: str) -> Iterator[trace.CostTrace]:
        """Record one named operation with its primitive cost trace."""
        with trace.trace(f"{self.protocol_name}:{self.role}:{name}") as t:
            yield t
        self._step_ops.append(Operation(name=name, op_class=op_class, cost=t))

    # -- stepping -------------------------------------------------------------

    def advance(self, incoming: Message | None) -> Message | None:
        """Process one step; returns the outgoing message, if any."""
        if self.complete:
            raise ProtocolError(
                f"{self.protocol_name} party {self.role} already complete"
            )
        self._step_ops = []
        outgoing = self._advance(incoming)
        label = (
            outgoing.label
            if outgoing is not None
            else f"recv:{incoming.label}" if incoming is not None else "idle"
        )
        self.records.append(
            StepRecord(
                role=self.role,
                label=label,
                operations=self._step_ops,
                message=outgoing,
            )
        )
        return outgoing

    @abstractmethod
    def _advance(self, incoming: Message | None) -> Message | None:
        """Protocol-specific state machine body."""

    # -- helpers --------------------------------------------------------------

    def _expect(self, incoming: Message | None, label: str) -> Message:
        """Require the incoming message to exist and carry ``label``."""
        if incoming is None:
            raise ProtocolError(
                f"{self.protocol_name} {self.role}: expected {label}, got nothing"
            )
        if incoming.label != label:
            raise ProtocolError(
                f"{self.protocol_name} {self.role}: expected {label},"
                f" got {incoming.label}"
            )
        return incoming

    def _finish(self, session_key: bytes, peer_id: bytes) -> None:
        """Mark the run complete with an established key."""
        self.session_key = session_key
        self.peer_id = peer_id
        self.complete = True

    def total_cost(self) -> trace.CostTrace:
        """Aggregate primitive counts over all recorded operations."""
        total = trace.CostTrace(f"{self.protocol_name}:{self.role}")
        for record in self.records:
            for op in record.operations:
                total.merge(op.cost)
        return total


@dataclass
class ProtocolTranscript:
    """The full record of one protocol run between two parties."""

    protocol_name: str
    messages: list[Message]
    party_a: Party
    party_b: Party

    @property
    def total_bytes(self) -> int:
        """Total application-layer bytes transmitted (Table II 'Total')."""
        return sum(m.size for m in self.messages)

    @property
    def n_steps(self) -> int:
        """Number of transmissions (Table II 'steps')."""
        return len(self.messages)

    def layout(self) -> list[str]:
        """Per-message field layouts, Table II style."""
        return [m.summary() for m in self.messages]

    def all_steps(self) -> list[StepRecord]:
        """Interleaved step records from both parties, in execution order."""
        # Parties alternate strictly (A starts), so interleave by index.
        merged: list[StepRecord] = []
        a_steps = self.party_a.records
        b_steps = self.party_b.records
        for i in range(max(len(a_steps), len(b_steps))):
            if i < len(a_steps):
                merged.append(a_steps[i])
            if i < len(b_steps):
                merged.append(b_steps[i])
        return merged


def run_protocol(
    party_a: Party, party_b: Party, max_steps: int = 16
) -> ProtocolTranscript:
    """Drive two parties to completion, collecting the transcript.

    Party A initiates.  Raises :class:`ProtocolError` if the parties fail
    to finish within ``max_steps`` half-steps or disagree on the session
    key (a correctness invariant every protocol here must satisfy).
    """
    if party_a.protocol_name != party_b.protocol_name:
        raise ProtocolError("parties speak different protocols")
    messages: list[Message] = []
    outgoing = party_a.advance(None)
    steps = 1
    current, other = party_b, party_a
    while outgoing is not None:
        if steps > max_steps:
            raise ProtocolError(
                f"{party_a.protocol_name}: no convergence in {max_steps} steps"
            )
        messages.append(outgoing)
        outgoing = current.advance(outgoing)
        current, other = other, current
        steps += 1
    if not (party_a.complete and party_b.complete):
        raise ProtocolError(
            f"{party_a.protocol_name}: run ended with incomplete parties"
        )
    if party_a.session_key != party_b.session_key:
        raise ProtocolError(
            f"{party_a.protocol_name}: session key mismatch between parties"
        )
    return ProtocolTranscript(
        protocol_name=party_a.protocol_name,
        messages=messages,
        party_a=party_a,
        party_b=party_b,
    )
