"""Chained ECQV issuance: subordinate CAs and trust-store resolution.

A fleet sharded across several gateways gives every shard its own
certificate authority, but the fleet still needs one trust anchor: each
shard CA *enrolls at the fleet root* exactly like a device would, and its
resulting ECQV credential becomes the shard's issuing key pair.  A peer
holding only the root public key can then validate any fleet member in
two reconstruction steps::

    Q_shardCA = H(Cert_shard) * P_shard + Q_root      (root anchors shard)
    Q_device  = H(Cert_dev)   * P_dev   + Q_shardCA   (shard anchors device)

:class:`TrustStore` packages this: it holds the root public key plus the
registered intermediate (shard CA) certificates, and resolves any leaf
certificate's issuer key — validating the intermediate link, including
its :data:`~repro.ecqv.certificate.USAGE_CERT_SIGN` authorization — so
cross-shard peers can authenticate each other with no shared direct CA.

Chains are one intermediate deep (root → shard CA → device), matching the
fleet deployment; deeper hierarchies would nest the same two steps.
"""

from __future__ import annotations

from ..ec import Point
from ..ecdsa import KeyPair
from ..errors import CertificateError
from ..primitives import HmacDrbg
from .ca import CertificateAuthority, DEFAULT_VALIDITY_SECONDS
from .cache import KeyCache
from .certificate import (
    Certificate,
    USAGE_ALL,
    USAGE_CERT_SIGN,
    authority_key_identifier,
)
from .requester import CertificateRequester
from .validation import ValidationPolicy, validate_certificate


def make_sub_ca(
    root: CertificateAuthority,
    ca_id: bytes,
    rng: HmacDrbg,
    clock=None,
    validity_seconds: int = DEFAULT_VALIDITY_SECONDS,
    authenticate_request: bool = False,
    key_cache: KeyCache | None = None,
) -> tuple[CertificateAuthority, Certificate]:
    """Enroll a subordinate CA at ``root`` and return it with its cert.

    The sub-CA runs ordinary ECQV issuance against the root (its DRBG
    supplies the request ephemeral, then keeps serving the new CA's
    per-issuance ephemerals), and its certificate carries
    :data:`~repro.ecqv.certificate.USAGE_CERT_SIGN` so trust stores accept
    it as an intermediate.

    Args:
        root: the issuing (anchor) authority.
        ca_id: 16-byte identity of the new subordinate CA.
        rng: the subordinate's DRBG (enrollment + future issuance).
        clock: time source handed to the subordinate CA.
        validity_seconds: certificate session of the intermediate.
        authenticate_request: sign the enrollment request (proof of
            possession) so a ``require_signed_requests`` root accepts it.
        key_cache: the deployment's :class:`~repro.ecqv.KeyCache`, so the
            trust store that registers this certificate rebuilds the
            same key from the cache; a fresh one by default.
    """
    requester = CertificateRequester(root.curve, ca_id, rng, key_cache)
    issued = root.issue_batch(
        [requester.create_request(authenticate=authenticate_request)],
        validity_seconds=validity_seconds,
        key_usage=USAGE_ALL | USAGE_CERT_SIGN,
    )[0]
    credential = requester.process_response(issued, root.public_key)
    sub_ca = CertificateAuthority(
        root.curve,
        ca_id,
        rng,
        clock=clock,
        keypair=KeyPair(
            root.curve, credential.private_key, credential.public_key
        ),
    )
    return sub_ca, credential.certificate


#: Intermediates must be explicitly authorized to issue certificates.
_INTERMEDIATE_POLICY = ValidationPolicy(required_usage=USAGE_CERT_SIGN)


class TrustStore:
    """Resolves certificate issuers through ECQV intermediates to one root.

    Intermediates carry a **chain epoch**: the first certificate registered
    for a subject (a shard CA identity) is epoch 1, and every
    :meth:`replace_intermediate` — a shard CA re-provisioned after
    failure/rejoin with a fresh key pair chained to the same root — bumps
    the subject's epoch and *retires* the previous intermediate.  Leaf
    certificates issued by a retired intermediate stop resolving: the
    chain-epoch check raises instead of silently validating against a key
    the fleet has already rolled, which is what forces pre-failure
    credentials to re-enroll after a gateway rejoin.

    Public keys are rebuilt through a :class:`~repro.ecqv.KeyCache`
    (replaying the device's trace events on a hit); the window, usage and
    chain-epoch checks run on every resolution.

    Args:
        root_public: the fleet root CA public key (the single anchor).
        intermediates: optional initial intermediate certificates.
        key_cache: the deployment's key cache; a fresh one by default.
    """

    def __init__(
        self,
        root_public: Point,
        intermediates: "tuple[Certificate, ...] | list[Certificate]" = (),
        key_cache: KeyCache | None = None,
    ) -> None:
        self.root_public = root_public
        self.root_key_id = authority_key_identifier(root_public)
        self.key_cache = key_cache if key_cache is not None else KeyCache()
        self._intermediates: dict[bytes, Certificate] = {}
        #: subject_id -> (current authority key id, current chain epoch)
        self._subjects: dict[bytes, tuple[bytes, int]] = {}
        #: retired authority key id -> (subject_id, epoch it served as)
        self._retired: dict[bytes, tuple[bytes, int]] = {}
        for certificate in intermediates:
            self.add_intermediate(certificate)

    def _register(self, certificate: Certificate, epoch: int) -> bytes:
        own_public = self.key_cache.reconstruct(certificate, self.root_public)
        key_id = authority_key_identifier(own_public)
        self._intermediates[key_id] = certificate
        self._subjects[certificate.subject_id] = (key_id, epoch)
        return key_id

    def add_intermediate(self, certificate: Certificate) -> None:
        """Register a root-issued intermediate (e.g. a shard CA) cert.

        The certificate must name the root as its authority; it is indexed
        by the key identifier of its *reconstructed own* public key, which
        is what leaf certificates carry in ``authority_key_id``.  The new
        intermediate starts at chain epoch 1; a subject that already holds
        a live intermediate must go through :meth:`replace_intermediate`
        so the rollover is explicit.
        """
        if certificate.authority_key_id != self.root_key_id:
            raise CertificateError(
                "intermediate certificate is not anchored at this root"
            )
        if certificate.subject_id in self._subjects:
            raise CertificateError(
                f"subject {certificate.subject_id.hex()} already holds a"
                " live intermediate; use replace_intermediate to roll it"
            )
        self._register(certificate, 1)

    def replace_intermediate(self, certificate: Certificate) -> int:
        """Roll a subject's intermediate to a fresh certificate.

        The subject's previous intermediate is retired — leaves chained
        through it raise the chain-epoch error from then on — and the new
        certificate becomes the subject's current intermediate at the next
        chain epoch, which is returned.
        """
        if certificate.authority_key_id != self.root_key_id:
            raise CertificateError(
                "intermediate certificate is not anchored at this root"
            )
        try:
            old_key_id, old_epoch = self._subjects[certificate.subject_id]
        except KeyError:
            raise CertificateError(
                f"subject {certificate.subject_id.hex()} has no live"
                " intermediate to replace"
            ) from None
        own_public = self.key_cache.reconstruct(certificate, self.root_public)
        new_key_id = authority_key_identifier(own_public)
        if new_key_id == old_key_id:
            # Re-registering the same key would leave it both live and
            # retired at once (is_retired() true for a resolvable
            # authority — downstream re-enrollment would loop forever).
            raise CertificateError(
                "replacement intermediate reuses the retired key pair;"
                " an epoch roll must carry fresh key material"
            )
        del self._intermediates[old_key_id]
        self._retired[old_key_id] = (certificate.subject_id, old_epoch)
        self._intermediates[new_key_id] = certificate
        self._subjects[certificate.subject_id] = (new_key_id, old_epoch + 1)
        return old_epoch + 1

    def is_retired(self, authority_key_id: bytes) -> bool:
        """True if this authority key id belonged to a rolled intermediate."""
        return authority_key_id in self._retired

    def chain_epoch(self, subject_id: bytes) -> int:
        """Current chain epoch of a subject's intermediate (0 if unknown)."""
        entry = self._subjects.get(subject_id)
        return entry[1] if entry is not None else 0

    def intermediate_for(self, authority_key_id: bytes) -> Certificate:
        """The live intermediate matching an authority key id.

        Raises :class:`~repro.errors.CertificateError` both for unknown
        authorities and — with an explicit chain-epoch message — for
        authorities that were retired by :meth:`replace_intermediate`.
        """
        try:
            return self._intermediates[authority_key_id]
        except KeyError:
            pass
        if authority_key_id in self._retired:
            subject_id, epoch = self._retired[authority_key_id]
            raise CertificateError(
                f"authority {authority_key_id.hex()} was retired: subject"
                f" {subject_id.hex()} rolled past chain epoch {epoch};"
                " the leaf must re-enroll at the current intermediate"
            )
        raise CertificateError(
            f"no trust path for authority {authority_key_id.hex()}"
        ) from None

    def resolve_issuer(self, certificate: Certificate, now: int) -> Point:
        """The public key of ``certificate``'s issuer, chain-validated.

        Root-issued leaves resolve directly to the root key.  Leaves
        issued by a registered intermediate cause the intermediate's own
        certificate to be validated against the root — window, authority
        binding and the :data:`USAGE_CERT_SIGN` authorization — and its
        public key reconstructed (one ``ec.mul_point`` plus one
        ``ec.add``, the same Op2-class cost the paper prices for any
        implicit-certificate reconstruction).  The validation runs on
        every call; the reconstruction is charged on every call but
        computed once per :attr:`key_cache`.
        """
        if certificate.authority_key_id == self.root_key_id:
            return self.root_public
        intermediate = self.intermediate_for(certificate.authority_key_id)
        validate_certificate(
            intermediate, self.root_public, now, _INTERMEDIATE_POLICY
        )
        return self.key_cache.reconstruct(intermediate, self.root_public)

    def resolve_and_validate(
        self,
        certificate: Certificate,
        now: int,
        policy: ValidationPolicy | None = None,
    ) -> Point:
        """Fully validate a leaf certificate and return its public key.

        Resolves the issuer through the chain, applies ``policy`` to the
        leaf, and reconstructs the leaf public key — the one-call path
        protocol code uses for peers that may live on any shard.
        """
        issuer_public = self.resolve_issuer(certificate, now)
        validate_certificate(certificate, issuer_public, now, policy)
        return self.key_cache.reconstruct(certificate, issuer_public)
