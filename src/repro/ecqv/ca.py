"""The ECQV certificate authority (SEC 4 §2.4 "Cert Generate").

In the paper's architecture (Fig. 1) a central, more powerful device — the
gateway / Raspberry Pi 4 in the prototype — plays the CA during stage (2),
certificate derivation.  The CA:

1. receives a request ``(U_id, R_U)`` where ``R_U = k_U * G``,
2. picks its own ephemeral ``k``, forms ``P_U = R_U + k*G``,
3. encodes the certificate over ``P_U``,
4. returns the certificate plus the private-key reconstruction data
   ``r = H(Cert) * k + d_CA (mod n)``.

Issuance rides on ``mul_base``/``mul_base_batch``, which dispatch through
the :mod:`repro.backend` EC seam — batched CA bursts run on OpenSSL
point math under the accelerated backend, bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ec import Curve, Point, encode_point, mul_base, mul_base_batch
from ..ecdsa import KeyPair, Signature, generate_keypair, verify_batch
from ..errors import CertificateError
from ..primitives import HmacDrbg
from .certificate import (
    Certificate,
    ID_SIZE,
    USAGE_ALL,
    authority_key_identifier,
    cert_digest_scalar,
)

#: Default certificate validity: one "certificate session" of 24 hours.
DEFAULT_VALIDITY_SECONDS = 24 * 3600

#: Domain-separation prefix of the request proof-of-possession signature.
REQUEST_AUTH_CONTEXT = b"ecqv-request-v1|"


@dataclass(frozen=True)
class CertificateRequest:
    """A certificate request ``(U_id, R_U)`` from a device to the CA.

    A request may carry a proof-of-possession ``signature``: an ECDSA
    signature over :meth:`signed_payload` made with the request ephemeral
    ``k_U`` itself, verifiable against ``R_U`` as the public key.  The CA
    authenticates whole bursts of signed requests in one batched
    verification pass (:meth:`CertificateAuthority.issue_batch`).
    """

    subject_id: bytes
    request_point: Point
    signature: Signature | None = None

    def __post_init__(self) -> None:
        if len(self.subject_id) != ID_SIZE:
            raise CertificateError(f"subject_id must be {ID_SIZE} bytes")
        if self.request_point.is_infinity:
            raise CertificateError("request point must not be infinity")

    def signed_payload(self) -> bytes:
        """The byte string a proof-of-possession signature covers."""
        return (
            REQUEST_AUTH_CONTEXT
            + self.subject_id
            + encode_point(self.request_point, compressed=True)
        )


@dataclass(frozen=True)
class IssuedCertificate:
    """CA response: the certificate plus private-key reconstruction data."""

    certificate: Certificate
    private_reconstruction: int  # r = e*k + d_CA mod n


class CertificateAuthority:
    """An ECQV CA bound to one curve and one identity.

    Args:
        curve: domain parameters for all certificates this CA issues.
        ca_id: 16-byte CA identity (zero-padded/truncated if needed).
        rng: deterministic DRBG supplying the CA key pair and per-issuance
            ephemerals.
        clock: callable returning the current unix time; injectable so the
            simulator controls certificate sessions.
        keypair: optional pre-existing CA key pair.  A subordinate CA
            whose key material came out of ECQV enrollment at a root
            (:func:`~repro.ecqv.chain.make_sub_ca`) injects it here; when
            absent a fresh pair is generated from ``rng``.
        require_signed_requests: when True, :meth:`issue_batch` rejects
            any request lacking a proof-of-possession signature.
    """

    def __init__(
        self,
        curve: Curve,
        ca_id: bytes,
        rng: HmacDrbg,
        clock=None,
        keypair: KeyPair | None = None,
        require_signed_requests: bool = False,
    ) -> None:
        if len(ca_id) != ID_SIZE:
            raise CertificateError(f"ca_id must be {ID_SIZE} bytes")
        if keypair is not None and keypair.curve.name != curve.name:
            raise CertificateError("injected CA key pair on wrong curve")
        self.curve = curve
        self.ca_id = ca_id
        self._rng = rng
        self._clock = clock if clock is not None else (lambda: 1_700_000_000)
        self.keypair: KeyPair = (
            keypair if keypair is not None else generate_keypair(curve, rng)
        )
        self.require_signed_requests = require_signed_requests
        self._serial = 0
        self.issued: dict[int, Certificate] = {}

    @property
    def public_key(self) -> Point:
        """The CA public key ``Q_CA`` every device must hold."""
        return self.keypair.public

    @property
    def authority_key_id(self) -> bytes:
        """Truncated hash of ``Q_CA`` embedded in issued certificates."""
        return authority_key_identifier(self.public_key)

    def issue(
        self,
        request: CertificateRequest,
        validity_seconds: int = DEFAULT_VALIDITY_SECONDS,
        key_usage: int = USAGE_ALL,
    ) -> IssuedCertificate:
        """Run SEC 4 Cert Generate for one request."""
        return self.issue_batch([request], validity_seconds, key_usage)[0]

    def issue_batch(
        self,
        requests,
        validity_seconds: int = DEFAULT_VALIDITY_SECONDS,
        key_usage: int = USAGE_ALL,
    ) -> list[IssuedCertificate]:
        """Run SEC 4 Cert Generate for a whole burst of requests.

        Draws one ephemeral per request up front and computes every
        ``k*G`` through :func:`~repro.ec.mul_base_batch`, so the burst
        pays a single Jacobian normalization instead of one inversion per
        certificate — the CA-side win the fleet orchestrator's enrollment
        storms exercise.  The DRBG is consumed in request order, so the
        issued certificates are byte-identical to issuing the same
        requests sequentially.

        Requests carrying a proof-of-possession signature are
        authenticated first, all in one :func:`~repro.ecdsa.verify_batch`
        pass over the whole queue; a failed proof aborts the burst before
        any ephemeral is drawn, so a rejected batch leaves the CA state
        untouched.
        """
        requests = list(requests)
        if validity_seconds <= 0:
            raise CertificateError("validity must be positive")
        for request in requests:
            if request.request_point.curve.name != self.curve.name:
                raise CertificateError("request point on wrong curve")
        self._authenticate_requests(requests)
        ephemerals = [
            self._rng.random_scalar(self.curve.n) for _ in requests
        ]
        kg_points = mul_base_batch(ephemerals, self.curve)
        issued: list[IssuedCertificate] = []
        for request, k, kg in zip(requests, ephemerals, kg_points):
            # P_U = R_U + k*G : the public-key reconstruction point.
            reconstruction = request.request_point + kg
            while reconstruction.is_infinity:
                # Astronomically unlikely; SEC 4 says retry with fresh k.
                k = self._rng.random_scalar(self.curve.n)
                reconstruction = request.request_point + mul_base(
                    k, self.curve
                )
            self._serial += 1
            now = self._clock()
            cert = Certificate(
                curve=self.curve,
                serial=self._serial,
                issuer_id=self.ca_id,
                subject_id=request.subject_id,
                valid_from=now,
                valid_to=now + validity_seconds,
                authority_key_id=self.authority_key_id,
                reconstruction_point=reconstruction,
                key_usage=key_usage,
            )
            e = cert_digest_scalar(cert.encode(), self.curve)
            r = (e * k + self.keypair.private) % self.curve.n
            self.issued[cert.serial] = cert
            issued.append(
                IssuedCertificate(certificate=cert, private_reconstruction=r)
            )
        return issued

    def _authenticate_requests(self, requests) -> None:
        """Batch-verify every signed request's proof of possession.

        The signature was made with the request ephemeral ``k_U``, so
        ``R_U`` itself is the verification key: a valid proof shows the
        requester knows the discrete log of its request point (no
        pre-existing credential needed — this is the bootstrap step).
        """
        signed = [
            (index, request)
            for index, request in enumerate(requests)
            if request.signature is not None
        ]
        if self.require_signed_requests and len(signed) != len(requests):
            missing = next(
                index
                for index, request in enumerate(requests)
                if request.signature is None
            )
            raise CertificateError(
                f"request {missing} carries no proof-of-possession signature"
            )
        if not signed:
            return
        outcomes = verify_batch(
            [
                (request.request_point, request.signed_payload(), request.signature)
                for _, request in signed
            ]
        )
        for (index, request), ok in zip(signed, outcomes):
            if not ok:
                raise CertificateError(
                    f"request {index} ({request.subject_id.hex()}) failed"
                    " proof-of-possession authentication"
                )
