"""Device side of ECQV issuance (SEC 4 §2.3/2.5 "Cert Request/Reception").

The device:

1. picks ``k_U``, sends ``R_U = k_U * G`` with its identity,
2. on receiving ``(Cert_U, r)`` computes ``e = H(Cert_U)`` and its private
   key ``d_U = e * k_U + r (mod n)``,
3. reconstructs ``Q_U = e * P_U + Q_CA`` and *must* check
   ``Q_U == d_U * G`` before accepting the certificate — this is the SEC 4
   key-confirmation step that catches a corrupted or substituted
   certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ec import Curve, Point, mul_base
from ..ecdsa import sign
from ..errors import CertificateError
from ..primitives import HmacDrbg
from .ca import CertificateRequest, IssuedCertificate
from .cache import KeyCache
from .certificate import Certificate, cert_digest_scalar


@dataclass(frozen=True)
class EcqvCredential:
    """A device's complete ECQV credential after successful issuance.

    Attributes:
        certificate: the implicit certificate (shareable).
        private_key: the reconstructed private key ``d_U`` (secret).
        public_key: the reconstructed public key ``Q_U``.
    """

    certificate: Certificate
    private_key: int
    public_key: Point

    @property
    def subject_id(self) -> bytes:
        """The credential owner's identity."""
        return self.certificate.subject_id


class CertificateRequester:
    """Stateful device-side ECQV issuance session.

    Args:
        curve: domain parameters.
        subject_id: the device identity to certify.
        rng: the device's DRBG.
        key_cache: the deployment's :class:`~repro.ecqv.KeyCache`, so the
            peer that later validates this certificate rebuilds the same
            key from the cache; a fresh one by default.
    """

    def __init__(
        self,
        curve: Curve,
        subject_id: bytes,
        rng: HmacDrbg,
        key_cache: KeyCache | None = None,
    ) -> None:
        self.curve = curve
        self.subject_id = subject_id
        self._rng = rng
        self._k_u: int | None = None
        self.key_cache = key_cache if key_cache is not None else KeyCache()

    def create_request(self, authenticate: bool = False) -> CertificateRequest:
        """Step 1: generate the ephemeral and the request point ``R_U``.

        With ``authenticate=True`` the request additionally carries a
        proof-of-possession signature over the request bytes, made with
        the ephemeral ``k_U`` itself (so ``R_U`` is the verification
        key); CAs serving hostile networks batch-verify these proofs in
        :meth:`~repro.ecqv.ca.CertificateAuthority.issue_batch`.
        """
        self._k_u = self._rng.random_scalar(self.curve.n)
        request = CertificateRequest(
            subject_id=self.subject_id,
            request_point=mul_base(self._k_u, self.curve),
        )
        if authenticate:
            request = CertificateRequest(
                subject_id=request.subject_id,
                request_point=request.request_point,
                signature=sign(
                    self.curve, self._k_u, request.signed_payload()
                ),
            )
        return request

    def process_response(
        self, issued: IssuedCertificate, ca_public: Point
    ) -> EcqvCredential:
        """Steps 2–3: derive ``d_U``, reconstruct ``Q_U`` and key-confirm."""
        if self._k_u is None:
            raise CertificateError("process_response called before create_request")
        cert = issued.certificate
        if cert.subject_id != self.subject_id:
            raise CertificateError("certificate subject mismatch")
        if cert.curve.name != self.curve.name:
            raise CertificateError("certificate curve mismatch")
        e = cert_digest_scalar(cert.encode(), self.curve)
        private = (e * self._k_u + issued.private_reconstruction) % self.curve.n
        if private == 0:
            raise CertificateError("degenerate private key; re-run issuance")
        public = self.key_cache.reconstruct(cert, ca_public)
        if mul_base(private, self.curve) != public:
            raise CertificateError(
                "key confirmation failed: reconstructed keys do not match"
            )
        self._k_u = None
        return EcqvCredential(
            certificate=cert, private_key=private, public_key=public
        )


def issue_credential(
    ca, subject_id: bytes, rng: HmacDrbg, validity_seconds: int | None = None
) -> EcqvCredential:
    """Convenience wrapper running the full issuance round-trip in memory.

    Args:
        ca: a :class:`~repro.ecqv.ca.CertificateAuthority`.
        subject_id: 16-byte device identity.
        rng: the device's DRBG.
        validity_seconds: optional override of the certificate session.
    """
    requester = CertificateRequester(ca.curve, subject_id, rng)
    request = requester.create_request()
    if validity_seconds is None:
        issued = ca.issue(request)
    else:
        issued = ca.issue(request, validity_seconds=validity_seconds)
    return requester.process_response(issued, ca.public_key)
