"""ECQV implicit certificates per SEC 4 (Elliptic Curve Qu-Vanstone)."""

from .ca import (
    CertificateAuthority,
    CertificateRequest,
    DEFAULT_VALIDITY_SECONDS,
    IssuedCertificate,
    REQUEST_AUTH_CONTEXT,
)
from .cache import KEY_CACHE_ENTRIES, KeyCache
from .certificate import (
    Certificate,
    ID_SIZE,
    PROFILE_MINIMAL,
    USAGE_ALL,
    USAGE_CERT_SIGN,
    USAGE_KEY_AGREEMENT,
    USAGE_SIGNATURE,
    authority_key_identifier,
    cert_digest_scalar,
    minimal_cert_size,
    reconstruct_public_key,
)
from .chain import TrustStore, make_sub_ca
from .requester import CertificateRequester, EcqvCredential, issue_credential
from .validation import ValidationPolicy, validate_certificate

__all__ = [
    "Certificate",
    "CertificateAuthority",
    "CertificateRequest",
    "CertificateRequester",
    "DEFAULT_VALIDITY_SECONDS",
    "EcqvCredential",
    "ID_SIZE",
    "IssuedCertificate",
    "KEY_CACHE_ENTRIES",
    "KeyCache",
    "PROFILE_MINIMAL",
    "REQUEST_AUTH_CONTEXT",
    "TrustStore",
    "USAGE_ALL",
    "USAGE_CERT_SIGN",
    "USAGE_KEY_AGREEMENT",
    "USAGE_SIGNATURE",
    "ValidationPolicy",
    "authority_key_identifier",
    "cert_digest_scalar",
    "issue_credential",
    "make_sub_ca",
    "minimal_cert_size",
    "reconstruct_public_key",
    "validate_certificate",
]
