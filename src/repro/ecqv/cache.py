"""Per-run memo of certificate decoding and public-key reconstruction.

Every STS-ECQV session rebuilds the peer's public key from its implicit
certificate (paper Eq. 1), and a chained peer also needs its issuing
sub-CA's key rebuilt the same way.  Re-keying links present the same
certificates again and again, so :class:`KeyCache` computes each
(certificate, issuer) result once and hands out the same immutable value
afterwards.

The simulated device must still pay for the work on every session.  A
hit therefore replays, in order, the trace events the first computation
recorded (:func:`repro.trace.replay`), so cost traces, pricing, energy
and every digest are exactly what an uncached run produces; only the
host skips the square root of point decompression, the certificate hash
and the scalar multiplication.

Keys are exact values, never identifiers: the encoded bytes for
:meth:`KeyCache.decode`, and for :meth:`KeyCache.reconstruct` the
certificate bytes plus the full curve values and coordinates of the
reconstruction point and the issuer key.  A subject id, serial,
authority key id or curve name can collide; a full value cannot.

Only these two pure functions are cached.  Validation (validity window,
usage, authority binding, chain epochs), ephemerals, the premaster ECDH,
signing and verification always run.  A failing computation stores
nothing, so it fails again on the next call.
"""

from __future__ import annotations

from collections import OrderedDict

from .. import trace
from ..ec import Point
from .certificate import Certificate, reconstruct_public_key

#: Most entries one :class:`KeyCache` holds; the least recently used
#: entry is evicted beyond this.  A fleet run touches about two entries
#: per distinct certificate it validates.
KEY_CACHE_ENTRIES = 4096


class KeyCache:
    """Bounded memo of :meth:`Certificate.decode` and Eq. 1 reconstruction.

    One instance lives as long as the deployment that owns it (a fleet
    run's topology, or a single :class:`~repro.protocols.SessionContext`
    or :class:`~repro.ecqv.TrustStore`), so no result outlives its run.

    Attributes:
        hits: calls answered from the cache.
        misses: calls that computed (and, on success, stored) a result.
    """

    __slots__ = ("_entries", "hits", "misses")

    def __init__(self) -> None:
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def decode(self, data: bytes) -> Certificate:
        """:meth:`Certificate.decode`, keyed on the exact bytes."""
        data = bytes(data)
        return self._memo(data, lambda: Certificate.decode(data))

    def reconstruct(
        self, certificate: Certificate, issuer_public: Point
    ) -> Point:
        """:func:`reconstruct_public_key`, keyed on exact full values."""
        point = certificate.reconstruction_point
        key = (
            certificate.encode(),
            certificate.curve,
            point.curve,
            point.y,
            issuer_public.curve,
            issuer_public.x,
            issuer_public.y,
        )
        return self._memo(
            key, lambda: reconstruct_public_key(certificate, issuer_public)
        )

    def _memo(self, key, compute):
        entries = self._entries
        entry = entries.get(key)
        if entry is not None:
            entries.move_to_end(key)
            self.hits += 1
            value, events = entry
            trace.replay(events)
            return value
        self.misses += 1
        with trace.capture() as captured:
            value = compute()
        entries[key] = (value, tuple(captured.events))
        if len(entries) > KEY_CACHE_ENTRIES:
            entries.popitem(last=False)
        return value
