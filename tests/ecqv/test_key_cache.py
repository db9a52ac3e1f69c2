"""The per-run ECQV key cache: exact keys, trace replay, bound, safety.

A hit must be indistinguishable from a recomputation for the simulated
device (same trace events, same order) while every check that depends
on the moment of use — validity window, chain epoch, announced
identity — still runs.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import trace
from repro.ec import SECP256R1, Point
from repro.ecqv import (
    Certificate,
    CertificateAuthority,
    CertificateRequester,
    KeyCache,
    TrustStore,
    make_sub_ca,
    reconstruct_public_key,
)
from repro.ecqv import cache as cache_module
from repro.errors import AuthenticationError, CertificateError
from repro.primitives import HmacDrbg
from repro.protocols import make_sts_pair, run_protocol
from repro.testbed import DEFAULT_NOW, device_id, make_testbed

TESTBED = make_testbed(("alice", "bob", "carol"), seed=b"key-cache")


def _cert_bytes(name: str) -> bytes:
    return TESTBED.credentials[name].certificate.encode()


def _flip(data: bytes, index: int) -> bytes:
    flipped = bytearray(data)
    flipped[index] ^= 0x01
    return bytes(flipped)


def _events(fn):
    with trace.trace() as cost:
        result = fn()
    return result, list(cost.counts.items())


class TestMemo:
    def test_decode_hit_returns_the_same_certificate(self):
        cache = KeyCache()
        first = cache.decode(_cert_bytes("bob"))
        second = cache.decode(_cert_bytes("bob"))
        assert first is second
        assert first == Certificate.decode(_cert_bytes("bob"))
        assert (cache.hits, cache.misses) == (1, 1)

    def test_miss_records_each_event_exactly_once(self):
        cert = TESTBED.credentials["bob"].certificate
        ca_public = TESTBED.ca.public_key
        expected, uncached = _events(
            lambda: reconstruct_public_key(cert, ca_public)
        )
        cache = KeyCache()
        key, miss = _events(lambda: cache.reconstruct(cert, ca_public))
        assert key == expected
        assert miss == uncached
        assert dict(miss) == {"sha2.block": 2, "ec.mul_point": 1, "ec.add": 1}

    def test_hit_replays_the_same_events_in_order(self):
        cert = TESTBED.credentials["bob"].certificate
        ca_public = TESTBED.ca.public_key
        cache = KeyCache()
        _, miss = _events(lambda: cache.reconstruct(cert, ca_public))
        key, hit = _events(lambda: cache.reconstruct(cert, ca_public))
        assert hit == miss
        assert key == TESTBED.credentials["bob"].public_key
        assert (cache.hits, cache.misses) == (1, 1)

    def test_hit_skips_the_host_computation(self, monkeypatch):
        cert = TESTBED.credentials["bob"].certificate
        cache = KeyCache()
        cache.reconstruct(cert, TESTBED.ca.public_key)
        monkeypatch.setattr(
            cache_module,
            "reconstruct_public_key",
            lambda *_: pytest.fail("a hit must not recompute"),
        )
        cache.reconstruct(cert, TESTBED.ca.public_key)

    def test_counters_over_a_mixed_sequence(self):
        cache = KeyCache()
        ca_public = TESTBED.ca.public_key
        for name in ("alice", "bob", "alice", "carol", "bob", "bob"):
            cert = cache.decode(_cert_bytes(name))
            cache.reconstruct(cert, ca_public)
        # 3 distinct certificates: 3 decode + 3 reconstruct misses; the
        # other 3 presentations hit on both.
        assert (cache.hits, cache.misses) == (6, 6)
        assert len(cache) == 6


class TestExactKeys:
    def test_different_issuer_key_misses(self):
        cert = TESTBED.credentials["bob"].certificate
        other_ca = CertificateAuthority(
            SECP256R1,
            device_id("other-ca"),
            HmacDrbg(b"key-cache", personalization=b"other-ca"),
        )
        cache = KeyCache()
        real = cache.reconstruct(cert, TESTBED.ca.public_key)
        other = cache.reconstruct(cert, other_ca.public_key)
        assert cache.misses == 2 and real != other
        assert other == reconstruct_public_key(cert, other_ca.public_key)

    def test_same_named_curve_with_other_parameters_misses(self):
        # A curve value sharing secp256r1's name (and so its curve id and
        # encoding) but not its parameters must never alias the real one.
        ca = TESTBED.ca.public_key
        a = SECP256R1.a + 1
        b = (ca.y * ca.y - ca.x**3 - a * ca.x) % SECP256R1.p
        alias = replace(SECP256R1, a=a, b=b)
        alias_ca = Point(alias, ca.x, ca.y)
        assert alias_ca == ca  # Point equality only compares curve names
        cert = TESTBED.credentials["bob"].certificate
        cache = KeyCache()
        cache.reconstruct(cert, ca)
        cache.reconstruct(cert, alias_ca)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_flipped_certificate_byte_misses_and_fails_as_before(self):
        data = _cert_bytes("bob")
        cache = KeyCache()
        cache.decode(data)
        # A flip inside the compressed X coordinate: decoding fails the
        # same way with and without the cache, and is never stored.
        bad = _flip(data, len(data) - 5)
        with pytest.raises(CertificateError) as uncached:
            Certificate.decode(bad)
        for _ in range(2):
            with pytest.raises(CertificateError) as cached:
                cache.decode(bad)
            assert str(cached.value) == str(uncached.value)
        assert (cache.hits, cache.misses, len(cache)) == (0, 3, 1)


class TestSafetyOnHits:
    def test_expired_certificate_raises_on_a_warm_cache(self):
        ctx = TESTBED.context("alice")
        bob = TESTBED.credentials["bob"].certificate
        for _ in range(2):
            ctx.peer_public_key(bob.encode(), bob.subject_id)
        assert ctx.key_cache.hits == 2
        ctx.now = bob.valid_to + 1
        with pytest.raises(CertificateError, match="validity window"):
            ctx.peer_public_key(bob.encode(), bob.subject_id)

    def test_announced_identity_checked_on_a_warm_cache(self):
        ctx = TESTBED.context("alice")
        bob = TESTBED.credentials["bob"].certificate
        ctx.peer_public_key(bob.encode(), bob.subject_id)
        with pytest.raises(AuthenticationError, match="announced identity"):
            ctx.peer_public_key(bob.encode(), device_id("carol"))

    def test_retired_intermediate_raises_on_a_warm_cache(self):
        root = CertificateAuthority(
            SECP256R1,
            device_id("cache-root"),
            HmacDrbg(b"key-cache", personalization=b"root"),
            clock=lambda: DEFAULT_NOW,
        )

        def sub_ca(tag: bytes):
            return make_sub_ca(
                root,
                device_id("cache-sub"),
                HmacDrbg(b"key-cache", personalization=b"sub|" + tag),
                clock=lambda: DEFAULT_NOW,
            )

        old_sub, old_cert = sub_ca(b"epoch1")
        store = TrustStore(root.public_key, [old_cert])
        requester = CertificateRequester(
            SECP256R1, device_id("cache-leaf"), HmacDrbg(b"key-cache")
        )
        leaf = requester.process_response(
            old_sub.issue(requester.create_request()), old_sub.public_key
        )
        for _ in range(2):
            assert (
                store.resolve_and_validate(leaf.certificate, DEFAULT_NOW)
                == leaf.public_key
            )
        # Registration rebuilt the sub-CA key, so even the first
        # resolution hits on it; the second hits on both keys.
        assert (store.key_cache.hits, store.key_cache.misses) == (3, 2)
        _, new_cert = sub_ca(b"epoch2")
        store.replace_intermediate(new_cert)
        with pytest.raises(CertificateError, match="chain epoch"):
            store.resolve_and_validate(leaf.certificate, DEFAULT_NOW)

    def test_corrupted_certificate_on_a_warm_link_still_aborts(self):
        ctx_a, ctx_b = TESTBED.context_pair("alice", "bob", "sts")
        shared = ctx_a.key_cache
        run_protocol(*make_sts_pair(ctx_a, ctx_b))
        ctx_a, ctx_b = TESTBED.context_pair("alice", "bob", "sts")
        ctx_a.key_cache = shared
        party_a, party_b = make_sts_pair(ctx_a, ctx_b)
        a1 = party_a.advance(None)
        b1 = party_b.advance(a1)
        fields = dict(b1.fields)
        # Flip a serial byte: the certificate still decodes and validates,
        # so only the reconstructed key differs — and the response check
        # rejects it exactly as without a cache.
        fields["Cert"] = _flip(fields["Cert"], 5)
        tampered = replace(b1, fields=tuple(fields.items()))
        misses = shared.misses
        with pytest.raises(AuthenticationError):
            party_a.advance(tampered)
        assert shared.misses == misses + 2


class TestBound:
    def test_least_recently_used_entry_is_evicted(self, monkeypatch):
        monkeypatch.setattr(cache_module, "KEY_CACHE_ENTRIES", 2)
        cache = KeyCache()
        alice, bob, carol = (
            _cert_bytes(name) for name in ("alice", "bob", "carol")
        )
        cache.decode(alice)
        cache.decode(bob)
        cache.decode(alice)  # hit: alice becomes most recent
        cache.decode(carol)  # evicts bob
        assert len(cache) == 2
        assert (cache.hits, cache.misses) == (1, 3)
        cache.decode(alice)
        assert cache.hits == 2
        cache.decode(bob)  # evicted, so a miss again
        assert (cache.hits, cache.misses) == (2, 4)
        assert len(cache) == 2
