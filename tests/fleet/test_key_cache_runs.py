"""The key cache inside fleet deployments: trace-replay pins and scope.

Re-keying a link presents the same certificates again, so from the
second establishment on the peer keys come from the run's
:class:`~repro.ecqv.KeyCache`.  The device must not notice: every
party's per-operation cost trace (counts and first-seen event order) is
pinned to the same establishments run with a fresh cache each, under
both backends, on a single-gateway link and on a cross-shard V2V pair
that resolves its peer through the trust store.  Certificate requesters
share the run's cache too, so a peer's first STS run finds the key its
owner rebuilt at reception, and a trust store registering a sub-CA
certificate finds the key that sub-CA's enrollment rebuilt.
"""

from __future__ import annotations

import dataclasses

import pytest

from goldens import GOLDENS
from repro import trace
from repro.backend import use_backend
from repro.ec import SECP256R1
from repro.ecqv import (
    CertificateRequester,
    KeyCache,
    TrustStore,
    issue_credential,
    make_sub_ca,
)
from repro.ecqv import cache as cache_module
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.fleet import topology as topology_module
from repro.fleet.topology import FleetTopology
from repro.primitives import HmacDrbg
from repro.protocols import SessionContext, make_sts_pair, run_protocol
from repro.testbed import DEFAULT_NOW, device_id

BACKENDS = ("reference", "accelerated")
ESTABLISHMENTS = 3


def _vehicle(shard, name: str):
    return issue_credential(
        shard.ca,
        device_id(name),
        HmacDrbg(b"cache-pins", personalization=b"enroll|" + name.encode()),
    )


def _establish(topology, credentials, index, cache, store):
    """One STS run between ``credentials``; per-operation cost traces."""
    contexts = [
        SessionContext(
            credential=credential,
            ca_public=topology.anchor_public,
            rng=HmacDrbg(
                b"cache-pins", personalization=b"sess|%d|%d" % (side, index)
            ),
            now=DEFAULT_NOW,
            trust_store=store,
            key_cache=cache,
        )
        for side, credential in enumerate(credentials)
    ]
    party_a, party_b = make_sts_pair(*contexts)
    run_protocol(party_a, party_b)
    return [
        (party.role, record.label, op.name, list(op.cost.counts.items()))
        for party in (party_a, party_b)
        for record in party.records
        for op in record.operations
    ]


def _link(shards: int):
    """A topology and the two credentials of one link on it."""
    topology = FleetTopology(FleetConfig(seed=b"cache-pins", shards=shards))
    if shards == 1:
        gateway = topology.shards[0]
        return topology, (_vehicle(gateway, "veh-gw-link"),
                          gateway.gateway_credential)
    return topology, (_vehicle(topology.shards[0], "veh-v2v-a"),
                      _vehicle(topology.shards[1], "veh-v2v-b"))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("shards", [1, 2], ids=["gateway-link", "cross-shard-v2v"])
def test_rekeys_replay_the_traces_of_fresh_caches(backend, shards):
    with use_backend(backend):
        topology, credentials = _link(shards)
        cache = topology.key_cache
        shared = [
            _establish(topology, credentials, i, cache, topology.trust_store)
            for i in range(ESTABLISHMENTS)
        ]
        fresh = []
        for i in range(ESTABLISHMENTS):
            own = KeyCache()
            store = (
                None
                if topology.trust_store is None
                else TrustStore(
                    topology.root_ca.public_key,
                    [shard.ca_certificate for shard in topology.shards],
                    key_cache=own,
                )
            )
            fresh.append(_establish(topology, credentials, i, own, store))
    assert shared == fresh
    # Each establishment decodes and rebuilds both peer keys (and, across
    # shards, both sub-CA keys); every re-key is answered from the cache.
    lookups = 2 * 2 + (2 if shards > 1 else 0)
    assert cache.hits >= (ESTABLISHMENTS - 1) * lookups


def _first_reconstruct_misses(monkeypatch):
    """Patch ``KeyCache.reconstruct`` to log whether each call missed."""
    log: list[bool] = []
    original = KeyCache.reconstruct

    def spy(self, certificate, issuer_public):
        misses = self.misses
        result = original(self, certificate, issuer_public)
        log.append(self.misses > misses)
        return result

    monkeypatch.setattr(KeyCache, "reconstruct", spy)
    return log


@pytest.mark.parametrize("shards", [1, 2])
def test_each_run_owns_its_cache(monkeypatch, shards):
    config = FleetConfig(
        n_vehicles=4,
        seed=b"cache-scope",
        records_per_vehicle=2,
        max_records=1,
        arrival_spread_ms=10.0,
        shards=shards,
        v2v_fraction=0.5 if shards > 1 else 0.0,
        v2v_records=2,
        backend="accelerated",
    )
    first = FleetOrchestrator(config)
    first_result = first.run()
    log = _first_reconstruct_misses(monkeypatch)
    second = FleetOrchestrator(config)
    second_result = second.run()
    assert log and log[0], "the second run's first reconstruction must miss"
    caches = (first.topology.key_cache, second.topology.key_cache)
    assert caches[0] is not caches[1]
    assert (caches[0].hits, caches[0].misses) == (
        caches[1].hits,
        caches[1].misses,
    )
    assert caches[1].hits > 0
    assert second_result.stats.digest() == first_result.stats.digest()
    # Everything the run validates goes through its one cache.
    if second.topology.trust_store is not None:
        assert second.topology.trust_store.key_cache is caches[1]
    for shard in second.shards:
        assert shard.manager.context_factory().key_cache is caches[1]
    for vehicle in second.vehicles:
        assert vehicle.manager.context_factory().key_cache is caches[1]


#: The table's lifecycle run takes failover, a mid-run gateway
#: rejoin (which enrolls the reborn gateway), re-enrollments and
#: cross-shard V2V links.
_CHURN_CONFIG = dataclasses.replace(
    GOLDENS["lifecycle"].config, backend="accelerated"
)


def _observed_run(monkeypatch, config):
    """Trace scopes (in order), reconstructions and stats of one run."""
    scopes: list = []
    exit_scope = trace.trace.__exit__

    def logging_exit(self, *exc_info):
        exit_scope(self, *exc_info)
        scopes.append((self._trace.label, list(self._trace.counts.items())))

    reconstructions = [0]
    reconstruct = cache_module.reconstruct_public_key

    def counting_reconstruct(certificate, issuer_public):
        reconstructions[0] += 1
        return reconstruct(certificate, issuer_public)

    with monkeypatch.context() as patch:
        patch.setattr(trace.trace, "__exit__", logging_exit)
        patch.setattr(
            cache_module, "reconstruct_public_key", counting_reconstruct
        )
        result = FleetOrchestrator(config).run()
    return scopes, reconstructions[0], result.stats


@pytest.mark.parametrize(
    "config",
    [
        FleetConfig(
            n_vehicles=4,
            seed=b"requester-cache",
            records_per_vehicle=2,
            max_records=1,
            arrival_spread_ms=10.0,
            backend="accelerated",
        ),
        _CHURN_CONFIG,
    ],
    ids=["gateway", "churn-v2v"],
)
def test_requesters_share_the_run_cache(monkeypatch, config):
    shared_scopes, shared, shared_stats = _observed_run(monkeypatch, config)
    # The same run with a fresh cache in every requester.
    init = CertificateRequester.__init__

    def fresh_cache_init(self, curve, subject_id, rng, key_cache=None):
        init(self, curve, subject_id, rng)

    monkeypatch.setattr(CertificateRequester, "__init__", fresh_cache_init)
    fresh_scopes, fresh, fresh_stats = _observed_run(monkeypatch, config)
    # Every per-operation trace, receptions and STS runs included, is
    # the one the fresh caches produce, in the same order.
    labels = {label for label, _ in shared_scopes}
    assert any(label.endswith(":reception") for label in labels)
    assert any(label.startswith("sts:") for label in labels)
    assert shared_scopes == fresh_scopes
    assert shared_stats.digest() == fresh_stats.digest()
    if config.shards == 1:
        # Each certificate is rebuilt once, at reception, instead of
        # again at its peer's first establishment.
        assert 2 * shared == fresh
    else:
        assert shared_stats.rejoins == 1
        assert shared < fresh


def test_requester_without_a_cache_gets_its_own():
    rng = HmacDrbg(b"requester-cache", personalization=b"own")
    first = CertificateRequester(SECP256R1, b"\x01" * 16, rng)
    second = CertificateRequester(SECP256R1, b"\x02" * 16, rng)
    assert isinstance(first.key_cache, KeyCache)
    assert first.key_cache is not second.key_cache


def test_sub_ca_enrollment_rebuilds_each_pair_once(monkeypatch):
    # A 4-shard build has 8 distinct (certificate, issuer) pairs: each
    # sub-CA certificate under the root and each gateway certificate
    # under its sub-CA.  The trust store's registration of a sub-CA
    # certificate finds the key its enrollment already rebuilt.
    pairs: list = []
    reconstruct = cache_module.reconstruct_public_key

    def logging_reconstruct(certificate, issuer_public):
        pairs.append((certificate.encode(), issuer_public.x, issuer_public.y))
        return reconstruct(certificate, issuer_public)

    monkeypatch.setattr(
        cache_module, "reconstruct_public_key", logging_reconstruct
    )
    topology = FleetTopology(FleetConfig(seed=b"sub-ca-cache", shards=4))
    assert len(pairs) == len(set(pairs)) == 8
    assert topology.key_cache.hits == 4


def test_sub_ca_enrollment_keeps_a_rejoin_run(monkeypatch):
    shared_scopes, shared, shared_stats = _observed_run(
        monkeypatch, _CHURN_CONFIG
    )
    # The same run with a fresh cache in every sub-CA enrollment.
    def make_sub_ca_own_cache(*args, key_cache=None, **kwargs):
        return make_sub_ca(*args, **kwargs)

    monkeypatch.setattr(topology_module, "make_sub_ca", make_sub_ca_own_cache)
    fresh_scopes, fresh, fresh_stats = _observed_run(
        monkeypatch, _CHURN_CONFIG
    )
    assert shared_stats.rejoins == 1
    assert shared_scopes == fresh_scopes
    assert shared_stats.digest() == fresh_stats.digest()
    # Two sub-CA certificates at build time and the rejoined shard's
    # new one are each rebuilt once instead of twice.
    assert fresh - shared == 3
