"""Topology tests: degenerate parity, determinism, V2V, failover, policies.

The single most important contract here is **PR-1 parity**: the
refactored orchestrator with ``shards=1, v2v_fraction=0`` must reproduce
the single-gateway fleet bit-for-bit.  The golden digest below was
captured from the pre-topology orchestrator on the exact same
configuration; if it ever changes, the degenerate path regressed.
"""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    FleetTopology,
    POLICY_LEAST_LOADED,
    POLICY_ROUND_ROBIN,
    POLICY_STATIC_HASH,
    SHARD_POLICIES,
    plan_v2v_pairs,
    run_fleet,
)
from repro.fleet.policy import static_hash_index
from repro.protocols import SessionExpired

#: Digest captured from the PR 1 (pre-topology) orchestrator for this
#: exact configuration.  Bit-for-bit backwards compatibility contract.
_PR1_CONFIG = FleetConfig(
    n_vehicles=4,
    seed=b"fleet-test",
    records_per_vehicle=6,
    max_records=3,
    send_interval_ms=20.0,
    arrival_spread_ms=30.0,
)
_PR1_DIGEST = "5632228c71d42eadd416b2151a1c0be0a8fe6679e14fe78e66c889ac04314e17"


def _topology_config(**overrides) -> FleetConfig:
    base = dict(
        n_vehicles=6,
        seed=b"topology-det",
        records_per_vehicle=2,
        max_records=4,
        send_interval_ms=20.0,
        arrival_spread_ms=15.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


class TestDegenerateParity:
    def test_single_gateway_digest_is_bit_identical_to_pr1(self):
        result = run_fleet(_PR1_CONFIG)
        assert result.stats.digest() == _PR1_DIGEST
        assert not result.stats.is_topology_run

    def test_degenerate_run_has_one_shard_breakdown(self):
        result = run_fleet(_PR1_CONFIG)
        assert len(result.stats.per_shard) == 1
        shard = result.stats.per_shard[0]
        assert shard.name == "central-ca"
        assert shard.vehicles_assigned == 4
        assert not shard.failed

    def test_degenerate_topology_has_no_root_or_trust_store(self):
        orchestrator = FleetOrchestrator(_PR1_CONFIG)
        assert orchestrator.topology.root_ca is None
        assert orchestrator.topology.trust_store is None
        assert orchestrator.ca_resource.name == "central-ca"
        assert orchestrator.gateway_manager is orchestrator.shards[0].manager


class TestShardedDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_same_config_same_per_shard_digests(self, shards):
        config = _topology_config(shards=shards)
        first = run_fleet(config)
        second = run_fleet(config)
        assert first.stats.digest() == second.stats.digest()
        assert len(first.stats.per_shard) == shards
        for a, b in zip(first.stats.per_shard, second.stats.per_shard):
            assert a.digest() == b.digest()
            assert a == b

    def test_different_shard_counts_differ(self):
        digests = {
            shards: run_fleet(_topology_config(shards=shards)).stats.digest()
            for shards in (1, 2, 4)
        }
        assert len(set(digests.values())) == 3

    def test_shard_merge_consistent_with_fleet_totals(self):
        stats = run_fleet(_topology_config(shards=4)).stats
        assert sum(s.sessions_established for s in stats.per_shard) == (
            stats.sessions_established
        )
        assert sum(s.enrollments for s in stats.per_shard) == stats.enrollments
        assert sum(s.ca_batches for s in stats.per_shard) == stats.ca_batches
        assert stats.ca_busy_ms == pytest.approx(
            sum(s.ca_busy_ms for s in stats.per_shard)
        )


class TestShardPolicies:
    @pytest.mark.parametrize("policy", SHARD_POLICIES)
    def test_every_policy_completes_and_covers_the_fleet(self, policy):
        config = _topology_config(shards=3, shard_policy=policy)
        result = run_fleet(config)
        assert result.stats.enrollments == config.n_vehicles
        assert sum(
            s.vehicles_assigned for s in result.stats.per_shard
        ) == config.n_vehicles

    def test_round_robin_spreads_evenly(self):
        config = _topology_config(shards=3, shard_policy=POLICY_ROUND_ROBIN)
        result = run_fleet(config)
        assigned = [s.vehicles_assigned for s in result.stats.per_shard]
        assert max(assigned) - min(assigned) <= 1

    def test_least_loaded_spreads_evenly(self):
        config = _topology_config(
            n_vehicles=9, shards=3, shard_policy=POLICY_LEAST_LOADED
        )
        result = run_fleet(config)
        assigned = [s.vehicles_assigned for s in result.stats.per_shard]
        assert max(assigned) - min(assigned) <= 2

    def test_static_hash_is_stable_per_identity(self):
        config = _topology_config(shards=4, shard_policy=POLICY_STATIC_HASH)
        result = run_fleet(config)
        for vehicle in result.vehicles:
            assert vehicle.shard == static_hash_index(vehicle.device_id, 4)


class TestChainedTrust:
    def test_shard_cas_chain_to_one_root(self):
        topology = FleetTopology(_topology_config(shards=3))
        root_public = topology.root_ca.public_key
        assert topology.anchor_public == root_public
        for shard in topology.shards:
            cert = shard.ca_certificate
            assert cert is not None
            # Every shard CA's own key is reconstructable from the root.
            resolved = topology.trust_store.resolve_issuer(
                shard.gateway_credential.certificate, 1_700_000_000
            )
            assert resolved == shard.ca.public_key
            assert cert.authority_key_id == (
                topology.trust_store.root_key_id
            )


class TestProtocolMatrix:
    @pytest.mark.parametrize("protocol", ["poramb", "scianc", "s-ecdsa"])
    def test_non_sts_protocols_speak_chained_trust(self, protocol):
        # Every certificate-validating protocol resolves peer issuers
        # through SessionContext.issuer_public_for, so sharded fleets
        # (sub-CA-issued certificates) work beyond STS.
        config = FleetConfig(
            n_vehicles=4,
            seed=b"topology-protocols",
            protocol=protocol,
            records_per_vehicle=2,
            max_records=4,
            arrival_spread_ms=10.0,
            shards=2,
            v2v_fraction=0.5,
            v2v_records=2,
        )
        result = run_fleet(config)
        assert result.stats.enrollments == 4
        assert result.stats.v2v_sessions >= 1


class TestV2V:
    @pytest.fixture(scope="class")
    def mesh(self):
        config = _topology_config(
            n_vehicles=10,
            seed=b"topology-v2v",
            shards=2,
            v2v_fraction=0.6,
            v2v_records=4,
        )
        return config, run_fleet(config)

    def test_pair_plan_is_deterministic_and_disjoint(self, mesh):
        config, _ = mesh
        pairs = plan_v2v_pairs(config)
        assert pairs == plan_v2v_pairs(config)
        assert len(pairs) == 3  # 0.6 * 10 participants = 3 pairs
        flat = [index for pair in pairs for index in pair]
        assert len(flat) == len(set(flat))

    def test_all_pairs_complete_their_direct_traffic(self, mesh):
        config, result = mesh
        pairs = plan_v2v_pairs(config)
        assert result.stats.v2v_sessions >= len(pairs)
        assert result.stats.v2v_records_sent == len(pairs) * config.v2v_records
        for a, b in pairs:
            assert result.vehicles[a].v2v_done_at is not None
            assert result.vehicles[b].v2v_done_at is not None

    def test_cross_shard_pairs_validate_through_the_chain(self, mesh):
        config, result = mesh
        cross = [
            (result.vehicles[a], result.vehicles[b])
            for a, b in plan_v2v_pairs(config)
            if result.vehicles[a].shard != result.vehicles[b].shard
        ]
        assert cross, "expected at least one cross-shard pair"
        assert result.stats.v2v_cross_shard > 0
        for va, vb in cross:
            # The two endpoints hold certificates from *different* CAs...
            assert (
                va.credential.certificate.authority_key_id
                != vb.credential.certificate.authority_key_id
            )
            # ...and still completed direct sessions (chain validation).
            assert va.v2v_sessions > 0 and vb.v2v_sessions > 0

    def test_v2v_rekeys_under_record_budget(self):
        config = _topology_config(
            n_vehicles=4,
            seed=b"topology-v2v-rekey",
            shards=1,
            v2v_fraction=1.0,
            v2v_records=6,
            max_records=4,  # V2V sessions exhaust the budget mid-stream
        )
        result = run_fleet(config)
        assert result.stats.v2v_rekeys > 0
        assert result.stats.is_topology_run

    def test_determinism_with_v2v(self, mesh):
        config, result = mesh
        assert run_fleet(config).stats.digest() == result.stats.digest()


class TestFailover:
    @pytest.fixture(scope="class")
    def failover(self):
        # The failure hits *after* every vehicle established its first
        # session (~3.7 s in), while records are still being delivered —
        # the handover is a live re-key, not a fresh enrollment.
        config = FleetConfig(
            n_vehicles=8,
            seed=b"topology-failover",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=4_000.0,
            fail_shard=0,
        )
        orchestrator = FleetOrchestrator(config)
        return config, orchestrator, orchestrator.run()

    def test_everyone_finishes_despite_the_dead_shard(self, failover):
        config, _, result = failover
        assert all(v.done_at is not None for v in result.vehicles)
        assert all(
            v.records_sent == config.records_per_vehicle
            for v in result.vehicles
        )

    def test_handover_semantics(self, failover):
        _, orchestrator, result = failover
        failed = orchestrator.shards[0]
        survivor = orchestrator.shards[1]
        assert result.stats.handovers > 0
        assert result.stats.per_shard[0].failed
        assert result.stats.per_shard[1].handovers_in > 0
        moved = [v for v in result.vehicles if v.handovers > 0]
        assert moved, "expected session-level handovers"
        for vehicle in moved:
            # The session with the dead gateway is gone...
            with pytest.raises(SessionExpired):
                vehicle.manager.session_for(failed.gateway_id)
            # ...and the re-key succeeded at the surviving shard.
            session = vehicle.manager.session_for(survivor.gateway_id)
            assert session.peer_id == survivor.gateway_id
            assert vehicle.shard == survivor.index
            assert vehicle.sessions >= 2

    def test_failed_shard_serves_nothing_after_failure(self, failover):
        config, orchestrator, result = failover
        failed_stats = result.stats.per_shard[0]
        # Establishments at the failed shard all predate the failure.
        intervals = orchestrator.shards[0].resource.intervals
        assert all(start < config.shard_fail_at_ms for start, _ in intervals)
        assert failed_stats.vehicles_assigned > 0

    def test_failover_is_deterministic(self, failover):
        config, _, result = failover
        assert run_fleet(config).stats.digest() == result.stats.digest()


class TestConfigValidation:
    def test_bad_topology_rejected(self):
        with pytest.raises(SimulationError):
            FleetConfig(shards=0)
        with pytest.raises(SimulationError):
            FleetConfig(shard_policy="no-such-policy")
        with pytest.raises(SimulationError):
            FleetConfig(v2v_fraction=1.5)
        with pytest.raises(SimulationError):
            FleetConfig(v2v_fraction=-0.1)
        with pytest.raises(SimulationError):
            FleetConfig(v2v_records=0)
        with pytest.raises(SimulationError):
            FleetConfig(shards=1, shard_fail_at_ms=100.0)
        with pytest.raises(SimulationError):
            FleetConfig(shards=2, shard_fail_at_ms=-5.0)
        with pytest.raises(SimulationError):
            FleetConfig(shards=2, fail_shard=2)

    def test_failing_the_only_survivor_is_rejected(self):
        config = _topology_config(shards=2, shard_fail_at_ms=10.0)
        orchestrator = FleetOrchestrator(config)
        orchestrator.shards[1].failed = True
        with pytest.raises(SimulationError):
            orchestrator.run()
