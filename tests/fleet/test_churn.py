"""Fleet churn: live migration, gateway rejoin, chain epochs.

Churn scenarios are pure functions of the seed: same seed ⇒ same
digest, different seed ⇒ different digest (the seed-matrix test), with
the whole lifecycle visible in the epoch-aware stats.  With churn
disabled the orchestrator reproduces the pre-churn topology goldens bit
for bit; that is ``test_goldens.py``'s job, over the table in
``goldens.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from goldens import GOLDENS
from repro.errors import CertificateError, SimulationError
from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    plan_v2v_pairs,
    run_fleet,
)
from repro.obs import Observer
from repro.protocols import SessionExpired
from repro.testbed import DEFAULT_NOW


def _topology_config(**overrides) -> FleetConfig:
    """A variant of the table's single-shard topology run."""
    return dataclasses.replace(GOLDENS["topology-1"].config, **overrides)


def _churn_config(**overrides) -> FleetConfig:
    """A variant of the table's churn run: failure at 4 s, rejoin at 6 s,
    re-balancing threshold 2."""
    return dataclasses.replace(GOLDENS["churn"].config, **overrides)


_SEEDS = (b"churn-seed-a", b"churn-seed-b", b"churn-seed-c")


class TestSeedMatrix:
    """Churn scenarios are pure functions of the seed."""

    @pytest.fixture(scope="class")
    def first_digests(self):
        return {
            seed: run_fleet(_churn_config(seed=seed)).stats.digest()
            for seed in _SEEDS
        }

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_same_seed_same_digest(self, seed, first_digests):
        second = run_fleet(_churn_config(seed=seed)).stats.digest()
        assert second == first_digests[seed]

    def test_different_seeds_differ(self, first_digests):
        assert len(set(first_digests.values())) == 3


class TestLiveMigration:
    @pytest.fixture(scope="class")
    def rebalanced(self):
        # static-hash places veh0000..0005 as 2/4 across two shards, so
        # threshold 1 forces the re-balancer to move one vehicle.
        config = _topology_config(
            n_vehicles=6,
            seed=b"churn-rebalance",
            records_per_vehicle=30,
            max_records=100,
            send_interval_ms=25.0,
            shards=2,
            migrate_threshold=1,
        )
        return config, run_fleet(config)

    def test_threshold_policy_triggers_migration(self, rebalanced):
        _, result = rebalanced
        stats = result.stats
        assert stats.migrations >= 1
        assert stats.re_enrollments >= stats.migrations
        assert stats.migration_latency.count == stats.migrations
        assert stats.is_churn_run and stats.is_topology_run

    def test_migrated_vehicle_re_enrolled_at_target_ca(self, rebalanced):
        _, result = rebalanced
        moved = [v for v in result.vehicles if v.migrations > 0]
        assert moved
        for vehicle in moved:
            assert vehicle.re_enrollments >= 1
            assert not vehicle.migrating
            kinds = [e.kind for e in vehicle.events]
            assert "migrate" in kinds and "re-enrolled" in kinds
        assert sum(v.migrations for v in moved) == result.stats.migrations

    def test_everyone_finishes_with_all_records(self, rebalanced):
        config, result = rebalanced
        assert all(
            v.records_sent == config.records_per_vehicle
            for v in result.vehicles
        )

    def test_per_shard_migration_counters_balance(self, rebalanced):
        _, result = rebalanced
        stats = result.stats
        assert sum(s.migrations_in for s in stats.per_shard) == (
            stats.migrations
        )
        assert sum(s.migrations_out for s in stats.per_shard) == (
            stats.migrations
        )

    def test_migration_digest_differs_from_non_churn(self, rebalanced):
        config, result = rebalanced
        still = dataclasses.replace(config, migrate_threshold=None)
        assert run_fleet(still).stats.digest() != result.stats.digest()


class TestExplicitMigrateApi:
    @pytest.fixture(scope="class")
    def forced(self):
        config = _topology_config(
            n_vehicles=6,
            seed=b"churn-explicit",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            shards=2,
        )
        orchestrator = FleetOrchestrator(config)
        vehicle = orchestrator.vehicles[0]
        source_holder = {}

        def force() -> None:
            source = orchestrator.shards[vehicle.shard]
            target = orchestrator.shards[1 - vehicle.shard]
            source_holder["source"] = source
            orchestrator.migrate(vehicle, target)

        # Well after enrollment + first establishment, well before done.
        orchestrator.sim.schedule_at(4_200.0, force)
        result = orchestrator.run()
        return orchestrator, vehicle, source_holder["source"], result

    def test_explicit_migration_moves_and_re_enrolls(self, forced):
        orchestrator, vehicle, source, result = forced
        assert vehicle.migrations == 1
        assert vehicle.re_enrollments == 1
        assert vehicle.shard != source.index
        target = orchestrator.shards[vehicle.shard]
        assert (
            vehicle.credential.certificate.authority_key_id
            == target.ca.authority_key_id
        )
        assert vehicle.records_sent == result.stats.records_sent // 6

    def test_drained_half_sees_session_expired_only(self, forced):
        orchestrator, vehicle, source, _ = forced
        # The source gateway dropped its half at migration time: any use
        # of the stale pairing raises SessionExpired, never a MAC error.
        with pytest.raises(SessionExpired):
            source.manager.send(vehicle.device_id, b"stale")

    def test_migrating_to_own_shard_rejected(self):
        config = _topology_config(
            n_vehicles=6,
            seed=b"churn-explicit",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            shards=2,
        )
        orchestrator = FleetOrchestrator(config)
        vehicle = orchestrator.vehicles[0]
        orchestrator.sim.schedule_at(
            4_200.0,
            lambda: orchestrator.migrate(
                vehicle, orchestrator.shards[vehicle.shard]
            ),
        )
        with pytest.raises(SimulationError, match="already lives on shard"):
            orchestrator.run()
        # Raised on a live vehicle, past the liveness guard.
        assert vehicle.enrolled_at is not None and vehicle.done_at is None
        assert vehicle.migrations == 0

    def test_migrate_outside_a_send_leaves_one_send_loop(self):
        # Regression: the send already scheduled when migrate() ran from
        # outside a send used to fire mid-migration, re-key at the target
        # with the old certificate and start a second send loop (three
        # establishments, two "done" events, a shard at -1 active, and a
        # double-ended span under an observer).
        config = _topology_config(
            n_vehicles=6,
            seed=b"churn-explicit",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            shards=2,
        )
        obs = Observer()
        orchestrator = FleetOrchestrator(config, obs=obs)
        vehicle = orchestrator.vehicles[0]
        orchestrator.sim.schedule_at(
            4_200.0,
            lambda: orchestrator.migrate(
                vehicle, orchestrator.shards[1 - vehicle.shard]
            ),
        )
        orchestrator.run()
        obs.validate()
        assert vehicle.migrations == 1
        assert vehicle.sessions == 2
        assert [e.kind for e in vehicle.events].count("done") == 1
        assert [s.active_vehicles for s in orchestrator.shards] == [0, 0]

    def test_re_enrollment_requeued_off_a_dead_shard_is_observed(self):
        # Shard 2 dies while the migration's re-enroll request is being
        # computed, so the request is requeued to a survivor.  The stats,
        # the observer and the timeline each book that one handover.
        config = _topology_config(
            n_vehicles=6,
            seed=b"churn-explicit",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            shards=3,
            shard_fail_at_ms=4_201.0,
            fail_shard=2,
        )
        obs = Observer()
        orchestrator = FleetOrchestrator(config, obs=obs)
        vehicle = orchestrator.vehicles[0]
        orchestrator.sim.schedule_at(
            4_200.0, lambda: orchestrator.migrate(vehicle, 2)
        )
        stats = orchestrator.run().stats
        requeues = [e for e in vehicle.events if e.kind == "requeue"]
        assert [(round(e.time_ms, 3), e.detail) for e in requeues] == [
            (4497.432, "shard 2 -> shard 0")
        ]
        assert stats.handovers == 1
        assert obs.metrics.snapshot().counter_total("fleet.handovers") == 1
        events = [
            span
            for span in obs.spans.finished()
            if span.name == "veh0000:handover"
        ]
        assert len(events) == 1


class TestGatewayRejoin:
    @pytest.fixture(scope="class")
    def churned(self, golden_run):
        orchestrator, result = golden_run("churn")
        return orchestrator.config, orchestrator, result

    def test_rejoined_shard_is_alive_at_next_epoch(self, churned):
        _, orchestrator, result = churned
        shard = result.stats.per_shard[0]
        assert result.stats.rejoins == 1
        assert not shard.failed
        assert shard.epoch == 2
        assert orchestrator.shards[0].epoch == 2
        assert result.stats.per_shard[1].epoch == 1

    def test_trust_store_rolled_the_chain_epoch(self, churned):
        _, orchestrator, _ = churned
        store = orchestrator.topology.trust_store
        shard = orchestrator.shards[0]
        ca_subject = shard.ca_certificate.subject_id
        assert store.chain_epoch(ca_subject) == 2
        # The rejoined CA's current certificate resolves...
        assert (
            store.resolve_issuer(
                shard.gateway_credential.certificate, DEFAULT_NOW
            )
            == shard.ca.public_key
        )

    def test_old_epoch_certificates_rejected(self, churned):
        _, orchestrator, result = churned
        store = orchestrator.topology.trust_store
        # Vehicles may *hold* a retired-epoch credential to the end (an
        # undisturbed session never re-validates), but the chain itself
        # rejects it: resolution raises the chain-epoch error.
        stale = [
            v
            for v in result.vehicles
            if store.is_retired(v.credential.certificate.authority_key_id)
        ]
        assert stale, "expected at least one idle stale-credential holder"
        with pytest.raises(CertificateError, match="chain epoch"):
            store.resolve_issuer(stale[0].credential.certificate, DEFAULT_NOW)
        # And every vehicle that went through a churn re-enrollment left
        # the retired epoch behind.
        for vehicle in result.vehicles:
            if vehicle.re_enrollments > 0:
                assert not store.is_retired(
                    vehicle.credential.certificate.authority_key_id
                )
        assert result.stats.re_enrollments > 0

    def test_rejoined_shard_adopts_migrated_back_vehicles(self, churned):
        _, orchestrator, result = churned
        shard = result.stats.per_shard[0]
        assert shard.migrations_in >= 1
        back = [
            v
            for v in result.vehicles
            if v.shard == 0 and v.migrations > 0
        ]
        assert back, "expected at least one vehicle migrated back"
        for vehicle in back:
            # Adopted under the *new* sub-CA: the fresh credential chains
            # through the epoch-2 intermediate.
            assert (
                vehicle.credential.certificate.authority_key_id
                == orchestrator.shards[0].ca.authority_key_id
            )
            session = vehicle.manager.session_for(
                orchestrator.shards[0].gateway_id
            )
            assert session.peer_id == orchestrator.shards[0].gateway_id

    def test_everyone_finishes_through_the_full_lifecycle(self, churned):
        config, _, result = churned
        assert all(
            v.records_sent == config.records_per_vehicle
            for v in result.vehicles
        )
        assert result.stats.records_sent == (
            config.n_vehicles * config.records_per_vehicle
        )

    def test_rejoin_digest_is_epoch_aware(self, churned):
        config, _, result = churned
        # A failover-only run (no rejoin, no migration) must hash
        # differently: the churn segment and the epoch-2 shard row only
        # exist in the churn run.
        plain = dataclasses.replace(
            config, shard_rejoin_at_ms=None, migrate_threshold=None
        )
        assert run_fleet(plain).stats.digest() != result.stats.digest()


class TestEpochReEnrollment:
    def test_stale_credentials_re_enroll_after_rejoin(self):
        # A small record budget forces re-keys *after* the rejoin, so
        # vehicles still holding pre-failure (retired-epoch) credentials
        # must pull fresh certificates before re-establishing.
        config = _churn_config(
            seed=b"churn-epoch",
            records_per_vehicle=60,
            max_records=10,
            shard_rejoin_at_ms=5_500.0,
        )
        result = run_fleet(config)
        epoch_reenrolls = [
            (v.name, e.detail)
            for v in result.vehicles
            for e in v.events
            if e.kind == "re-enroll" and "chain epoch rolled" in e.detail
        ]
        assert epoch_reenrolls, "expected chain-epoch forced re-enrollments"
        assert result.stats.re_enrollments >= len(epoch_reenrolls)
        assert all(
            v.records_sent == config.records_per_vehicle
            for v in result.vehicles
        )


class TestV2VChurnOverlap:
    """Gateway re-keys and V2V re-keys racing one chain-epoch roll."""

    @pytest.fixture(scope="class")
    def overlapped(self):
        # Tight budgets on both the gateway and V2V sessions force both
        # paths to re-establish after the rejoin, so the same stale
        # credential can be demanded fresh by two paths at once.
        config = _churn_config(
            seed=b"churn-v2v-overlap",
            records_per_vehicle=60,
            max_records=10,
            v2v_fraction=0.5,
            v2v_records=25,
            shard_rejoin_at_ms=5_500.0,
        )
        return config, run_fleet(config)

    def test_everything_completes_and_is_deterministic(self, overlapped):
        config, result = overlapped
        assert all(
            v.records_sent == config.records_per_vehicle
            for v in result.vehicles
        )
        for a, b in plan_v2v_pairs(config):
            assert result.vehicles[a].v2v_done_at is not None
        assert result.stats.rejoins == 1
        assert run_fleet(config).stats.digest() == result.stats.digest()

    def test_concurrent_epoch_re_enrollments_coalesce(self, overlapped):
        _, result = overlapped
        assert result.stats.re_enrollments > 0
        for vehicle in result.vehicles:
            # The counter only counts real pipelines; coalesced requests
            # show up as timeline events instead of double enrollment.
            pipelines = sum(
                1
                for e in vehicle.events
                if e.kind == "re-enroll" and "coalesced" not in e.detail
            )
            assert vehicle.re_enrollments == pipelines
            assert not vehicle.re_enrolling


class TestMigrateNeedsALiveVehicle:
    """``migrate()`` moves only a vehicle between enrollment and done.

    Unguarded, a migrate before enrollment drives its shard's active
    count to -1, and one after done re-enrolls the vehicle and books a
    second done (an observed run ends a span twice, a streaming run
    reaches the released manager).
    """

    @pytest.mark.parametrize(
        "at_ms, observe, stream, state",
        [
            (0.0, False, False, "has not enrolled"),
            (60_000.0, False, False, "is done"),
            (60_000.0, True, False, "is done"),
            (60_000.0, False, True, "is done"),
        ],
        ids=[
            "before-enrollment",
            "after-done",
            "after-done-observed",
            "after-done-stream",
        ],
    )
    def test_migrating_a_vehicle_that_is_not_live_raises(
        self, at_ms, observe, stream, state
    ):
        config = _topology_config(
            n_vehicles=4, seed=b"migrate-guard", shards=2, stream=stream
        )
        orchestrator = FleetOrchestrator(
            config, obs=Observer() if observe else None
        )
        vehicle = orchestrator.vehicles[0]
        orchestrator.sim.schedule_at(
            at_ms,
            lambda: orchestrator.migrate(
                vehicle, orchestrator.shards[1 - vehicle.shard]
            ),
        )
        with pytest.raises(SimulationError, match=f"veh0000 {state}"):
            orchestrator.run()
        assert vehicle.migrations == 0
        assert all(s.active_vehicles >= 0 for s in orchestrator.shards)


class TestChurnConfigValidation:
    def test_bad_churn_configs_rejected(self):
        with pytest.raises(SimulationError):
            FleetConfig(shards=2, shard_rejoin_at_ms=100.0)  # no failure
        with pytest.raises(SimulationError):
            FleetConfig(
                shards=2,
                shard_fail_at_ms=200.0,
                shard_rejoin_at_ms=100.0,  # before the failure
            )
        with pytest.raises(SimulationError):
            FleetConfig(
                shards=2,
                shard_fail_at_ms=200.0,
                shard_rejoin_at_ms=200.0,  # not strictly after
            )
        with pytest.raises(SimulationError):
            FleetConfig(shards=1, migrate_threshold=1)
        with pytest.raises(SimulationError):
            FleetConfig(shards=2, migrate_threshold=0)

    def test_migrate_between_failed_shards_rejected(self):
        # Shard 1 fails at 3 s; by 4.2 s vehicle 0 lives on shard 0, so
        # the migrate reaches the failed-shard check.
        config = _topology_config(
            n_vehicles=6,
            seed=b"churn-explicit",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            shards=2,
            shard_fail_at_ms=3_000.0,
            fail_shard=1,
        )
        orchestrator = FleetOrchestrator(config)
        vehicle = orchestrator.vehicles[0]
        orchestrator.sim.schedule_at(
            4_200.0, lambda: orchestrator.migrate(vehicle, 1)
        )
        with pytest.raises(SimulationError, match="two healthy shards"):
            orchestrator.run()
        assert vehicle.enrolled_at is not None and vehicle.done_at is None
        assert vehicle.shard == 0 and orchestrator.shards[1].failed
        assert vehicle.migrations == 0
