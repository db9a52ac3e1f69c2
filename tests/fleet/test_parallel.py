"""Process-parallel orchestration: digest parity and the barrier merge.

The contract under test: for every partitionable (config, scenario,
seed), running with ``workers ∈ {2, 4}`` produces a
:class:`~repro.fleet.FleetStats` whose digest is **bit-identical** to
``workers=1`` — and non-partitionable configurations run as one
in-process partition rather than silently diverging.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError, ScenarioError, SimulationError
from repro.fleet import (
    NAMED_SCENARIOS,
    POLICY_BUNDLES,
    POLICY_RULES,
    SHARD_POLICIES,
    Decision,
    FleetConfig,
    FleetOrchestrator,
    ReplayStorm,
    Scenario,
    SessionExpiryRekey,
    ShardPolicyAssign,
    compile_scenario,
    get_scenario,
    partition_plan,
    register_policy,
    run_fleet,
)
from repro.fleet.parallel import _checksum
from repro.obs import Observer

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _base(seed: bytes, shards: int = 4, **overrides) -> FleetConfig:
    kwargs = dict(
        n_vehicles=18,
        seed=seed,
        records_per_vehicle=3,
        max_records=4,
        send_interval_ms=20.0,
        arrival_spread_ms=300.0,
        shards=shards,
    )
    kwargs.update(overrides)
    return FleetConfig(**kwargs)


# -- partition planning -------------------------------------------------------


class TestPartitionPlan:
    def test_viable_config_gets_round_robin_plan(self):
        plan = partition_plan(_base(b"plan", shards=5, workers=2), None)
        assert plan is not None
        assert plan.workers == 2
        assert plan.owned == ((0, 2, 4), (1, 3))

    def test_workers_capped_at_shard_count(self):
        plan = partition_plan(_base(b"plan", shards=2, workers=8), None)
        assert plan is not None
        assert plan.workers == 2
        assert plan.owned == ((0,), (1,))

    @pytest.mark.parametrize(
        "overrides",
        [
            {"shards": 1},
            {"shard_policy": "round-robin"},
            {"shard_policy": "least-loaded"},
            {"v2v_fraction": 0.5},
            {"shard_fail_at_ms": 2_000.0},
            {"migrate_threshold": 1},
        ],
    )
    def test_coupled_configs_are_rejected(self, overrides):
        config = _base(b"plan", workers=2, **overrides)
        assert partition_plan(config, None) is None

    def test_roaming_scenario_is_rejected(self):
        scenario = get_scenario("roaming-rebalance")
        config = _base(b"plan", workers=2, n_vehicles=24)
        orch = FleetOrchestrator(config, scenario=scenario)
        assert orch._plan is None  # runs as one in-process partition

    def test_decision_table_over_scenarios_bundles_and_knobs(self):
        # Every named scenario that compiles at 4 shards x every bundle
        # x every shard policy x threshold on/off.  A row partitions
        # exactly when the strategy is the default bundle's static-hash
        # placement with no threshold and no roamers.
        serial_scenarios = {"roaming-rebalance"}  # installs roam-cadence
        compiled, rows, mismatches = set(), 0, []
        for name, bundle, shard_policy, threshold in itertools.product(
            NAMED_SCENARIOS, (None, *POLICY_BUNDLES), SHARD_POLICIES, (None, 1)
        ):
            if bundle == "utilisation-rebalance" and threshold:
                continue  # rejected at construction
            config = _base(
                b"table",
                workers=2,
                n_vehicles=24,
                authenticate_requests=True,
                policy=bundle,
                shard_policy=shard_policy,
                migrate_threshold=threshold,
            )
            try:
                schedule = compile_scenario(get_scenario(name), config)
            except ScenarioError:
                continue
            compiled.add(name)
            rows += 1
            expected = (
                bundle in (None, "default")
                and shard_policy == "static-hash"
                and threshold is None
                and name not in serial_scenarios
            )
            if (partition_plan(config, schedule) is not None) != expected:
                mismatches.append((name, bundle, shard_policy, threshold))
        # Only stale-cert-flood needs a rejoin this config lacks.
        assert compiled == set(NAMED_SCENARIOS) - {"stale-cert-flood"}
        assert rows == 8 * 27
        assert mismatches == []

    @pytest.mark.parametrize(
        "rules",
        [(SessionExpiryRekey(),), (ShardPolicyAssign("static-hash"),)],
        ids=["session-expiry-rekey", "static-hash-assign"],
    )
    def test_scenario_of_shard_local_rules_partitions(self, rules):
        scenario = Scenario(name="shard-local", policies=rules)
        config = _base(b"plan-local", workers=2)
        orch = FleetOrchestrator(config, scenario=scenario)
        assert orch._plan is not None and orch._plan.workers == 2
        parallel = orch.run().stats
        serial = run_fleet(
            dataclasses.replace(config, workers=1), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()

    def test_rule_without_shard_local_keeps_the_run_serial(self):
        @dataclasses.dataclass(frozen=True)
        class Undeclared:
            point = "rekey"

            def evaluate(self, state, memory):
                return None

        @dataclasses.dataclass(frozen=True)
        class Declared(Undeclared):
            shard_local = True

        config = _base(b"plan-undeclared", workers=2)
        try:
            register_policy("test-undeclared")(Undeclared)
            register_policy("test-declared")(Declared)
            for rule, planned in ((Undeclared(), False), (Declared(), True)):
                scenario = Scenario(name="custom", policies=(rule,))
                schedule = compile_scenario(scenario, config)
                plan = partition_plan(config, schedule)
                assert (plan is not None) == planned
        finally:
            POLICY_RULES.pop("test-undeclared", None)
            POLICY_RULES.pop("test-declared", None)

    def test_misdeclared_shard_local_placement_fails_loudly(self):
        # Declares shard_local but places by index, not static hash:
        # workers would simulate vehicles on shards they do not own.
        @dataclasses.dataclass(frozen=True)
        class IndexPlacement:
            point = "assign"
            shard_local = True

            def evaluate(self, state, memory):
                alive = state.alive()
                index = state.vehicle.index % len(alive)
                return Decision(target_shard=alive[index].index)

        try:
            register_policy("test-index-placement")(IndexPlacement)
            scenario = Scenario(name="index", policies=(IndexPlacement(),))
            config = _base(b"plan-stray", workers=2, n_vehicles=8)
            with pytest.raises(SimulationError, match="shard_local"):
                run_fleet(config, scenario=scenario)
        finally:
            POLICY_RULES.pop("test-index-placement", None)

    def test_stale_cert_flood_stays_serial(self):
        config = _base(
            b"plan-stale",
            workers=2,
            shard_fail_at_ms=1_500.0,
            shard_rejoin_at_ms=3_000.0,
        )
        schedule = compile_scenario(get_scenario("stale-cert-flood"), config)
        assert partition_plan(config, schedule) is None

    def test_workers_must_be_positive_int(self):
        with pytest.raises(ConfigError):
            FleetConfig(workers=0)
        with pytest.raises(ConfigError):
            FleetConfig(workers=2.5)


# -- digest parity ------------------------------------------------------------


class TestDigestParity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_plain_sharded_fleet(self, workers):
        serial = run_fleet(_base(b"parity-plain")).stats
        parallel = run_fleet(
            _base(b"parity-plain", workers=workers)
        ).stats
        assert parallel.digest() == serial.digest()
        assert parallel == serial

    def test_convoy_scenario(self):
        # Convoy pins exercise the pinned-shard branch of the static
        # assignment prediction.
        scenario = get_scenario("platoon-convoys")
        config = _base(b"parity-convoy", n_vehicles=24)
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=2), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()

    def test_replay_storm_scenario(self):
        scenario = get_scenario("replay-storm")
        config = _base(b"parity-replay", shards=3, n_vehicles=24)
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=3), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()
        assert parallel.injection_stats == serial.injection_stats
        assert parallel.attack_successes == 0

    def test_ca_flood_scenario(self):
        scenario = get_scenario("ca-flood")
        config = _base(
            b"parity-flood",
            shards=3,
            n_vehicles=24,
            authenticate_requests=True,
        )
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=2), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()
        assert parallel.injection_stats == serial.injection_stats

    def test_streaming_mode_is_digest_neutral_across_workers(self):
        serial = run_fleet(_base(b"parity-stream")).stats
        streamed = run_fleet(
            _base(b"parity-stream", stream=True, workers=2)
        ).stats
        assert streamed.digest() == serial.digest()

    def test_churn_config_falls_back_and_still_matches(self):
        # Coupled config: workers>1 silently runs one partition.
        churn = dict(
            shards=3,
            records_per_vehicle=8,
            shard_fail_at_ms=1_500.0,
            fail_shard=1,
            shard_rejoin_at_ms=3_000.0,
            migrate_threshold=2,
        )
        serial = run_fleet(_base(b"parity-churn", **churn)).stats
        fallback = run_fleet(
            _base(b"parity-churn", workers=4, **churn)
        ).stats
        assert fallback.digest() == serial.digest()


# -- runaway guard ------------------------------------------------------------


class TestPartitionCap:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_each_partition_runs_far_below_its_own_cap(self, workers):
        # A worker guards only the records of the vehicles it owns, so
        # the partition caps add up to the whole fleet's.
        from repro.fleet.orchestrator import event_cap
        from repro.fleet.parallel import _worker_run

        config = _base(b"partition-cap", workers=workers)
        schedule = compile_scenario(None, config)
        plan = partition_plan(config, schedule)
        assert plan.workers == workers
        serial = FleetOrchestrator(dataclasses.replace(config, workers=1))
        worker_config = dataclasses.replace(
            config, workers=1, stream=True, backend="reference"
        )
        caps = []
        for worker, owned in enumerate(plan.owned):
            mine = [
                v.index
                for v in serial.vehicles
                if serial._predicted_shard(v) in owned
            ]
            cap = event_cap(config, schedule, mine)
            snap = _worker_run((worker, owned, worker_config, None, False))
            assert cap >= 10 * snap.events_processed > 0
            caps.append(cap)
        assert sum(caps) == event_cap(config, schedule, range(18))


# -- result surface -----------------------------------------------------------


class TestParallelResultSurface:
    def test_vehicles_stay_in_workers(self):
        result = run_fleet(_base(b"surface", workers=2))
        assert result.vehicles == []
        serial = run_fleet(_base(b"surface"))
        assert len(serial.vehicles) == 18

    @pytest.mark.parametrize("stream", [False, True])
    def test_workers_always_stream(self, monkeypatch, stream):
        # No caller can read a worker's timelines or intervals.
        from repro.fleet import parallel as par

        real_run_workers = par._run_workers
        payloads = []

        def spying_run_workers(plan, worker_payloads):
            payloads.extend(worker_payloads)
            return real_run_workers(plan, worker_payloads)

        monkeypatch.setattr(par, "_run_workers", spying_run_workers)
        config = _base(b"surface-stream", workers=2, stream=stream)
        serial = run_fleet(dataclasses.replace(config, workers=1)).stats
        assert run_fleet(config).stats.digest() == serial.digest()
        assert [payload[2].stream for payload in payloads] == [True, True]

    def test_observer_gets_merged_metrics_and_meta(self):
        obs = Observer(wall_clock=True)
        result = run_fleet(_base(b"surface-obs", workers=2), obs=obs)
        snap = obs.metrics.snapshot()
        assert (
            snap.counter_total("fleet.records_sent")
            == result.stats.records_sent
        )
        assert (
            snap.counter_total("fleet.vehicles_done")
            == result.stats.vehicles
        )
        assert obs.meta["digest"] == result.stats.digest()
        assert obs.meta["workers"] == 2
        final = obs.heartbeats[-1]
        assert final["vehicles_done"] == result.stats.vehicles
        # The fleet-wide peak RSS (max over workers) rides the final
        # heartbeat — the bench's memory-ceiling signal.
        assert final["wall"]["peak_rss_kb"] > 0
        obs.validate()

    def test_snapshot_checksum_detects_tampering(self):
        orch = FleetOrchestrator(_base(b"tamper", workers=2))
        from repro.fleet.parallel import _worker_run

        worker_config = dataclasses.replace(
            orch.config, workers=1, backend="reference"
        )
        snap = _worker_run(
            (0, orch._plan.owned[0], worker_config, None, False)
        )
        assert snap.checksum == _checksum(snap)
        snap.counters["records_sent"] += 1
        assert snap.checksum != _checksum(snap)

    def test_merge_rejects_corrupted_snapshot(self, monkeypatch):
        from repro.fleet import parallel as par

        real_worker_run = par._worker_run

        def corrupting_worker_run(payload):
            snap = real_worker_run(payload)
            if snap.worker == 0:
                snap.counters["rekeys"] += 7  # corrupt after checksum
            return snap

        # Forked workers inherit the patched module function.
        monkeypatch.setattr(par, "_worker_run", corrupting_worker_run)
        with pytest.raises(SimulationError, match="checksum"):
            run_fleet(_base(b"tamper2", workers=2))


# -- worker supervision -------------------------------------------------------

_DYING_WORKER = """
import os
from repro.errors import SimulationError
from repro.fleet import FleetConfig, parallel, run_fleet

real_worker_run = parallel._worker_run

def dying_worker_run(payload):
    if payload[0] == 0:
        os._exit(1)
    return real_worker_run(payload)

parallel._worker_run = dying_worker_run
try:
    run_fleet(FleetConfig(
        n_vehicles=4, seed=b"dying-worker", records_per_vehicle=1,
        shards=2, workers=2,
    ))
except SimulationError as exc:
    print(exc)
"""


class TestWorkerSupervision:
    def test_dead_worker_fails_the_run_instead_of_hanging(self):
        # In a subprocess with a timeout, so a regression fails the test
        # instead of hanging the suite.
        proc = subprocess.run(
            [sys.executable, "-c", _DYING_WORKER],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=os.path.abspath(_SRC)),
            timeout=120,
        )
        message = proc.stdout
        assert "worker 0" in message, proc.stdout + proc.stderr
        assert "[0]" in message and "code 1" in message, message

    def test_worker_exception_keeps_its_type(self):
        # A storm at worker 1's shard before any traffic raises inside
        # that worker; the caller sees the worker's own ScenarioError.
        scenario = Scenario(
            name="early-storm",
            injections=(ReplayStorm(at_ms=0.0, replays=4, target_shard=1),),
        )
        config = _base(b"early-storm", shards=2, workers=2)
        orch = FleetOrchestrator(config, scenario=scenario)
        assert orch._plan is not None
        with pytest.raises(ScenarioError, match="shard 1"):
            orch.run()


class TestSpawnStartMethod:
    """Hosts without ``fork`` start workers as fresh interpreters.

    A spawned worker inherits nothing: its payload is pickled and the
    ambient backend arrives resolved to a name in its config.
    """

    @pytest.mark.parametrize("observed", [False, True])
    def test_spawned_workers_match_the_serial_digest(
        self, monkeypatch, observed
    ):
        from repro.fleet import parallel as par

        started = []

        def spawn() -> str:
            started.append("spawn")
            return "spawn"

        monkeypatch.setattr(par, "_start_method", spawn)
        config = _base(b"spawn-parity", shards=2, n_vehicles=8)
        serial = run_fleet(config).stats
        obs = Observer() if observed else None
        spawned = run_fleet(
            dataclasses.replace(config, workers=2), obs=obs
        ).stats
        assert started == ["spawn"]
        assert spawned.digest() == serial.digest()
        if observed:
            assert obs.meta["workers"] == 2
            assert obs.meta["digest"] == serial.digest()


# -- placement prediction -----------------------------------------------------


class TestPlacementPrediction:
    @pytest.mark.parametrize("scenario", [None, "platoon-convoys"])
    def test_serial_placement_matches_partition_filter(self, scenario):
        # The partition filter (_predicted_shard) and the run's placement
        # (_assign) must agree, pins included, for every vehicle.
        orch = FleetOrchestrator(
            _base(b"predict", n_vehicles=24),
            scenario=get_scenario(scenario) if scenario else None,
        )
        vehicles = orch.run().vehicles
        if scenario:
            assert any(pin is not None for pin in orch.schedule.pinned_shard)
        for vehicle in vehicles:
            assert vehicle.shard == orch._predicted_shard(vehicle)


# -- metrics absorb law -------------------------------------------------------


class TestMetricsAbsorb:
    def test_absorb_equals_snapshot_merge(self):
        from repro.obs.metrics import MetricsRegistry

        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("fleet.records_sent", shard=0).inc(3)
        a.gauge("fleet.ca_max_batch").record(4)
        a.histogram("fleet.enrollment_latency_ms").observe(12.5)
        b.counter("fleet.records_sent", shard=0).inc(5)
        b.counter("fleet.records_sent", shard=1).inc(2)
        b.gauge("fleet.ca_max_batch").record(9)
        b.histogram("fleet.enrollment_latency_ms").observe(0.75)
        expected = a.snapshot().merge(b.snapshot())
        a.absorb(b.snapshot())
        assert a.snapshot() == expected

    def test_absorb_into_empty_registry(self):
        from repro.obs.metrics import MetricsRegistry

        source = MetricsRegistry()
        source.histogram("fleet.v2v_latency_ms").observe(3.25)
        source.counter("fleet.arrivals").inc(11)
        target = MetricsRegistry()
        target.absorb(source.snapshot())
        assert target.snapshot() == source.snapshot()
