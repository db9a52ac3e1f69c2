"""Process-parallel orchestration: digest parity and the barrier merge.

The contract under test: for every partitionable (config, scenario,
seed), running with ``workers ∈ {2, 4}`` produces a
:class:`~repro.fleet.FleetStats` whose digest is **bit-identical** to
``workers=1`` — and non-partitionable configurations run as one
in-process partition rather than silently diverging.
"""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys

import pytest

from repro.errors import ConfigError, ScenarioError, SimulationError
from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    ReplayStorm,
    Scenario,
    get_scenario,
    partition_plan,
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


# -- result surface -----------------------------------------------------------


class TestParallelResultSurface:
    def test_vehicles_stay_in_workers(self):
        result = run_fleet(_base(b"surface", workers=2))
        assert result.vehicles == []
        serial = run_fleet(_base(b"surface"))
        assert len(serial.vehicles) == 18

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
            (0, orch._plan.owned[0], worker_config, None, False, 5_000_000)
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
            assert any(v.pinned_shard is not None for v in vehicles)
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
