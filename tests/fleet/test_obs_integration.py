"""Observability is digest-neutral: every historical golden survives it.

The tentpole contract of ``repro.obs``: hooks read orchestrator state
but never consume DRBG output, never schedule simulator events, and
never mutate fleet state.  These tests lock that down against **every**
committed golden from PR 1–6 (single gateway, sharded topology, V2V,
failover — all under the accelerated backend where the goldens demand
it), then check the telemetry itself is coherent: span trees validate,
metric counters reconcile with ``FleetStats``, heartbeats track
progress, and both export formats round-trip their schemas.
"""

from __future__ import annotations

import json

import pytest

from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    get_scenario,
    run_fleet,
)
from repro.obs import (
    MetricsSnapshot,
    Observer,
    read_jsonl,
    validate_chrome_trace,
    validate_events,
)

# Goldens shared with tests/fleet/test_backend_parity.py — committed
# constants from PR 1 / PR 2, now additionally pinned *with telemetry
# attached*.
_PR1_CONFIG = FleetConfig(
    n_vehicles=4,
    seed=b"fleet-test",
    records_per_vehicle=6,
    max_records=3,
    send_interval_ms=20.0,
    arrival_spread_ms=30.0,
)
_PR1_DIGEST = "5632228c71d42eadd416b2151a1c0be0a8fe6679e14fe78e66c889ac04314e17"

_PR2_TOPOLOGY_GOLDENS = {
    1: "a43e300427fe7035b2d2c1a68edaffe0d349313cf046a151c9f430aa153c6d4e",
    2: "6ed2a66e4325260712dd84192d06bab8cef9303a3b50768d51567ee46bc04a41",
    4: "3d0ba83a7e1369fa79147400588cf1bb013dc15809d89a6078f789992654df82",
}
_PR2_V2V_GOLDEN = (
    "b6d8c193008cf2c60d08616e1d44d24d3797227489a1a3b31ff143a7aec3d5e4"
)
_PR2_FAILOVER_GOLDEN = (
    "b5087aa40b037cd5709a3e735d9b7e41152aaef27908366bc84733415b38730d"
)

_CHURN_CONFIG = FleetConfig(
    n_vehicles=8,
    seed=b"churn-test",
    records_per_vehicle=40,
    max_records=100,
    send_interval_ms=25.0,
    arrival_spread_ms=15.0,
    shards=2,
    shard_fail_at_ms=4_000.0,
    fail_shard=0,
    shard_rejoin_at_ms=6_000.0,
    migrate_threshold=2,
)


def _observed(config, scenario=None, **obs_kwargs):
    obs = Observer(**obs_kwargs)
    result = FleetOrchestrator(config, scenario=scenario, obs=obs).run()
    return result, obs


class TestGoldenDigestNeutrality:
    """All PR 1–6 goldens reproduce bit-identically with obs attached."""

    def test_pr1_golden_with_observer(self):
        result, obs = _observed(_PR1_CONFIG)
        assert result.stats.digest() == _PR1_DIGEST
        obs.validate()

    def test_pr1_golden_with_wall_clock_observer(self):
        # Wall-clock annotation must not leak into behaviour either.
        result, obs = _observed(
            _PR1_CONFIG, wall_clock=True, heartbeat_interval_ms=100.0
        )
        assert result.stats.digest() == _PR1_DIGEST
        obs.validate()

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_pr2_topology_goldens_with_observer(self, shards):
        config = FleetConfig(
            n_vehicles=6,
            seed=b"topology-det",
            records_per_vehicle=2,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=15.0,
            shards=shards,
            backend="accelerated",
        )
        result, obs = _observed(config)
        assert result.stats.digest() == _PR2_TOPOLOGY_GOLDENS[shards]
        obs.validate()

    def test_pr2_v2v_golden_with_observer(self):
        config = FleetConfig(
            n_vehicles=10,
            seed=b"topology-v2v",
            records_per_vehicle=2,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=15.0,
            shards=2,
            v2v_fraction=0.6,
            v2v_records=4,
            backend="accelerated",
        )
        result, obs = _observed(config)
        assert result.stats.digest() == _PR2_V2V_GOLDEN
        obs.validate()
        assert obs.spans.by_category("v2v")
        assert (
            obs.metrics.snapshot().counter_total("fleet.v2v_sessions")
            == result.stats.v2v_sessions
        )

    def test_pr2_failover_golden_with_observer(self):
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
            backend="accelerated",
        )
        result, obs = _observed(config)
        assert result.stats.digest() == _PR2_FAILOVER_GOLDEN
        obs.validate()
        assert obs.spans.by_category("failover")

    def test_churn_run_digest_unchanged_by_observer(self):
        plain = run_fleet(_CHURN_CONFIG).stats.digest()
        result, obs = _observed(_CHURN_CONFIG)
        assert result.stats.digest() == plain
        obs.validate()
        for category in ("migrate", "re-enroll", "rejoin"):
            assert obs.spans.by_category(category), category

    def test_scenario_run_digest_unchanged_by_observer(self):
        config = FleetConfig(
            n_vehicles=8,
            seed=b"backend-scenario",
            records_per_vehicle=6,
            max_records=4,
            arrival_spread_ms=40.0,
            shards=2,
        )
        scenario = get_scenario("replay-storm")
        plain = FleetOrchestrator(config, scenario=scenario).run()
        result, obs = _observed(config, scenario=scenario)
        assert result.stats.digest() == plain.stats.digest()
        obs.validate()
        assert obs.spans.by_category("injection")
        snap = obs.metrics.snapshot()
        assert (
            snap.counter_total("fleet.injection_attempts")
            == result.stats.attack_attempts
        )
        assert (
            snap.counter_total("fleet.injection_succeeded")
            == result.stats.attack_successes
        )


class TestStatsReconciliation:
    """Telemetry counters agree with the orchestrator's own statistics."""

    @pytest.fixture(scope="class")
    def observed_run(self):
        config = FleetConfig(
            n_vehicles=6,
            seed=b"obs-reconcile",
            records_per_vehicle=4,
            max_records=3,
            send_interval_ms=20.0,
            arrival_spread_ms=25.0,
            shards=2,
        )
        return _observed(config, heartbeat_interval_ms=100.0)

    def test_counters_match_fleet_stats(self, observed_run):
        result, obs = observed_run
        snap = obs.metrics.snapshot()
        stats = result.stats
        assert snap.counter_total("fleet.records_sent") == stats.records_sent
        assert snap.counter_total("fleet.enrollments") == stats.enrollments
        assert (
            snap.counter_total("fleet.sessions")
            == stats.sessions_established
        )
        assert snap.counter_total("fleet.rekeys") == stats.rekeys
        assert snap.counter_total("fleet.vehicles_done") == stats.vehicles
        assert snap.counter_total("fleet.arrivals") == stats.vehicles

    def test_latency_histograms_populated(self, observed_run):
        result, obs = observed_run
        snap = obs.metrics.snapshot()
        enroll_count = sum(
            hist.count
            for (name, _), hist in snap.histograms.items()
            if name == "fleet.enrollment_latency_ms"
        )
        assert enroll_count == result.stats.enrollments

    def test_span_counts_match_stats(self, observed_run):
        result, obs = observed_run
        assert len(obs.spans.by_category("vehicle")) == result.stats.vehicles
        assert (
            len(obs.spans.by_category("enroll")) == result.stats.enrollments
        )
        assert (
            len(obs.spans.by_category("establish"))
            == result.stats.sessions_established
        )
        (run_span,) = obs.spans.by_category("run")
        assert run_span.parent_id is None
        assert len(obs.spans.by_category("shard")) == 2

    def test_heartbeats_monotone_and_final(self, observed_run):
        result, obs = observed_run
        beats = obs.heartbeats
        assert beats, "at least the final heartbeat fires"
        done = [beat["vehicles_done"] for beat in beats]
        assert done == sorted(done)
        times = [beat["sim_ms"] for beat in beats]
        assert times == sorted(times)
        assert beats[-1]["vehicles_done"] == result.stats.vehicles
        assert beats[-1]["records_sent"] == result.stats.records_sent

    def test_meta_describes_run(self, observed_run):
        result, obs = observed_run
        assert obs.meta["digest"] == result.stats.digest()
        assert obs.meta["n_vehicles"] == 6
        assert obs.meta["shards"] == 2
        assert obs.meta["sim_end_ms"] > 0


class TestWiring:
    def test_default_run_has_no_observer(self):
        result = run_fleet(_PR1_CONFIG)
        assert result.obs is None

    def test_zero_overhead_path_has_no_hooks(self):
        orch = FleetOrchestrator(_PR1_CONFIG)
        assert orch._hooks is None and orch.obs is None

    def test_explicit_obs_kwarg_wins(self):
        obs = Observer()
        result = run_fleet(_PR1_CONFIG, obs=obs)
        assert result.obs is obs

    def test_on_heartbeat_callback_fires(self):
        seen = []
        obs = Observer(heartbeat_interval_ms=50.0, on_heartbeat=seen.append)
        run_fleet(_PR1_CONFIG, obs=obs)
        assert seen == obs.heartbeats


class TestExportRoundTrip:
    @pytest.fixture(scope="class")
    def observed_run(self):
        config = FleetConfig(
            n_vehicles=5,
            seed=b"obs-export",
            records_per_vehicle=3,
            max_records=2,
            send_interval_ms=20.0,
            arrival_spread_ms=20.0,
            shards=2,
            v2v_fraction=0.4,
        )
        return _observed(config, heartbeat_interval_ms=200.0)

    def test_jsonl_round_trip(self, observed_run, tmp_path):
        _, obs = observed_run
        path = tmp_path / "events.jsonl"
        count = obs.export_jsonl(path)
        events = read_jsonl(path)
        assert len(events) == count
        assert validate_events(events) == count
        # Metric events survive the round trip into an equal snapshot.
        assert MetricsSnapshot.from_events(events) == obs.metrics.snapshot()

    def test_chrome_trace_round_trip(self, observed_run, tmp_path):
        _, obs = observed_run
        path = tmp_path / "trace.json"
        trace = obs.export_chrome_trace(path)
        on_disk = json.loads(path.read_text())
        assert on_disk == trace
        assert validate_chrome_trace(on_disk) > 0
        names = {
            event["name"]
            for event in on_disk["traceEvents"]
            if event["ph"] == "X"
        }
        assert any(name.startswith("veh") for name in names)

    def test_markdown_rollup_renders(self, observed_run):
        result, obs = observed_run
        text = obs.markdown_rollup()
        assert "| span category |" in text
        assert "fleet.records_sent" in text
        assert f"{result.stats.vehicles}/{result.stats.vehicles} vehicles" in text

    def test_attach_observability_extends_report(self, observed_run):
        from repro.analysis.report import ReproductionReport, attach_observability

        _, obs = observed_run
        report = ReproductionReport(
            sections={"tab1": "body"}, verdicts={"tab1": True}
        )
        attach_observability(report, obs)
        assert report.verdicts["obs"] is True
        text = report.to_markdown()
        assert "## Observability — fleet telemetry rollup" in text
        assert "| span category |" in text
