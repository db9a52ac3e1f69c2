"""Fleet telemetry is coherent with the run it watched.

The tentpole contract of ``repro.obs``: hooks read orchestrator state
but never consume DRBG output, never schedule simulator events, and
never mutate fleet state.  ``test_goldens.py`` locks that down by
replaying every golden of the table with an observer attached.  These
tests check the telemetry itself: metric counters reconcile with
``FleetStats``, span counts match, heartbeats track progress, the
observer is wired only when asked for, and both export formats
round-trip their schemas.
"""

from __future__ import annotations

import json

import pytest

from goldens import GOLDENS
from repro.fleet import FleetConfig, FleetOrchestrator, run_fleet
from repro.obs import (
    MetricsSnapshot,
    Observer,
    read_jsonl,
    validate_chrome_trace,
    validate_events,
)

_CONFIG = GOLDENS["single-gateway"].config


def _observed(config, **obs_kwargs):
    obs = Observer(**obs_kwargs)
    result = FleetOrchestrator(config, obs=obs).run()
    return result, obs


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
    def test_default_run_has_no_observer(self, golden_run):
        assert golden_run("single-gateway").result.obs is None

    def test_zero_overhead_path_has_no_hooks(self, golden_run):
        orch = golden_run("single-gateway").orchestrator
        assert orch._hooks is None and orch.obs is None

    def test_explicit_obs_kwarg_wins(self):
        obs = Observer()
        result = run_fleet(_CONFIG, obs=obs)
        assert result.obs is obs

    def test_on_heartbeat_callback_fires(self):
        seen = []
        obs = Observer(heartbeat_interval_ms=50.0, on_heartbeat=seen.append)
        run_fleet(_CONFIG, obs=obs)
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
