"""Tests for fleet statistics: summaries, digests, derived rates."""

from __future__ import annotations

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

from repro.errors import StatsError
from repro.fleet import FleetStats, InjectionStats, LatencySummary, ShardStats

_REPO_ROOT = Path(__file__).resolve().parents[2]


def make_stats(**overrides):
    base = dict(
        vehicles=4,
        enrollments=4,
        sessions_established=8,
        rekeys=4,
        records_sent=40,
        duration_ms=2000.0,
        ca_busy_ms=150.0,
        ca_utilisation=0.075,
        ca_batches=2,
        ca_max_batch=3,
        enrollment_latency=LatencySummary.from_samples([10.0, 20.0]),
        establishment_latency=LatencySummary.from_samples([5.0]),
        vehicle_energy_mj=1.5,
        ca_energy_mj=0.5,
    )
    base.update(overrides)
    return FleetStats(**base)


class TestLatencySummary:
    def test_empty(self):
        summary = LatencySummary.from_samples([])
        assert summary.count == 0
        assert summary.max_ms == 0.0

    def test_single_sample(self):
        summary = LatencySummary.from_samples([7.5])
        assert summary.min_ms == summary.p50_ms == summary.max_ms == 7.5

    def test_percentiles_ordered(self):
        samples = [float(i) for i in range(100, 0, -1)]
        summary = LatencySummary.from_samples(samples)
        assert summary.min_ms == 1.0
        assert summary.max_ms == 100.0
        assert (
            summary.min_ms
            <= summary.p50_ms
            <= summary.p95_ms
            <= summary.max_ms
        )
        assert summary.p50_ms == 51.0  # nearest-rank on sorted 1..100
        assert summary.mean_ms == 50.5

    def test_unsorted_input_is_sorted(self):
        assert LatencySummary.from_samples(
            [3.0, 1.0, 2.0]
        ) == LatencySummary.from_samples([1.0, 2.0, 3.0])

    def test_from_dict_roundtrip(self):
        summary = LatencySummary.from_samples([1.0, 4.0, 2.0, 9.0])
        assert LatencySummary.from_dict(summary.as_dict()) == summary

    def test_from_dict_accepts_pre_topology_format(self):
        # Summaries serialized before p99_ms existed lack the key; they
        # must deserialize with the same 0.0 the field's default gives.
        old_format = {
            "count": 3,
            "min_ms": 1.0,
            "mean_ms": 2.0,
            "p50_ms": 2.0,
            "p95_ms": 3.0,
            "max_ms": 3.0,
        }
        summary = LatencySummary.from_dict(old_format)
        assert summary.p99_ms == 0.0
        assert summary.count == 3
        # Round-tripping upgrades the dict to the current format.
        assert LatencySummary.from_dict(summary.as_dict()) == summary

    def test_p99_uses_round_half_up_rank(self):
        # 151 samples: p99 rank is 0.99 * 150 = 148.5.  Banker's
        # rounding picks 148 (the lower sample) — the corrected p99
        # must round half up to index 149.
        samples = [float(i) for i in range(151)]
        summary = LatencySummary.from_samples(samples)
        assert summary.p99_ms == 149.0

    def test_digest_frozen_percentiles_keep_legacy_rounding(self):
        # p50/p95 are rendered into row() and therefore into every
        # historical digest: they must keep banker's rounding even on
        # exact .5 ranks.  4 samples: p50 rank 1.5 -> index 2 (even),
        # NOT index 1 as round-half-up would give.
        summary = LatencySummary.from_samples([10.0, 20.0, 30.0, 40.0])
        assert summary.p50_ms == 30.0
        # 11 samples: p95 rank 9.5 -> banker's picks index 10 here
        # (even), which happens to agree with round-half-up; the pin
        # documents the rule either way.
        summary11 = LatencySummary.from_samples([float(i) for i in range(11)])
        assert summary11.p95_ms == 10.0

    def test_p99_at_boundaries(self):
        assert LatencySummary.from_samples([]).p99_ms == 0.0
        assert LatencySummary.from_samples([5.0]).p99_ms == 5.0
        # p99 can never exceed the maximum sample.
        summary = LatencySummary.from_samples([1.0, 2.0])
        assert summary.p99_ms <= summary.max_ms


class TestFleetStats:
    def test_throughput_rates(self):
        stats = make_stats()
        assert stats.throughput_records_per_s == 20.0  # 40 in 2 s
        assert stats.sessions_per_s == 4.0

    def test_zero_duration_rates(self):
        stats = make_stats(duration_ms=0.0)
        assert stats.throughput_records_per_s == 0.0
        assert stats.sessions_per_s == 0.0

    def test_digest_stable_and_sensitive(self):
        assert make_stats().digest() == make_stats().digest()
        assert make_stats().digest() != make_stats(records_sent=41).digest()
        assert (
            make_stats().digest()
            != make_stats(ca_busy_ms=150.000001).digest()
        )

    def test_render_mentions_headlines(self):
        text = make_stats().render()
        assert "4 vehicles" in text
        assert "re-keys" in text
        assert "utilisation" in text


def every_segment_stats() -> FleetStats:
    """Every digest segment active: two shards (shard 1 churned), V2V,
    handovers, churn, profiles and two injections."""
    queue = LatencySummary.from_samples([0.5, 1.25, 4.0])
    return FleetStats(
        vehicles=5,
        enrollments=5,
        sessions_established=9,
        rekeys=3,
        records_sent=60,
        duration_ms=5321.0625,
        ca_busy_ms=250.25,
        ca_utilisation=0.0235,
        ca_batches=5,
        ca_max_batch=3,
        enrollment_latency=LatencySummary.from_samples([10.0, 12.5, 31.0]),
        establishment_latency=LatencySummary.from_samples([4.0, 4.5]),
        vehicle_energy_mj=42.125,
        ca_energy_mj=17.5,
        per_shard=(
            ShardStats(
                index=0, name="central-ca-0", vehicles_assigned=3,
                enrollments=3, sessions_established=5, rekeys=2,
                handovers_in=0, failed=False, ca_busy_ms=130.125,
                ca_utilisation=0.0245, ca_batches=3, ca_max_batch=3,
                queue_latency=queue, ca_energy_mj=9.0,
            ),
            ShardStats(
                index=1, name="central-ca-1", vehicles_assigned=2,
                enrollments=4, sessions_established=4, rekeys=1,
                handovers_in=1, failed=False, ca_busy_ms=120.125,
                ca_utilisation=0.0226, ca_batches=2, ca_max_batch=2,
                queue_latency=queue, ca_energy_mj=8.5,
                epoch=2, migrations_in=1, migrations_out=0,
            ),
        ),
        ca_queue_latency=queue,
        v2v_sessions=2,
        v2v_rekeys=1,
        v2v_cross_shard=1,
        v2v_records_sent=10,
        v2v_latency=LatencySummary.from_samples([22.0, 24.75]),
        handovers=1,
        migrations=1,
        rejoins=1,
        re_enrollments=2,
        migration_latency=LatencySummary.from_samples([61.5]),
        scenario="every-segment",
        profile_counts=(("commuter", 3), ("courier", 2)),
        injection_stats=(
            InjectionStats("replay-storm", 1500.0, 8, 8, 0),
            InjectionStats("ca-queue-flood", 2250.5, 4, 4, 0),
        ),
        policy="default",
    )


class TestDigestLayout:
    def test_every_segment_digest_is_pinned(self):
        # Pins the whole token sequence (core, topology, churn, shard
        # digests, scenario) in one place: reordering declared fields
        # or changing a token or format moves this digest.
        stats = every_segment_stats()
        assert stats.is_churn_run and stats.is_scenario_run
        assert [shard.churned for shard in stats.per_shard] == [False, True]
        assert stats.digest() == (
            "05ffaef75dad34beed693b03c468c3b08219a6cc19ea910f7a0d6891bff8ca67"
        )


class TestMalformedPayload:
    @pytest.mark.parametrize(
        "keys,dotted",
        [
            (("vehicles",), "vehicles"),
            (("energy_mj", "vehicles"), "energy_mj.vehicles"),
            (("enrollment_latency", "count"), "enrollment_latency.count"),
            (
                ("per_shard", 1, "queue_latency", "max_ms"),
                "per_shard[1].queue_latency.max_ms",
            ),
            (
                ("scenario", "injections", 0, "kind"),
                "scenario.injections[0].kind",
            ),
        ],
    )
    def test_missing_required_key_names_its_path(self, keys, dotted):
        payload = every_segment_stats().as_dict()
        node = payload
        for key in keys[:-1]:
            node = node[key]
        del node[keys[-1]]
        with pytest.raises(StatsError, match=re.escape(repr(dotted))):
            FleetStats.from_dict(payload)

    def test_non_finite_float_names_its_path(self):
        payload = every_segment_stats().as_dict()
        payload["energy_mj"]["ca"] = math.inf
        with pytest.raises(StatsError, match="energy_mj.ca"):
            FleetStats.from_dict(payload)


def _recorded_stats():
    """One param per stats dict recorded in the committed benchmark files
    (the cells the regression gate compares)."""
    spec = importlib.util.spec_from_file_location(
        "regression_gate", _REPO_ROOT / "benchmarks" / "regression_gate.py"
    )
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    paths = sorted(_REPO_ROOT.glob("benchmarks/baselines/*.json"))
    paths += sorted(_REPO_ROOT.glob("BENCH_*.json"))
    return [
        pytest.param(stats, id=f"{path.relative_to(_REPO_ROOT)}[{index}]")
        for path in paths
        for index, stats in enumerate(
            gate.extract_cells(json.loads(path.read_text())).values()
        )
    ]


class TestRecordedArtifacts:
    @pytest.mark.parametrize("stats", _recorded_stats())
    def test_rebuilds_to_recorded_digest(self, stats):
        assert FleetStats.from_dict(stats).digest() == stats["digest"]
