"""One lifecycle narrator: the step vocabulary and the run that takes it all.

The orchestrator narrates every lifecycle step once, through
``FleetOrchestrator._note``, from the closed vocabulary
:data:`repro.fleet.vehicle.LIFECYCLE_STEPS`; the vehicle timelines and
an attached observer both read that one narration.  The coverage run
takes every timeline kind (including the failover ``requeue``), so its
three pins catch a step that moved, went missing or was narrated twice.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import pytest

import repro
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.fleet.vehicle import LIFECYCLE_STEPS
from repro.obs import Observer
from repro.obs.fleet import HANDLERS

#: Fails shard 0 while requests are still queued (``requeue``), rejoins
#: it, re-balances (``migrate``, ``re-enroll``) and runs V2V pairs.
_COVERAGE_CONFIG = FleetConfig(
    n_vehicles=8,
    seed=b"lifecycle-coverage",
    records_per_vehicle=12,
    max_records=6,
    send_interval_ms=25.0,
    arrival_spread_ms=15.0,
    shards=2,
    shard_fail_at_ms=312.0,
    fail_shard=0,
    shard_rejoin_at_ms=3000.0,
    migrate_threshold=1,
    v2v_fraction=0.5,
    v2v_records=12,
)
_COVERAGE_DIGEST = (
    "30c1853271c454b1d07080d0cfc9243056119aa27ace16a061081bbff0fd7b11"
)
#: sha256 of ``"\n".join(v.timeline() for v in result.vehicles)``.
_COVERAGE_TIMELINES = (
    "b621301661a5b2817eed925129ee3e9e53dd328c91d9a2528644b122de85863c"
)
_COVERAGE_TREE_ROOT = (
    "96e591fb58d3b06505e7d2a5f9289d16c6af6c849c59234ac450e252aea3f541"
)

_TIMELINE_KINDS = {
    kind for kind in LIFECYCLE_STEPS.values() if kind is not None
}


def _timelines_sha(result) -> str:
    text = "\n".join(vehicle.timeline() for vehicle in result.vehicles)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def coverage():
    bare = FleetOrchestrator(_COVERAGE_CONFIG).run()
    obs = Observer()
    observed = FleetOrchestrator(_COVERAGE_CONFIG, obs=obs).run()
    return bare, observed, obs


class TestCoverageRun:
    def test_timelines_take_every_kind(self, coverage):
        bare, _, _ = coverage
        kinds = {e.kind for v in bare.vehicles for e in v.events}
        assert kinds == _TIMELINE_KINDS
        assert len(kinds) == 15

    def test_stats_digest_pinned_with_and_without_observer(self, coverage):
        bare, observed, _ = coverage
        assert bare.stats.digest() == _COVERAGE_DIGEST
        assert observed.stats.digest() == _COVERAGE_DIGEST

    def test_timelines_pinned_with_and_without_observer(self, coverage):
        bare, observed, _ = coverage
        assert _timelines_sha(bare) == _COVERAGE_TIMELINES
        assert _timelines_sha(observed) == _COVERAGE_TIMELINES

    def test_observer_stream_pinned(self, coverage):
        _, _, obs = coverage
        assert len(obs.deterministic_events()) == 169
        assert obs.digest_tree().root_digest == _COVERAGE_TREE_ROOT

    def test_every_handover_is_booked_three_ways(self, coverage):
        # The failover requeue books the vehicle's own tally too, like
        # the failover re-key and the dead-target re-enrollment requeue.
        bare, _, _ = coverage
        stats = bare.stats
        assert stats.handovers == 4
        assert sum(v.handovers for v in bare.vehicles) == stats.handovers
        assert (
            sum(s.handovers_in for s in stats.per_shard) == stats.handovers
        )


class TestVocabulary:
    def test_every_handler_names_a_step(self):
        # A misspelled handler would otherwise drop its telemetry.
        assert set(HANDLERS) <= set(LIFECYCLE_STEPS)

    def test_every_step_has_a_timeline_kind_or_a_handler(self):
        unread = [
            step
            for step, kind in LIFECYCLE_STEPS.items()
            if kind is None and step not in HANDLERS
        ]
        assert unread == []

    def test_unknown_step_raises(self):
        orch = FleetOrchestrator(FleetConfig(n_vehicles=1, seed=b"vocab"))
        with pytest.raises(KeyError):
            orch._note("arrived", orch.vehicles[0])
        assert orch.vehicles[0].events == []

    def test_run_without_observer_imports_nothing_from_obs(self):
        code = (
            "import sys\n"
            "from repro.fleet import FleetConfig, run_fleet\n"
            "run_fleet(FleetConfig(n_vehicles=2, seed=b'no-obs',"
            " records_per_vehicle=2, max_records=2,"
            " arrival_spread_ms=5.0))\n"
            "print(sorted(m for m in sys.modules"
            " if m == 'repro.obs' or m.startswith('repro.obs.')))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"
