"""One lifecycle narrator: the step vocabulary.

The orchestrator narrates every lifecycle step once, through
``FleetOrchestrator._note``, from the closed vocabulary
:data:`repro.fleet.vehicle.LIFECYCLE_STEPS`; the vehicle timelines and
an attached observer both read that one narration.  The table's
``lifecycle`` run takes every timeline kind (including the
failover ``requeue``); ``test_goldens.py`` pins its digest, timelines
and observer stream, which catch a step that moved, went missing or was
narrated twice.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.fleet.vehicle import LIFECYCLE_STEPS
from repro.obs.fleet import HANDLERS


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
