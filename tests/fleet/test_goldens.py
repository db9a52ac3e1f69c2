"""Every golden of the table, replayed in every run mode.

Each entry of :data:`goldens.GOLDENS` runs in each mode of
:data:`MODES`: plain, under the explicit ``default`` policy bundle, on
the accelerated backend, with an :class:`~repro.obs.Observer` attached,
in streaming mode and on two worker processes.  None of these may move
a digest:

- backends are bit-parity, because pricing consumes trace counts and
  DRBG bytes, which the backend contract fixes;
- the ``default`` bundle is the extracted legacy strategies, and
  ``policy=None`` selects it;
- observer hooks read orchestrator state but never consume DRBG output,
  schedule simulator events or mutate fleet state;
- streaming drops only state a vehicle whose last link ended can never
  touch again;
- a worker partition merges into the single-worker digest, and a
  coupled configuration runs in-process.

Every run must reproduce the entry's pinned digest (a self-parity entry:
its plain run's digest) and pass the entry's own checks in
:data:`CHECKS`; a streaming run must also end with every vehicle
released.  :data:`EXTRA_CELLS` adds three single-entry cells.  The four
perfbench pins are replayed here too, and each entry's plain run and each
perfbench workload must stay far below the runaway guard its fleet
derives.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from goldens import GOLDENS
from repro.backend import get_backend, use_backend
from repro.fleet import FleetConfig, FleetOrchestrator, run_fleet
from repro.fleet.orchestrator import event_cap
from repro.fleet.vehicle import LIFECYCLE_STEPS
from repro.obs import Observer


@dataclass(frozen=True)
class Mode:
    """How a cell runs its entry.

    Attributes:
        overrides: changes to the entry's ``FleetConfig``.
        observer: ``Observer`` keyword arguments; ``None`` attaches none.
        ambient: backend selected around the run with ``use_backend``.
    """

    overrides: dict = field(default_factory=dict)
    observer: dict | None = None
    ambient: str | None = None


MODES = {
    "plain": Mode(),
    "policy": Mode({"policy": "default"}),
    "accelerated": Mode({"backend": "accelerated"}),
    "observer": Mode(observer={}),
    "stream": Mode({"stream": True}),
    "workers": Mode({"workers": 2}),
}

#: Cells for one entry each: wall-clock annotation must not leak into
#: behaviour, the ambient backend must act like the config knob, and
#: four workers on four shards must merge like one.
EXTRA_CELLS = {
    ("single-gateway", "wall-clock"): Mode(
        observer={"wall_clock": True, "heartbeat_interval_ms": 100.0}
    ),
    ("single-gateway", "ambient-accelerated"): Mode(ambient="accelerated"),
    ("topology-4", "workers-4"): Mode({"workers": 4, "policy": "default"}),
}

CELLS = {
    **{(name, mode): MODES[mode] for name in GOLDENS for mode in MODES},
    **EXTRA_CELLS,
}

_TIMELINE_KINDS = {
    kind for kind in LIFECYCLE_STEPS.values() if kind is not None
}


def _timelines_sha(result) -> str:
    text = "\n".join(vehicle.timeline() for vehicle in result.vehicles)
    return hashlib.sha256(text.encode()).hexdigest()


def _spans_and_counters(obs, result, categories, counters) -> None:
    """Observer only: spans of each category, counters equal to stats."""
    if obs is None:
        return
    for category in categories:
        assert obs.spans.by_category(category), category
    snapshot = obs.metrics.snapshot()
    for counter, attribute in counters:
        assert snapshot.counter_total(counter) == getattr(
            result.stats, attribute
        ), counter


def _single_gateway(result, obs, config) -> None:
    assert not result.stats.is_topology_run


def _churn_free(result, obs, config) -> None:
    assert not result.stats.is_churn_run


def _v2v(result, obs, config) -> None:
    _spans_and_counters(
        obs, result, ["v2v"], [("fleet.v2v_sessions", "v2v_sessions")]
    )


def _failover(result, obs, config) -> None:
    # Failover without rejoin leaves every shard at epoch 1, so the
    # per-shard rows hash exactly as they did before churn existed.
    assert all(shard.epoch == 1 for shard in result.stats.per_shard)
    _spans_and_counters(obs, result, ["failover"], [])


def _churn(result, obs, config) -> None:
    assert result.stats.is_churn_run
    _spans_and_counters(obs, result, ["migrate", "re-enroll", "rejoin"], [])


def _replay_storm(result, obs, config) -> None:
    assert result.stats.attack_attempts > 0
    assert result.stats.attack_successes == 0
    _spans_and_counters(
        obs,
        result,
        ["injection"],
        [
            ("fleet.injection_attempts", "attack_attempts"),
            ("fleet.injection_succeeded", "attack_successes"),
        ],
    )


def _lifecycle(result, obs, config) -> None:
    stats = result.stats
    # The failover requeue books the vehicle's own tally too, like the
    # failover re-key and the dead-target re-enrollment requeue.
    assert stats.handovers == 4
    assert sum(v.handovers for v in result.vehicles) == stats.handovers
    assert sum(s.handovers_in for s in stats.per_shard) == stats.handovers
    if not config.stream:
        kinds = {e.kind for v in result.vehicles for e in v.events}
        assert kinds == _TIMELINE_KINDS
        assert len(kinds) == 15


#: Each entry's own checks, on every run of it.
CHECKS = {
    "single-gateway": _single_gateway,
    "topology-1": _churn_free,
    "topology-2": _churn_free,
    "topology-4": _churn_free,
    "v2v-mesh": _v2v,
    "failover": _failover,
    "churn": _churn,
    "replay-storm": _replay_storm,
    "lifecycle": _lifecycle,
}


@pytest.mark.parametrize("name, mode", list(CELLS))
def test_golden(name, mode, golden_run):
    golden = GOLDENS[name]
    cell = CELLS[name, mode]
    obs = None if cell.observer is None else Observer(**cell.observer)
    if mode == "plain":
        orchestrator, result = golden_run(name)
    else:
        orchestrator = golden.orchestrator(obs, **cell.overrides)
        with use_backend(cell.ambient):
            if cell.ambient:
                assert get_backend().name == cell.ambient
            result = orchestrator.run()
    stats = result.stats
    expected = golden.digest or golden_run(name).result.stats.digest()
    assert stats.digest() == expected
    assert stats.policy == (orchestrator.config.policy or "")
    CHECKS[name](result, obs, orchestrator.config)
    if orchestrator.config.stream:
        # Each vehicle's last link ended, so its state is gone.
        for vehicle in result.vehicles:
            assert vehicle.events == [], vehicle.name
            assert vehicle.pool is None and vehicle.manager is None
    elif golden.timelines is not None:
        assert _timelines_sha(result) == golden.timelines
    if obs is not None:
        obs.validate()
        if golden.tree_root is not None:
            assert len(obs.deterministic_events()) == golden.observer_events
            assert obs.digest_tree().root_digest == golden.tree_root


@pytest.mark.parametrize("name", sorted(GOLDENS))
def test_event_cap_far_above_the_run(name, golden_run):
    # The runaway guard is a multiple of the fleet's records, so a run
    # that ends normally stays an order of magnitude below it.
    orchestrator, _ = golden_run(name)
    config = orchestrator.config
    cap = event_cap(config, orchestrator.schedule, range(config.n_vehicles))
    assert cap >= 10 * orchestrator.sim.events_processed


def _perfbench_workloads():
    path = Path(__file__).parents[2] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_PERFBENCH = _perfbench_workloads()


@pytest.mark.parametrize("workload", sorted(_PERFBENCH.WORKLOADS))
def test_perfbench_pin(workload):
    # perfbench/workloads.py keeps its own four pins, each checked by the
    # benchmark on every timed run; this replays them without timing.
    spec = _PERFBENCH.WORKLOADS[workload]
    config = FleetConfig(**spec.fleet_kwargs(_PERFBENCH.DEFAULT_SEED))
    assert run_fleet(config).stats.digest() == spec.pinned_digest


@pytest.mark.parametrize("workload", sorted(_PERFBENCH.WORKLOADS))
def test_perfbench_run_far_below_its_cap(workload):
    # One in-process partition counts every event of the workload.
    spec = _PERFBENCH.WORKLOADS[workload]
    kwargs = spec.fleet_kwargs(_PERFBENCH.DEFAULT_SEED)
    config = FleetConfig(**dict(kwargs, workers=1))
    orchestrator = FleetOrchestrator(config)
    assert orchestrator.run().stats.digest() == spec.pinned_digest
    cap = event_cap(config, orchestrator.schedule, range(config.n_vehicles))
    assert cap >= 10 * orchestrator.sim.events_processed
