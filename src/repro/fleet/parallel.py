"""Process-parallel fleet execution with bit-identical merged digests.

``FleetConfig.workers > 1`` partitions the gateway shards across worker
*processes*.  Each worker provisions the full deterministic topology
(same seed, same DRBG streams, same trust store) and then drives **only
the event streams of its own shards** — arrivals of vehicles statically
assigned to an owned shard, injections targeting an owned shard.  At the
barrier the parent folds the per-worker snapshots back together with the
proven merge laws and assembles a :class:`~repro.fleet.stats.FleetStats`
that is **bit-identical** to the single-worker run.

Why the merged digest can be exact
----------------------------------

The digest freezes three kinds of state, each with its own merge law:

* **integer counters** — addition is associative and commutative;
* **latency summaries** — accumulated in
  :class:`~repro.fleet.stats.StreamingLatency` value→count tables whose
  merge is order-independent and whose ``summary()`` replays
  ``LatencySummary.from_samples`` bit-for-bit (equal values are adjacent
  after sorting, so the float-addition sequence is identical);
* **the fleet energy float** — accumulated in
  :class:`~repro.fleet.stats.ExactSum` (Shewchuk partials), whose value
  is the *correctly rounded* exact sum and therefore independent of
  which process added which sample in which order.

What makes a configuration partitionable
----------------------------------------

:func:`partition_plan` returns a plan only when shard event streams are
provably independent: at least two shards, no V2V pairings (cross-shard
sessions), no failover/rejoin (handovers move vehicles between shards
and bump chain epochs; a stale-cert flood only compiles with a
rejoin), and a strategy whose rules, as
:func:`~repro.fleet.policy.resolve_policies` returns them, all declare
``shard_local``.  Static-hash placement (a pure function of the vehicle
identity or scenario pin) and the session-expiry re-key do; load-driven
placement, re-balancing, roaming, the storm-window re-key (it reads the
fleet-wide storm clock), failover spreading and any undeclared rule do
not.  Everything else — replay storms, CA-queue floods,
burst/diurnal/Poisson arrivals, convoy pins, behavior profiles — stays
per-shard and parallelises.  Configurations that fail the check run
in-process as one partition owning every shard; its snapshot folds
through the same :func:`_merge`, so every run — with or without
workers — exercises the merge laws.

Supervision and transport integrity
-----------------------------------

Each worker is its own process and answers once, on its own pipe, with
its snapshot or the exception it raised (re-raised in the parent with
its own type).  The parent waits on the pipes and the process sentinels
together, so a worker that dies without answering (OOM kill,
``os._exit``) fails the run with a :class:`~repro.errors.SimulationError`
naming the worker, its shards and its exit code instead of hanging it.
Every :class:`WorkerSnapshot` travels with a ``checksum`` — the SHA-256
of its canonical rendering, computed in the worker and re-verified by
the parent before merging.  A snapshot corrupted in transit (or a
worker/parent version skew) fails loudly instead of silently producing
a wrong digest.

Worker-local telemetry: workers run their own
:class:`~repro.obs.fleet.FleetInstrumentation`; metric snapshots
merge into the parent observer (counters add, gauges max, histogram
sums are exact), while span streams stay worker-local — the parent
observer carries the merged metrics, the final heartbeat (annotated
with the max worker ``peak_rss_kb``) and the run meta.
"""

from __future__ import annotations

import dataclasses
import hashlib
import multiprocessing
from dataclasses import dataclass

from ..backend import get_backend, use_backend
from ..errors import SimulationError
from .policy import resolve_policies
from .stats import (
    ExactSum,
    FleetStats,
    InjectionStats,
    ShardStats,
    StreamingLatency,
    merge_shard_stats,
)

__all__ = [
    "PartitionPlan",
    "WorkerSnapshot",
    "partition_plan",
    "run_parallel",
]

#: Fleet-level run counters, keyed by their
#: :class:`~repro.fleet.stats.FleetStats` field name in the orchestrator's
#: ``_counters`` and the snapshot's ``counters``; every one merges by
#: addition.
_COUNTER_FIELDS = (
    "enrollments",
    "sessions_established",
    "rekeys",
    "records_sent",
    "handovers",
    "migrations",
    "rejoins",
    "re_enrollments",
    "v2v_sessions",
    "v2v_rekeys",
    "v2v_cross_shard",
    "v2v_records_sent",
)

#: :class:`~repro.fleet.stats.FleetStats` latency fields, each a
#: :class:`~repro.fleet.stats.StreamingLatency` table in the
#: orchestrator's ``_latencies`` and the snapshot's ``latencies``.
_LATENCY_FIELDS = (
    "enrollment_latency",
    "establishment_latency",
    "ca_queue_latency",
    "v2v_latency",
    "migration_latency",
)


@dataclass(frozen=True)
class PartitionPlan:
    """A viable shard→worker assignment for one run.

    ``owned[w]`` is the tuple of shard indices worker ``w`` simulates;
    shards are dealt round-robin (shard ``i`` → worker ``i % workers``)
    and the worker count is capped at the shard count, so every worker
    owns at least one shard.
    """

    workers: int
    owned: tuple[tuple[int, ...], ...]


@dataclass
class WorkerSnapshot:
    """Everything one partition run produced, merge-ready.

    ``shard_rows`` are the owned shards' :class:`~repro.fleet.stats.ShardStats`
    with ``ca_utilisation`` left for the merge (it needs the merged
    clock).  ``latencies`` maps each :class:`~repro.fleet.stats.FleetStats`
    latency field to its :class:`~repro.fleet.stats.StreamingLatency`
    table and ``vehicle_energy`` is an :class:`~repro.fleet.stats.ExactSum`
    — the *mergeable* forms, not rendered summaries, so the merge can
    fold any number of snapshots and only then freeze the result.
    Worker processes fill in the host-side fields and the ``checksum``
    (the SHA-256 of :func:`_canonical_snapshot`, verified on receipt).
    """

    owned: tuple[int, ...]
    now: float
    events_processed: int
    shard_rows: tuple[ShardStats, ...]
    counters: dict
    latencies: dict
    vehicle_energy: ExactSum
    injection_rows: tuple[tuple[int, int, int], ...]
    worker: int = 0
    metrics: object | None = None
    peak_rss_kb: int | None = None
    tree_root: str | None = None
    checksum: str = ""


def _canonical_snapshot(snap: WorkerSnapshot) -> str:
    """Canonical rendering of a snapshot's simulated-result fields.

    Pure function of the digest-relevant material (counters, shard rows,
    latency tables, energy partials, injections, clock) — host-side
    annotations (``metrics``, ``peak_rss_kb``, ``tree_root``) are
    deliberately outside the checksum, exactly as ``wall`` annotations
    are outside the run digest; the telemetry plane has its own
    integrity check (the subtree merge proof in ``_finalize_obs``).
    The ``repr`` of a shard row is exact: its floats render round-trip.
    """
    counters = (f"{key}:{snap.counters[key]}" for key in _COUNTER_FIELDS)
    latencies = (f"{k}={t.canonical()}" for k, t in snap.latencies.items())
    return "|".join(
        [
            f"worker={snap.worker}",
            "owned=" + ",".join(str(i) for i in snap.owned),
            f"now={snap.now!r}",
            f"events={snap.events_processed}",
            "counters=" + ";".join(counters),
            "energy=" + snap.vehicle_energy.canonical(),
            *latencies,
            "injections="
            + ";".join(f"{a}:{r}:{s}" for a, r, s in snap.injection_rows),
            *(repr(row) for row in snap.shard_rows),
        ]
    )


def _checksum(snap: WorkerSnapshot) -> str:
    return hashlib.sha256(_canonical_snapshot(snap).encode()).hexdigest()


def partition_plan(config, schedule) -> PartitionPlan | None:
    """A shard partition for ``config``, or ``None`` when coupled.

    Returns a :class:`PartitionPlan` only when every shard's event
    stream is provably independent of every other's (see the module
    docstring for the full argument); the orchestrator treats ``None``
    as "run every shard in-process, as one partition".
    """
    if config.workers <= 1:
        return None
    if config.shards < 2:
        return None
    if config.v2v_fraction > 0.0:
        return None
    if config.shard_fail_at_ms is not None:
        return None
    rules = resolve_policies(config, schedule)
    if not all(getattr(rule, "shard_local", False) for rule in rules):
        return None
    workers = min(config.workers, config.shards)
    owned: list[list[int]] = [[] for _ in range(workers)]
    for shard in range(config.shards):
        owned[shard % workers].append(shard)
    return PartitionPlan(
        workers=workers, owned=tuple(tuple(o) for o in owned)
    )


def _worker_run(payload) -> WorkerSnapshot:
    """Build the fleet in a worker process and drive one partition.

    Builds the *full* deterministic topology (cheap relative to the
    storm: O(shards) provisioning) with ``workers=1`` so the worker's
    orchestrator is exactly the in-process one, then runs only the
    owned shards' events.  Returns a checksummed snapshot of everything
    the barrier merge needs.
    """
    worker_index, owned, config, scenario, want_obs = payload
    from ..obs import Observer, _peak_rss_kb
    from .orchestrator import FleetOrchestrator

    obs = Observer() if want_obs else None
    orch = FleetOrchestrator(config, scenario=scenario, obs=obs)
    with use_backend(config.backend):
        snap = orch._run_partition(frozenset(owned))
    snap.worker = worker_index
    if obs is not None:
        from ..obs.tree import DigestTree

        orch._note("partition-finished")
        snap.metrics = obs.metrics.snapshot()
        # The worker's metric-plane subtree root: the parent rebuilds
        # the subtree from the shipped snapshot and verifies it hashes
        # to this root before folding (see _finalize_obs).
        snap.tree_root = DigestTree.from_metrics(snap.metrics).root_digest
    snap.peak_rss_kb = _peak_rss_kb()
    snap.checksum = _checksum(snap)
    return snap


def _worker_main(conn, payload) -> None:
    """Worker process body: answer ``(ok, snapshot or exception)`` once."""
    try:
        answer = (True, _worker_run(payload))
    except Exception as exc:
        import traceback

        # Re-raised by the parent with its own type; the note keeps the
        # worker-side traceback, which the parent cannot see.
        exc.add_note(traceback.format_exc())
        answer = (False, exc)
    conn.send(answer)


def _start_method() -> str:
    """Prefer ``fork`` (cheap, inherits the warm process) when available."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _run_workers(plan: PartitionPlan, payloads) -> list[WorkerSnapshot]:
    """Run one process per partition; their snapshots in worker order."""
    # Imported here: at module level it grows every run's RSS.
    from multiprocessing.connection import wait

    ctx = multiprocessing.get_context(_start_method())
    workers = []
    for payload in payloads:
        reader, writer = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_worker_main, args=(writer, payload), daemon=True
        )
        process.start()
        writer.close()
        workers.append((reader, process))
    snapshots = [None] * len(workers)
    waiting = dict(enumerate(workers))
    try:
        while waiting:
            ready = wait(
                [h for r, p in waiting.values() for h in (r, p.sentinel)]
            )
            for index, (reader, process) in list(waiting.items()):
                if reader not in ready and process.sentinel not in ready:
                    continue
                del waiting[index]
                try:
                    ok, value = reader.recv()
                except (EOFError, OSError):
                    process.join()
                    raise SimulationError(
                        f"worker {index} (shards {list(plan.owned[index])})"
                        f" exited with code {process.exitcode} before"
                        " answering; its partition is lost"
                    ) from None
                if not ok:
                    raise value
                snapshots[index] = value
    finally:
        for reader, process in workers:
            process.terminate()
            process.join()
            reader.close()
    return snapshots


def run_parallel(
    config,
    scenario,
    schedule,
    plan: PartitionPlan,
    obs=None,
):
    """Execute ``plan`` across worker processes and merge at the barrier.

    The returned :class:`~repro.fleet.orchestrator.FleetResult` carries
    a stats object bit-identical to the in-process run's.  ``vehicles``
    is empty — per-vehicle timelines live and die inside the workers
    (that is the point: the parent never materialises per-vehicle
    state) — so callers needing timelines should run ``workers=1``.
    """
    from .orchestrator import FleetResult

    # Resolve the ambient backend to a concrete name so spawn-started
    # workers (fresh processes, default ambient) execute the same one.
    # Workers always stream: no caller reads their timelines or intervals.
    worker_config = dataclasses.replace(
        config,
        workers=1,
        stream=True,
        backend=config.backend or get_backend().name,
    )
    snapshots = _run_workers(
        plan,
        [
            (w, plan.owned[w], worker_config, scenario, obs is not None)
            for w in range(plan.workers)
        ],
    )
    for snap in snapshots:
        expected = _checksum(snap)
        if snap.checksum != expected:
            raise SimulationError(
                f"worker {snap.worker} snapshot failed its transport"
                f" checksum ({snap.checksum[:12]}… != {expected[:12]}…);"
                " refusing to merge corrupted results"
            )
    stats = _merge(config, scenario, schedule, snapshots)
    if obs is not None:
        _finalize_obs(obs, config, scenario, stats, snapshots)
    return FleetResult(stats=stats, vehicles=[], obs=obs)


def _merge(config, scenario, schedule, snapshots) -> FleetStats:
    """Fold partition snapshots into the run's exact FleetStats.

    A run without worker processes is the one-snapshot case.
    """
    # The merged clock: the whole run ends at the last event overall,
    # each partition at the last event among its shards.
    now = max(snap.now for snap in snapshots)
    rows = sorted(
        (row for snap in snapshots for row in snap.shard_rows),
        key=lambda row: row.index,
    )
    if [row.index for row in rows] != list(range(config.shards)):
        raise SimulationError(
            f"partitions reported shards {[row.index for row in rows]}"
            f" of {config.shards}; the plan is not a partition"
        )
    # Busy time over the merged clock; above 1.0 when reservations run
    # past the last event (an over-committed shard is not clamped).
    per_shard = tuple(
        dataclasses.replace(
            row, ca_utilisation=row.ca_busy_ms / now if now > 0 else 0.0
        )
        for row in rows
    )
    merged = merge_shard_stats(per_shard)
    latencies = {key: StreamingLatency() for key in snapshots[0].latencies}
    energy = ExactSum()
    for snap in snapshots:
        for key, table in snap.latencies.items():
            latencies[key].merge(table)
        energy.merge(snap.vehicle_energy)
    return FleetStats(
        vehicles=config.n_vehicles,
        duration_ms=now,
        **{
            key: sum(snap.counters[key] for snap in snapshots)
            for key in _COUNTER_FIELDS
        },
        **{key: table.summary() for key, table in latencies.items()},
        ca_busy_ms=merged["ca_busy_ms"],
        # Mean per-shard utilisation: summed busy time over the
        # wall-clock available across all shard resources.  For one
        # shard this is exactly the resource's own utilisation (PR 1
        # parity); for M shards it stays a 0–1-ish load figure instead
        # of an M-fold inflated one.
        ca_utilisation=(
            merged["ca_busy_ms"] / (now * len(per_shard))
            if now > 0
            else 0.0
        ),
        ca_batches=merged["ca_batches"],
        ca_max_batch=merged["ca_max_batch"],
        vehicle_energy_mj=energy.value,
        ca_energy_mj=merged["ca_energy_mj"],
        per_shard=per_shard,
        scenario=scenario.name if scenario is not None else "",
        policy=config.policy or "",
        profile_counts=schedule.profile_counts,
        injection_stats=tuple(
            InjectionStats(
                kind=spec.kind,
                at_ms=spec.at_ms,
                attempts=sum(s.injection_rows[i][0] for s in snapshots),
                rejected=sum(s.injection_rows[i][1] for s in snapshots),
                succeeded=sum(s.injection_rows[i][2] for s in snapshots),
            )
            for i, spec in enumerate(schedule.injections)
        ),
    )


def _finalize_obs(obs, config, scenario, stats, snapshots) -> None:
    """Fold worker telemetry into the parent observer.

    Mirrors the observer's ``run-finished`` step handler for the parts
    the parent owns: merged metrics, per-kind injection counters, the
    final heartbeat (annotated with the fleet-wide peak RSS when
    available) and the run meta.  Span streams stay worker-local by design.

    The absorb step carries its own proof: each worker shipped the
    digest-tree root of its metric-plane subtree, so the parent
    (1) rebuilds every subtree from the received snapshot and checks it
    hashes back to the shipped root, then (2) folds the subtrees under
    the tree merge law and demands the fold equal the tree *recomputed*
    from the absorbed registry — merge ≡ recomputation, the law
    ``tests/fleet/test_divergence_parallel.py`` exercises for
    workers ∈ {1, 2, 4}.  A mismatch is a merge-law violation, not a
    transport error, and fails the run loudly.
    """
    from ..obs.fleet import count_injections
    from ..obs.tree import DigestTree

    proof_eligible = not obs.metrics.snapshot().events()
    worker_trees = []
    for snap in snapshots:
        if snap.metrics is not None:
            subtree = DigestTree.from_metrics(snap.metrics)
            if (
                snap.tree_root is not None
                and subtree.root_digest != snap.tree_root
            ):
                raise SimulationError(
                    f"worker {snap.worker} metric subtree hashes to"
                    f" {subtree.root_digest[:12]}… but shipped root"
                    f" {snap.tree_root[:12]}…; refusing to merge"
                )
            worker_trees.append(subtree)
            obs.metrics.absorb(snap.metrics)
    if worker_trees and proof_eligible:
        folded = worker_trees[0].merge(*worker_trees[1:])
        recomputed = DigestTree.from_metrics(obs.metrics.snapshot())
        if folded.root_digest != recomputed.root_digest:
            raise SimulationError(
                "worker subtree fold"
                f" ({folded.root_digest[:12]}…) does not equal the"
                " tree recomputed from the absorbed registry"
                f" ({recomputed.root_digest[:12]}…) — the digest-tree"
                " merge law failed"
            )
        obs.meta["tree_root"] = recomputed.root_digest
    count_injections(obs.metrics, stats.injection_stats)
    beat = obs.heartbeat(
        sim_ms=stats.duration_ms,
        vehicles_done=config.n_vehicles,
        vehicles_total=config.n_vehicles,
        records_sent=stats.records_sent,
    )
    peaks = [
        snap.peak_rss_kb
        for snap in snapshots
        if snap.peak_rss_kb is not None
    ]
    if peaks:
        wall = beat.setdefault("wall", {})
        wall["peak_rss_kb"] = max([*peaks, wall.get("peak_rss_kb", 0)])
    obs.meta.update(
        {
            "run": scenario.name if scenario is not None else "fleet",
            "sim_end_ms": stats.duration_ms,
            "backend": config.backend,
            "n_vehicles": config.n_vehicles,
            "shards": config.shards,
            "workers": len(snapshots),
            "digest": stats.digest(),
        }
    )
