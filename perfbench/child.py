"""The workload process: one fresh interpreter runs one workload.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  It imports
``repro``, selects the workload's backend, builds the first
``FleetOrchestrator`` and prints ``ready`` — the end of set-up, which
the parent times.  With ``--setup-only`` it stops there.  Otherwise it
runs the workload in a closed loop — one ``run()`` after another, nothing
alongside — for ``--seconds`` seconds after one warm-up repetition,
checks every repetition's stats, and prints one JSON line listing the
repetitions.  ``run.py`` judges digests and turns repetitions into
metrics.

``--trace 0`` times untraced repetitions.  ``--trace 1`` is the traced
pass: rounds of an untraced and a traced repetition of the same config
(plus ``workers=1`` and observer-off variants for a parallel workload)
until the time is up.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

from calibrate import HostClock
from layers import LayerTracer, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

from repro.backend import use_backend
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.obs import Observer


class BenchmarkError(Exception):
    """The workload cannot be measured as specified."""


# -- set-up ------------------------------------------------------------------


def environment(workload) -> dict:
    """The stamp every result carries: host, versions, backend flags.

    Raises :class:`BenchmarkError` for an accelerated workload whose
    OpenSSL EC tier is inactive: it would time the pure-Python fallback.
    """
    from importlib.metadata import PackageNotFoundError, version

    try:
        crypto_version = version("cryptography")
    except PackageNotFoundError:
        crypto_version = None
    with use_backend("accelerated") as accelerated:
        described = dict(
            accelerated.describe(),
            ec_accelerated=accelerated.ec_accelerated,
            aes_accelerated=accelerated.aes_accelerated,
        )
    if workload.backend == "accelerated" and not accelerated.ec_accelerated:
        raise BenchmarkError(
            f"{workload.name}: the accelerated backend's OpenSSL EC tier is"
            " inactive, so the run would time the pure-Python fallback;"
            " refusing to report"
        )
    return {
        "host_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cryptography": crypto_version,
        "workload_backend": workload.backend,
        "accelerated": described,
    }


def make_orchestrator(workload, config, observe: bool):
    """A fresh orchestrator for one repetition (observer per run)."""
    obs = Observer(wall_clock=True) if observe else None
    return FleetOrchestrator(config, obs=obs)


def setup(workload, seed: int):
    """Everything before the first ``run()``: returns (config, orch).

    Selecting the backend instantiates it, as the first run would.
    """
    config = FleetConfig(**workload.fleet_kwargs(seed))
    with use_backend(config.backend):
        pass
    return config, make_orchestrator(workload, config, workload.observe)


# -- one repetition ------------------------------------------------------------


def check(workload, stats) -> list[str]:
    """What is wrong with one repetition's stats (empty when correct)."""
    problems = []
    records = stats.records_sent + stats.v2v_records_sent
    if records != workload.records:
        problems.append(f"records {records} != {workload.records}")
    sessions = stats.sessions_established + stats.v2v_sessions
    if sessions != workload.sessions:
        problems.append(f"sessions {sessions} != {workload.sessions}")
    if stats.vehicles != workload.fleet["n_vehicles"]:
        problems.append(f"vehicles {stats.vehicles} finished")
    if stats.attack_successes:
        problems.append(f"{stats.attack_successes} forgeries accepted")
    return problems


def run_rep(workload, orch, variant: str, clock: HostClock) -> dict:
    """Time ``orch.run()`` and check its output; never raises."""
    rep = {"variant": variant, "wall_s": 0.0, "scaled_s": 0.0, "digest": "", "problems": []}
    gc.collect()
    try:
        start = time.perf_counter()
        result = orch.run()
        rep["wall_s"] = time.perf_counter() - start
        rep["scaled_s"] = clock.scaled(rep["wall_s"])
        rep["digest"] = result.stats.digest()
        rep["problems"] = check(workload, result.stats)
    except Exception as exc:  # a raising repetition is a failed one
        rep["problems"] = [f"raised {type(exc).__name__}: {exc}"]
    return rep


def run_traced_rep(workload, config, observe, tracer, rep_id, variant, clock) -> dict:
    """One repetition under the layer tracer.

    A parallel run's backend calls happen in its workers, out of the
    profiler's sight, so its backend is left unprofiled.
    """
    if config.workers > 1:
        profiled, run_config = None, config
    else:
        profiled, run_config = config.backend, dataclasses.replace(config, backend=None)
    with tracer.traced(rep_id, profiled) as totals:
        orch = make_orchestrator(workload, run_config, observe)
        rep = run_rep(workload, orch, variant, clock)
    failed = totals["protocols.receive"]["failed"]
    if failed:
        rep["problems"].append(f"{failed} records failed to decrypt")
    if not rep["problems"]:
        rep["layers"] = layer_metrics(totals, workload.sessions)
    return rep


# -- the two passes ------------------------------------------------------------


def traced_variants(workload, config) -> list[tuple]:
    """(variant, config, observe, traced) run once per traced-pass round."""
    variants = [
        ("run", config, workload.observe, False),
        ("traced", config, workload.observe, True),
    ]
    if config.workers > 1:
        serial = dataclasses.replace(config, workers=1)
        variants += [
            ("run-w1", serial, workload.observe, False),
            ("traced-w1", serial, workload.observe, True),
        ]
    if workload.observe:
        variants.append(("run-no-obs", config, False, False))
    return variants


def measure(workload, seed: int, seconds: float, trace: bool, spans_out=None) -> dict:
    """Set up, then run repetitions for ``seconds``; returns them all.

    The untraced pass repeats the workload's own config; the traced pass
    repeats rounds of :func:`traced_variants`.  Either runs at least
    once after the warm-up repetition.
    """
    config, orch = setup(workload, seed)
    print("ready", flush=True)
    env = environment(workload)
    clock = HostClock()
    reps = [run_rep(workload, orch, "warm-up", clock)]
    if trace:
        tracer = LayerTracer(workload.name)
        rounds = traced_variants(workload, config)
    else:
        rounds = [("run", config, workload.observe, False)]
    deadline = time.perf_counter() + seconds
    while len(reps) == 1 or time.perf_counter() < deadline:
        for variant, cfg, observe, traced in rounds:
            if traced:
                reps.append(
                    run_traced_rep(workload, cfg, observe, tracer, len(reps), variant, clock)
                )
            else:
                orch = make_orchestrator(workload, cfg, observe)
                reps.append(run_rep(workload, orch, variant, clock))
    if trace and spans_out is not None:
        tracer.write_spans(spans_out)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "env": env,
        "peak_rss_mb": max(rss, workers_rss) / 1024.0,
        "reps": reps,
    }


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans-out", type=Path, default=None)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.setup_only:
            setup(workload, args.seed)
            print("ready", flush=True)
            return 0
        result = measure(
            workload, args.seed, args.seconds, bool(args.trace), args.spans_out
        )
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
