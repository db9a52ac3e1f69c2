"""Host-time benchmark of the fleet simulator.

Run from the repository root::

    python3 perfbench/run.py --workload records-steady --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer metrics of the traced pass.  The workload
runs in fresh interpreters (``perfbench/child.py``) with the
repository's ``src`` on ``PYTHONPATH``: the end-to-end pass splits its
``--seconds`` over :data:`WORKLOAD_PROCESSES` of them, one after
another, so that no single process's luck decides a run; the traced
pass uses one.  Set-up time is taken from those and from
:data:`SETUP_PROBES` more that only set up.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The traced pass also writes its spans to
``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import HostClock
from layers import unreached_layers
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Interpreters that only set up, timed for ``setup_s`` next to the
#: workload processes.
SETUP_PROBES = 4

#: Workload processes the end-to-end pass splits its time over.
WORKLOAD_PROCESSES = 2

#: Hard limit on one workload process, well inside the 180 s a run has.
CHILD_TIMEOUT_S = 120.0


class RunError(Exception):
    """The benchmark cannot run here; nothing is reported."""


# -- workload processes ----------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


def run_child(args: list[str], clock: HostClock) -> tuple[float, str]:
    """Run one child process; returns (scaled set-up time, its output).

    The set-up time runs from start to the child's ``ready`` line.  It
    is scaled by calibration probes taken while no child runs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        ready = proc.stdout.readline().strip() == "ready"
        setup_wall = time.perf_counter() - start
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunError(f"workload process exceeded {CHILD_TIMEOUT_S:.0f} s") from None
    if not ready or proc.returncode != 0:
        raise RunError(f"workload process exited {proc.returncode}")
    return clock.scaled(setup_wall), out


# -- judging and metrics ---------------------------------------------------------


def judge_digests(workload, seed: int, reps: list[dict]) -> None:
    """Pin the default seed's digest; any other seed must agree with itself.

    Appends a problem to every repetition whose digest disagrees.
    """
    if seed == DEFAULT_SEED:
        expected, label = workload.pinned_digest, "pinned"
    else:
        expected = next((r["digest"] for r in reps if r["digest"]), "")
        label = "first repetition's"
    for rep in reps:
        if rep["digest"] and rep["digest"] != expected:
            rep["problems"].append(
                f"digest {rep['digest'][:16]} != {label} {expected[:16]}"
            )


def times(reps, variant: str, key: str = "scaled_s") -> list[float]:
    """Times of a variant's correct repetitions."""
    return [
        rep[key] for rep in reps if rep["variant"] == variant and not rep["problems"]
    ]


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end_metrics(workload, reps, peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metrics but ``setup_s``, and the sample summary."""
    timed = times(reps, "run")
    run_s = median_or_zero(timed)
    metrics = {
        "run_s": run_s,
        "vehicles_per_s": workload.fleet["n_vehicles"] / run_s if run_s else 0.0,
        "records_per_s": workload.records / run_s if run_s else 0.0,
        "establishments_per_s": workload.sessions / run_s if run_s else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "run_s": {"n": len(timed), "max": max(timed, default=0.0)},
        "run_wall_s": median_or_zero(times(reps, "run", "wall_s")),
    }
    return metrics, notes


def per_layer_metrics(workload, reps) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass and what it could not see.

    A parallel workload's in-worker layers come from its ``workers=1``
    traced repetitions; the parent sees only ``fleet.parallel`` in the
    ``workers=2`` ones.
    """
    parallel = workload.fleet.get("workers", 1) > 1
    source = "traced-w1" if parallel else "traced"

    def layered(variant):
        return [rep["layers"] for rep in reps if rep["variant"] == variant and "layers" in rep]

    samples = layered(source)
    metrics = {
        name: median_or_zero([layers[name] for layers in samples])
        for name in (samples[0] if samples else {})
    }
    untraced = median_or_zero(times(reps, "run"))
    traced = median_or_zero(times(reps, "traced"))
    metrics["bench.trace_overhead_frac"] = (
        traced / untraced - 1.0 if untraced and traced else 0.0
    )
    metrics["fleet.parallel.efficiency"] = 0.0
    metrics["obs.overhead_frac"] = 0.0
    if parallel:
        metrics["fleet.parallel.wait_s"] = median_or_zero(
            [layers["fleet.parallel.wait_s"] for layers in layered("traced")]
        )
        serial = median_or_zero(times(reps, "run-w1"))
        if serial and untraced:
            metrics["fleet.parallel.efficiency"] = serial / (
                untraced * workload.fleet["workers"]
            )
    if workload.observe:
        bare = median_or_zero(times(reps, "run-no-obs"))
        if bare and untraced:
            metrics["obs.overhead_frac"] = untraced / bare - 1.0
    notes = {
        "unreached_layers": (unreached_layers(metrics) if samples else [])
        + ([] if workload.observe else ["obs"]),
        "traced_reps": len(samples),
        "in_worker_layers_from": source,
    }
    return metrics, notes


def aggregate(workload, seed: int, trace: bool, results: list[dict]) -> dict:
    """Judge every repetition of every workload process; compute metrics."""
    reps = [rep for result in results for rep in result["reps"]]
    judge_digests(workload, seed, reps)
    if trace:
        metrics, notes = per_layer_metrics(workload, reps)
    else:
        peak = max(result["peak_rss_mb"] for result in results)
        metrics, notes = end_to_end_metrics(workload, reps, peak)
    return {
        "attempted": len(reps),
        "failed": sum(bool(rep["problems"]) for rep in reps),
        "problems": sorted({p for rep in reps for p in rep["problems"]}),
        "digests": sorted({rep["digest"] for rep in reps if rep["digest"]}),
        "metrics": metrics,
        "notes": notes,
    }


# -- one benchmark run -----------------------------------------------------------


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise RunError(f"cannot read BENCHMARK.json: {exc}") from None
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise RunError("no src/repro package next to BENCHMARK.json")
    return spec


def run(args) -> dict:
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    clock = HostClock()
    setup_samples = [
        run_child([*common, "--setup-only"], clock)[0] for _ in range(SETUP_PROBES)
    ]
    processes = 1 if args.trace else WORKLOAD_PROCESSES
    measure = [
        *common, "--seconds", str(args.seconds / processes), "--trace", str(args.trace)
    ]
    if args.trace:
        spans_dir = ROOT / ".bench_build" / "perfbench"
        spans_dir.mkdir(parents=True, exist_ok=True)
        spans = spans_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        measure += ["--spans-out", str(spans)]
    results = []
    for _ in range(processes):
        setup_s, out = run_child(measure, clock)
        setup_samples.append(setup_s)
        results.append(json.loads(out.strip().splitlines()[-1]))
    outcome = aggregate(workload, args.seed, bool(args.trace), results)

    metrics = outcome["metrics"]
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_samples)
        outcome["notes"]["setup_s"] = {"n": len(setup_samples), "max": max(setup_samples)}
    missing = sorted({m["name"] for m in names} - set(metrics))
    if missing:
        raise RunError(f"metrics not produced: {missing}")

    print(f"env: {json.dumps(results[0]['env'], sort_keys=True)}")
    print(f"notes: {json.dumps(outcome['notes'], sort_keys=True)}")
    print(f"digests: {' '.join(outcome['digests'])}")
    for problem in outcome["problems"]:
        print(f"problem: {problem}")
    print(
        f"failed_frac: {outcome['failed'] / outcome['attempted']}"
        f" ({outcome['failed']} of {outcome['attempted']} repetitions)"
    )
    for m in names:
        print(f"{m['name']:<40} {metrics[m['name']]!r:>24} {m['unit']}")
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        line = run(args)
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
