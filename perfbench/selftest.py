"""Self-test of the benchmark on tiny versions of its four workloads.

Run from the repository root (about half a minute)::

    PYTHONPATH=src python3 perfbench/selftest.py

Checks, for every workload shrunk to a few vehicles:

* the untraced and the traced pass both finish with no failed
  repetition, and every repetition — traced or not — has one digest;
* they emit exactly the end-to-end and per-layer metrics named in
  ``BENCHMARK.json`` (``setup_s`` comes from ``run.py``);
* the only layers reported unreached are the ones the workload cannot
  reach (no parallel layer without ``workers > 1``, no observer where
  none is attached);
* the tracer's wrappers and profiled backend are gone afterwards;
* a wrong pinned digest fails every repetition instead of passing.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

from child import measure
from layers import entry_point_objects
from run import aggregate
from workloads import DEFAULT_SEED, WORKLOADS

from repro.backend import available_backends

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Tiny sizes that keep each workload's shape.
TINY = {
    "records-steady": dict(n_vehicles=3, records_per_vehicle=20),
    "rekey-v2v": dict(n_vehicles=4, records_per_vehicle=3, v2v_records=2),
    "enroll-sharded": dict(n_vehicles=24),
    "storm-reference": dict(n_vehicles=2, records_per_vehicle=4),
}

#: Layers a workload cannot reach.
UNREACHABLE = {
    "records-steady": ["fleet.parallel", "obs"],
    "rekey-v2v": ["fleet.parallel", "obs"],
    "enroll-sharded": [],
    "storm-reference": ["fleet.parallel", "obs"],
}


def tiny(workload):
    return dataclasses.replace(workload, fleet=dict(workload.fleet, **TINY[workload.name]))


def outcome(workload, seed: int, trace: bool) -> dict:
    """One workload process's repetitions, judged and aggregated."""
    return aggregate(workload, seed, trace, [measure(workload, seed, 0, trace)])


def expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def main() -> int:
    end_to_end = {m["name"] for m in SPEC["end_to_end"]} - {"setup_s"}
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for workload in map(tiny, WORKLOADS.values()):
        name = workload.name
        before = (entry_point_objects(), available_backends())
        plain = outcome(workload, 7, trace=False)
        traced = outcome(workload, 7, trace=True)
        expect(
            (entry_point_objects(), available_backends()) == before,
            f"{name}: wrappers or profiled backend left installed",
        )
        for label, result in (("untraced", plain), ("traced", traced)):
            expect(result["failed"] == 0, f"{name} {label}: {result['problems']}")
        expect(
            len(set(plain["digests"] + traced["digests"])) == 1,
            f"{name}: traced digest differs from untraced",
        )
        expect(set(plain["metrics"]) == end_to_end, f"{name}: end-to-end names")
        expect(set(traced["metrics"]) == per_layer, f"{name}: per-layer names")
        unreached = traced["notes"]["unreached_layers"]
        expect(
            unreached == UNREACHABLE[name],
            f"{name}: unreached layers {unreached}, expected {UNREACHABLE[name]}",
        )
        expect(
            all(value > 0 for value in plain["metrics"].values()),
            f"{name}: an end-to-end metric is zero: {plain['metrics']}",
        )
        print(f"ok {name}: {traced['attempted']} traced-pass repetitions")

    wrong = dataclasses.replace(tiny(WORKLOADS["records-steady"]), pinned_digest="0" * 64)
    result = outcome(wrong, DEFAULT_SEED, trace=False)
    expect(
        result["failed"] == result["attempted"] > 0,
        "a wrong pinned digest did not fail the repetitions",
    )
    print("ok wrong pinned digest fails every repetition")
    return 0


if __name__ == "__main__":
    sys.exit(main())
