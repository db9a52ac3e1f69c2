"""Benchmark regression gate: diff fresh ``BENCH_*.json`` against baselines.

The fleet/topology benchmarks are deterministic *simulations*: every
latency percentile and throughput figure is a pure function of the seed,
so between code changes the numbers move only when behaviour moves.  The
gate turns the committed artifacts into a contract — instead of absolute
asserts, it diffs a freshly produced ``BENCH_fleet.json`` /
``BENCH_topology.json`` against the committed baselines under
``benchmarks/baselines/`` and **fails on any >25 % regression** of a
simulated p50/p99 latency or throughput metric.  Host wall-clock fields
are ignored (they measure the build machine, not the code).

Cells are matched structurally — ``(benchmark, scenario, policy,
shards, v2v_fraction, n_vehicles, churn)`` — so a quick-mode candidate
is only ever compared
against the quick-mode baseline (the ``mode`` field selects the baseline
file), and unmatched cells are reported, never silently dropped.

Usage::

    # gate the artifacts in the repo root against the committed baselines
    PYTHONPATH=src python benchmarks/regression_gate.py

    # gate freshly produced artifacts (CI: after the smoke jobs)
    PYTHONPATH=src python benchmarks/regression_gate.py --candidate-dir out/

    # explicit one-file comparison
    PYTHONPATH=src python benchmarks/regression_gate.py \
        --baseline old/BENCH_topology.json --candidate new/BENCH_topology.json

Exit status 0 = every matched metric within threshold; 1 = regression,
a baseline cell the candidate stopped producing (lost coverage), or
nothing comparable at all (which would otherwise pass vacuously).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

#: Simulated, deterministic metrics under the gate, as dotted paths into
#: a cell's ``fleet`` mapping, with the direction that counts as better.
GATED_METRICS = (
    ("throughput_records_per_s", "higher"),
    ("sessions_per_s", "higher"),
    ("enrollment_latency.p50_ms", "lower"),
    ("enrollment_latency.p99_ms", "lower"),
    ("establishment_latency.p50_ms", "lower"),
    ("establishment_latency.p99_ms", "lower"),
    ("ca_queue_latency.p50_ms", "lower"),
    ("ca_queue_latency.p99_ms", "lower"),
)

DEFAULT_THRESHOLD = 0.25

#: A lower-is-better metric whose baseline is 0.0 (e.g. no CA queueing
#: at all at 4 shards) has no meaningful ratio; anything past this
#: absolute floor (milliseconds) is flagged as a regression instead of
#: being permanently exempt.
ZERO_BASELINE_FLOOR_MS = 1.0

#: Artifact names the directory mode gates (candidate-dir relative).
#: ``BENCH_topology_churn.json`` is the CI churn-smoke artifact; it only
#: exists in quick mode, so the default (repo-root) invocation reports
#: it as skipped rather than silently ignoring it.
ARTIFACTS = (
    "BENCH_fleet.json",
    "BENCH_topology.json",
    "BENCH_topology_churn.json",
    "BENCH_scenarios.json",
    "BENCH_policies.json",
)


def load_bench(path: str) -> dict:
    """Load one ``BENCH_*.json`` payload."""
    with open(path) as handle:
        return json.load(handle)


def _metric(fleet: dict, dotted: str) -> float:
    value = fleet
    for part in dotted.split("."):
        value = value[part]
    return float(value)


def _cell_key(benchmark: str, cell: dict, scale: bool = False) -> tuple:
    """The structural key of one sweep cell, or of one scale-sweep point.

    ``(benchmark, scenario, policy, shards, v2v_fraction, n_vehicles,
    churn)``; a scale point puts its worker count in the scenario slot.
    """
    if scale:
        return (
            benchmark,
            f"scale-w{cell['workers']}",
            "",
            cell.get("shards", 0),
            0.0,
            cell["vehicles"],
            False,
        )
    return (
        benchmark,
        cell.get("scenario", ""),
        cell.get("policy", ""),
        cell["shards"],
        cell["v2v_fraction"],
        cell["n_vehicles"],
        bool(cell.get("churn", False)),
    )


def extract_cells(payload: dict) -> dict:
    """Map a BENCH payload to ``{cell_key: fleet_stats_dict}``.

    Topology payloads contribute one cell per sweep entry; fleet-scale
    payloads contribute a single cell keyed by their workload shape
    plus one cell per scale-sweep point (keyed by worker count in the
    scenario slot — the sweep's deterministic metrics are digest-pinned
    identical across worker counts, so gating each point also re-checks
    that law against the baseline); scenario payloads key each cell by
    its scenario name on top of the structural fields (the pre-scenario
    artifacts carry no ``scenario`` field and key with an empty name,
    so historical baselines keep matching); policy-ablation payloads
    additionally key each cell by its policy bundle (pre-policy
    artifacts carry no ``policy`` field and key with an empty bundle
    the same way).
    """
    benchmark = payload.get("benchmark", "unknown")
    if "cells" in payload:
        return {
            _cell_key(benchmark, cell): cell["fleet"]
            for cell in payload["cells"]
        }
    config = payload.get("config", {})
    key = (benchmark, "", "", 1, 0.0, config.get("n_vehicles", 0), False)
    cells = {key: payload["fleet"]}
    for cell in payload.get("scale", {}).get("cells", []):
        if "fleet" not in cell:
            continue  # pre-gate scale cells carried no stats payload
        cells[_cell_key(benchmark, cell, scale=True)] = cell["fleet"]
    return cells


def extract_tree_roots(payload: dict) -> dict:
    """Map a BENCH payload to ``{cell_key: digest_tree_root}``.

    Uses the same structural keys as :func:`extract_cells`, so the gate
    report records each cell's telemetry digest-tree root next to its
    gated metrics — when a future candidate's stats digest matches but
    its telemetry drifts, ``python -m repro.obs diff`` can start from
    exactly the cell the roots name.  Cells from pre-tree artifacts
    (no ``tree_root`` field) are simply absent.
    """
    benchmark = payload.get("benchmark", "unknown")
    roots = {}
    for cell in payload.get("cells", []):
        if cell.get("tree_root"):
            roots[_cell_key(benchmark, cell)] = cell["tree_root"]
    for cell in payload.get("scale", {}).get("cells", []):
        if cell.get("tree_root"):
            roots[_cell_key(benchmark, cell, scale=True)] = cell["tree_root"]
    return roots


def compare_cells(
    baseline: dict,
    candidate: dict,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Diff two ``extract_cells`` mappings.

    Returns a report dict with ``matched`` cell count, ``regressions``
    (list of dicts), ``improvements`` (informational), and the keys each
    side had that the other did not (never silently dropped).
    """
    regressions = []
    improvements = []
    matched = 0
    shared = sorted(set(baseline) & set(candidate), key=repr)
    for key in shared:
        matched += 1
        base_fleet = baseline[key]
        cand_fleet = candidate[key]
        for dotted, direction in GATED_METRICS:
            base = _metric(base_fleet, dotted)
            cand = _metric(cand_fleet, dotted)
            if base <= 0.0:
                # No ratio to gate on — but a zero-latency baseline must
                # not become a permanent exemption: appearing latency
                # past the absolute floor is a regression.
                if direction == "lower" and cand > ZERO_BASELINE_FLOOR_MS:
                    regressions.append(
                        {
                            "cell": key,
                            "metric": dotted,
                            "direction": direction,
                            "baseline": base,
                            "candidate": cand,
                            "change": float("inf"),
                        }
                    )
                continue
            change = (cand - base) / base
            regressed = (
                change > threshold
                if direction == "lower"
                else change < -threshold
            )
            entry = {
                "cell": key,
                "metric": dotted,
                "direction": direction,
                "baseline": base,
                "candidate": cand,
                "change": change,
            }
            if regressed:
                regressions.append(entry)
            elif (direction == "lower" and change < -threshold) or (
                direction == "higher" and change > threshold
            ):
                improvements.append(entry)
    return {
        "matched": matched,
        "regressions": regressions,
        "improvements": improvements,
        "only_in_baseline": sorted(set(baseline) - set(candidate), key=repr),
        "only_in_candidate": sorted(set(candidate) - set(baseline), key=repr),
    }


def baseline_path_for(candidate_payload: dict, baseline_dir: str, name: str) -> str:
    """The baseline file a candidate artifact is gated against.

    Quick-mode candidates compare against the ``*_quick`` baselines —
    quick and full cells never share a key (different ``n_vehicles``),
    so cross-mode comparison would only ever produce zero matches.
    """
    stem, ext = os.path.splitext(name)
    if candidate_payload.get("mode") == "quick":
        return os.path.join(baseline_dir, f"{stem}_quick{ext}")
    return os.path.join(baseline_dir, name)


def gate_file(
    baseline_path: str,
    candidate_path: str,
    threshold: float = DEFAULT_THRESHOLD,
) -> dict:
    """Gate one candidate artifact against one baseline artifact."""
    baseline = load_bench(baseline_path)
    candidate = load_bench(candidate_path)
    report = compare_cells(
        extract_cells(baseline), extract_cells(candidate), threshold
    )
    report["baseline_path"] = baseline_path
    report["candidate_path"] = candidate_path
    report["threshold"] = threshold
    report["tree_roots"] = extract_tree_roots(candidate)
    return report


def _print_report(report: dict) -> None:
    print(
        f"{report['candidate_path']} vs {report['baseline_path']}:"
        f" {report['matched']} cells matched"
    )
    for key in report["only_in_candidate"]:
        print(f"  new cell (no baseline yet): {key}")
    for key in report["only_in_baseline"]:
        print(
            f"  LOST CELL: baseline cell missing from candidate: {key}"
            " (a benchmark that stopped producing coverage fails the"
            " gate; regenerate the baselines if the sweep shrank on"
            " purpose)"
        )
    for entry in report["improvements"]:
        print(
            f"  improvement: {entry['cell']} {entry['metric']}"
            f" {entry['baseline']:.3f} -> {entry['candidate']:.3f}"
            f" ({entry['change']:+.1%})"
        )
    threshold = report.get("threshold", DEFAULT_THRESHOLD)
    for entry in report["regressions"]:
        print(
            f"  REGRESSION: {entry['cell']} {entry['metric']}"
            f" {entry['baseline']:.3f} -> {entry['candidate']:.3f}"
            f" ({entry['change']:+.1%}, threshold ±{threshold:.0%})"
        )


def _jsonable_report(report: dict) -> dict:
    """A JSON-serialisable copy of one gate report.

    Cell keys are tuples (structural match keys) and zero-baseline
    regressions carry ``inf`` — both are converted: keys become lists,
    ``inf`` becomes ``None``.
    """
    out = dict(report)
    for field in ("regressions", "improvements"):
        out[field] = [
            {
                **entry,
                "cell": list(entry["cell"]),
                "change": (
                    None
                    if entry["change"] in (float("inf"), float("-inf"))
                    else entry["change"]
                ),
            }
            for entry in report[field]
        ]
    for field in ("only_in_baseline", "only_in_candidate"):
        out[field] = [list(key) for key in report[field]]
    out["tree_roots"] = [
        {"cell": list(key), "tree_root": root}
        for key, root in sorted(
            report.get("tree_roots", {}).items(), key=repr
        )
    ]
    return out


def write_json_report(path: str, reports: list, verdict: str) -> dict:
    """Write the gate's machine-readable verdict + per-file reports."""
    payload = {
        "verdict": verdict,
        "matched": sum(report["matched"] for report in reports),
        "regressions": sum(
            len(report["regressions"]) for report in reports
        ),
        "reports": [_jsonable_report(report) for report in reports],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    return payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    here = os.path.dirname(os.path.abspath(__file__))
    parser.add_argument(
        "--baseline",
        help="explicit baseline BENCH json (pairs with --candidate)",
    )
    parser.add_argument(
        "--candidate",
        help="explicit candidate BENCH json (pairs with --baseline)",
    )
    parser.add_argument(
        "--baseline-dir",
        default=os.path.join(here, "baselines"),
        help="directory of committed baseline artifacts",
    )
    parser.add_argument(
        "--candidate-dir",
        default=os.path.dirname(here),
        help="directory of freshly produced artifacts (default: repo root)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_THRESHOLD,
        help="relative regression tolerance (default 0.25 = 25%%)",
    )
    parser.add_argument(
        "--json-report",
        help="write the verdict and per-cell deltas as JSON to this path",
    )
    args = parser.parse_args(argv)

    if (args.baseline is None) != (args.candidate is None):
        parser.error("--baseline and --candidate must be given together")

    reports = []
    if args.baseline is not None:
        reports.append(gate_file(args.baseline, args.candidate, args.threshold))
    else:
        for name in ARTIFACTS:
            candidate_path = os.path.join(args.candidate_dir, name)
            if not os.path.exists(candidate_path):
                print(f"skipping {name}: no candidate at {candidate_path}")
                continue
            baseline_path = baseline_path_for(
                load_bench(candidate_path), args.baseline_dir, name
            )
            if not os.path.exists(baseline_path):
                print(f"skipping {name}: no baseline at {baseline_path}")
                continue
            reports.append(
                gate_file(baseline_path, candidate_path, args.threshold)
            )

    failed = False
    matched_total = 0
    for report in reports:
        _print_report(report)
        matched_total += report["matched"]
        if report["regressions"] or report["only_in_baseline"]:
            failed = True
    if not reports:
        print("regression gate: nothing to compare — failing closed")
        verdict = "nothing-to-compare"
        code = 1
    elif matched_total == 0:
        print("regression gate: no comparable cells — failing closed")
        verdict = "no-comparable-cells"
        code = 1
    elif failed:
        print("regression gate: FAILED")
        verdict = "fail"
        code = 1
    else:
        print(f"regression gate: OK ({matched_total} cells within threshold)")
        verdict = "ok"
        code = 0
    if args.json_report:
        write_json_report(args.json_report, reports, verdict)
        print(f"json report -> {args.json_report}")
    return code


if __name__ == "__main__":
    sys.exit(main())
