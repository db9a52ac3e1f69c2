"""The BENCH_*.json regression gate: matching, thresholds, fail-closed.

The gate itself must be trustworthy: these tests pin its cell-matching
(structural keys, mode-aware baselines, nothing silently dropped), its
threshold semantics (>25 % worse fails, improvements don't, zero
baselines are skipped), and — as an integration check — that the
*committed* artifacts gate cleanly against the committed baselines, which
is the exact invocation CI runs after the smoke jobs.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import os
import subprocess
import sys

import pytest

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GATE_PATH = os.path.join(_REPO_ROOT, "benchmarks", "regression_gate.py")

_spec = importlib.util.spec_from_file_location("regression_gate", _GATE_PATH)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _topology_payload(p50=10.0, throughput=100.0, churn_cell=True) -> dict:
    def cell(shards, v2v, churn=False):
        latency = {
            "count": 10,
            "min_ms": 1.0,
            "mean_ms": p50,
            "p50_ms": p50,
            "p95_ms": p50 * 2,
            "p99_ms": p50 * 3,
            "max_ms": p50 * 4,
        }
        return {
            "shards": shards,
            "v2v_fraction": v2v,
            "n_vehicles": 50,
            "churn": churn,
            "host_wall_s": 12.34,  # must never be gated
            "fleet": {
                "throughput_records_per_s": throughput,
                "sessions_per_s": throughput / 2,
                "enrollment_latency": latency,
                "establishment_latency": latency,
                "ca_queue_latency": latency,
            },
        }

    cells = [cell(1, 0.0), cell(2, 0.0), cell(4, 0.0), cell(2, 0.3)]
    if churn_cell:
        cells.append(cell(2, 0.0, churn=True))
    return {"benchmark": "topology", "mode": "quick", "cells": cells}


class TestCellExtraction:
    def test_topology_cells_keyed_structurally(self):
        cells = gate.extract_cells(_topology_payload())
        assert ("topology", "", "", 1, 0.0, 50, False) in cells
        assert ("topology", "", "", 2, 0.0, 50, True) in cells
        # The churn cell and the plain 2-shard cell are distinct keys.
        assert len(cells) == 5

    def test_scenario_cells_keyed_by_name(self):
        payload = _topology_payload()
        payload["benchmark"] = "scenarios"
        for name, cell in zip(("a", "b", "c", "d", "e"), payload["cells"]):
            cell["scenario"] = name
        cells = gate.extract_cells(payload)
        assert ("scenarios", "a", "", 1, 0.0, 50, False) in cells
        assert len(cells) == 5

    def test_policy_cells_keyed_by_bundle(self):
        # The policy-ablation sweep runs one workload shape under many
        # bundles: only the policy slot distinguishes its cells.
        payload = _topology_payload(churn_cell=False)
        payload["benchmark"] = "policies"
        for bundle, cell in zip(("w", "x", "y", "z"), payload["cells"]):
            cell["scenario"] = "policy-ablation"
            cell["policy"] = bundle
            cell.update(shards=2, v2v_fraction=0.0, churn=True)
        cells = gate.extract_cells(payload)
        assert ("policies", "policy-ablation", "x", 2, 0.0, 50, True) in cells
        assert len(cells) == 4

    def test_fleet_payload_is_one_cell(self):
        payload = {
            "benchmark": "fleet_scale",
            "mode": "full",
            "config": {"n_vehicles": 250},
            "fleet": {"throughput_records_per_s": 1.0},
        }
        cells = gate.extract_cells(payload)
        assert list(cells) == [("fleet_scale", "", "", 1, 0.0, 250, False)]

    def test_fleet_scale_sweep_cells_are_extracted(self):
        payload = {
            "benchmark": "fleet_scale",
            "mode": "quick",
            "config": {"n_vehicles": 250},
            "fleet": {"throughput_records_per_s": 1.0},
            "scale": {
                "host_cores": 4,
                "cells": [
                    {
                        "vehicles": 300,
                        "workers": 1,
                        "shards": 4,
                        "wall_s": 9.9,  # host metric, never gated
                        "fleet": {"throughput_records_per_s": 2.0},
                    },
                    {
                        "vehicles": 300,
                        "workers": 2,
                        "shards": 4,
                        "fleet": {"throughput_records_per_s": 2.0},
                    },
                    # A slim pre-gate cell without stats: skipped, not
                    # a crash.
                    {"vehicles": 1_200, "workers": 1, "shards": 4},
                ],
            },
        }
        cells = gate.extract_cells(payload)
        assert ("fleet_scale", "scale-w1", "", 4, 0.0, 300, False) in cells
        assert ("fleet_scale", "scale-w2", "", 4, 0.0, 300, False) in cells
        assert len(cells) == 3  # storm cell + two gateable scale cells

    def test_tree_roots_sit_under_the_cell_keys(self):
        sweep = _topology_payload()
        sweep_cell = sweep["cells"][1]
        sweep_cell["tree_root"] = "sweep-root"
        scale_cell = {
            "vehicles": 300,
            "workers": 2,
            "shards": 4,
            "tree_root": "scale-root",
            "fleet": {"throughput_records_per_s": 2.0},
        }
        scale = {
            "benchmark": "fleet_scale",
            "mode": "quick",
            "config": {"n_vehicles": 250},
            "fleet": {"throughput_records_per_s": 1.0},
            "scale": {"cells": [scale_cell]},
        }
        for payload, cell in ((sweep, sweep_cell), (scale, scale_cell)):
            roots = gate.extract_tree_roots(payload)
            assert list(roots.values()) == [cell["tree_root"]]
            (key,) = roots
            assert gate.extract_cells(payload)[key] is cell["fleet"]

    def test_mode_selects_baseline_file(self):
        quick = {"mode": "quick"}
        full = {"mode": "full"}
        assert gate.baseline_path_for(
            quick, "/b", "BENCH_topology.json"
        ) == "/b/BENCH_topology_quick.json"
        assert gate.baseline_path_for(
            full, "/b", "BENCH_topology.json"
        ) == "/b/BENCH_topology.json"


class TestThresholdSemantics:
    def test_identical_payloads_pass(self):
        cells = gate.extract_cells(_topology_payload())
        report = gate.compare_cells(cells, cells)
        assert report["matched"] == 5
        assert report["regressions"] == []
        assert report["only_in_baseline"] == []
        assert report["only_in_candidate"] == []

    def test_p50_regression_over_threshold_fails(self):
        base = gate.extract_cells(_topology_payload(p50=10.0))
        cand = gate.extract_cells(_topology_payload(p50=13.5))  # +35 %
        report = gate.compare_cells(base, cand)
        assert report["regressions"]
        metrics = {entry["metric"] for entry in report["regressions"]}
        assert "enrollment_latency.p50_ms" in metrics

    def test_throughput_drop_over_threshold_fails(self):
        base = gate.extract_cells(_topology_payload(throughput=100.0))
        cand = gate.extract_cells(_topology_payload(throughput=70.0))
        report = gate.compare_cells(base, cand)
        assert any(
            entry["metric"] == "throughput_records_per_s"
            for entry in report["regressions"]
        )

    def test_within_threshold_drift_passes(self):
        base = gate.extract_cells(_topology_payload(p50=10.0))
        cand = gate.extract_cells(
            _topology_payload(p50=12.0, throughput=85.0)
        )  # +20 % / -15 %
        report = gate.compare_cells(base, cand)
        assert report["regressions"] == []

    def test_improvements_never_fail(self):
        base = gate.extract_cells(_topology_payload(p50=10.0, throughput=100.0))
        cand = gate.extract_cells(_topology_payload(p50=2.0, throughput=400.0))
        report = gate.compare_cells(base, cand)
        assert report["regressions"] == []
        assert report["improvements"]

    def test_zero_baseline_latency_appearing_is_a_regression(self):
        # A zero baseline has no ratio, but it must not be a permanent
        # exemption: latency appearing past the absolute floor fails.
        base = gate.extract_cells(_topology_payload(p50=0.0))
        cand = gate.extract_cells(_topology_payload(p50=50.0))
        report = gate.compare_cells(base, cand)
        assert any(
            "latency" in entry["metric"] for entry in report["regressions"]
        )

    def test_zero_baseline_noise_below_floor_passes(self):
        base = gate.extract_cells(_topology_payload(p50=0.0))
        cand = gate.extract_cells(_topology_payload(p50=0.3))
        report = gate.compare_cells(base, cand)
        assert not any(
            "latency" in entry["metric"] for entry in report["regressions"]
        )

    def test_unmatched_cells_are_reported_not_dropped(self):
        base = gate.extract_cells(_topology_payload(churn_cell=False))
        cand = gate.extract_cells(_topology_payload(churn_cell=True))
        report = gate.compare_cells(base, cand)
        assert report["matched"] == 4
        assert report["only_in_candidate"] == [
            ("topology", "", "", 2, 0.0, 50, True)
        ]

    def test_lost_baseline_cells_fail_the_gate(self, tmp_path):
        # A candidate that stopped producing baseline cells (e.g. the
        # sweep was accidentally truncated) must fail, even though the
        # surviving cell matches perfectly.
        baseline = tmp_path / "baselines" / "BENCH_topology_quick.json"
        baseline.parent.mkdir()
        baseline.write_text(json.dumps(_topology_payload()))
        truncated = _topology_payload()
        truncated["cells"] = truncated["cells"][:1]
        candidate = tmp_path / "BENCH_topology.json"
        candidate.write_text(json.dumps(truncated))
        result = subprocess.run(
            [
                sys.executable,
                _GATE_PATH,
                "--baseline-dir",
                str(baseline.parent),
                "--candidate-dir",
                str(tmp_path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "LOST CELL" in result.stdout


class TestCommittedArtifacts:
    """The acceptance invocation: gate the committed BENCH_*.json."""

    def test_committed_artifacts_pass_against_baselines(self):
        # Exactly what CI runs (default dirs): committed artifacts vs
        # committed baselines must gate clean.
        result = subprocess.run(
            [sys.executable, _GATE_PATH],
            capture_output=True,
            text=True,
            cwd=_REPO_ROOT,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert "regression gate: OK" in result.stdout

    def test_committed_quick_fleet_baseline_records_every_scale_root(self):
        # Each scale cell's telemetry root is what a later drift in its
        # metric planes is diffed from; a cell without one cannot be.
        path = os.path.join(
            _REPO_ROOT, "benchmarks", "baselines", "BENCH_fleet_quick.json"
        )
        with open(path) as fh:
            payload = json.load(fh)
        scale_cells = payload["scale"]["cells"]
        assert scale_cells
        roots = gate.extract_tree_roots(payload)
        for cell in scale_cells:
            key = gate._cell_key(payload["benchmark"], cell, scale=True)
            assert roots.get(key), f"scale cell {key} records no tree_root"

    def test_perturbed_committed_topology_fails(self, tmp_path):
        with open(os.path.join(_REPO_ROOT, "BENCH_topology.json")) as fh:
            payload = json.load(fh)
        bad = copy.deepcopy(payload)
        for cell in bad["cells"]:
            summary = cell["fleet"]["enrollment_latency"]
            summary["p50_ms"] *= 1.5
            summary["p99_ms"] *= 1.5
        candidate = tmp_path / "BENCH_topology.json"
        candidate.write_text(json.dumps(bad))
        baseline = os.path.join(
            _REPO_ROOT, "benchmarks", "baselines", "BENCH_topology.json"
        )
        report = gate.gate_file(baseline, str(candidate))
        assert report["regressions"]

    def test_gate_fails_closed_on_nothing_comparable(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable,
                _GATE_PATH,
                "--candidate-dir",
                str(tmp_path),  # empty: no artifacts at all
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert "failing closed" in result.stdout


class TestJsonReport:
    """``--json-report``: the machine-readable verdict artifact."""

    def test_ok_verdict_written(self, tmp_path):
        out = tmp_path / "gate.json"
        result = subprocess.run(
            [sys.executable, _GATE_PATH, "--json-report", str(out)],
            capture_output=True,
            text=True,
            cwd=_REPO_ROOT,
        )
        assert result.returncode == 0
        assert f"json report -> {out}" in result.stdout
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "ok"
        assert payload["regressions"] == 0
        assert payload["matched"] > 0
        assert payload["reports"]

    def test_fail_verdict_and_inf_serialisation(self, tmp_path):
        # Zero-baseline regressions carry change=inf internally; the
        # JSON artifact must stay parseable (inf -> null).
        baseline = tmp_path / "baselines" / "BENCH_topology_quick.json"
        baseline.parent.mkdir()
        baseline.write_text(json.dumps(_topology_payload(p50=0.0)))
        candidate = tmp_path / "BENCH_topology.json"
        candidate.write_text(json.dumps(_topology_payload(p50=50.0)))
        out = tmp_path / "gate.json"
        result = subprocess.run(
            [
                sys.executable,
                _GATE_PATH,
                "--baseline-dir",
                str(baseline.parent),
                "--candidate-dir",
                str(tmp_path),
                "--json-report",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        payload = json.loads(out.read_text())  # strict JSON: no Infinity
        assert payload["verdict"] == "fail"
        assert payload["regressions"] > 0
        entry = payload["reports"][0]["regressions"][0]
        assert entry["change"] is None
        assert isinstance(entry["cell"], list)

    def test_written_even_when_nothing_to_compare(self, tmp_path):
        out = tmp_path / "gate.json"
        result = subprocess.run(
            [
                sys.executable,
                _GATE_PATH,
                "--candidate-dir",
                str(tmp_path),
                "--json-report",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        payload = json.loads(out.read_text())
        assert payload["verdict"] == "nothing-to-compare"
        assert payload["reports"] == []

    def test_jsonable_report_round_trips_cells(self):
        cells = gate.extract_cells(_topology_payload())
        report = gate.compare_cells(cells, cells)
        report["baseline_path"] = "a"
        report["candidate_path"] = "b"
        jsonable = gate._jsonable_report(report)
        json.dumps(jsonable)
        assert jsonable["matched"] == report["matched"]
