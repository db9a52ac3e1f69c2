"""Policy-ablation benchmark: one workload, every fleet-policy bundle.

Runs a fixed churn-plus-storm workload (two shards, a mid-run shard
failure and rejoin, a replay storm against the surviving shard) under
each registered policy bundle of :mod:`repro.fleet.policy` and asserts
the policy engine's contracts:

1. **Determinism** — every bundle cell is run twice in-process and must
   produce bit-identical :class:`~repro.fleet.FleetStats` digests.
2. **Default bit-parity** — the ``default`` bundle's cell must be
   bit-identical to the same workload run with no policy selected at
   all (``policy=None``), and both must match the committed golden
   digest below; any drift in the extracted legacy strategies fails
   the benchmark before the regression gate even runs.
3. **Attacks fail loudly under every bundle** — the replay storm must
   report nonzero attempts, all rejected, zero successful forgeries,
   no matter which strategies are steering the fleet.
4. **Decisions are accounted** — each cell records the engine's
   per-``(point, rule)`` decision tallies, and the observed run must
   lint clean (the ``policy-balance`` tracelint rule cross-checks the
   decision counters against the actions they triggered).

Run standalone (used by the acceptance check)::

    PYTHONPATH=src python benchmarks/bench_policies.py          # full
    PYTHONPATH=src python benchmarks/bench_policies.py --quick  # CI smoke

Either mode writes a machine-readable ``BENCH_policies.json`` (one
record per bundle: throughput, latency percentiles, decision tallies,
injection accounting, digest, digest-tree root); ``--json`` overrides
the path.  Under pytest the module contributes fast, small-fleet
versions of the same assertions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.fleet import (  # noqa: E402
    POLICY_BUNDLES,
    FleetConfig,
    FleetOrchestrator,
    ReplayStorm,
    Scenario,
)
from repro.obs import Observer, lint_archive, write_jsonl  # noqa: E402

#: Every registered bundle, the extracted legacy strategies first.  The
#: sweep iterates this tuple (not the registry dict) so the cell order
#: in ``BENCH_policies.json`` is stable.
BUNDLES = ("default",) + tuple(
    sorted(name for name in POLICY_BUNDLES if name != "default")
)

#: Frozen digests of the ``default`` cell per mode, captured when the
#: bundle was extracted from the hard-coded strategies.  The ablation
#: workload predates no PR, so these anchor the *extraction*: the
#: default bundle steering this workload must keep producing exactly
#: what the legacy inline logic produced.
DEFAULT_GOLDENS = {
    "quick": (
        "e49c2cee41b2eaad1f3ce4466fcb2e87c6dab28d78f07162123f2c035a9f853f"
    ),
    "full": (
        "23c139e353d6e2b19feb6cdc19e83d6a734419d13fc521ce3453a65fdbb8b290"
    ),
}


def policy_workload(quick: bool) -> tuple[FleetConfig, Scenario]:
    """The fixed workload every bundle is measured against.

    Round-robin assignment populates both shards deterministically, the
    replay storm fires mid-traffic against shard 1 (application records
    start flowing ~3.7 s in, once enrollment and the CA batch drain),
    then shard 0 fails and rejoins — so every decision point (assign,
    migrate, rekey, failover) is live.  ``migrate_threshold`` stays
    unset: the ``utilisation-rebalance`` bundle rejects an explicit
    threshold (its rules replace it; see
    :func:`repro.fleet.resolve_policies`), and the sweep needs one
    config valid under every bundle.
    """
    config = FleetConfig(
        n_vehicles=12 if quick else 32,
        seed=b"bench-policies",
        records_per_vehicle=12,
        # Strictly above the storm-rekey budget (4): the storm-hardened
        # bundle must have room to re-key *earlier* than the managers'
        # own session cap while the storm window is open.
        max_records=6,
        send_interval_ms=20.0,
        arrival_spread_ms=50.0,
        shards=2,
        shard_policy="round-robin",
        shard_fail_at_ms=5_200.0,
        fail_shard=0,
        shard_rejoin_at_ms=6_800.0,
    )
    scenario = Scenario(
        name="policy-ablation",
        injections=(
            ReplayStorm(at_ms=4_500.0, replays=16, target_shard=1),
        ),
    )
    return config, scenario


def run_policy_cell(bundle: str, quick: bool) -> tuple[dict, float]:
    """Run one bundle twice; assert determinism, defenses and linting.

    The second run is observed (digest-neutral by contract — the
    determinism assert would catch a violation), its event stream is
    exported to a JSONL archive and run through tracelint: every cell
    must lint clean — which exercises the ``policy-balance`` rule
    against live decision counters — and the cell records its
    digest-tree root and decision tallies next to the stats digest.
    """
    base_config, scenario = policy_workload(quick)
    config = dataclasses.replace(base_config, policy=bundle)
    wall = 0.0
    digests = []
    orch = None
    obs = None
    for attempt in range(2):
        obs = Observer() if attempt == 1 else None
        orch = FleetOrchestrator(config, scenario=scenario, obs=obs)
        t0 = time.perf_counter()
        stats = orch.run().stats
        wall += time.perf_counter() - t0
        digests.append(stats.digest())
    if digests[0] != digests[1]:
        raise AssertionError(
            f"non-deterministic bundle {bundle!r}:"
            f" {digests[0]} != {digests[1]}"
        )
    if stats.attack_attempts <= 0:
        raise AssertionError(f"bundle {bundle!r}: the storm never attacked")
    if stats.attack_successes != 0:
        raise AssertionError(
            f"SECURITY: bundle {bundle!r} saw"
            f" {stats.attack_successes} successful forgeries"
        )
    if stats.attack_rejections != stats.attack_attempts:
        raise AssertionError(
            f"bundle {bundle!r} lost attempts:"
            f" {stats.attack_rejections} rejected"
            f" != {stats.attack_attempts} attempted"
        )
    with tempfile.TemporaryDirectory() as tmp:
        archive = os.path.join(tmp, f"{bundle}.jsonl")
        write_jsonl(archive, obs.deterministic_events())
        findings = lint_archive(archive)
    if findings:
        raise AssertionError(
            f"tracelint findings on bundle {bundle!r}: "
            + "; ".join(f.render() for f in findings)
        )
    decisions = {
        f"{point}:{rule}": count
        for (point, rule), count in sorted(
            orch.policy.decision_counts.items()
        )
    }
    if not decisions:
        raise AssertionError(
            f"bundle {bundle!r} recorded no policy decisions at all"
        )
    record = {
        "scenario": scenario.name,
        "policy": bundle,
        "shards": config.shards,
        "v2v_fraction": config.v2v_fraction,
        "n_vehicles": config.n_vehicles,
        "churn": config.shard_rejoin_at_ms is not None,
        "host_wall_s": wall,
        "tree_root": obs.digest_tree().root_digest,
        "decisions": decisions,
        "fleet": stats.as_dict(),
    }
    return record, wall


def run_default_parity(cells: list[dict], quick: bool) -> str:
    """Anchor the ``default`` cell: implicit == explicit == golden.

    The same workload with ``policy=None`` (the engine assembling the
    implicit default bundle exactly as the pre-policy code paths did)
    must reproduce the ``default`` cell's digest bit for bit, and both
    must match the frozen :data:`DEFAULT_GOLDENS` entry when one is
    committed for the mode.  Returns the anchored digest.
    """
    default_cell = next(c for c in cells if c["policy"] == "default")
    config, scenario = policy_workload(quick)
    implicit = FleetOrchestrator(config, scenario=scenario).run().stats
    if implicit.digest() != default_cell["fleet"]["digest"]:
        raise AssertionError(
            "default-bundle parity violated: policy=None produced"
            f" {implicit.digest()} but the 'default' cell recorded"
            f" {default_cell['fleet']['digest']}"
        )
    golden = DEFAULT_GOLDENS["quick" if quick else "full"]
    if golden is not None and implicit.digest() != golden:
        raise AssertionError(
            "default bundle drifted off the frozen ablation golden:"
            f" {implicit.digest()} != {golden}"
        )
    return implicit.digest()


def main() -> None:
    """Drive the bundle ablation sweep and write the JSON record."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 12-vehicle fleets",
    )
    parser.add_argument(
        "--json",
        default="BENCH_policies.json",
        metavar="PATH",
        help="machine-readable output path",
    )
    args = parser.parse_args()
    mode = "quick" if args.quick else "full"

    cells = []
    for bundle in BUNDLES:
        record, wall = run_policy_cell(bundle, args.quick)
        fleet = record["fleet"]
        tallies = " ".join(
            f"{key}={count}" for key, count in record["decisions"].items()
        )
        print(
            f"{bundle:<22s} vehicles={record['n_vehicles']:<3d}"
            f" sessions={fleet['sessions_established']:<4d}"
            f" migrations={fleet['churn']['migrations']:<3d}"
            f" rekeys={fleet['rekeys']:<3d}"
            f" wall={wall:5.1f} s (x2, digest identical)\n"
            f"{'':<22s} decisions: {tallies}"
        )
        cells.append(record)

    if len(cells) < 3:
        raise AssertionError(
            f"ablation shrank: only {len(cells)} bundles swept"
        )
    anchored = run_default_parity(cells, args.quick)
    print(
        f"{'default-parity':<22s} policy=None reproduces the 'default'"
        f" cell bit-for-bit ({anchored[:16]}…)"
    )

    payload = {"benchmark": "policies", "mode": mode, "cells": cells}
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.json}")
    print("OK")


# -- fast pytest-facing versions of the same assertions ------------------------


def test_policy_cell_is_deterministic_and_lints_clean():
    """One full cell at quick scale: double-run digest, lint, tallies.

    ``run_policy_cell`` raises on any digest drift, forgery, missing
    decision tally or tracelint finding, so this covers the observe →
    export → lint path (including ``policy-balance``) end to end; the
    every-bundle sweep lives in the standalone bench.
    """
    record, _ = run_policy_cell("storm-hardened", quick=True)
    assert record["tree_root"]
    assert record["policy"] == "storm-hardened"
    assert any(key.startswith("rekey:") for key in record["decisions"])


def test_default_bundle_matches_implicit_run_at_pytest_scale():
    """policy=None and policy='default' agree on the ablation workload."""
    config, scenario = policy_workload(quick=True)
    implicit = FleetOrchestrator(config, scenario=scenario).run().stats
    explicit = FleetOrchestrator(
        dataclasses.replace(config, policy="default"), scenario=scenario
    ).run().stats
    assert implicit.digest() == explicit.digest()


def test_sweep_covers_at_least_three_strategies():
    """The registry keeps the ablation honest: >= 3 bundles, default first."""
    assert len(BUNDLES) >= 3
    assert BUNDLES[0] == "default"
    assert set(BUNDLES) == set(POLICY_BUNDLES)


if __name__ == "__main__":
    main()
