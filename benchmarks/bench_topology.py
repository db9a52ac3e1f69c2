"""Topology benchmark: shards × V2V × churn sweep + the sharding claim.

Three claims are under test:

1. **Sharding cuts queue latency** — splitting the fleet's CA/gateway
   role across ``M`` shards cuts the CA-queue wait (the time an
   enrollment request spends queued before its issuance batch starts
   service), because each shard serves ``~N/M`` vehicles instead of all
   ``N``.  The sweep runs the *same* 500-session workload (250 vehicles
   × 2 sessions through forced re-keys) at 1, 2 and 4 shards and
   **asserts** that the mean CA-queue latency at 4 shards beats 1 shard.
2. **Bit-stable history** — every churn-disabled sweep cell must
   reproduce the digest the PR 2 orchestrator produced for it
   (:data:`PR2_GOLDEN_DIGESTS`), bit for bit.  Any drift in the
   degenerate paths fails the benchmark before the regression gate even
   runs.
3. **Deterministic churn** — the migration+rejoin scenario (gateway
   failure, scheduled rejoin at the next chain epoch, threshold-driven
   live migration) is run twice in-process and **asserted** to produce
   identical digests.

Run standalone (used by the acceptance check)::

    PYTHONPATH=src python benchmarks/bench_topology.py          # 250 vehicles
    PYTHONPATH=src python benchmarks/bench_topology.py --quick  # CI smoke
    PYTHONPATH=src python benchmarks/bench_topology.py --quick --churn-only

Either mode writes a machine-readable ``BENCH_topology.json`` (one record
per sweep cell: throughput, p50/p99 latencies, energy, per-shard
breakdown, digest); ``--json`` overrides the path.  ``--churn-only``
runs just the churn cell (the CI churn smoke job).  Under pytest the
module contributes fast, small-fleet versions of the same assertions.
"""

from __future__ import annotations

import argparse
import json
import time

from repro.fleet import FleetConfig, FleetOrchestrator

#: Sharding sweep of the full workload (same seed and record budgets as
#: ``bench_fleet_scale.FULL_CONFIG``'s 500-session storm).
SHARD_SWEEP = (1, 2, 4)

#: Digests captured from the PR 2 (pre-churn) orchestrator, keyed by
#: ``(shards, v2v_fraction)``.  Churn-disabled cells must reproduce them
#: bit-for-bit; the churn cell is new and covered by determinism +
#: the regression gate instead.
PR2_GOLDEN_DIGESTS = {
    "full": {
        (1, 0.0): "9cf4287c6de92988e037135dae1470e2eb3ce01d7c9e3c585805a8b74fa1a366",
        (2, 0.0): "ddd5dd09a3d660b6e44d6138365650c894954c64b975c365c5fcaf0aa89e5cdf",
        (4, 0.0): "ff494a59d2563eb1f185c309db9b3bc5e976ad180cf05aa4595dc2cb00fed3b6",
        (2, 0.3): "d33f5dadba656209cf6dfe90510264b32d80a77bef64fc5c3c965e95892d6f34",
    },
    "quick": {
        (1, 0.0): "7d19f80ec42a345d7050a71f3d7a176696dd24682be216642024fb3d789c6436",
        (2, 0.0): "76c920d77d295458fb028f03d5eb7957c60ec1472b0d3fc4c5916fe47f5e9ed8",
        (4, 0.0): "c3913b05da3d122b59ef8735a80b3a9ccffae325b1ba415bd46808fba522e5b3",
        (2, 0.3): "d3db50ea9aa5e893043ed95f7e860f422ab4021b78d50ad269dc8f0f792dc0ac",
    },
}


def topology_config(
    n_vehicles: int,
    shards: int,
    v2v_fraction: float,
    arrival_spread_ms: float,
) -> FleetConfig:
    """One sweep cell: a fixed workload at a given topology shape."""
    return FleetConfig(
        n_vehicles=n_vehicles,
        seed=b"bench-topology",
        records_per_vehicle=8,
        max_records=4,
        send_interval_ms=25.0,
        arrival_spread_ms=arrival_spread_ms,
        shards=shards,
        v2v_fraction=v2v_fraction,
        v2v_records=6,
    )


def churn_config(n_vehicles: int, arrival_spread_ms: float) -> FleetConfig:
    """The churn cell: failure at 4.5 s, rejoin at 6 s, threshold-1
    re-balancing, record budget sized so re-keys land after the rejoin
    (exercising the chain-epoch re-enrollment path at scale)."""
    return FleetConfig(
        n_vehicles=n_vehicles,
        seed=b"bench-topology",
        records_per_vehicle=12,
        max_records=5,
        send_interval_ms=25.0,
        arrival_spread_ms=arrival_spread_ms,
        shards=2,
        shard_fail_at_ms=4_500.0,
        fail_shard=0,
        shard_rejoin_at_ms=6_000.0,
        migrate_threshold=1,
    )


def run_cell(config: FleetConfig, churn: bool = False) -> tuple[dict, float]:
    """Run one sweep cell; returns its JSON record and the wall time."""
    t0 = time.perf_counter()
    result = FleetOrchestrator(config).run()
    wall_s = time.perf_counter() - t0
    stats = result.stats
    record = {
        "shards": config.shards,
        "v2v_fraction": config.v2v_fraction,
        "n_vehicles": config.n_vehicles,
        "churn": churn,
        "host_wall_s": wall_s,
        "fleet": stats.as_dict(),
    }
    return record, wall_s


def _check_golden(record: dict, goldens: dict) -> None:
    key = (record["shards"], record["v2v_fraction"])
    expected = goldens.get(key)
    digest = record["fleet"]["digest"]
    if expected is not None and digest != expected:
        raise AssertionError(
            f"churn-disabled cell {key} drifted off the PR 2 golden"
            f" digest: {digest} != {expected}"
        )


def run_churn_cell(n_vehicles: int, spread: float) -> tuple[dict, float]:
    """Run the migration+rejoin scenario twice; assert determinism."""
    config = churn_config(n_vehicles, spread)
    record, wall_s = run_cell(config, churn=True)
    second, second_wall = run_cell(config, churn=True)
    if record["fleet"]["digest"] != second["fleet"]["digest"]:
        raise AssertionError(
            "non-deterministic churn cell:"
            f" {record['fleet']['digest']} != {second['fleet']['digest']}"
        )
    fleet = record["fleet"]
    churn = fleet["churn"]
    epochs = [shard["epoch"] for shard in fleet["per_shard"]]
    print(
        f"churn: shards=2 fail@4.5s rejoin@6s threshold=1"
        f"  migrations={churn['migrations']}"
        f" re-enrollments={churn['re_enrollments']}"
        f" rejoins={churn['rejoins']}"
        f" handovers={fleet['handovers']}"
        f" epochs={epochs}"
        f"  wall={wall_s:.1f}+{second_wall:.1f} s (digest identical)"
    )
    if churn["rejoins"] != 1:
        raise AssertionError("churn cell must see exactly one rejoin")
    if churn["migrations"] < 1 or churn["re_enrollments"] < 1:
        raise AssertionError("churn cell saw no migration/re-enrollment")
    if max(epochs) != 2:
        raise AssertionError("rejoined shard must be at chain epoch 2")
    return record, wall_s + second_wall


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 50 vehicles instead of 250",
    )
    parser.add_argument(
        "--churn-only",
        action="store_true",
        help="run only the migration+rejoin churn cell",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="machine-readable output path (default: BENCH_topology.json,"
        " or BENCH_topology_churn.json with --churn-only so the"
        " single-cell payload never clobbers the committed sweep)",
    )
    args = parser.parse_args()
    json_path = args.json or (
        "BENCH_topology_churn.json"
        if args.churn_only
        else "BENCH_topology.json"
    )
    n_vehicles = 50 if args.quick else 250
    spread = 50.0 if args.quick else 200.0
    mode = "quick" if args.quick else "full"
    goldens = PR2_GOLDEN_DIGESTS[mode]

    cells = []
    if not args.churn_only:
        queue_means: dict[int, float] = {}
        for shards in SHARD_SWEEP:
            config = topology_config(n_vehicles, shards, 0.0, spread)
            record, wall_s = run_cell(config)
            _check_golden(record, goldens)
            cells.append(record)
            fleet = record["fleet"]
            queue_means[shards] = fleet["ca_queue_latency"]["mean_ms"]
            print(
                f"shards={shards}  v2v=0.0  sessions={fleet['sessions_established']}"
                f"  queue mean={fleet['ca_queue_latency']['mean_ms']:.3f} ms"
                f"  p99={fleet['ca_queue_latency']['p99_ms']:.3f} ms"
                f"  enroll p50={fleet['enrollment_latency']['p50_ms']:.3f} ms"
                f"  wall={wall_s:.1f} s"
            )

        # The V2V cell: the CI smoke shape (2 shards, fraction 0.3).
        v2v_config = topology_config(n_vehicles, 2, 0.3, spread)
        v2v_record, wall_s = run_cell(v2v_config)
        _check_golden(v2v_record, goldens)
        cells.append(v2v_record)
        v2v = v2v_record["fleet"]["v2v"]
        print(
            f"shards=2  v2v=0.3  v2v_sessions={v2v['sessions']}"
            f" ({v2v['cross_shard']} cross-shard, {v2v['rekeys']} re-keys),"
            f" {v2v['records_sent']} direct records  wall={wall_s:.1f} s"
        )

        required = 100 if args.quick else 500
        for record in cells[: len(SHARD_SWEEP)]:
            sessions = record["fleet"]["sessions_established"]
            if sessions < required:
                raise AssertionError(
                    f"expected >= {required} sessions at shards="
                    f"{record['shards']}, got {sessions}"
                )

        ratio = (
            f" ({queue_means[1] / queue_means[4]:.2f}x better)"
            if queue_means[4] > 0.0
            else " (no queueing at all with 4 shards)"
        )
        print(
            f"\nCA-queue mean latency: 1 shard = {queue_means[1]:.3f} ms,"
            f" 4 shards = {queue_means[4]:.3f} ms{ratio}"
        )
        if queue_means[4] >= queue_means[1]:
            raise AssertionError(
                "sharding failed to cut CA-queue latency:"
                f" 4 shards {queue_means[4]:.3f} ms >="
                f" 1 shard {queue_means[1]:.3f} ms"
            )

    # The churn cell: gateway failure -> rejoin at the next chain epoch,
    # with threshold-driven live migration (run twice: determinism).
    churn_record, _ = run_churn_cell(n_vehicles, spread)
    cells.append(churn_record)

    payload = {
        "benchmark": "topology",
        "mode": mode,
        "cells": cells,
    }
    with open(json_path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {json_path}")
    print("OK")


# -- fast pytest-facing versions of the same assertions ------------------------


def test_small_fleet_sharding_cuts_queue_latency():
    """4 shards beat 1 shard on mean CA-queue wait for one burst workload."""
    means = {}
    for shards in (1, 4):
        config = FleetConfig(
            n_vehicles=16,
            seed=b"bench-topology-pytest",
            records_per_vehicle=2,
            max_records=4,
            arrival_spread_ms=5.0,  # burst arrivals force a queue
            shards=shards,
        )
        result = FleetOrchestrator(config).run()
        means[shards] = result.stats.ca_queue_latency.mean_ms
    assert means[4] < means[1]


def test_small_churn_cell_is_deterministic():
    """Migration+rejoin at pytest scale: identical digests, epoch 2."""
    config = FleetConfig(
        n_vehicles=8,
        seed=b"bench-topology-churn-pytest",
        records_per_vehicle=12,
        max_records=5,
        send_interval_ms=25.0,
        arrival_spread_ms=15.0,
        shards=2,
        shard_fail_at_ms=4_500.0,
        fail_shard=0,
        shard_rejoin_at_ms=6_000.0,
        migrate_threshold=1,
    )
    first = FleetOrchestrator(config).run().stats
    second = FleetOrchestrator(config).run().stats
    assert first.digest() == second.digest()
    assert first.rejoins == 1
    assert first.per_shard[0].epoch == 2
    assert first.migrations >= 1


if __name__ == "__main__":
    main()
