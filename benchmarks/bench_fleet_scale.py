"""Fleet-scale benchmark: ≥500 concurrent sessions + batch-EC speedup.

Three claims are exercised:

1. **Determinism at scale** — a 250-vehicle storm (2 sessions per vehicle
   through forced re-keys = 500 session establishments) run twice from
   the same seed produces bit-identical aggregate stats digests.
2. **Batched normalization wins** — converting the same number of
   Jacobian points to affine through one Montgomery-trick inversion
   (:func:`repro.ec.normalize_batch`) measurably beats the per-point
   inversion path (:func:`repro.ec.point.from_jacobian`), and batched CA
   issuance (:meth:`~repro.ecqv.ca.CertificateAuthority.issue_batch`)
   beats scalar-at-a-time issuance on the same request burst.
3. **Backend parity + speedup** — the same storm under the
   ``accelerated`` crypto backend (:mod:`repro.backend`) produces the
   bit-identical stats digest while cutting host wall-clock.  Since the
   EC extension of the backend seam, quick mode asserts a ≥10x
   end-to-end speedup when OpenSSL EC point math is active (the
   ``cryptography`` package importable), ≥8x for the full storm; with
   ``cryptography`` absent the assert drops back to the primitive-era
   tiers (≥3x with OpenSSL AES, ≥2x on the pure-Python fallback).

Run standalone for the full workload (used by the acceptance check)::

    PYTHONPATH=src python benchmarks/bench_fleet_scale.py          # 500 sessions + scale sweep
    PYTHONPATH=src python benchmarks/bench_fleet_scale.py --quick  # CI smoke

Full mode runs more than the 500-session storm: after the storm and
backend cells it runs the streaming scale sweep of
:data:`SCALE_GRID_FULL` (10k vehicles × 1/2/4 workers, 100k × 1/4).
The 10k-vehicle serial cell alone took 61 s on a 2-core host and each
100k cell is ten times larger, so a full run takes tens of minutes.
``--quick`` runs the same sweep at 300 and 1 200 vehicles.

``--backend accelerated`` runs the main storm itself on the accelerated
backend (the parity cell then re-times the reference side).  Either mode
writes a machine-readable ``BENCH_fleet.json`` (throughput, p50/p99
latencies, energy, digest, backend cell) so the performance trajectory
can be tracked across PRs; ``--json`` overrides the output path.

Under pytest the module contributes fast, small-fleet versions of the
same assertions.  pytest collects only ``test_*.py`` files by itself, so
they run when the module is named, as CI's benchmark-module step does:
``PYTHONPATH=src python -m pytest benchmarks/bench_*.py --benchmark-disable``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import time

from repro.backend import available_backends, get_backend, use_backend
from repro.ec import SECP256R1, normalize_batch
from repro.ec.point import from_jacobian
from repro.ec.scalarmult import _mul_base_jac
from repro.ecqv import CertificateAuthority, CertificateRequest
from repro.ecdsa import generate_keypair
from repro.fleet import FleetConfig, FleetOrchestrator
from repro.obs import (
    Observer,
    lint_archive,
    validate_chrome_trace,
    validate_events,
)
from repro.primitives import HmacDrbg
from repro.testbed import device_id

#: Full workload: 250 vehicles x (1 session + 1 forced re-key) = 500
#: session establishments, enrollment storm arriving inside 200 ms.
FULL_CONFIG = FleetConfig(
    n_vehicles=250,
    seed=b"bench-fleet-full",
    records_per_vehicle=8,
    max_records=4,
    send_interval_ms=25.0,
    arrival_spread_ms=200.0,
)

#: CI smoke / pytest workload: 25 vehicles, 50 sessions, same shape.
QUICK_CONFIG = FleetConfig(
    n_vehicles=25,
    seed=b"bench-fleet-quick",
    records_per_vehicle=8,
    max_records=4,
    send_interval_ms=25.0,
    arrival_spread_ms=50.0,
)


def run_fleet_deterministically(config: FleetConfig):
    """Run the storm twice from one seed; assert identical aggregates.

    Returns the *best* of the two walls: the first run pays one-time
    process costs (shared wNAF/generator table precompute), and the
    backend-speedup cell compares this wall against the other
    backend's best of as many runs — both sides must be measured warm.
    """
    t0 = time.perf_counter()
    first = FleetOrchestrator(config).run()
    first_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = FleetOrchestrator(config).run()
    second_wall = time.perf_counter() - t0
    digest_a, digest_b = first.stats.digest(), second.stats.digest()
    if digest_a != digest_b:
        raise AssertionError(
            f"non-deterministic fleet run: {digest_a} != {digest_b}"
        )
    return first, min(first_wall, second_wall), digest_a


def bench_normalization(n_points: int) -> tuple[float, float]:
    """Time batched vs per-point normalization of ``n_points`` Jacobians.

    Returns ``(batch_seconds, per_point_seconds)``; results are asserted
    equal point-for-point before timings are trusted.
    """
    curve = SECP256R1
    jacs = [_mul_base_jac(k, curve) for k in range(2, n_points + 2)]
    t0 = time.perf_counter()
    batched = normalize_batch(curve, jacs)
    batch_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    per_point = [from_jacobian(curve, jac) for jac in jacs]
    per_point_s = time.perf_counter() - t0
    if batched != per_point:
        raise AssertionError("batched normalization disagrees with per-point")
    return batch_s, per_point_s


def bench_backend_speedup(
    config: FleetConfig,
    repeats: int = 2,
    measured: tuple[str, float, str] | None = None,
) -> dict:
    """Time the same storm under both backends; assert digest parity.

    Each backend's wall is the best of ``repeats`` runs, so the speedup
    divides like by like.  ``measured`` is ``(backend, wall, digest)``
    for one side the caller already timed as the best of ``repeats``
    runs (the main storm); only the other side runs here.  The digest
    is asserted on every run.

    Returns a JSON-ready cell with per-backend walls, the run count
    behind each (``best_of``), implementation descriptions and the
    measured speedup.
    """
    walls: dict[str, float] = {}
    digest = None
    if measured is not None:
        backend, wall, digest = measured
        walls[backend] = wall
    for backend in ("reference", "accelerated"):
        if backend in walls:
            continue
        run_config = dataclasses.replace(config, backend=backend)
        walls[backend] = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            result = FleetOrchestrator(run_config).run()
            walls[backend] = min(walls[backend], time.perf_counter() - t0)
            run_digest = result.stats.digest()
            if digest is None:
                digest = run_digest
            elif run_digest != digest:
                raise AssertionError(
                    f"backend parity violated: {backend} digest"
                    f" {run_digest} != {digest}"
                )
    with use_backend("accelerated") as accelerated:
        accel_describe = accelerated.describe()
        aes_accelerated = getattr(accelerated, "aes_accelerated", False)
        ec_accelerated = getattr(accelerated, "ec_accelerated", False)
    with use_backend("reference") as reference:
        ref_describe = reference.describe()
    return {
        "reference": {"wall_s": walls["reference"], **ref_describe},
        "accelerated": {"wall_s": walls["accelerated"], **accel_describe},
        "best_of": repeats,
        "speedup": walls["reference"] / walls["accelerated"],
        "digest": digest,
        "aes_accelerated": aes_accelerated,
        "ec_accelerated": ec_accelerated,
    }


def export_trace(config: FleetConfig, path: str) -> dict:
    """Run one traced storm and export it for Perfetto.

    Asserts the traced run digests identically to an untraced one
    (observability is digest-neutral), validates both export formats,
    runs tracelint over the exported JSONL archive (zero findings
    required), and writes the Chrome trace to ``path`` plus the JSONL
    event stream to ``path + "l"`` (``.json`` → ``.jsonl``).

    Returns a summary dict for the BENCH record.
    """
    obs = Observer(wall_clock=True)
    traced = FleetOrchestrator(config, obs=obs).run()
    untraced = FleetOrchestrator(config).run()
    if traced.stats.digest() != untraced.stats.digest():
        raise AssertionError(
            "observability changed the digest:"
            f" {traced.stats.digest()} != {untraced.stats.digest()}"
        )
    obs.spans.validate()
    n_events = validate_events(obs.events())
    trace_doc = obs.export_chrome_trace(path)
    n_chrome = validate_chrome_trace(trace_doc)
    jsonl_path = path + "l" if path.endswith(".json") else path + ".jsonl"
    obs.export_jsonl(jsonl_path)
    findings = lint_archive(jsonl_path)
    if findings:
        raise AssertionError(
            "tracelint findings on the exported archive: "
            + "; ".join(f.render() for f in findings)
        )
    return {
        "trace_path": path,
        "jsonl_path": jsonl_path,
        "spans": len(obs.spans.finished()),
        "events": n_events,
        "chrome_events": n_chrome,
        "heartbeats": len(obs.heartbeats),
        "digest": traced.stats.digest(),
        "tree_root": obs.digest_tree().root_digest,
    }


def _request_burst(count: int, tag: bytes) -> list[CertificateRequest]:
    requests = []
    for i in range(count):
        rng = HmacDrbg(tag, personalization=b"req|%d" % i)
        keypair = generate_keypair(SECP256R1, rng)
        requests.append(
            CertificateRequest(device_id(f"bench{i:04d}"), keypair.public)
        )
    return requests


def bench_ca_issuance(count: int, repeats: int = 3) -> tuple[float, float]:
    """Time batched vs sequential ECQV issuance of one request burst.

    The normalization saving is a few percent of total issuance cost
    (one ``k*G`` dominates each certificate), so each mode runs
    ``repeats`` times and the fastest run is reported.
    """
    requests = _request_burst(count, b"bench-ca")
    batch_s = seq_s = float("inf")
    for _ in range(repeats):
        ca_batch = CertificateAuthority(
            SECP256R1,
            device_id("bench-ca"),
            HmacDrbg(b"ca", personalization=b"b"),
        )
        ca_seq = CertificateAuthority(
            SECP256R1,
            device_id("bench-ca"),
            HmacDrbg(b"ca", personalization=b"b"),
        )
        t0 = time.perf_counter()
        batched = ca_batch.issue_batch(requests)
        batch_s = min(batch_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        sequential = [ca_seq.issue(request) for request in requests]
        seq_s = min(seq_s, time.perf_counter() - t0)
        if [b.certificate.encode() for b in batched] != [
            s.certificate.encode() for s in sequential
        ]:
            raise AssertionError(
                "batched issuance disagrees with sequential"
            )
    return batch_s, seq_s


# -- streaming / process-parallel scale sweep ---------------------------------

#: Full-mode scale grid: (vehicles, worker counts).  The 10k tier runs
#: every worker count (the digest-parity sweep); the 100k tier is the
#: constant-memory headline (streaming mode must complete it with
#: sub-linear RSS) and runs the serial + widest-parallel points to keep
#: the full bench's wall-clock bounded.
SCALE_GRID_FULL = ((10_000, (1, 2, 4)), (100_000, (1, 4)))

#: The million-vehicle tier; hours of single-host wall-clock, so gated
#: behind ``REPRO_BENCH_XL=1`` instead of silently shrunk.
SCALE_GRID_XL = ((1_000_000, (1, 4)),)

#: CI-smoke grid: same shape, toy sizes.
SCALE_GRID_QUICK = ((300, (1, 2)), (1_200, (1, 2)))


def scale_config(n_vehicles: int, workers: int = 1) -> FleetConfig:
    """The scale-sweep storm shape: sharded, streaming, accelerated.

    Two records per vehicle and no forced re-keys — the sweep measures
    orchestration scale (arrival storm + enrollment + establishment +
    delivery), not re-key churn; ``stream=True`` releases per-vehicle
    event timelines/pools and resource interval traces so memory stays
    bounded by live state, and the arrival window grows with the fleet
    so the CA queue shape stays comparable across tiers.
    """
    return FleetConfig(
        n_vehicles=n_vehicles,
        seed=b"bench-fleet-scale",
        records_per_vehicle=2,
        max_records=4,
        send_interval_ms=20.0,
        arrival_spread_ms=max(200.0, n_vehicles / 10.0),
        shards=4,
        workers=workers,
        stream=True,
        backend="accelerated",
    )


def bench_scale_cell(n_vehicles: int, workers: int) -> dict:
    """One sweep point: run the storm, record throughput + peak RSS.

    Peak RSS comes from the observer's final heartbeat (``wall``
    annotation): the max over worker processes for parallel runs, the
    parent process watermark for serial ones — which is why the sweep
    runs tiers in ascending size (``ru_maxrss`` only ratchets up).
    """
    config = scale_config(n_vehicles, workers=workers)
    obs = Observer(wall_clock=True)
    t0 = time.perf_counter()
    result = FleetOrchestrator(config, obs=obs).run()
    wall_s = time.perf_counter() - t0
    stats = result.stats
    if stats.records_sent != n_vehicles * config.records_per_vehicle:
        raise AssertionError(
            f"scale cell dropped records: {stats.records_sent} !="
            f" {n_vehicles * config.records_per_vehicle}"
        )
    peak_rss_kb = obs.heartbeats[-1].get("wall", {}).get("peak_rss_kb")
    return {
        "vehicles": n_vehicles,
        "workers": workers,
        "shards": config.shards,
        "wall_s": wall_s,
        "host_records_per_s": stats.records_sent / wall_s,
        "sim_records_per_s": stats.throughput_records_per_s,
        "sessions_established": stats.sessions_established,
        "peak_rss_kb": peak_rss_kb,
        "digest": stats.digest(),
        # Metric-plane digest-tree root: bit-identical across worker
        # counts (the merge laws), so the regression gate can localize
        # a telemetry divergence per cell, not just per digest.
        "tree_root": obs.digest_tree(include=("metrics",)).root_digest,
        # Full simulated stats so the regression gate can diff the
        # deterministic latency/throughput metrics cell-by-cell.
        "fleet": stats.as_dict(),
    }


def bench_scale_sweep(quick: bool) -> dict:
    """Sweep fleet size × worker count; assert parity and memory shape.

    Asserts, per tier: every worker count reproduces the ``workers=1``
    digest bit-for-bit.  Across tiers (serial points): peak RSS grows
    **sub-linearly** in fleet size — the streaming-accumulator claim.
    Worker counts above the host's core count still run (digest parity
    is scale-independent) but their walls measure overhead, not
    speedup; the cell records ``host_cores`` so readers can tell.
    """
    grid = list(SCALE_GRID_QUICK if quick else SCALE_GRID_FULL)
    xl = os.environ.get("REPRO_BENCH_XL") == "1"
    if not quick:
        if xl:
            grid += list(SCALE_GRID_XL)
        else:
            print(
                "  (1M-vehicle tier skipped: set REPRO_BENCH_XL=1 to"
                " run it)"
            )
    cells = []
    serial_peaks: dict[int, int] = {}
    for n_vehicles, worker_counts in grid:
        tier_digest = None
        tier_tree_root = None
        for workers in worker_counts:
            cell = bench_scale_cell(n_vehicles, workers)
            cells.append(cell)
            print(
                f"  {cell['vehicles']:>9,} vehicles x {workers} worker(s):"
                f" {cell['wall_s']:8.1f} s,"
                f" {cell['host_records_per_s']:10.0f} rec/s host,"
                f" peak RSS {cell['peak_rss_kb'] or 0:>9,} kB,"
                f" digest {cell['digest'][:12]}..."
            )
            if tier_digest is None:
                tier_digest = cell["digest"]
                tier_tree_root = cell["tree_root"]
            elif cell["digest"] != tier_digest:
                raise AssertionError(
                    f"multi-worker digest diverged at {n_vehicles}"
                    f" vehicles x {workers} workers:"
                    f" {cell['digest']} != {tier_digest}"
                )
            elif cell["tree_root"] != tier_tree_root:
                # Stats digest matched but the metric plane did not:
                # the digest tree localizes exactly this situation.
                raise AssertionError(
                    "metric-plane digest-tree root diverged at"
                    f" {n_vehicles} vehicles x {workers} workers:"
                    f" {cell['tree_root']} != {tier_tree_root}"
                )
            if workers == 1 and cell["peak_rss_kb"] is not None:
                serial_peaks[n_vehicles] = cell["peak_rss_kb"]
    if len(serial_peaks) >= 2:
        small, large = min(serial_peaks), max(serial_peaks)
        rss_ratio = serial_peaks[large] / serial_peaks[small]
        scale_ratio = large / small
        print(
            f"  RSS scaling         : {scale_ratio:.0f}x vehicles ->"
            f" {rss_ratio:.2f}x peak RSS (sub-linear bound:"
            f" {0.8 * scale_ratio:.1f}x)"
        )
        # Streaming mode's memory claim: growth is the per-vehicle
        # residue (Vehicle objects + credentials) on top of a fixed
        # interpreter baseline — never per-event or per-sample.  The
        # 0.8 factor leaves headroom for the residue while still
        # failing hard if any per-event accumulation (latency lists,
        # resource interval traces) sneaks back in; calibration on the
        # reference host measured ~0.48x at the 10k->100k step
        # (120,376 kB -> 571,828 kB).
        if rss_ratio >= 0.8 * scale_ratio:
            raise AssertionError(
                f"peak RSS grew {rss_ratio:.2f}x over a"
                f" {scale_ratio:.0f}x fleet — streaming mode is no"
                " longer sub-linear"
            )
    return {
        "host_cores": os.cpu_count(),
        "xl_tier_ran": xl and not quick,
        "cells": cells,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 25 vehicles / 50 sessions instead of 500",
    )
    parser.add_argument(
        "--json",
        default="BENCH_fleet.json",
        metavar="PATH",
        help="machine-readable output path (default: BENCH_fleet.json)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help="crypto backend for the main storm (default: ambient,"
        " i.e. REPRO_BACKEND or reference); the parity cell always"
        " measures both",
    )
    parser.add_argument(
        "--trace-out",
        metavar="PATH",
        default=None,
        help="export a Chrome trace-event file (Perfetto/chrome://tracing)"
        " of one traced storm to PATH, plus the JSONL event stream next"
        " to it; digest parity with the untraced run is asserted",
    )
    args = parser.parse_args()
    config = QUICK_CONFIG if args.quick else FULL_CONFIG
    if args.backend is not None:
        config = dataclasses.replace(config, backend=args.backend)
    main_backend = (
        args.backend if args.backend is not None else get_backend().name
    )

    result, wall_s, digest = run_fleet_deterministically(config)
    stats = result.stats
    print(f"== fleet storm ({config.n_vehicles} vehicles) ==")
    print(stats.render())
    print(f"  host wall-clock     : {wall_s:.2f} s (best of 2 runs)")
    print(f"  stats digest        : {digest} (identical across 2 runs)")
    required = 500 if not args.quick else 50
    if stats.sessions_established < required:
        raise AssertionError(
            f"expected >= {required} sessions,"
            f" got {stats.sessions_established}"
        )

    n_points = max(500, stats.sessions_established)
    batch_s, per_point_s = bench_normalization(n_points)
    speedup = per_point_s / batch_s
    print(f"\n== Jacobian normalization ({n_points} points) ==")
    print(f"  batched (Montgomery): {batch_s * 1000:.2f} ms")
    print(f"  per-point inversion : {per_point_s * 1000:.2f} ms")
    print(f"  speedup             : {speedup:.2f}x")
    if speedup <= 1.0:
        raise AssertionError(
            "batched normalization failed to beat per-point inversion"
        )

    burst = 50 if args.quick else 250
    ca_batch_s, ca_seq_s = bench_ca_issuance(burst)
    print(f"\n== ECQV issuance burst ({burst} certificates) ==")
    print(f"  issue_batch         : {ca_batch_s * 1000:.2f} ms")
    print(f"  sequential issue    : {ca_seq_s * 1000:.2f} ms")
    print(f"  speedup             : {ca_seq_s / ca_batch_s:.2f}x"
          " (one k*G dominates each certificate, so expect ~1x here;"
          " the batch win is the normalization share above)")

    # The main storm's best of 2 runs is its backend's side of the
    # cell; the other backend is timed as the best of 2 runs too.
    backend_cell = bench_backend_speedup(
        config, repeats=2, measured=(main_backend, wall_s, digest)
    )
    backend_speedup = backend_cell["speedup"]
    print(f"\n== crypto backend ({config.n_vehicles}-vehicle storm,"
          f" best of {backend_cell['best_of']} runs per backend) ==")
    print(f"  reference           : {backend_cell['reference']['wall_s']:.2f} s")
    print(f"  accelerated         : {backend_cell['accelerated']['wall_s']:.2f} s"
          f"  ({backend_cell['accelerated']['sha2']};"
          f" {backend_cell['accelerated']['aes']};"
          f" ec: {backend_cell['accelerated']['ec']})")
    print(f"  speedup             : {backend_speedup:.2f}x"
          f"  (stats digest bit-identical: {backend_cell['digest'][:16]}...)")
    # The quick workload is the acceptance gate.  With OpenSSL EC active
    # (~90 % of accelerated wall-clock was EC before the seam) the
    # end-to-end bar is >=10x, a notch softer (>=8x) for the full storm
    # against host noise at the longer wall.  Without OpenSSL EC the
    # primitive-era tiers apply: >=3x with OpenSSL AES, >=2x on the
    # graceful from-scratch-AES fallback (full storm: one notch softer).
    if backend_cell["ec_accelerated"]:
        required_speedup = 10.0 if args.quick else 8.0
    else:
        required_speedup = 3.0 if backend_cell["aes_accelerated"] else 2.0
        if not args.quick:
            required_speedup = max(2.0, required_speedup - 0.5)
    if backend_speedup < required_speedup:
        raise AssertionError(
            f"accelerated backend too slow: {backend_speedup:.2f}x <"
            f" {required_speedup:.1f}x required"
        )

    print("\n== streaming scale sweep (vehicles x workers) ==")
    scale_cell = bench_scale_sweep(args.quick)

    trace_cell = None
    if args.trace_out is not None:
        trace_cell = export_trace(QUICK_CONFIG, args.trace_out)
        print(f"\n== observability trace ==")
        print(f"  chrome trace        : {trace_cell['trace_path']}"
              f" ({trace_cell['chrome_events']} events; open in"
              " https://ui.perfetto.dev)")
        print(f"  jsonl events        : {trace_cell['jsonl_path']}"
              f" ({trace_cell['events']} events, schema-validated)")
        print(f"  digest (traced)     : {trace_cell['digest'][:16]}..."
              " (bit-identical to untraced)")

    record = {
        "benchmark": "fleet_scale",
        "mode": "quick" if args.quick else "full",
        "backend": main_backend,
        "backends": backend_cell,
        "config": {
            "n_vehicles": config.n_vehicles,
            "records_per_vehicle": config.records_per_vehicle,
            "max_records": config.max_records,
            "arrival_spread_ms": config.arrival_spread_ms,
        },
        "host_wall_s": wall_s,
        "fleet": stats.as_dict(),
        "normalization": {
            "points": n_points,
            "batch_ms": batch_s * 1000.0,
            "per_point_ms": per_point_s * 1000.0,
            "speedup": speedup,
        },
        "ca_issuance": {
            "burst": burst,
            "batch_ms": ca_batch_s * 1000.0,
            "sequential_ms": ca_seq_s * 1000.0,
        },
        "scale": scale_cell,
    }
    if trace_cell is not None:
        record["trace"] = trace_cell
    with open(args.json, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.json}")
    print("OK")


# -- fast pytest-facing versions of the same assertions -----------------------


def test_small_fleet_deterministic():
    config = FleetConfig(
        n_vehicles=4,
        seed=b"bench-fleet-pytest",
        records_per_vehicle=4,
        max_records=2,
        arrival_spread_ms=10.0,
    )
    result, _, _ = run_fleet_deterministically(config)
    assert result.stats.sessions_established == 8  # one re-key per vehicle
    assert result.stats.records_sent == 16


def test_batched_normalization_beats_per_point():
    # Median-of-3 to keep the timing assertion robust on noisy hosts.
    ratios = []
    for _ in range(3):
        batch_s, per_point_s = bench_normalization(400)
        ratios.append(per_point_s / batch_s)
    assert sorted(ratios)[1] > 1.0


def test_backend_cell_parity_at_pytest_scale():
    # The full speedup assertion lives in the standalone bench; at
    # pytest scale only the parity contract is cheap enough to check.
    config = FleetConfig(
        n_vehicles=4,
        seed=b"bench-fleet-pytest",
        records_per_vehicle=4,
        max_records=2,
        arrival_spread_ms=10.0,
    )
    cell = bench_backend_speedup(config, repeats=1)
    assert cell["digest"]
    assert cell["speedup"] > 0
    assert cell["best_of"] == 1
    # The cell must report both acceleration flags and name the EC tier
    # so BENCH_fleet.json records which speedup bar applied.
    assert "aes_accelerated" in cell and "ec_accelerated" in cell
    assert "ec" in cell["accelerated"] and "ec" in cell["reference"]


def test_scale_cell_parity_at_pytest_scale():
    # The real sweep (10k/100k/1M vehicles) lives in the standalone
    # bench; at pytest scale only the contracts are checked — digest
    # parity across worker counts and a recorded peak-RSS reading.
    serial = bench_scale_cell(60, workers=1)
    parallel = bench_scale_cell(60, workers=2)
    assert parallel["digest"] == serial["digest"]
    # The metric plane is bit-identical across worker counts too —
    # the digest-tree merge law, checked cell-by-cell by the gate.
    assert parallel["tree_root"] == serial["tree_root"]
    assert serial["sessions_established"] == 60
    for cell in (serial, parallel):
        assert cell["host_records_per_s"] > 0
        assert cell["peak_rss_kb"] is None or cell["peak_rss_kb"] > 0


if __name__ == "__main__":
    main()
