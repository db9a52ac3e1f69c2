"""Fleet golden digests are bit-identical under the accelerated backend.

The committed goldens below were captured from the PR 1 (single-gateway)
and PR 2 (topology) orchestrators running the from-scratch reference
primitives.  Re-running the exact same configurations with
``backend="accelerated"`` must reproduce every one of them bit-for-bit:
hardware pricing consumes trace *counts* and DRBG *bytes*, both of which
the backend contract fixes.  Churn and scenario runs (whose goldens are
seed-matrix properties rather than committed constants) are checked as
reference-vs-accelerated digest equality on the same config.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.backend import get_backend, use_backend
from repro.fleet import (
    FleetConfig,
    FleetOrchestrator,
    get_scenario,
    run_fleet,
)

# Goldens shared with tests/fleet/test_topology.py / test_churn.py —
# captured before the backend seam existed, so they also pin the
# refactored reference path.
_PR1_CONFIG = FleetConfig(
    n_vehicles=4,
    seed=b"fleet-test",
    records_per_vehicle=6,
    max_records=3,
    send_interval_ms=20.0,
    arrival_spread_ms=30.0,
)
_PR1_DIGEST = "5632228c71d42eadd416b2151a1c0be0a8fe6679e14fe78e66c889ac04314e17"

_PR2_TOPOLOGY_GOLDENS = {
    1: "a43e300427fe7035b2d2c1a68edaffe0d349313cf046a151c9f430aa153c6d4e",
    2: "6ed2a66e4325260712dd84192d06bab8cef9303a3b50768d51567ee46bc04a41",
    4: "3d0ba83a7e1369fa79147400588cf1bb013dc15809d89a6078f789992654df82",
}
_PR2_V2V_GOLDEN = (
    "b6d8c193008cf2c60d08616e1d44d24d3797227489a1a3b31ff143a7aec3d5e4"
)
_PR2_FAILOVER_GOLDEN = (
    "b5087aa40b037cd5709a3e735d9b7e41152aaef27908366bc84733415b38730d"
)


def _accelerated(config: FleetConfig) -> FleetConfig:
    return dataclasses.replace(config, backend="accelerated")


class TestCommittedGoldensUnderAccelerated:
    def test_pr1_single_gateway_digest(self):
        stats = run_fleet(_accelerated(_PR1_CONFIG)).stats
        assert stats.digest() == _PR1_DIGEST

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_pr2_sharded_topology_digests(self, shards):
        config = FleetConfig(
            n_vehicles=6,
            seed=b"topology-det",
            records_per_vehicle=2,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=15.0,
            shards=shards,
            backend="accelerated",
        )
        assert run_fleet(config).stats.digest() == _PR2_TOPOLOGY_GOLDENS[shards]

    def test_pr2_v2v_digest(self):
        config = FleetConfig(
            n_vehicles=10,
            seed=b"topology-v2v",
            records_per_vehicle=2,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=15.0,
            shards=2,
            v2v_fraction=0.6,
            v2v_records=4,
            backend="accelerated",
        )
        assert run_fleet(config).stats.digest() == _PR2_V2V_GOLDEN

    def test_pr2_failover_digest(self):
        config = FleetConfig(
            n_vehicles=8,
            seed=b"topology-failover",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=4_000.0,
            fail_shard=0,
            backend="accelerated",
        )
        assert run_fleet(config).stats.digest() == _PR2_FAILOVER_GOLDEN


class TestCrossBackendEquality:
    """Configs without committed goldens: both backends, one digest."""

    def test_churn_lifecycle_digest_matches(self):
        config = FleetConfig(
            n_vehicles=8,
            seed=b"churn-test",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=4_000.0,
            fail_shard=0,
            shard_rejoin_at_ms=6_000.0,
            migrate_threshold=2,
        )
        reference = run_fleet(config).stats
        accelerated = run_fleet(_accelerated(config)).stats
        assert reference.is_churn_run
        assert reference.digest() == accelerated.digest()

    def test_adversarial_scenario_digest_matches(self):
        config = FleetConfig(
            n_vehicles=8,
            seed=b"backend-scenario",
            records_per_vehicle=6,
            max_records=4,
            arrival_spread_ms=40.0,
            shards=2,
        )
        scenario = get_scenario("replay-storm")
        reference = FleetOrchestrator(config, scenario=scenario).run().stats
        accelerated = FleetOrchestrator(
            _accelerated(config), scenario=scenario
        ).run().stats
        assert reference.attack_attempts > 0
        assert reference.attack_successes == 0
        assert reference.digest() == accelerated.digest()

    def test_ambient_backend_scope_reproduces_goldens(self):
        # REPRO_BACKEND=accelerated CI lane equivalent: no config knob,
        # just the ambient backend.
        with use_backend("accelerated"):
            assert get_backend().name == "accelerated"
            stats = run_fleet(_PR1_CONFIG).stats
        assert stats.digest() == _PR1_DIGEST
