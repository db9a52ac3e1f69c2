"""Bit-parity of the policy engine's ``default`` bundle.

The engine sits at every decision point of every run.  Every golden of
the table (``goldens.py``) replays with the bundle implicit
(``policy=None``) and explicit (``policy="default"``) in
``test_goldens.py``.  Here the explicit bundle must keep a partitionable
run parallel, and scenario runs without goldens are locked by
self-parity: ``policy=None`` and ``policy="default"`` digests must agree
on every named scenario, serially and process-parallel.
"""

from __future__ import annotations

import dataclasses

import pytest

from goldens import GOLDENS
from repro.fleet import (
    FleetConfig,
    NAMED_SCENARIOS,
    get_scenario,
    run_fleet,
)


class TestPartitioning:
    """The ``default`` bundle keeps a partitionable run parallel."""

    def test_default_policy_stays_partitionable(self):
        # The explicit bundle must not force the serial fallback.
        orch = GOLDENS["topology-4"].orchestrator(workers=2, policy="default")
        assert orch._plan is not None

    def test_alternative_bundle_falls_back_to_serial(self):
        orch = GOLDENS["topology-4"].orchestrator(
            workers=2, policy="failover-spread"
        )
        assert orch._plan is None


# -- self-parity where no frozen golden exists --------------------------------


class TestSelfParity:
    """``policy=None`` and ``policy="default"`` agree bit-for-bit."""

    @pytest.mark.parametrize("name", sorted(NAMED_SCENARIOS))
    def test_named_scenarios(self, name):
        scenario = get_scenario(name)
        extras = {}
        if name == "ca-flood":
            extras["authenticate_requests"] = True
        if name == "stale-cert-flood":
            # The flood replays epoch-1 leaves after a rejoin rolls the
            # chain epoch, so it needs the churn knobs set.
            extras.update(
                shard_fail_at_ms=4_000.0,
                fail_shard=0,
                shard_rejoin_at_ms=6_000.0,
            )
        config = FleetConfig(
            n_vehicles=24,
            seed=b"policy-parity-scenarios",
            records_per_vehicle=3,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=300.0,
            shards=2,
            **extras,
        )
        implicit = run_fleet(config, scenario=scenario).stats
        explicit = run_fleet(
            dataclasses.replace(config, policy="default"),
            scenario=scenario,
        ).stats
        assert implicit.digest() == explicit.digest()
        assert implicit.scenario == name

    def test_parallel_scenario_run_keeps_parity(self):
        scenario = get_scenario("platoon-convoys")
        config = FleetConfig(
            n_vehicles=24,
            seed=b"policy-parity-parallel",
            records_per_vehicle=3,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=300.0,
            shards=4,
            policy="default",
        )
        serial = run_fleet(config, scenario=scenario).stats
        parallel = run_fleet(
            dataclasses.replace(config, workers=2), scenario=scenario
        ).stats
        assert parallel.digest() == serial.digest()
