"""End-to-end tests for the fleet orchestrator.

Small fleets keep the real-crypto cost low; the assertions cover the
lifecycle invariants (everyone enrolls, establishes, re-keys under
policy, finishes), determinism, CA contention accounting and the
pooled/pool-less ablation.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from goldens import GOLDENS
from repro.errors import SimulationError
from repro.fleet import FleetConfig, FleetOrchestrator, run_fleet
from repro.hardware import CostModel, DeviceModel
from repro.protocols import SessionManager
from repro.protocols.base import Party

#: The table's single-gateway storm: six records under a three-record
#: budget force exactly one re-key per vehicle.
_CONFIG = GOLDENS["single-gateway"].config


@pytest.fixture(scope="module")
def result(golden_run):
    return golden_run("single-gateway").result


class TestLifecycle:
    def test_everyone_finishes(self, result):
        assert result.stats.vehicles == 4
        assert result.stats.enrollments == 4
        assert all(v.done_at is not None for v in result.vehicles)
        assert all(v.records_sent == 6 for v in result.vehicles)

    def test_rekey_per_vehicle_under_record_budget(self, result):
        # 6 records under a 3-record budget: 2 sessions per vehicle.
        assert result.stats.sessions_established == 8
        assert result.stats.rekeys == 4
        assert all(v.generation == 2 for v in result.vehicles)
        assert all(v.sessions == 2 for v in result.vehicles)

    def test_timeline_events_ordered_and_complete(self, result):
        for vehicle in result.vehicles:
            times = [event.time_ms for event in vehicle.events]
            assert times == sorted(times)
            kinds = [event.kind for event in vehicle.events]
            assert kinds[0] == "arrive"
            assert kinds[-1] == "done"
            assert kinds.count("established") == 2
            assert kinds.count("rekey") == 1

    def test_latency_samples_counted(self, result):
        assert result.stats.enrollment_latency.count == 4
        assert result.stats.establishment_latency.count == 8
        assert result.stats.enrollment_latency.min_ms > 0

    def test_ca_accounting(self, result):
        stats = result.stats
        assert stats.ca_batches >= 1
        assert 1 <= stats.ca_max_batch <= 4
        assert stats.ca_busy_ms > 0
        assert 0.0 < stats.ca_utilisation <= 1.0

    def test_energy_split(self, result):
        # Four STM32 vehicles must out-consume the single RPi gateway.
        assert result.stats.vehicle_energy_mj > result.stats.ca_energy_mj > 0


class TestDeterminism:
    def test_same_seed_identical_digest(self, result):
        rerun = run_fleet(_CONFIG)
        assert rerun.stats.digest() == result.stats.digest()
        assert rerun.stats == result.stats

    def test_different_seed_different_digest(self, result):
        other = run_fleet(dataclasses.replace(_CONFIG, seed=b"other-seed"))
        assert other.stats.digest() != result.stats.digest()


class TestAblationAndPolicy:
    def test_pool_less_path_same_logical_outcome(self, result):
        plain = run_fleet(dataclasses.replace(_CONFIG, pool_size=0))
        assert plain.stats.sessions_established == 8
        assert plain.stats.records_sent == result.stats.records_sent
        assert all(v.pool is None for v in plain.vehicles)

    def test_age_based_rekey(self):
        aged = run_fleet(
            FleetConfig(
                n_vehicles=2,
                seed=b"fleet-age",
                records_per_vehicle=4,
                max_records=100,  # records never bind
                max_age_ms=60.0,  # but keys age out between sends
                send_interval_ms=50.0,
                arrival_spread_ms=5.0,
            )
        )
        assert aged.stats.rekeys > 0
        assert all(v.records_sent == 4 for v in aged.vehicles)

    def test_batching_kicks_in_under_burst_arrivals(self):
        burst = run_fleet(
            FleetConfig(
                n_vehicles=6,
                seed=b"fleet-burst",
                records_per_vehicle=1,
                max_records=5,
                arrival_spread_ms=0.001,  # everyone at once
            )
        )
        assert burst.stats.ca_max_batch > 1


class TestConfigValidation:
    def test_bad_sizes_rejected(self):
        with pytest.raises(SimulationError):
            FleetConfig(n_vehicles=0)
        with pytest.raises(SimulationError):
            FleetConfig(records_per_vehicle=0)
        with pytest.raises(SimulationError):
            FleetConfig(send_interval_ms=0.0)
        with pytest.raises(SimulationError):
            FleetConfig(ca_batch_limit=0)

    def test_unknown_protocol_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            FleetConfig(protocol="no-such-protocol")

    def test_unknown_device_rejected_at_construction(self):
        from repro.errors import HardwareModelError

        for name in ("vehicle_device", "ca_device"):
            with pytest.raises(HardwareModelError, match="nope"):
                FleetConfig(**{name: "nope"})

    def test_bad_values_raise_typed_config_errors(self):
        from repro.errors import ConfigError

        # ConfigError subclasses SimulationError, so both catches work.
        assert issubclass(ConfigError, SimulationError)
        for kwargs in (
            {"arrival_spread_ms": -1.0},
            {"record_bytes": 0},
            {"bus_ms_per_byte": -0.001},
            {"pool_size": -1},
            {"cert_validity_seconds": 0},
            {"max_age_ms": -5.0},
            {"v2v_fraction": 1.5},
            {"v2v_fraction": -0.1},
            {"shards": 2, "fail_shard": 2, "shard_fail_at_ms": 10.0},
            {"shard_rejoin_at_ms": 10.0},  # rejoin without failure
        ):
            with pytest.raises(ConfigError):
                FleetConfig(**kwargs)

    def test_config_errors_are_actionable(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="arrival_spread_ms"):
            FleetConfig(arrival_spread_ms=-2.0)
        with pytest.raises(ConfigError, match="v2v_fraction"):
            FleetConfig(v2v_fraction=2.0)
        with pytest.raises(ConfigError, match="shard_fail_at_ms"):
            FleetConfig(
                shards=2, shard_fail_at_ms=20.0, shard_rejoin_at_ms=10.0
            )

    def test_orchestrator_exposes_resources(self):
        orchestrator = FleetOrchestrator(
            FleetConfig(n_vehicles=1, seed=b"expose")
        )
        assert orchestrator.shards[0].resource.name == "central-ca"
        assert orchestrator.shards[0].manager.role == "B"


#: One run per link kind: gateway links only, and gateway plus V2V links
#: over two shards, re-keying after every record.
_LINK_CONFIGS = {
    "gateway": FleetConfig(
        n_vehicles=4, seed=b"count", records_per_vehicle=5
    ),
    "v2v": FleetConfig(
        n_vehicles=8,
        seed=b"count",
        records_per_vehicle=3,
        max_records=1,
        shards=2,
        v2v_fraction=0.5,
        v2v_records=3,
    ),
}


class TestOneLink:
    """Both link kinds price each computation once and check each record."""

    @pytest.mark.parametrize("backend", ["reference", "accelerated"])
    @pytest.mark.parametrize("link, priced", [("gateway", 60), ("v2v", 144)])
    def test_each_computation_priced_once(
        self, monkeypatch, backend, link, priced
    ):
        calls = Counter()
        for owner, name in (
            (CostModel, "price"),
            (DeviceModel, "energy_mj"),
            (Party, "total_cost"),
        ):
            monkeypatch.setattr(owner, name, _counted(calls, owner, name))
        config = dataclasses.replace(_LINK_CONFIGS[link], backend=backend)
        stats = run_fleet(config).stats
        sessions = stats.sessions_established + stats.v2v_sessions
        assert calls["total_cost"] == 2 * sessions
        # Each enrollment prices a request and a reception, each CA batch
        # its issuance, each session both parties and each record its
        # send and its receive.
        traces = (
            2 * stats.enrollments
            + stats.ca_batches
            + 2 * sessions
            + 2 * (stats.records_sent + stats.v2v_records_sent)
        )
        assert calls["price"] == traces == priced
        assert calls["energy_mj"] == 0

    @pytest.mark.parametrize(
        "link, receiver_role, match",
        [
            ("gateway", "B", r"gateway decrypted a wrong payload from veh"),
            ("v2v", "A", r"veh\d+ decrypted a wrong payload from veh\d+"),
        ],
    )
    def test_wrong_decrypt_raises(
        self, monkeypatch, link, receiver_role, match
    ):
        # Gateways hold "B" managers; vehicles hold "A" managers, which
        # receive only V2V records.
        receive = SessionManager.receive

        def tampered(manager, peer_id, record):
            payload = receive(manager, peer_id, record)
            return b"tampered" if manager.role == receiver_role else payload

        monkeypatch.setattr(SessionManager, "receive", tampered)
        with pytest.raises(SimulationError, match=match):
            run_fleet(_LINK_CONFIGS[link])


def _counted(calls: Counter, owner, name: str):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    return wrapper
