"""End-to-end tests for the fleet orchestrator.

Small fleets keep the real-crypto cost low; the assertions cover the
lifecycle invariants (everyone enrolls, establishes, re-keys under
policy, finishes), determinism, CA contention accounting, the
pooled/pool-less ablation, the runaway guard, the fixed platform and
streaming release.
"""

from __future__ import annotations

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from goldens import GOLDENS
from repro.ec import SECP256R1
from repro.ecqv import DEFAULT_VALIDITY_SECONDS
from repro.errors import SimulationError
from repro.fleet import (
    BehaviorProfile,
    FleetConfig,
    FleetOrchestrator,
    Scenario,
    compile_scenario,
    run_fleet,
)
from repro.fleet.orchestrator import EVENTS_PER_RECORD, event_cap
from repro.fleet.parallel import run_parallel
from repro.fleet.topology import CA_BATCH_LIMIT, RECORD_BYTES, plan_v2v_pairs
from repro.hardware import RASPBERRY_PI4, STM32F767, CostModel, DeviceModel
from repro.protocols import SessionManager
from repro.protocols.base import Party
from repro.testbed import DEFAULT_NOW

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

    def test_unknown_protocol_rejected(self):
        from repro.errors import ProtocolError

        with pytest.raises(ProtocolError):
            FleetConfig(protocol="no-such-protocol")

    def test_bad_values_raise_typed_config_errors(self):
        from repro.errors import ConfigError

        # ConfigError subclasses SimulationError, so both catches work.
        assert issubclass(ConfigError, SimulationError)
        for kwargs in (
            {"arrival_spread_ms": -1.0},
            {"pool_size": -1},
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


def _scale_config(n_vehicles: int, workers: int) -> FleetConfig:
    """``scale_config`` of ``benchmarks/bench_fleet_scale.py``."""
    path = Path(__file__).parents[2] / "benchmarks" / "bench_fleet_scale.py"
    spec = importlib.util.spec_from_file_location("bench_fleet_scale", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.scale_config(n_vehicles, workers=workers)


class TestEventCap:
    """Each partition derives its runaway guard from the work it owns."""

    def test_self_rescheduling_callback_raises_at_the_cap(self):
        config = FleetConfig(
            n_vehicles=2, seed=b"runaway", records_per_vehicle=1
        )
        orchestrator = FleetOrchestrator(config)

        def forever():
            orchestrator.sim.schedule_after(1.0, forever)

        orchestrator.sim.schedule_at(0.0, forever)
        cap = event_cap(config, orchestrator.schedule, range(2))
        with pytest.raises(SimulationError, match=f"exceeded {cap} events"):
            orchestrator.run()

    def test_million_vehicle_serial_cell_fits_under_its_cap(self):
        # The scale sweep's storm processes about 7 events per vehicle
        # (7.03 at 1,200 vehicles), so its 1M-vehicle serial cell needs
        # about 7 M.
        config = _scale_config(1_000_000, workers=1)
        cap = event_cap(
            config, compile_scenario(None, config), range(config.n_vehicles)
        )
        assert cap > 7_000_000

    def test_cap_follows_each_profile_budget(self):
        # One vehicle of two sends 300 records where the config budgets
        # one: a guard blind to profiles would cut the run off.
        config = FleetConfig(
            n_vehicles=2,
            seed=b"cap-profile",
            records_per_vehicle=1,
            send_interval_ms=1.0,
        )
        scenario = Scenario(
            name="heavy",
            profiles=(
                BehaviorProfile(
                    name="heavy", count=1, records_per_vehicle=300
                ),
            ),
        )
        orchestrator = FleetOrchestrator(config, scenario=scenario)
        result = orchestrator.run()
        assert [v.records_sent for v in result.vehicles] == [300, 1]
        events = orchestrator.sim.events_processed
        # The config-default schedule is the guard blind to profiles.
        blind = compile_scenario(None, config)
        assert event_cap(config, blind, range(2)) < events
        cap = event_cap(config, orchestrator.schedule, range(2))
        assert cap >= 10 * events

    def test_cap_counts_the_v2v_records_of_each_pair(self):
        # A pair exchanging 300 records over one gateway record each: a
        # guard blind to V2V traffic would cut the run off.
        config = FleetConfig(
            n_vehicles=2,
            seed=b"cap-v2v",
            records_per_vehicle=1,
            v2v_fraction=1.0,
            v2v_records=300,
        )
        orchestrator = FleetOrchestrator(config)
        stats = orchestrator.run().stats
        assert stats.v2v_records_sent == 300
        events = orchestrator.sim.events_processed
        assert EVENTS_PER_RECORD * 2 < events
        # Only the initiator's partition owes the pair's records.
        ((initiator, responder),) = plan_v2v_pairs(config)
        schedule = orchestrator.schedule
        assert event_cap(config, schedule, [responder]) == EVENTS_PER_RECORD
        assert (
            event_cap(config, schedule, [initiator])
            == EVENTS_PER_RECORD * 301
        )
        assert event_cap(config, schedule, range(2)) >= 10 * events


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


#: The seven knobs the fixed platform replaced, each at the value it
#: last defaulted to.
_PLATFORM_KNOBS = {
    "curve": SECP256R1,
    "vehicle_device": STM32F767.name,
    "ca_device": RASPBERRY_PI4.name,
    "bus_ms_per_byte": 0.002,
    "record_bytes": 32,
    "cert_validity_seconds": DEFAULT_VALIDITY_SECONDS,
    "ca_batch_limit": 64,
}


class TestPlatform:
    """Every fleet runs on one platform: P-256 on the paper's boards."""

    @pytest.mark.parametrize("knob", sorted(_PLATFORM_KNOBS))
    def test_platform_is_not_configurable(self, knob):
        # A caller still passing a platform knob fails loudly instead of
        # running on a platform it did not ask for.
        with pytest.raises(TypeError, match=knob):
            FleetConfig(**{knob: _PLATFORM_KNOBS[knob]})

    def test_run_takes_no_event_cap(self):
        with pytest.raises(TypeError, match="max_events"):
            FleetOrchestrator(_CONFIG).run(max_events=10)

    def test_run_parallel_takes_no_event_cap(self):
        orchestrator = FleetOrchestrator(
            FleetConfig(n_vehicles=4, seed=b"no-cap", shards=2, workers=2)
        )
        plan = orchestrator._plan
        assert plan is not None
        with pytest.raises(TypeError, match="max_events"):
            run_parallel(
                orchestrator.config, None, None, plan, max_events=10
            )

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(
                FleetConfig(n_vehicles=6, seed=b"validity"), id="one-ca"
            ),
            pytest.param(
                FleetConfig(n_vehicles=6, seed=b"validity", shards=3),
                id="sub-cas",
            ),
            # Shard 0 fails and rejoins under a new sub-CA certificate,
            # and re-balancing re-enrolls vehicles onto it.
            pytest.param(GOLDENS["churn"].config, id="churn"),
        ],
    )
    def test_certificates_carry_the_ca_default_validity(self, config):
        orchestrator = FleetOrchestrator(config)
        result = orchestrator.run()
        certificates = [v.credential.certificate for v in result.vehicles]
        for shard in orchestrator.shards:
            certificates.append(shard.gateway_credential.certificate)
            if shard.ca_certificate is not None:
                certificates.append(shard.ca_certificate)
        assert len(certificates) > config.n_vehicles + config.shards - 1
        for certificate in certificates:
            assert certificate.valid_from == DEFAULT_NOW
            assert (
                certificate.valid_to - certificate.valid_from
                == DEFAULT_VALIDITY_SECONDS
            )

    @pytest.mark.parametrize("link", sorted(_LINK_CONFIGS))
    def test_every_record_carries_record_bytes(self, monkeypatch, link):
        sizes = Counter()
        send = SessionManager.send

        def measured(manager, peer_id, plaintext):
            sizes[len(plaintext)] += 1
            return send(manager, peer_id, plaintext)

        monkeypatch.setattr(SessionManager, "send", measured)
        stats = run_fleet(_LINK_CONFIGS[link]).stats
        records = stats.records_sent + stats.v2v_records_sent
        assert sizes == {RECORD_BYTES: records}

    @pytest.mark.parametrize("link", sorted(_LINK_CONFIGS))
    def test_vehicles_priced_on_stm32_and_shards_on_rpi4(
        self, monkeypatch, link
    ):
        priced = Counter()
        time_ms = DeviceModel.time_ms

        def counted(device, cost):
            priced[device.name] += 1
            return time_ms(device, cost)

        monkeypatch.setattr(DeviceModel, "time_ms", counted)
        stats = run_fleet(_LINK_CONFIGS[link]).stats
        # A vehicle prices its request and reception, its side of every
        # session and each record it sends or receives over V2V; a shard
        # its batches, its side of each gateway session and each gateway
        # record it receives.
        assert priced == {
            STM32F767.name: 2 * stats.enrollments
            + stats.sessions_established
            + 2 * stats.v2v_sessions
            + stats.records_sent
            + 2 * stats.v2v_records_sent,
            RASPBERRY_PI4.name: stats.ca_batches
            + stats.sessions_established
            + stats.records_sent,
        }

    def test_ca_batch_folds_at_most_the_batch_limit(self):
        # Twice the limit and five more vehicles request at once.
        n_vehicles = 2 * CA_BATCH_LIMIT + 5
        stats = run_fleet(
            FleetConfig(
                n_vehicles=n_vehicles,
                seed=b"batch-limit",
                records_per_vehicle=1,
                arrival_spread_ms=0.0,
                backend="accelerated",
            )
        ).stats
        assert stats.enrollments == n_vehicles
        assert stats.ca_max_batch == CA_BATCH_LIMIT
        assert stats.ca_batches >= 3


class TestStreamingRelease:
    """Streaming drops a vehicle's state once its last link ends."""

    # A pair starts once both vehicles established at their gateway;
    # slow gateway traffic outlasts the pairing, fast traffic does not.
    @pytest.mark.parametrize(
        "last, send_interval_ms", [("pairing", 25.0), ("gateway", 800.0)]
    )
    def test_state_kept_until_the_last_link_ends(
        self, monkeypatch, last, send_interval_ms
    ):
        release = FleetOrchestrator._release_vehicle
        held = []  # paired vehicles kept whole while one link was live

        def checked(orchestrator, vehicle):
            release(orchestrator, vehicle)
            gateway_live = vehicle.done_at is None
            pairing_live = (
                vehicle.v2v_peer_index is not None
                and vehicle.v2v_done_at is None
            )
            live = gateway_live or pairing_live
            assert (vehicle.manager is None) == (not live), vehicle.name
            assert (vehicle.pool is None) == (not live), vehicle.name
            if live:
                held.append("pairing" if pairing_live else "gateway")

        monkeypatch.setattr(FleetOrchestrator, "_release_vehicle", checked)
        config = FleetConfig(
            n_vehicles=8,
            seed=b"release-order",
            records_per_vehicle=12,
            send_interval_ms=send_interval_ms,
            shards=2,
            v2v_fraction=0.5,
            v2v_records=4,
            stream=True,
        )
        result = run_fleet(config)
        assert last in held
        for vehicle in result.vehicles:
            assert vehicle.events == [], vehicle.name
            assert vehicle.pool is None and vehicle.manager is None
