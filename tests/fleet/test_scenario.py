"""The scenario engine: spec validation, compilation, live injections.

Three layers under test:

* **Spec layer** — nonsense scenarios raise typed, actionable
  :class:`~repro.errors.ScenarioError`\\ s at construction or compile
  time, and valid specs round-trip through JSON losslessly.
* **Compile layer** — arrival processes produce the declared shapes,
  profiles claim vehicles deterministically, convoys synchronize and pin.
* **Engine layer** — the orchestrator honors profiles (budgets, roaming,
  pinning), executes adversarial injections against the live fleet with
  full rejection and zero forgeries, and runs the compiled
  ``legacy-uniform`` schedule when given no scenario at all.
"""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError, SimulationError
from repro.fleet import (
    BehaviorProfile,
    BurstArrivals,
    CaQueueFlood,
    CompiledProfile,
    DiurnalArrivals,
    FleetConfig,
    FleetOrchestrator,
    NAMED_SCENARIOS,
    PoissonArrivals,
    ReplayStorm,
    Scenario,
    StaleCertFlood,
    UniformArrivals,
    compile_scenario,
    get_scenario,
    load_scenario,
)
from repro.obs import Observer

SEED = b"scenario-tests"

#: One config every named scenario compiles against: two shards for the
#: roamers and convoys, signed requests for the CA flood, and a failure
#: at 3 s with a rejoin at 5 s for the stale-cert flood.
PIN_CONFIG = FleetConfig(
    n_vehicles=32,
    seed=b"schedule-pins",
    shards=2,
    authenticate_requests=True,
    shard_fail_at_ms=3000.0,
    shard_rejoin_at_ms=5000.0,
)

#: ``ScenarioSchedule.digest()`` of each named scenario on PIN_CONFIG.
SCHEDULE_PINS = {
    "legacy-uniform": "fd9ddf4e26fabe9876d95963f4852f8e4b951c1ead06a140820a3a8bd16751d1",
    "rush-hour": "17898dfacb2bb691ba8d3efa393e269338fb304b0f17e1816c47096f00879aeb",
    "poisson-open-road": "e2d193b82f06cb559c802126b584e5c231b30ea562ea1d64c1fcf8490e5c2899",
    "diurnal-commute": "548abccf5235812bce25ac0d15935c952f4c5f8a8f505d8b2b9a5664a7ee3403",
    "platoon-convoys": "d22fa698fff1d82c170b9bc46625fcff74c9e04b33a9dc5420667c1d44b75319",
    "roaming-rebalance": "2c98c22f1d0720deed587151ea5d63e3f1a89731defc3110f06adddaeb17587e",
    "replay-storm": "465a3f5922aad443c72fccf6f6bad0693729eb509c5c4e3904a0a35b5afe4add",
    "stale-cert-flood": "e1622f5a9f2ba30fdd2fa3680de6835a62a67a1b052f5b1ab2bcdc81d7b816b5",
    "ca-flood": "dc7bbdec8d5fb0584856e85879ad7c22a6e1b587d06398f0956c1311e2c619e7",
}


def small_config(**overrides) -> FleetConfig:
    """A fast fleet shape shared by the engine-layer tests."""
    defaults = dict(
        n_vehicles=8,
        seed=SEED,
        records_per_vehicle=4,
        max_records=4,
        send_interval_ms=25.0,
        arrival_spread_ms=40.0,
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestSpecValidation:
    def test_arrival_spec_nonsense_rejected(self):
        with pytest.raises(ScenarioError, match="spread_ms"):
            UniformArrivals(spread_ms=-1.0)
        with pytest.raises(ScenarioError, match="rate_per_s"):
            PoissonArrivals(rate_per_s=0.0)
        with pytest.raises(ScenarioError, match="rate_per_s"):
            PoissonArrivals(rate_per_s=-3.0)
        with pytest.raises(ScenarioError, match="waves"):
            BurstArrivals(waves=0)
        with pytest.raises(ScenarioError, match="period_ms"):
            DiurnalArrivals(period_ms=0.0)
        with pytest.raises(ScenarioError, match="amplitude"):
            DiurnalArrivals(amplitude=1.5)

    def test_overlapping_burst_waves_rejected(self):
        with pytest.raises(ScenarioError, match="overlap"):
            BurstArrivals(
                waves=3, wave_interval_ms=100.0, wave_spread_ms=250.0
            )

    def test_profile_nonsense_rejected(self):
        with pytest.raises(ScenarioError, match="name"):
            BehaviorProfile(name="", count=1)
        with pytest.raises(ScenarioError, match="count"):
            BehaviorProfile(name="x", count=0)
        with pytest.raises(ScenarioError, match="records_per_vehicle"):
            BehaviorProfile(name="x", count=1, records_per_vehicle=0)
        with pytest.raises(ScenarioError, match="send_interval_ms"):
            BehaviorProfile(name="x", count=1, send_interval_ms=-1.0)
        with pytest.raises(ScenarioError, match="convoy_size"):
            BehaviorProfile(name="x", count=4, convoy_size=1)
        with pytest.raises(ScenarioError, match="roam"):
            BehaviorProfile(name="x", count=4, roam_every=2, convoy_size=2)

    def test_injection_nonsense_rejected(self):
        with pytest.raises(ScenarioError, match="at_ms"):
            ReplayStorm(at_ms=-1.0)
        with pytest.raises(ScenarioError, match="replays"):
            ReplayStorm(at_ms=0.0, replays=0)
        with pytest.raises(ScenarioError, match="attempts"):
            StaleCertFlood(at_ms=0.0, attempts=0)
        with pytest.raises(ScenarioError, match="requests"):
            CaQueueFlood(at_ms=0.0, requests=-1)

    def test_scenario_shape_rejected(self):
        with pytest.raises(ScenarioError, match="name"):
            Scenario(name="")
        with pytest.raises(ScenarioError, match="arrivals"):
            Scenario(name="x", arrivals="uniform")
        with pytest.raises(ScenarioError, match="injections"):
            Scenario(name="x", injections=("replay",))
        with pytest.raises(ScenarioError, match="duplicate"):
            Scenario(
                name="x",
                profiles=(
                    BehaviorProfile(name="p", count=1),
                    BehaviorProfile(name="p", count=1),
                ),
            )
        for part in (
            {"name": "a", "count": 1},
            UniformArrivals(),
            ReplayStorm(at_ms=1.0),
        ):
            kind = type(part).__name__
            with pytest.raises(ScenarioError, match=f"profiles .* got {kind}"):
                Scenario(name="x", profiles=(part,))


class TestCompileValidation:
    def test_profiles_overclaiming_fleet_rejected(self):
        scenario = Scenario(
            name="x", profiles=(BehaviorProfile(name="p", count=9),)
        )
        with pytest.raises(ScenarioError, match="claim 9 vehicles"):
            compile_scenario(scenario, small_config())

    def test_partial_trailing_convoy_rejected(self):
        scenario = Scenario(
            name="x",
            profiles=(BehaviorProfile(name="pl", count=5, convoy_size=4),),
        )
        with pytest.raises(ScenarioError, match="multiple of convoy_size"):
            compile_scenario(scenario, small_config(shards=2))

    def test_roamer_needs_shards(self):
        scenario = Scenario(
            name="x", profiles=(BehaviorProfile(name="r", count=2, roam_every=1),)
        )
        with pytest.raises(ScenarioError, match="shard"):
            compile_scenario(scenario, small_config(shards=1))

    def test_replay_target_shard_range_checked(self):
        scenario = Scenario(
            name="x", injections=(ReplayStorm(at_ms=1.0, target_shard=3),)
        )
        with pytest.raises(ScenarioError, match="targets shard 3"):
            compile_scenario(scenario, small_config(shards=2))

    def test_stale_cert_flood_needs_rejoin(self):
        scenario = Scenario(
            name="x", injections=(StaleCertFlood(at_ms=100.0),)
        )
        with pytest.raises(ScenarioError, match="rejoin"):
            compile_scenario(scenario, small_config(shards=2))

    def test_stale_cert_flood_must_fire_after_rejoin(self):
        scenario = Scenario(
            name="x", injections=(StaleCertFlood(at_ms=500.0),)
        )
        config = small_config(
            shards=2, shard_fail_at_ms=100.0, shard_rejoin_at_ms=900.0
        )
        with pytest.raises(ScenarioError, match="before the rejoin"):
            compile_scenario(scenario, config)

    def test_ca_flood_needs_request_authentication(self):
        scenario = Scenario(
            name="x", injections=(CaQueueFlood(at_ms=1.0),)
        )
        with pytest.raises(ScenarioError, match="authenticate_requests"):
            compile_scenario(scenario, small_config())

    def test_scenario_error_is_a_simulation_error(self):
        assert issubclass(ScenarioError, SimulationError)


class TestCompilation:
    def test_uniform_matches_legacy_jitter(self):
        import random as _random

        from repro.primitives import sha256

        config = small_config()
        schedule = compile_scenario(Scenario(name="legacy"), config)
        rng = _random.Random(
            int.from_bytes(sha256(SEED + b"|arrivals"), "big")
        )
        expected = tuple(
            rng.uniform(0.0, config.arrival_spread_ms)
            for _ in range(config.n_vehicles)
        )
        assert schedule.arrival_ms == expected

    def test_unclaimed_vehicles_get_the_config_default_profile(self):
        config = small_config(n_vehicles=4)
        scenario = Scenario(
            name="x",
            profiles=(
                BehaviorProfile(name="a", count=1, records_per_vehicle=9),
            ),
        )
        schedule = compile_scenario(scenario, config)
        assert schedule.profile_for(0).records_per_vehicle == 9
        default = CompiledProfile(
            name="",
            records_per_vehicle=config.records_per_vehicle,
            send_interval_ms=config.send_interval_ms,
            max_records=None,
            roam_every=None,
        )
        assert schedule.profile_for(3) == default
        legacy = compile_scenario(None, config)
        assert [legacy.profile_for(i) for i in range(4)] == [default] * 4

    def test_burst_arrivals_land_in_their_waves(self):
        config = small_config(n_vehicles=12)
        scenario = Scenario(
            name="b",
            arrivals=BurstArrivals(
                waves=3, wave_interval_ms=200.0, wave_spread_ms=50.0
            ),
        )
        schedule = compile_scenario(scenario, config)
        for index, at in enumerate(schedule.arrival_ms):
            wave = index * 3 // 12
            assert wave * 200.0 <= at < wave * 200.0 + 50.0

    def test_poisson_arrivals_strictly_increase(self):
        config = small_config(n_vehicles=20)
        schedule = compile_scenario(
            Scenario(name="p", arrivals=PoissonArrivals(rate_per_s=50.0)),
            config,
        )
        times = schedule.arrival_ms
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_diurnal_arrivals_cluster_at_the_peak(self):
        config = small_config(n_vehicles=40)
        schedule = compile_scenario(
            Scenario(
                name="d",
                arrivals=DiurnalArrivals(period_ms=1_000.0, amplitude=1.0),
            ),
            config,
        )
        times = schedule.arrival_ms
        assert all(0.0 <= t <= 1_000.0 for t in times)
        # The middle half-period carries the intensity peak: it must
        # hold clearly more than half the fleet.
        mid = sum(1 for t in times if 250.0 <= t <= 750.0)
        assert mid > len(times) * 0.5

    def test_profiles_claim_contiguous_blocks(self):
        config = small_config(n_vehicles=8)
        scenario = Scenario(
            name="x",
            profiles=(
                BehaviorProfile(name="a", count=3),
                BehaviorProfile(name="b", count=2),
            ),
        )
        schedule = compile_scenario(scenario, config)
        assert schedule.profile_of == ("a",) * 3 + ("b",) * 2 + ("",) * 3
        assert schedule.profile_counts == (("a", 3), ("b", 2))

    def test_convoys_share_arrival_and_pin(self):
        config = small_config(n_vehicles=8, shards=2)
        scenario = Scenario(
            name="x",
            profiles=(BehaviorProfile(name="pl", count=6, convoy_size=3),),
        )
        schedule = compile_scenario(scenario, config)
        assert schedule.convoys == ((0, 1, 2), (3, 4, 5))
        for convoy in schedule.convoys:
            arrivals = {schedule.arrival_ms[i] for i in convoy}
            pins = {schedule.pinned_shard[i] for i in convoy}
            assert len(arrivals) == 1
            assert len(pins) == 1
            assert pins != {None}
        assert schedule.pinned_shard[6] is None

    def test_injections_sorted_by_time(self):
        config = small_config(shards=2, authenticate_requests=True)
        scenario = Scenario(
            name="x",
            injections=(
                ReplayStorm(at_ms=500.0),
                CaQueueFlood(at_ms=10.0),
            ),
        )
        schedule = compile_scenario(scenario, config)
        assert [inj.at_ms for inj in schedule.injections] == [10.0, 500.0]


class TestSchedulePins:
    """Schedule digests are pinned, not only compared run against run."""

    def test_pins_cover_every_named_scenario(self):
        assert set(SCHEDULE_PINS) == set(NAMED_SCENARIOS)

    @pytest.mark.parametrize("name", sorted(SCHEDULE_PINS))
    def test_named_schedule_digest_is_pinned(self, name):
        schedule = compile_scenario(get_scenario(name), PIN_CONFIG)
        assert schedule.digest() == SCHEDULE_PINS[name]

    def test_no_scenario_compiles_the_legacy_uniform_pin(self):
        schedule = compile_scenario(None, PIN_CONFIG)
        assert schedule.scenario == get_scenario("legacy-uniform")
        assert schedule.digest() == SCHEDULE_PINS["legacy-uniform"]


class TestEngine:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_run_given_no_scenario_executes_the_legacy_schedule(
        self, workers
    ):
        config = small_config(shards=2, workers=workers)
        legacy = compile_scenario(get_scenario("legacy-uniform"), config)
        obs = Observer()
        orchestrator = FleetOrchestrator(config, obs=obs)
        assert orchestrator.scenario is None
        assert orchestrator.schedule.digest() == legacy.digest()
        stats = orchestrator.run().stats
        # The schedule is the legacy one; the run still names none.
        assert stats.scenario == ""
        assert obs.meta["run"] == "fleet"

    def test_scenario_none_and_legacy_uniform_bit_identical(self):
        config = small_config()
        plain = FleetOrchestrator(config).run().stats
        legacy = FleetOrchestrator(
            config, scenario=get_scenario("legacy-uniform")
        ).run().stats
        assert plain.digest() == legacy.digest()
        assert not legacy.is_scenario_run

    def test_commuter_profile_drives_tighter_rekeys(self):
        config = small_config(records_per_vehicle=6)
        scenario = Scenario(
            name="commute",
            profiles=(
                BehaviorProfile(name="commuter", count=4, max_records=2),
            ),
        )
        result = FleetOrchestrator(config, scenario=scenario).run()
        commuters = result.vehicles[:4]
        others = result.vehicles[4:]
        # 6 records at a 2-record budget: at least two re-keys each; the
        # default 4-record budget re-keys once.
        assert all(v.rekeys >= 2 for v in commuters)
        assert all(v.rekeys == 1 for v in others)
        assert result.stats.profile_counts == (("commuter", 4),)
        assert result.stats.is_scenario_run

    def test_profile_record_budget_changes_delivered_records(self):
        config = small_config()
        scenario = Scenario(
            name="chatty",
            profiles=(
                BehaviorProfile(
                    name="chatty", count=2, records_per_vehicle=9
                ),
            ),
        )
        result = FleetOrchestrator(config, scenario=scenario).run()
        assert [v.records_sent for v in result.vehicles[:2]] == [9, 9]
        assert all(v.records_sent == 4 for v in result.vehicles[2:])

    def test_roamers_migrate_between_shards(self):
        config = small_config(records_per_vehicle=6, shards=2)
        scenario = Scenario(
            name="roam",
            profiles=(
                BehaviorProfile(name="roamer", count=2, roam_every=3),
            ),
        )
        result = FleetOrchestrator(config, scenario=scenario).run()
        roamers = result.vehicles[:2]
        assert all(v.roams >= 1 for v in roamers)
        assert result.stats.migrations >= 2
        assert result.stats.re_enrollments >= 2

    def test_platoon_members_serve_on_their_pinned_shard(self):
        config = small_config(shards=2, shard_policy="round-robin")
        scenario = Scenario(
            name="convoy",
            profiles=(BehaviorProfile(name="pl", count=4, convoy_size=4),),
        )
        orchestrator = FleetOrchestrator(config, scenario=scenario)
        result = orchestrator.run()
        pin = orchestrator.schedule.pinned_shard[0]
        for vehicle in result.vehicles[:4]:
            assert vehicle.shard == pin

    def test_replay_storm_rejected_with_zero_forgeries(self):
        config = small_config(records_per_vehicle=6, shards=2)
        scenario = Scenario(
            name="storm",
            injections=(ReplayStorm(at_ms=4_500.0, replays=10),),
        )
        stats = FleetOrchestrator(config, scenario=scenario).run().stats
        assert stats.attack_attempts == 10
        assert stats.attack_rejections == 10
        assert stats.attack_successes == 0
        assert stats.is_scenario_run

    def test_ca_flood_rejected_and_costs_queue_time(self):
        config = small_config(authenticate_requests=True)
        # Fire mid enrollment storm (signed requests take ~600 ms of
        # vehicle compute before they queue), so the flood and the
        # legitimate requests contend the same CA service windows.
        flooded_scenario = Scenario(
            name="flood",
            injections=(CaQueueFlood(at_ms=620.0, requests=32),),
        )
        clean = FleetOrchestrator(config).run().stats
        flooded = FleetOrchestrator(
            config, scenario=flooded_scenario
        ).run().stats
        assert flooded.attack_attempts == 32
        assert flooded.attack_rejections == 32
        assert flooded.attack_successes == 0
        # The flood contends the CA: legitimate enrollments queue longer.
        assert (
            flooded.ca_queue_latency.mean_ms > clean.ca_queue_latency.mean_ms
        )
        # And every legitimate vehicle still completed its records.
        assert flooded.records_sent == clean.records_sent

    def test_stale_cert_flood_rejected_after_rejoin(self):
        config = small_config(
            records_per_vehicle=12,
            max_records=5,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=4_500.0,
            fail_shard=0,
            shard_rejoin_at_ms=6_000.0,
            migrate_threshold=1,
        )
        scenario = Scenario(
            name="stale",
            injections=(StaleCertFlood(at_ms=6_500.0, attempts=12),),
        )
        stats = FleetOrchestrator(config, scenario=scenario).run().stats
        assert stats.attack_attempts == 12
        assert stats.attack_rejections == 12
        assert stats.attack_successes == 0
        assert stats.rejoins == 1

    def test_replay_storm_before_any_traffic_fails_loudly(self):
        # A storm with nothing to replay must not report a vacuous 0/0
        # "defense success".
        config = small_config(shards=2)
        scenario = Scenario(
            name="too-early",
            injections=(ReplayStorm(at_ms=1.0, replays=4),),
        )
        with pytest.raises(ScenarioError, match="before any"):
            FleetOrchestrator(config, scenario=scenario).run()

    def test_stale_cert_flood_with_nothing_issued_fails_loudly(self):
        # The shard dies before it ever issued a leaf certificate: the
        # flood has nothing stale to present and must say so.
        config = small_config(
            shards=2,
            arrival_spread_ms=500.0,
            shard_fail_at_ms=1.0,
            fail_shard=0,
            shard_rejoin_at_ms=2.0,
        )
        scenario = Scenario(
            name="nothing-stale",
            injections=(StaleCertFlood(at_ms=10.0, attempts=4),),
        )
        with pytest.raises(ScenarioError, match="no retired"):
            FleetOrchestrator(config, scenario=scenario).run()

    def test_stats_round_trip_preserves_scenario_segments(self):
        from repro.fleet import FleetStats

        config = small_config(records_per_vehicle=6, shards=2)
        scenario = Scenario(
            name="storm",
            profiles=(BehaviorProfile(name="a", count=2),),
            injections=(ReplayStorm(at_ms=4_500.0, replays=6),),
        )
        stats = FleetOrchestrator(config, scenario=scenario).run().stats
        rebuilt = FleetStats.from_dict(stats.as_dict())
        assert rebuilt == stats
        assert rebuilt.digest() == stats.digest()

    def test_load_scenario_rejects_unknown_kinds(self):
        base = Scenario(name="x").as_dict()
        for field, bad in (
            ("arrivals", {"kind": "no-such-process"}),
            ("profiles", [{"kind": "replay-storm", "at_ms": 1.0}]),
            ("injections", [{"kind": "profile", "name": "a", "count": 1}]),
        ):
            payload = dict(base)
            payload[field] = bad
            with pytest.raises(ScenarioError, match="kind"):
                load_scenario(payload)

    @pytest.mark.parametrize(
        "field, bad, kind, name",
        [
            ("arrivals", {"kind": "poisson", "bogus": 1}, "poisson", "bogus"),
            (
                "profiles",
                [{"kind": "profile", "name": "a", "count": 1, "speed": 9}],
                "profile",
                "speed",
            ),
            (
                "injections",
                [{"kind": "replay-storm", "at_ms": 1.0, "replay": 2}],
                "replay-storm",
                "replay",
            ),
            (
                "profiles",
                [{"kind": "profile", "name": "a"}],
                "profile",
                "count",
            ),
            ("injections", [{"kind": "ca-flood"}], "ca-flood", "at_ms"),
            (
                "arrivals",
                {"kind": "uniform", "spread_ms": "wide"},
                "uniform",
                "spread_ms",
            ),
            (
                "profiles",
                [{"kind": "profile", "name": "a", "count": "many"}],
                "profile",
                "count",
            ),
            (
                "injections",
                [{"kind": "stale-cert-flood", "at_ms": "soon"}],
                "stale-cert-flood",
                "at_ms",
            ),
        ],
        ids=[
            "unknown-arrival-field",
            "unknown-profile-field",
            "unknown-injection-field",
            "missing-profile-field",
            "missing-injection-field",
            "wrongly-typed-arrival-field",
            "wrongly-typed-profile-field",
            "wrongly-typed-injection-field",
        ],
    )
    def test_load_scenario_names_the_bad_field(self, field, bad, kind, name):
        payload = dict(Scenario(name="x").as_dict())
        payload[field] = bad
        with pytest.raises(ScenarioError, match=f"'{kind}'.*'{name}'"):
            load_scenario(payload)

    def test_load_scenario_rejects_malformed_json(self):
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario("{nope")

    @pytest.mark.parametrize("field", ["profiles", "injections", "policies"])
    @pytest.mark.parametrize(
        "bad, got",
        [({"kind": "profile", "name": "a", "count": 1}, "dict"), ("ab", "str")],
        ids=["object", "string"],
    )
    def test_load_scenario_names_a_part_field_that_is_not_a_list(
        self, field, bad, got
    ):
        with pytest.raises(
            ScenarioError, match=f"{field} must be a list, got {got}"
        ):
            load_scenario({"name": "x", field: bad})

    @pytest.mark.parametrize("field", ["name", "description"])
    def test_scenario_text_fields_must_be_strings(self, field):
        spec = {"name": "x", field: 5}
        with pytest.raises(ScenarioError, match=f"{field} must be a str"):
            load_scenario(spec)
        with pytest.raises(ScenarioError, match=f"{field} must be a str"):
            Scenario(**spec)

    def test_named_scenarios_all_load(self):
        for name in NAMED_SCENARIOS:
            scenario = get_scenario(name)
            assert scenario.name == name
            assert load_scenario(scenario.as_dict()) == scenario
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("no-such-scenario")
