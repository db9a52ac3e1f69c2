"""Policy engine units: registry, specs, rules, bundles, config knobs.

The bit-parity of the ``default`` bundle against the pre-engine
orchestrator is locked separately (``test_policy_parity.py``); here the
engine itself is exercised rule by rule on synthetic
:class:`~repro.fleet.FleetState` snapshots, plus the config-level
validation that rejects ambiguous knob/bundle combinations.
"""

from __future__ import annotations

import dataclasses
import types

import pytest

from repro.errors import ConfigError, PolicyError
from repro.fleet import (
    BehaviorProfile,
    Decision,
    FailoverSpread,
    FleetConfig,
    FleetState,
    POLICY_BUNDLES,
    POLICY_RULES,
    PolicyEngine,
    RoamCadence,
    Scenario,
    SessionExpiryRekey,
    ShardPolicyAssign,
    ShardView,
    StormRekey,
    ThresholdRebalance,
    UtilisationRebalance,
    VehicleView,
    compile_scenario,
    load_policy,
    policy_dict,
    policy_json,
    register_policy,
    resolve_policies,
    run_fleet,
)
from repro.primitives import sha256


# -- synthetic state builders -------------------------------------------------


def _shard(index, active=0, failed=False, utilisation=0.0, epoch=1):
    return ShardView(
        index=index,
        failed=failed,
        active_vehicles=active,
        queue_depth=0,
        epoch=epoch,
        utilisation=utilisation,
    )


def _vehicle(index=0, shard=0, **overrides):
    base = dict(
        index=index,
        name=f"veh{index:04d}",
        device_id=b"veh-%d" % index,
        shard=shard,
        records_sent=0,
        rekeys=0,
        migrations=0,
        migrating=False,
        re_enrolling=False,
        pinned_shard=None,
        roam_every=None,
        last_roam_records=-1,
    )
    base.update(overrides)
    return VehicleView(**base)


def _state(point, vehicle, shards, now=0.0, **overrides):
    return FleetState(
        point=point,
        now_ms=now,
        vehicle=vehicle,
        shards=tuple(shards),
        **overrides,
    )


# -- registry + spec round-trip -----------------------------------------------


class TestRegistry:
    def test_shipped_kinds_registered(self):
        assert set(POLICY_RULES) == {
            "shard-assign",
            "roam-cadence",
            "threshold-rebalance",
            "session-expiry-rekey",
            "utilisation-rebalance",
            "storm-rekey",
            "failover-spread",
        }

    def test_double_registration_rejected(self):
        with pytest.raises(PolicyError, match="registered twice"):
            register_policy("shard-assign")(ThresholdRebalance)

    def test_kind_must_be_nonempty_string(self):
        with pytest.raises(PolicyError, match="non-empty string"):
            register_policy("")

    def test_every_rule_round_trips_through_dict_and_json(self):
        rules = [
            ShardPolicyAssign(policy="least-loaded"),
            RoamCadence(),
            ThresholdRebalance(threshold=3),
            SessionExpiryRekey(),
            UtilisationRebalance(max_utilisation=0.5),
            StormRekey(window_ms=750.0, budget=2),
            FailoverSpread(),
        ]
        for rule in rules:
            assert load_policy(policy_dict(rule)) == rule
            assert load_policy(policy_json(rule)) == rule

    def test_policy_dict_rejects_unregistered_objects(self):
        with pytest.raises(PolicyError, match="not a registered policy"):
            policy_dict(object())

    def test_load_rejects_unknown_kind(self):
        with pytest.raises(PolicyError, match="unknown policy rule kind"):
            load_policy({"kind": "lane-hopping"})

    def test_load_rejects_unknown_parameters(self):
        with pytest.raises(PolicyError, match="unknown parameters"):
            load_policy({"kind": "threshold-rebalance", "treshold": 2})

    def test_load_rejects_malformed_json(self):
        with pytest.raises(PolicyError, match="not valid JSON"):
            load_policy("{nope")

    def test_load_rejects_non_object_payload(self):
        with pytest.raises(PolicyError, match="must be an object"):
            load_policy([1, 2, 3])


class TestSpecValidation:
    def test_threshold_must_be_positive_int(self):
        with pytest.raises(PolicyError, match="int >= 1"):
            ThresholdRebalance(threshold=0)
        with pytest.raises(PolicyError, match="int >= 1"):
            ThresholdRebalance(threshold=1.5)

    def test_utilisation_bounds(self):
        with pytest.raises(PolicyError, match="in \\(0, 1\\]"):
            UtilisationRebalance(max_utilisation=0.0)
        with pytest.raises(PolicyError, match="in \\(0, 1\\]"):
            UtilisationRebalance(max_utilisation=1.5)

    def test_storm_window_and_budget(self):
        with pytest.raises(PolicyError, match="window_ms"):
            StormRekey(window_ms=0.0)
        with pytest.raises(PolicyError, match="budget"):
            StormRekey(budget=0)

    def test_shard_assign_policy_name(self):
        with pytest.raises(PolicyError, match="unknown shard policy"):
            ShardPolicyAssign(policy="quantum")


# -- individual rules ---------------------------------------------------------


class TestShardPolicyAssign:
    def test_static_hash_matches_topology_arithmetic(self):
        vehicle = _vehicle(device_id=b"veh-test-device")
        shards = [_shard(0), _shard(1), _shard(2)]
        decision = ShardPolicyAssign().evaluate(
            _state("assign", vehicle, shards), {}
        )
        digest = sha256(b"fleet|shard-assign|" + vehicle.device_id)
        expected = int.from_bytes(digest[:8], "big") % 3
        assert decision.target_shard == expected

    def test_static_hash_skips_failed_shards(self):
        vehicle = _vehicle(device_id=b"veh-test-device")
        shards = [_shard(0, failed=True), _shard(1), _shard(2)]
        decision = ShardPolicyAssign().evaluate(
            _state("assign", vehicle, shards), {}
        )
        assert decision.target_shard in (1, 2)

    def test_least_loaded_picks_minimum_with_index_tiebreak(self):
        shards = [_shard(0, active=2), _shard(1, active=1), _shard(2, active=1)]
        decision = ShardPolicyAssign(policy="least-loaded").evaluate(
            _state("assign", _vehicle(), shards), {}
        )
        assert decision.target_shard == 1

    def test_round_robin_cycles_through_engine_memory(self):
        rule = ShardPolicyAssign(policy="round-robin")
        shards = [_shard(0), _shard(1), _shard(2)]
        memory = {}
        picks = [
            rule.evaluate(_state("assign", _vehicle(), shards), memory)
            .target_shard
            for _ in range(5)
        ]
        assert picks == [0, 1, 2, 0, 1]

    def test_no_alive_shards_defers(self):
        shards = [_shard(0, failed=True)]
        assert (
            ShardPolicyAssign().evaluate(
                _state("assign", _vehicle(), shards), {}
            )
            is None
        )


class TestRoamCadence:
    def _roamer(self, **overrides):
        base = dict(roam_every=4, records_sent=8, shard=0)
        base.update(overrides)
        return _vehicle(**base)

    def test_fires_on_cadence_to_successor_shard(self):
        shards = [_shard(0), _shard(1)]
        decision = RoamCadence().evaluate(
            _state("migrate", self._roamer(), shards), {}
        )
        assert decision == Decision(target_shard=1, roam=True)

    def test_wraps_past_the_last_shard(self):
        shards = [_shard(0), _shard(1)]
        decision = RoamCadence().evaluate(
            _state("migrate", self._roamer(shard=1), shards), {}
        )
        assert decision.target_shard == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"roam_every": None},
            {"records_sent": 0},
            {"records_sent": 7},  # off-cadence
            {"records_sent": 8, "last_roam_records": 8},  # already roamed
            {"migrating": True},
            {"re_enrolling": True},
        ],
    )
    def test_guard_chain_defers(self, overrides):
        shards = [_shard(0), _shard(1)]
        state = _state("migrate", self._roamer(**overrides), shards)
        assert RoamCadence().evaluate(state, {}) is None

    def test_single_alive_shard_defers(self):
        shards = [_shard(0), _shard(1, failed=True)]
        state = _state("migrate", self._roamer(), shards)
        assert RoamCadence().evaluate(state, {}) is None


class TestThresholdRebalance:
    def test_fires_past_the_gap(self):
        shards = [_shard(0, active=4), _shard(1, active=1)]
        decision = ThresholdRebalance(threshold=2).evaluate(
            _state("migrate", _vehicle(shard=0), shards), {}
        )
        assert decision.target_shard == 1

    def test_gap_at_threshold_defers(self):
        shards = [_shard(0, active=3), _shard(1, active=1)]
        state = _state("migrate", _vehicle(shard=0), shards)
        assert ThresholdRebalance(threshold=2).evaluate(state, {}) is None

    def test_pinned_vehicle_defers(self):
        shards = [_shard(0, active=4), _shard(1, active=1)]
        state = _state(
            "migrate", _vehicle(shard=0, pinned_shard=0), shards
        )
        assert ThresholdRebalance(threshold=2).evaluate(state, {}) is None


class TestSessionExpiryRekey:
    def test_fires_exactly_on_rekey_due(self):
        rule = SessionExpiryRekey()
        due = _state("rekey", _vehicle(), [_shard(0)], rekey_due=True)
        idle = _state("rekey", _vehicle(), [_shard(0)], rekey_due=False)
        assert rule.evaluate(due, {}) == Decision(rekey=True)
        assert rule.evaluate(idle, {}) is None


class TestUtilisationRebalance:
    def test_fires_above_threshold(self):
        shards = [
            _shard(0, active=4, utilisation=0.8),
            _shard(1, active=1, utilisation=0.2),
        ]
        decision = UtilisationRebalance(max_utilisation=0.6).evaluate(
            _state("migrate", _vehicle(shard=0, records_sent=1), shards), {}
        )
        assert decision.target_shard == 1

    def test_cooldown_requires_progress_between_fires(self):
        rule = UtilisationRebalance(max_utilisation=0.6)
        shards = [
            _shard(0, active=4, utilisation=0.8),
            _shard(1, active=1, utilisation=0.2),
        ]
        memory = {}
        vehicle = _vehicle(shard=0, records_sent=1)
        assert rule.evaluate(_state("migrate", vehicle, shards), memory)
        # Same progress marker: the cool-down holds the rule back.
        assert (
            rule.evaluate(_state("migrate", vehicle, shards), memory)
            is None
        )
        # One more delivered record re-arms it.
        advanced = dataclasses.replace(vehicle, records_sent=2)
        assert rule.evaluate(_state("migrate", advanced, shards), memory)

    def test_below_threshold_defers(self):
        shards = [
            _shard(0, active=2, utilisation=0.5),
            _shard(1, active=2, utilisation=0.5),
        ]
        state = _state("migrate", _vehicle(shard=0, records_sent=1), shards)
        assert (
            UtilisationRebalance(max_utilisation=0.6).evaluate(state, {})
            is None
        )


class TestStormRekey:
    def test_fires_inside_window_past_budget(self):
        state = _state(
            "rekey",
            _vehicle(),
            [_shard(0)],
            now=4_500.0,
            last_storm_ms=4_000.0,
            session_records=4,
        )
        assert StormRekey().evaluate(state, {}) == Decision(rekey=True)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"last_storm_ms": None},
            {"now": 7_000.0},  # window expired
            {"session_records": 3},  # under budget
        ],
    )
    def test_defers_otherwise(self, overrides):
        base = dict(
            now=4_500.0, last_storm_ms=4_000.0, session_records=4
        )
        base.update(overrides)
        now = base.pop("now")
        state = _state("rekey", _vehicle(), [_shard(0)], now=now, **base)
        assert StormRekey().evaluate(state, {}) is None


class TestFailoverSpread:
    def test_adopts_onto_least_loaded(self):
        shards = [
            _shard(0, failed=True),
            _shard(1, active=3),
            _shard(2, active=1),
        ]
        decision = FailoverSpread().evaluate(
            _state("failover", _vehicle(shard=0), shards), {}
        )
        assert decision.target_shard == 2

    def test_defers_for_alive_pin(self):
        shards = [_shard(0, failed=True), _shard(1), _shard(2)]
        state = _state(
            "failover", _vehicle(shard=0, pinned_shard=1), shards
        )
        assert FailoverSpread().evaluate(state, {}) is None

    def test_adopts_when_pin_is_dead(self):
        shards = [_shard(0, failed=True), _shard(1, active=2), _shard(2)]
        decision = FailoverSpread().evaluate(
            _state("failover", _vehicle(shard=0, pinned_shard=0), shards),
            {},
        )
        assert decision.target_shard == 2


# -- the engine ---------------------------------------------------------------


class TestEngine:
    def test_first_match_wins_in_declaration_order(self):
        engine = PolicyEngine(
            (StormRekey(budget=1), SessionExpiryRekey())
        )
        state = _state(
            "rekey",
            _vehicle(),
            [_shard(0)],
            now=100.0,
            rekey_due=True,
            last_storm_ms=50.0,
            session_records=3,
        )
        decision = engine.decide("rekey", state)
        assert decision.rule == "storm-rekey"
        assert decision.point == "rekey"

    def test_stamps_rule_and_point(self):
        engine = PolicyEngine((ThresholdRebalance(threshold=1),))
        shards = [_shard(0, active=4), _shard(1, active=1)]
        decision = engine.decide(
            "migrate", _state("migrate", _vehicle(shard=0), shards)
        )
        assert decision.rule == "threshold-rebalance"
        assert decision.point == "migrate"

    def test_no_rules_at_point_returns_none(self):
        engine = PolicyEngine((SessionExpiryRekey(),))
        assert not engine.has_rules("migrate")
        assert (
            engine.decide(
                "migrate", _state("migrate", _vehicle(), [_shard(0)])
            )
            is None
        )

    def test_unregistered_rule_rejected(self):
        with pytest.raises(PolicyError, match="not a registered policy"):
            PolicyEngine((object(),))

    def test_unknown_point_rejected(self):
        engine = PolicyEngine(())
        with pytest.raises(PolicyError, match="unknown decision point"):
            engine.has_rules("teleport")

    def test_decision_counts_tally_per_rule(self):
        engine = PolicyEngine((SessionExpiryRekey(),))
        state = _state("rekey", _vehicle(), [_shard(0)], rekey_due=True)
        for _ in range(3):
            engine.decide("rekey", state)
        assert engine.decision_counts == {
            ("rekey", "session-expiry-rekey"): 3
        }

    def test_only_default_rekey_flag(self):
        assert PolicyEngine((SessionExpiryRekey(),)).only_default_rekey
        assert not PolicyEngine(
            (StormRekey(), SessionExpiryRekey())
        ).only_default_rekey

    def test_validation_rejects_out_of_range_target(self):
        decision = Decision(
            rule="threshold-rebalance", point="migrate", target_shard=7
        )
        state = _state("migrate", _vehicle(shard=0), [_shard(0), _shard(1)])
        with pytest.raises(PolicyError, match="out-of-range shard"):
            PolicyEngine._validate(decision, state, ThresholdRebalance())

    def test_validation_rejects_failed_target(self):
        decision = Decision(
            rule="threshold-rebalance", point="migrate", target_shard=1
        )
        state = _state(
            "migrate", _vehicle(shard=0), [_shard(0), _shard(1, failed=True)]
        )
        with pytest.raises(PolicyError, match="failed shard"):
            PolicyEngine._validate(decision, state, ThresholdRebalance())

    def test_validation_rejects_migration_onto_own_shard(self):
        decision = Decision(
            rule="threshold-rebalance", point="migrate", target_shard=0
        )
        state = _state("migrate", _vehicle(shard=0), [_shard(0), _shard(1)])
        with pytest.raises(PolicyError, match="own shard"):
            PolicyEngine._validate(decision, state, ThresholdRebalance())

    def test_validation_rejects_non_rekey_at_rekey_point(self):
        decision = Decision(
            rule="session-expiry-rekey", point="rekey", rekey=False
        )
        state = _state("rekey", _vehicle(), [_shard(0)])
        with pytest.raises(PolicyError, match="without requesting"):
            PolicyEngine._validate(decision, state, SessionExpiryRekey())


# -- bundles + resolution -----------------------------------------------------


class TestBundles:
    def test_shipped_bundle_names(self):
        assert set(POLICY_BUNDLES) == {
            "default",
            "utilisation-rebalance",
            "storm-hardened",
            "failover-spread",
        }

    def test_default_bundle_composition(self):
        config = FleetConfig(shards=2, migrate_threshold=2)
        rules = resolve_policies(config)
        assert [rule.kind for rule in rules] == [
            "shard-assign",
            "threshold-rebalance",
            "session-expiry-rekey",
        ]
        assert rules[1].threshold == 2

    def test_default_bundle_without_threshold(self):
        rules = resolve_policies(FleetConfig())
        assert [rule.kind for rule in rules] == [
            "shard-assign",
            "session-expiry-rekey",
        ]

    def test_roaming_schedule_adds_the_cadence_rule(self):
        scenario = Scenario(
            name="roam",
            profiles=(
                BehaviorProfile(name="roamer", count=4, roam_every=3),
            ),
        )
        config = FleetConfig(n_vehicles=4, shards=2)
        schedule = compile_scenario(scenario, config)
        rules = resolve_policies(config, schedule)
        assert [rule.kind for rule in rules] == [
            "shard-assign",
            "roam-cadence",
            "session-expiry-rekey",
        ]

    def test_scenario_policies_come_first(self):
        scenario = Scenario(
            name="custom", policies=(StormRekey(budget=2),)
        )
        config = FleetConfig(n_vehicles=2)
        schedule = compile_scenario(scenario, config)
        rules = resolve_policies(config, schedule)
        assert rules[0] == StormRekey(budget=2)
        assert rules[-1] == SessionExpiryRekey()

    def test_unknown_bundle_raises_policy_error(self):
        # FleetConfig rejects unknown bundles up front, so feed the
        # resolver a bare config-shaped object to reach its own check.
        config = types.SimpleNamespace(
            policy="turbo", shard_policy="static-hash", migrate_threshold=None
        )
        with pytest.raises(PolicyError, match="unknown policy bundle"):
            resolve_policies(config)


# -- config-level validation (the knob/bundle conflict fix) -------------------


class TestConfigValidation:
    def test_unknown_bundle_rejected_at_config_time(self):
        with pytest.raises(ConfigError, match="unknown policy bundle"):
            FleetConfig(policy="turbo")

    def test_conflicting_knob_and_bundle_rejected(self):
        with pytest.raises(ConfigError, match="migrate_threshold"):
            FleetConfig(
                shards=2,
                migrate_threshold=2,
                policy="utilisation-rebalance",
            )

    def test_conflict_message_is_actionable(self):
        with pytest.raises(ConfigError, match="drop migrate_threshold"):
            FleetConfig(
                shards=2,
                migrate_threshold=1,
                policy="utilisation-rebalance",
            )

    def test_bundle_without_conflicting_knob_accepted(self):
        config = FleetConfig(shards=2, policy="utilisation-rebalance")
        assert config.policy == "utilisation-rebalance"

    def test_default_bundle_keeps_explicit_threshold(self):
        config = FleetConfig(shards=2, migrate_threshold=2, policy="default")
        assert config.migrate_threshold == 2

    def test_policy_none_is_default(self):
        assert FleetConfig().policy is None


# -- end-to-end ---------------------------------------------------------------


class TestEndToEnd:
    def _config(self, **overrides):
        base = dict(
            n_vehicles=8,
            seed=b"policy-e2e",
            records_per_vehicle=6,
            max_records=8,
            send_interval_ms=20.0,
            arrival_spread_ms=30.0,
            shards=2,
        )
        base.update(overrides)
        return FleetConfig(**base)

    def test_alternative_bundle_runs_deterministically(self):
        config = self._config(policy="utilisation-rebalance")
        first = run_fleet(config).stats
        second = run_fleet(config).stats
        assert first.digest() == second.digest()
        assert first.policy == "utilisation-rebalance"

    def test_policy_field_is_digest_neutral_metadata(self):
        plain = run_fleet(self._config()).stats
        tagged = dataclasses.replace(plain, policy="relabelled")
        assert tagged.digest() == plain.digest()
        assert (
            type(plain).from_dict(tagged.as_dict()).policy == "relabelled"
        )

    def test_decision_counts_surface_on_the_orchestrator(self):
        from repro.fleet import FleetOrchestrator

        orch = FleetOrchestrator(self._config())
        orch.run()
        counts = orch.policy.decision_counts
        assert counts.get(("assign", "shard-assign"), 0) >= 8

    def test_storm_hardened_bundle_rekeys_at_least_as_often(self):
        scenario_config = self._config(
            records_per_vehicle=12, max_records=30
        )
        from repro.fleet import get_scenario

        scenario = get_scenario("replay-storm")
        base = run_fleet(scenario_config, scenario=scenario).stats
        hardened = run_fleet(
            dataclasses.replace(scenario_config, policy="storm-hardened"),
            scenario=scenario,
        ).stats
        assert hardened.rekeys >= base.rekeys
