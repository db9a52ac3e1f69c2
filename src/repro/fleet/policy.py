"""Declarative fleet-policy engine: condition → action rules at the
orchestrator's decision points.

Before this module the four behavioral strategies of a fleet run —
*where a vehicle enrolls* (shard assignment), *when it re-keys*, *when
it live-migrates* (roaming cadence and threshold re-balancing) and *who
adopts it when a gateway fails* — were hard-coded inside
:mod:`repro.fleet.orchestrator` and :mod:`repro.fleet.topology`.  This
module extracts them into small declarative **policy rules**: frozen
dataclasses registered by kind, evaluated against a read-only
:class:`FleetState` snapshot, returning a :class:`Decision` (or ``None``
to pass).  The orchestrator asks the :class:`PolicyEngine` at each
decision point; the first rule to answer wins.

Reproducibility contract
------------------------

The ``default`` bundle re-expresses today's hard-coded strategies
**bit-for-bit**: every golden digest of PRs 1–9 is unchanged whether
the engine runs with ``policy=None``, ``policy="default"``, serially,
process-parallel or streaming (locked by
``tests/fleet/test_policy_parity.py``).  Three guarantees make that
possible:

* **read-only state** — rules see frozen :class:`ShardView` /
  :class:`VehicleView` snapshots, never live objects, so a rule cannot
  mutate the simulation;
* **per-rule memory** — stateful strategies (round-robin counters,
  re-balance cool-downs) keep their state in an engine-owned dict passed
  to :meth:`evaluate`, keeping the rule *specs* immutable and
  JSON-round-trippable;
* **first-match determinism** — rules are evaluated in declaration
  order; equal ``(state, rules)`` always produce the same decision
  stream.

Custom rules ship with a scenario (``Scenario.policies``) or are grouped
into named **bundles** selected by ``FleetConfig.policy``.  A bundle
that overrides an explicit config knob (``utilisation-rebalance``
replaces ``migrate_threshold``) is rejected at config-validation time
instead of silently preferring one — see :data:`BUNDLE_OVERRIDES`.

>>> from repro.fleet.policy import ThresholdRebalance, load_policy, policy_dict
>>> rule = ThresholdRebalance(threshold=2)
>>> policy_dict(rule)
{'kind': 'threshold-rebalance', 'threshold': 2}
>>> load_policy(policy_dict(rule)) == rule
True
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace

from ..errors import PolicyError
from ..primitives import sha256

__all__ = [
    "DECISION_POINTS",
    "POLICY_LEAST_LOADED",
    "POLICY_ROUND_ROBIN",
    "POLICY_STATIC_HASH",
    "POLICY_BUNDLES",
    "POLICY_RULES",
    "BUNDLE_OVERRIDES",
    "Decision",
    "FailoverSpread",
    "FleetState",
    "PolicyEngine",
    "RoamCadence",
    "SHARD_POLICIES",
    "SessionExpiryRekey",
    "ShardPolicyAssign",
    "ShardView",
    "StormRekey",
    "ThresholdRebalance",
    "UtilisationRebalance",
    "VehicleView",
    "bundle_conflict",
    "load_policy",
    "policy_dict",
    "policy_json",
    "register_policy",
    "resolve_policies",
    "static_hash_index",
]

#: The orchestrator consults the engine at exactly these points.
DECISION_POINTS = ("assign", "migrate", "rekey", "failover")

#: Registered shard-assignment policies (``FleetConfig.shard_policy``).
POLICY_STATIC_HASH = "static-hash"
POLICY_LEAST_LOADED = "least-loaded"
POLICY_ROUND_ROBIN = "round-robin"
SHARD_POLICIES = (POLICY_STATIC_HASH, POLICY_LEAST_LOADED, POLICY_ROUND_ROBIN)


def static_hash_index(device_id: bytes, count: int) -> int:
    """The ``static-hash`` placement: a stable bucket in ``range(count)``.

    A pure function of the vehicle identity, so the process-parallel
    partition filter can predict a vehicle's shard before it arrives.
    """
    digest = sha256(b"fleet|shard-assign|" + device_id)
    return int.from_bytes(digest[:8], "big") % count


# ---------------------------------------------------------------------------
# Read-only state views
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShardView:
    """Read-only snapshot of one gateway shard at decision time.

    ``utilisation`` is the shard's share of all *active* vehicles across
    alive shards (0.0 when the fleet is idle) — the load signal the
    ``utilisation-rebalance`` strategy thresholds on.
    """

    index: int
    failed: bool
    active_vehicles: int
    queue_depth: int
    epoch: int
    utilisation: float


@dataclass(frozen=True)
class VehicleView:
    """Read-only snapshot of the vehicle a decision concerns."""

    index: int
    name: str
    device_id: bytes
    shard: int
    records_sent: int
    rekeys: int
    migrations: int
    migrating: bool
    re_enrolling: bool
    pinned_shard: int | None
    roam_every: int | None
    last_roam_records: int


@dataclass(frozen=True)
class FleetState:
    """Everything a policy rule may look at for one decision.

    ``rekey_due`` carries the session managers' own budget verdict
    (computed exactly once by the orchestrator — the check has session
    side effects, so rules must consume the precomputed flag instead of
    re-asking).  ``session_records`` and ``last_storm_ms`` feed the
    storm-hardened re-key strategy and are plain reads.
    """

    point: str
    now_ms: float
    vehicle: VehicleView
    shards: tuple
    rekey_due: bool = False
    session_records: int = 0
    last_storm_ms: float | None = None

    def alive(self) -> tuple:
        """Alive shards, in index order (matching the topology's view)."""
        return tuple(view for view in self.shards if not view.failed)

    def shard_view(self, index: int) -> ShardView | None:
        """The view for shard ``index``, or ``None`` if out of range."""
        if 0 <= index < len(self.shards):
            return self.shards[index]
        return None


@dataclass(frozen=True)
class Decision:
    """One policy verdict: what to do, decided by which rule.

    ``rule`` and ``point`` are stamped by the engine — rules return bare
    decisions (``Decision(target_shard=2)``) and never name themselves.
    """

    rule: str = ""
    point: str = ""
    target_shard: int | None = None
    roam: bool = False
    rekey: bool = False


# ---------------------------------------------------------------------------
# Rule registry + spec round-trip
# ---------------------------------------------------------------------------

#: kind → rule class, populated by :func:`register_policy`.
POLICY_RULES: dict = {}


def register_policy(kind: str):
    """Class decorator registering a policy rule under ``kind``.

    The decorated class must be a (frozen) dataclass with a ``point``
    class attribute naming one of :data:`DECISION_POINTS` and an
    ``evaluate(state, memory)`` method.  Registration makes the kind
    loadable by :func:`load_policy` and usable in scenario specs.
    """
    if not kind or not isinstance(kind, str):
        raise PolicyError(f"policy rule kind must be a non-empty string, got {kind!r}")

    def decorate(cls):
        if kind in POLICY_RULES:
            raise PolicyError(f"policy rule kind {kind!r} registered twice")
        cls.kind = kind
        POLICY_RULES[kind] = cls
        return cls

    return decorate


def policy_dict(rule) -> dict:
    """Render one policy rule as a JSON-compatible dict (lossless)."""
    cls = POLICY_RULES.get(getattr(rule, "kind", None))
    if cls is None or type(rule) is not cls:
        raise PolicyError(
            f"not a registered policy rule: {rule!r}"
            f" (known kinds: {sorted(POLICY_RULES)})"
        )
    payload = {"kind": rule.kind}
    for field_ in fields(rule):
        payload[field_.name] = getattr(rule, field_.name)
    return payload


def policy_json(rule) -> str:
    """Render one policy rule as canonical JSON."""
    return json.dumps(policy_dict(rule), sort_keys=True)


def load_policy(data):
    """Load one policy rule from a dict or JSON string.

    Inverse of :func:`policy_dict` / :func:`policy_json`; raises
    :class:`~repro.errors.PolicyError` naming the offending kind or
    parameter.
    """
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise PolicyError(
                f"policy payload is not valid JSON ({exc.msg})"
            ) from exc
    if not isinstance(data, dict):
        raise PolicyError(
            f"policy payload must be an object, got {type(data).__name__}"
        )
    kind = data.get("kind")
    cls = POLICY_RULES.get(kind)
    if cls is None:
        raise PolicyError(
            f"unknown policy rule kind {kind!r}"
            f" (known: {sorted(POLICY_RULES)})"
        )
    params = {key: value for key, value in data.items() if key != "kind"}
    known = {field_.name for field_ in fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise PolicyError(
            f"policy rule {kind!r} got unknown parameters {unknown}"
            f" (accepts: {sorted(known)})"
        )
    try:
        return cls(**params)
    except TypeError as exc:
        raise PolicyError(f"policy rule {kind!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# The extracted legacy strategies (the `default` bundle's rules)
# ---------------------------------------------------------------------------

@register_policy("shard-assign")
@dataclass(frozen=True)
class ShardPolicyAssign:
    """Shard assignment — the three ``shard_policy`` arithmetics.

    ``static-hash`` places by :func:`static_hash_index` over the *alive*
    list, ``least-loaded`` picks the fewest active vehicles (index
    tie-break), ``round-robin`` cycles a counter held in the engine's
    per-rule memory.
    """

    point = "assign"
    overrides = ()
    policy: str = POLICY_STATIC_HASH

    def __post_init__(self) -> None:
        if self.policy not in SHARD_POLICIES:
            raise PolicyError(
                f"shard-assign: unknown shard policy {self.policy!r}"
                f" (accepts: {list(SHARD_POLICIES)})"
            )

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Pick a shard for ``state.vehicle`` by the configured policy."""
        alive = state.alive()
        if not alive:
            return None
        if self.policy == POLICY_STATIC_HASH:
            bucket = static_hash_index(state.vehicle.device_id, len(alive))
            return Decision(target_shard=alive[bucket].index)
        if self.policy == POLICY_LEAST_LOADED:
            choice = min(alive, key=lambda s: (s.active_vehicles, s.index))
            return Decision(target_shard=choice.index)
        count = memory.get("round_robin", 0)
        memory["round_robin"] = count + 1
        return Decision(target_shard=alive[count % len(alive)].index)


@register_policy("roam-cadence")
@dataclass(frozen=True)
class RoamCadence:
    """Roamer cadence — migrate to the next alive shard every
    ``roam_every`` delivered records (profile-driven).

    Bit-identical extraction of the orchestrator's ``_maybe_roam``
    guard chain; fires with ``roam=True`` so the orchestrator applies
    the roam bookkeeping (``last_roam_records`` marker, ``roams``
    counter) exactly as before.
    """

    point = "migrate"
    overrides = ()

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Roam to the next alive shard when the cadence is hit."""
        vehicle = state.vehicle
        if vehicle.roam_every is None:
            return None
        if vehicle.records_sent <= 0:
            return None
        if vehicle.records_sent % vehicle.roam_every != 0:
            return None
        if vehicle.records_sent == vehicle.last_roam_records:
            return None
        if vehicle.migrating or vehicle.re_enrolling:
            return None
        alive = state.alive()
        shard = state.shard_view(vehicle.shard)
        if len(alive) < 2 or shard is None or shard.failed:
            return None
        successors = [view for view in alive if view.index > vehicle.shard]
        target = successors[0] if successors else alive[0]
        if target.index == vehicle.shard:
            return None
        return Decision(target_shard=target.index, roam=True)


@register_policy("threshold-rebalance")
@dataclass(frozen=True)
class ThresholdRebalance:
    """Imbalance-triggered migration — the legacy ``migrate_threshold``.

    Bit-identical extraction of the orchestrator's ``_maybe_migrate``:
    move a vehicle to the least-loaded alive shard when its current
    shard holds more than ``threshold`` more active vehicles.
    """

    point = "migrate"
    overrides = ()
    threshold: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.threshold, int) or self.threshold < 1:
            raise PolicyError(
                "threshold-rebalance: threshold must be an int >= 1,"
                f" got {self.threshold!r}"
            )

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Migrate to the least-loaded shard past the head-count gap."""
        vehicle = state.vehicle
        if (
            vehicle.migrating
            or vehicle.re_enrolling
            or vehicle.pinned_shard is not None
        ):
            return None
        shard = state.shard_view(vehicle.shard)
        if shard is None or shard.failed:
            return None
        alive = state.alive()
        if len(alive) < 2:
            return None
        target = min(alive, key=lambda s: (s.active_vehicles, s.index))
        if target.index == shard.index:
            return None
        if shard.active_vehicles - target.active_vehicles <= self.threshold:
            return None
        return Decision(target_shard=target.index)


@register_policy("session-expiry-rekey")
@dataclass(frozen=True)
class SessionExpiryRekey:
    """Re-key when the session managers report the budget exhausted.

    The legacy cadence: fire exactly when ``rekey_due`` — the
    precomputed ``needs_rekey`` verdict of either session half — is
    set.  Every bundle includes this rule (last, as the backstop), so a
    due re-key is never dropped.
    """

    point = "rekey"
    overrides = ()

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Re-key exactly when the managers report the budget spent."""
        if state.rekey_due:
            return Decision(rekey=True)
        return None


# ---------------------------------------------------------------------------
# Alternative strategies
# ---------------------------------------------------------------------------

@register_policy("utilisation-rebalance")
@dataclass(frozen=True)
class UtilisationRebalance:
    """Migrate vehicles off any shard above ``max_utilisation``.

    Alternative to :class:`ThresholdRebalance`: instead of a fixed
    head-count gap, move a vehicle when its shard carries more than the
    given share of all active vehicles (default 80 %).  A per-vehicle
    cool-down in the rule memory requires at least one delivered record
    between fires, so two shards can never ping-pong a vehicle without
    it making progress.
    """

    point = "migrate"
    overrides = ("migrate_threshold",)
    max_utilisation: float = 0.8

    def __post_init__(self) -> None:
        if not (0.0 < float(self.max_utilisation) <= 1.0):
            raise PolicyError(
                "utilisation-rebalance: max_utilisation must be in (0, 1],"
                f" got {self.max_utilisation!r}"
            )

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Migrate off an over-utilised shard (with per-vehicle cool-down)."""
        vehicle = state.vehicle
        if (
            vehicle.migrating
            or vehicle.re_enrolling
            or vehicle.pinned_shard is not None
        ):
            return None
        shard = state.shard_view(vehicle.shard)
        if shard is None or shard.failed:
            return None
        alive = state.alive()
        if len(alive) < 2:
            return None
        if shard.utilisation <= self.max_utilisation:
            return None
        if vehicle.records_sent <= memory.get(vehicle.index, -1):
            return None
        target = min(
            (view for view in alive if view.index != shard.index),
            key=lambda s: (s.active_vehicles, s.index),
        )
        memory[vehicle.index] = vehicle.records_sent
        return Decision(target_shard=target.index)


@register_policy("storm-rekey")
@dataclass(frozen=True)
class StormRekey:
    """Tighten the re-key budget while a replay storm is active.

    For ``window_ms`` after an adversarial replay-storm injection
    fires, re-key as soon as the current session has carried ``budget``
    records — well before the managers' own budget would — limiting how
    much traffic any key replayed during the storm window protects.
    Reads the raw session record count snapshot (side-effect free);
    never suppresses a due re-key (:class:`SessionExpiryRekey` runs
    after it as the backstop).
    """

    point = "rekey"
    overrides = ()
    window_ms: float = 2000.0
    budget: int = 4

    def __post_init__(self) -> None:
        if not (float(self.window_ms) > 0.0):
            raise PolicyError(
                f"storm-rekey: window_ms must be > 0, got {self.window_ms!r}"
            )
        if not isinstance(self.budget, int) or self.budget < 1:
            raise PolicyError(
                f"storm-rekey: budget must be an int >= 1, got {self.budget!r}"
            )

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Re-key early while inside an active replay-storm window."""
        if state.last_storm_ms is None:
            return None
        if state.now_ms - state.last_storm_ms > self.window_ms:
            return None
        if state.session_records >= self.budget:
            return Decision(rekey=True)
        return None


@register_policy("failover-spread")
@dataclass(frozen=True)
class FailoverSpread:
    """Spread failover adoptions over the least-loaded alive shards.

    The legacy failover path adopts orphans via the configured
    ``shard_policy`` (static-hash keeps a vehicle's identity placement,
    which can dog-pile one survivor).  This rule adopts onto the
    least-loaded alive shard instead, defer-ing (``None``) for vehicles
    whose alive pin the orchestrator must honor.
    """

    point = "failover"
    overrides = ()

    def evaluate(self, state: FleetState, memory: dict) -> Decision | None:
        """Adopt an orphaned vehicle onto the least-loaded alive shard."""
        alive = state.alive()
        if not alive:
            return None
        vehicle = state.vehicle
        if vehicle.pinned_shard is not None:
            pinned = state.shard_view(vehicle.pinned_shard)
            if pinned is not None and not pinned.failed:
                return None
        target = min(alive, key=lambda s: (s.active_vehicles, s.index))
        return Decision(target_shard=target.index)


# ---------------------------------------------------------------------------
# Bundles
# ---------------------------------------------------------------------------

def _wants_roam(schedule) -> bool:
    if schedule is None:
        return False
    return any(
        profile.roam_every is not None
        for profile in schedule.profiles.values()
    )


def _default_rules(config, schedule) -> tuple:
    rules = [ShardPolicyAssign(policy=config.shard_policy)]
    if _wants_roam(schedule):
        rules.append(RoamCadence())
    if config.migrate_threshold is not None:
        rules.append(ThresholdRebalance(threshold=config.migrate_threshold))
    rules.append(SessionExpiryRekey())
    return tuple(rules)


def _utilisation_rules(config, schedule) -> tuple:
    rules = [ShardPolicyAssign(policy=config.shard_policy)]
    if _wants_roam(schedule):
        rules.append(RoamCadence())
    rules.append(UtilisationRebalance())
    rules.append(SessionExpiryRekey())
    return tuple(rules)


def _storm_hardened_rules(config, schedule) -> tuple:
    rules = list(_default_rules(config, schedule))
    # Storm rule first: under an active storm it pre-empts (and is
    # attributed for) re-keys the expiry backstop would fire later.
    rules.insert(len(rules) - 1, StormRekey())
    return tuple(rules)


def _failover_spread_rules(config, schedule) -> tuple:
    return _default_rules(config, schedule) + (FailoverSpread(),)


#: name → factory ``(config, schedule) -> tuple[rules]``.
POLICY_BUNDLES = {
    "default": _default_rules,
    "utilisation-rebalance": _utilisation_rules,
    "storm-hardened": _storm_hardened_rules,
    "failover-spread": _failover_spread_rules,
}

#: Config knobs each bundle replaces with its own strategy.  Setting
#: the knob explicitly *and* selecting the bundle is ambiguous and is
#: rejected by ``FleetConfig`` validation (see :func:`bundle_conflict`).
BUNDLE_OVERRIDES = {
    "utilisation-rebalance": ("migrate_threshold",),
}


def bundle_conflict(name: str, config) -> str | None:
    """The conflict message for ``config`` + bundle ``name``, or None.

    A bundle listed in :data:`BUNDLE_OVERRIDES` replaces the named
    config knobs; an explicitly-set knob alongside it would be silently
    ignored, so the combination is reported as a conflict instead.
    """
    for knob in BUNDLE_OVERRIDES.get(name, ()):
        value = getattr(config, knob)
        if value is not None:
            return (
                f"policy bundle {name!r} overrides {knob}, but"
                f" {knob}={value!r} was also set explicitly;"
                f" drop {knob} or select a bundle that honors it"
            )
    return None


def resolve_policies(config, schedule=None) -> tuple:
    """The rule tuple a run executes: scenario rules, then the bundle.

    Scenario-shipped rules (``Scenario.policies``) come first so they
    can pre-empt the bundle at shared decision points; the bundle named
    by ``config.policy`` (``None`` means ``default``) supplies the
    baseline strategies after them.
    """
    name = config.policy or "default"
    factory = POLICY_BUNDLES.get(name)
    if factory is None:
        raise PolicyError(
            f"unknown policy bundle {name!r}"
            f" (known: {sorted(POLICY_BUNDLES)})"
        )
    conflict = bundle_conflict(name, config)
    if conflict is not None:
        raise PolicyError(conflict)
    scenario_rules = ()
    if schedule is not None:
        scenario_rules = tuple(schedule.scenario.policies)
    return scenario_rules + tuple(factory(config, schedule))


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _silent(step, vehicle=None, detail="", **data) -> None:
    """The narrator of an engine that runs outside an orchestrator."""


class PolicyEngine:
    """Evaluates registered rules at the fleet's decision points.

    Rules are grouped by point and evaluated in declaration order; the
    first non-``None`` :class:`Decision` wins and is validated (target
    must be an alive, in-range shard; a re-key decision must request a
    re-key) before being stamped with the winning rule's kind.  Each
    rule gets a private ``memory`` dict for counters and cool-downs.

    ``decision_counts`` tallies ``(point, kind) -> fires`` for the
    ablation benchmark.  ``note`` is the orchestrator's lifecycle
    narrator: each decision is reported to it as a ``policy`` step,
    which an attached observer turns into a span event and a
    ``policy.<point>`` counter.
    """

    def __init__(self, rules, note=_silent) -> None:
        self._note = note
        self._points: dict = {point: [] for point in DECISION_POINTS}
        self.decision_counts: dict = {}
        for rule in rules:
            cls = POLICY_RULES.get(getattr(rule, "kind", None))
            if cls is None or type(rule) is not cls:
                raise PolicyError(
                    f"not a registered policy rule: {rule!r}"
                    f" (known kinds: {sorted(POLICY_RULES)})"
                )
            point = getattr(rule, "point", None)
            if point not in self._points:
                raise PolicyError(
                    f"policy rule {rule.kind!r} declares unknown decision"
                    f" point {point!r} (accepts: {list(DECISION_POINTS)})"
                )
            self._points[point].append((rule, {}))
        self.only_default_rekey = all(
            isinstance(rule, SessionExpiryRekey)
            for rule, _ in self._points["rekey"]
        )

    def has_rules(self, point: str) -> bool:
        """Whether any rule is installed at ``point``."""
        if point not in self._points:
            raise PolicyError(
                f"unknown decision point {point!r}"
                f" (accepts: {list(DECISION_POINTS)})"
            )
        return bool(self._points[point])

    def decide(self, point: str, state: FleetState) -> Decision | None:
        """First-match evaluation of ``point``'s rules against ``state``."""
        for rule, memory in self._points[point]:
            decision = rule.evaluate(state, memory)
            if decision is None:
                continue
            decision = replace(decision, rule=rule.kind, point=point)
            self._validate(decision, state, rule)
            key = (point, rule.kind)
            self.decision_counts[key] = self.decision_counts.get(key, 0) + 1
            self._note(
                "policy",
                state.vehicle,
                point=point,
                rule=rule.kind,
                target_shard=decision.target_shard,
            )
            return decision
        return None

    @staticmethod
    def _validate(decision: Decision, state: FleetState, rule) -> None:
        if decision.point in ("assign", "migrate", "failover"):
            target = decision.target_shard
            if target is None or not (0 <= target < len(state.shards)):
                raise PolicyError(
                    f"policy rule {rule.kind!r} chose out-of-range shard"
                    f" {target!r} at the {decision.point!r} point"
                    f" ({len(state.shards)} shards)"
                )
            if state.shards[target].failed:
                raise PolicyError(
                    f"policy rule {rule.kind!r} chose failed shard {target}"
                    f" at the {decision.point!r} point"
                )
            if decision.point == "migrate" and target == state.vehicle.shard:
                raise PolicyError(
                    f"policy rule {rule.kind!r} asked to migrate"
                    f" {state.vehicle.name} onto its own shard {target}"
                )
        elif not decision.rekey:
            raise PolicyError(
                f"policy rule {rule.kind!r} fired at the rekey point"
                " without requesting a rekey"
            )
