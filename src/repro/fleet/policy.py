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
``tests/fleet/test_goldens.py``).  Three guarantees make that
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
into named **bundles** selected by ``FleetConfig.policy``.  The rule
tuple :func:`resolve_policies` returns owns a run's strategy:
``FleetConfig`` resolves it at construction (anything the rules reject,
such as ``migrate_threshold`` under ``utilisation-rebalance``, which
would silently drop it, is a :class:`~repro.errors.ConfigError`), and
:func:`~repro.fleet.parallel.partition_plan` splits a run across
workers only when every resolved rule declares ``shard_local``.

Spec fields are checked in one place.  A rule with knobs subclasses
:class:`CheckedSpec` and declares each knob's type by annotation and its
range with :func:`bound`; construction rejects anything else with a
:class:`~repro.errors.PolicyError` naming the rule and the knob.  The
scenario parts and :class:`~repro.fleet.FleetConfig` use the same check
with their own error types.

>>> from repro.fleet.policy import ThresholdRebalance, load_policy, policy_dict
>>> rule = ThresholdRebalance(threshold=2)
>>> policy_dict(rule)
{'kind': 'threshold-rebalance', 'threshold': 2}
>>> load_policy(policy_dict(rule)) == rule
True
"""

from __future__ import annotations

import functools
import json
import math
import operator
import typing
from dataclasses import MISSING, dataclass, field, fields, replace

from ..errors import PolicyError
from ..primitives import sha256

__all__ = [
    "DECISION_POINTS",
    "POLICY_LEAST_LOADED",
    "POLICY_ROUND_ROBIN",
    "POLICY_STATIC_HASH",
    "POLICY_BUNDLES",
    "POLICY_RULES",
    "CheckedSpec",
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
    "bound",
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
    loadable by :func:`load_policy` and usable in scenario specs.  A
    class whose decisions read nothing that differs between one shard
    partition and the whole run may set ``shard_local = True``; without
    it a run that installs the rule never splits across workers.  An
    ``assign`` rule that sets it must place by :func:`static_hash_index`,
    which workers use to predict each arrival's shard.
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


def _check_registered(rule) -> None:
    """Raise :class:`~repro.errors.PolicyError` unless ``rule`` is an
    instance of exactly the class registered under its kind."""
    cls = POLICY_RULES.get(getattr(rule, "kind", None))
    if cls is None or type(rule) is not cls:
        raise PolicyError(
            f"not a registered policy rule: {rule!r}"
            f" (known kinds: {sorted(POLICY_RULES)})"
        )


def policy_dict(rule) -> dict:
    """Render one policy rule as a JSON-compatible dict (lossless)."""
    _check_registered(rule)
    payload = {"kind": rule.kind}
    for field_ in fields(rule):
        payload[field_.name] = getattr(rule, field_.name)
    return payload


def policy_json(rule) -> str:
    """Render one policy rule as canonical JSON."""
    return json.dumps(policy_dict(rule), sort_keys=True)


def _json_object(data, what: str, error: type) -> dict:
    """``data`` as a mapping, parsed first when it is a JSON string."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise error(
                f"{what} payload is not valid JSON ({exc.msg})"
            ) from exc
    if not isinstance(data, dict):
        raise error(
            f"{what} payload must be an object, got {type(data).__name__}"
        )
    return data


def _load_kinded(data, registry: dict, what: str, error: type):
    """Build one kinded spec dataclass from a mapping or its JSON string.

    ``data["kind"]`` picks the class from ``registry``; the other keys
    are its fields.  Malformed JSON, an unknown kind, an unknown or
    missing field, or a value the spec rejects raises ``error`` naming
    ``what``, the kind and the offending fields.  Policy rules and
    scenario parts load through it, differing only in ``error``.
    """
    data = _json_object(data, what, error)
    kind = data.get("kind")
    cls = registry.get(kind)
    if cls is None:
        raise error(
            f"unknown {what} kind {kind!r} (known: {sorted(registry)})"
        )
    params = {key: value for key, value in data.items() if key != "kind"}
    known = {field_.name for field_ in fields(cls)}
    unknown = sorted(set(params) - known)
    if unknown:
        raise error(
            f"{what} {kind!r} got unknown parameters {unknown}"
            f" (accepts: {sorted(known)})"
        )
    try:
        return cls(**params)
    except (TypeError, error) as exc:
        # A missing field, or a value the spec's own checks reject.
        raise error(f"{what} {kind!r} rejects {params}: {exc}") from exc


def bound(default=MISSING, *, ge=None, gt=None, le=None):
    """Declare a spec field's range once, on the field.

    ``ge`` and ``gt`` are an inclusive and an exclusive lower bound,
    ``le`` an inclusive upper bound; the annotation gives the type.
    :class:`CheckedSpec` enforces both at construction.
    """
    limits = {"ge": ge, "gt": gt, "le": le}
    return field(
        default=default,
        metadata={"bound": {k: v for k, v in limits.items() if v is not None}},
    )


_COMPARE = {"ge": operator.ge, "gt": operator.gt, "le": operator.le}
_SIGN = {"ge": ">=", "gt": ">", "le": "<="}
_NOUN = {int: "an int", float: "a finite number", bool: "a bool",
         str: "a str", bytes: "bytes"}


def _expectation(kind: type, optional: bool, limits: dict) -> str:
    """What a field accepts, in words: ``an int >= 1``."""
    text = _NOUN.get(kind, f"a {kind.__name__}")
    if len(limits) == 2 and "le" in limits:
        low = "ge" if "ge" in limits else "gt"
        opening = "[" if low == "ge" else "("
        text += f" in {opening}{limits[low]}, {limits['le']}]"
    else:
        for op, limit in limits.items():
            text += f" {_SIGN[op]} {limit}"
    return text + " or None" if optional else text


def _fits(kind: type, value) -> bool:
    """Whether ``value`` has the declared type; nothing is coerced.

    A ``bool`` is only a ``bool``, and a ``float`` field takes a finite
    ``int`` or ``float``.
    """
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, int) or (
            isinstance(value, float) and math.isfinite(value)
        )
    return isinstance(value, kind)


@functools.cache
def _declarations(cls) -> tuple:
    """``(name, kind, optional, comparisons, expectation)`` per field."""
    hints = typing.get_type_hints(cls)
    table = []
    for spec_field in fields(cls):
        hint = hints[spec_field.name]
        # ``X | None`` declares an optional ``X``.
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        kind = args[0] if args else hint
        optional = kind is not hint
        limits = spec_field.metadata.get("bound", {})
        table.append((
            spec_field.name,
            kind,
            optional,
            tuple((_COMPARE[op], limit) for op, limit in limits.items()),
            _expectation(kind, optional, limits),
        ))
    return tuple(table)


class CheckedSpec:
    """Base of the fleet specs: every field is checked against its declaration.

    Construction checks each field's value against its annotation (an
    ``int``, a finite number, a ``bool``, a ``str``, ``bytes`` or a
    class; ``None`` only where the annotation allows it) and its
    :func:`bound`, and raises the class's ``error`` naming the spec and
    the field.  Policy rules raise :class:`~repro.errors.PolicyError`;
    scenario parts and :class:`~repro.fleet.FleetConfig` set their own
    ``error``.  A subclass's own ``__post_init__`` calls this one first
    and adds only the checks that span fields or name a registry.
    """

    error = PolicyError

    def _owner(self) -> str:
        """How messages name the spec: its kind, else its class."""
        return getattr(self, "kind", type(self).__name__)

    def __post_init__(self) -> None:
        declarations = _declarations(type(self))
        for name, kind, optional, comparisons, expected in declarations:
            value = getattr(self, name)
            if value is None and optional:
                continue
            if not _fits(kind, value) or not all(
                compare(value, limit) for compare, limit in comparisons
            ):
                raise self.error(
                    f"{self._owner()}: {name} must be {expected},"
                    f" got {value!r}"
                )


def load_policy(data):
    """Load one policy rule from a dict or JSON string.

    Inverse of :func:`policy_dict` / :func:`policy_json`; raises
    :class:`~repro.errors.PolicyError` naming the offending kind or
    parameter.
    """
    return _load_kinded(data, POLICY_RULES, "policy rule", PolicyError)


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
    policy: str = POLICY_STATIC_HASH

    @property
    def shard_local(self) -> bool:
        """Only ``static-hash`` places without fleet-wide loads or counters."""
        return self.policy == POLICY_STATIC_HASH

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

    Installed when a schedule profile roams, and checked at the
    ``migrate`` decision point of every application send; fires with
    ``roam=True`` so the orchestrator applies the roam bookkeeping
    (``last_roam_records`` marker, ``roams`` counter).
    """

    point = "migrate"

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
class ThresholdRebalance(CheckedSpec):
    """Imbalance-triggered migration — ``FleetConfig.migrate_threshold``.

    Checked at the ``migrate`` decision point of every application
    send: move a vehicle to the least-loaded alive shard when its
    current shard holds more than ``threshold`` more active vehicles.
    """

    point = "migrate"
    threshold: int = bound(1, ge=1)

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
    shard_local = True

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
class UtilisationRebalance(CheckedSpec):
    """Migrate vehicles off any shard above ``max_utilisation``.

    Alternative to :class:`ThresholdRebalance`: instead of a fixed
    head-count gap, move a vehicle when its shard carries more than the
    given share of all active vehicles (default 80 %).  A per-vehicle
    cool-down in the rule memory requires at least one delivered record
    between fires, so two shards can never ping-pong a vehicle without
    it making progress.
    """

    point = "migrate"
    max_utilisation: float = bound(0.8, gt=0, le=1)

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
class StormRekey(CheckedSpec):
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
    window_ms: float = bound(2000.0, gt=0)
    budget: int = bound(4, ge=1)

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
    if config.migrate_threshold is not None:
        # The bundle replaces the threshold re-balancer; an explicit
        # threshold would be silently ignored.
        raise PolicyError(
            "policy bundle 'utilisation-rebalance' overrides"
            " migrate_threshold, but"
            f" migrate_threshold={config.migrate_threshold!r} was also set"
            " explicitly; drop migrate_threshold or select a bundle that"
            " honors it"
        )
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


def resolve_policies(config, schedule=None) -> tuple:
    """The rule tuple a run executes: scenario rules, then the bundle.

    Scenario-shipped rules (``Scenario.policies``) come first so they
    can pre-empt the bundle at shared decision points; the bundle named
    by ``config.policy`` (``None`` means ``default``) supplies the
    baseline strategies after them.  ``schedule`` is the run's compiled
    :class:`~repro.fleet.scenario.ScenarioSchedule`; ``FleetConfig``
    validates its knobs before any schedule exists, with ``None``.  An
    unknown bundle, a knob the bundle would silently drop, or a knob its
    rules reject raises :class:`~repro.errors.PolicyError`.
    """
    name = config.policy or "default"
    factory = POLICY_BUNDLES.get(name)
    if factory is None:
        raise PolicyError(
            f"unknown policy bundle {name!r}"
            f" (known: {sorted(POLICY_BUNDLES)})"
        )
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
            _check_registered(rule)
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
