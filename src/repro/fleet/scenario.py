"""Declarative workload scenarios for fleet orchestration runs.

Every fleet run before this module drove one workload shape: enrollment
arrivals jittered uniformly over ``[0, arrival_spread_ms)`` and every
vehicle sending the same record stream.  A :class:`Scenario` makes the
workload itself declarative — a deterministic, JSON-round-trippable spec
composed of three pluggable parts:

* **Arrival processes** — how the fleet wakes up: :class:`UniformArrivals`
  (the bit-compatible legacy jitter), :class:`PoissonArrivals` (open-road
  memoryless arrivals), :class:`BurstArrivals` (rush-hour waves) and
  :class:`DiurnalArrivals` (a sinusoidal intensity ramp inverted by
  bisection).
* **Behavior profiles** (:class:`BehaviorProfile`) — how vehicles behave
  once enrolled: commuter cadences (per-vehicle record budgets, send
  intervals and re-key budgets), platoon convoys (members arrive together
  and pin to one shard) and roamers (periodically live-migrate across
  shards).
* **Adversarial injections** — the :mod:`repro.security.attacks` threat
  model lifted to fleet scale: :class:`ReplayStorm` (captured application
  records replayed at a gateway), :class:`StaleCertFlood` (retired
  chain-epoch certificates presented after a gateway rejoin) and
  :class:`CaQueueFlood` (forged enrollment requests flooding a shard CA's
  issuance queue).  Every injection runs real cryptography against the
  live fleet and is accounted as attempts vs. rejections — successful
  forgeries would be visible (and are asserted zero by the benchmarks).

:func:`compile_scenario` turns a spec plus a
:class:`~repro.fleet.FleetConfig` into a :class:`ScenarioSchedule` — the
fully resolved per-vehicle arrival times, profile assignments, convoy
pins and time-ordered injections the
:class:`~repro.fleet.FleetOrchestrator` consumes.  Compilation is a pure
function of ``(spec, seed)``: equal inputs produce bit-identical
schedules (:meth:`ScenarioSchedule.digest`).  A run given no scenario
executes the compiled ``legacy-uniform`` schedule, so every run reads
its workload from one schedule.

Specs round-trip through JSON losslessly: ``load_scenario(s.as_dict())
== s`` and ``load_scenario(json.dumps(s.as_dict())) == s``.  Each part
declares a field's type by annotation and its range with
:func:`~repro.fleet.policy.bound`; construction checks both (a ``bool``
is no count, NaN no time, nothing is coerced) and raises a
:class:`~repro.errors.ScenarioError` naming the part and the field.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, fields

from ..errors import ScenarioError
from ..primitives import sha256
from .policy import (
    POLICY_RULES,
    CheckedSpec,
    _json_object,
    _load_kinded,
    bound,
    load_policy,
    policy_dict,
)

__all__ = [
    "ARRIVAL_KINDS",
    "BehaviorProfile",
    "BurstArrivals",
    "CaQueueFlood",
    "CompiledProfile",
    "DiurnalArrivals",
    "INJECTION_KINDS",
    "NAMED_SCENARIOS",
    "PoissonArrivals",
    "ReplayStorm",
    "Scenario",
    "ScenarioSchedule",
    "StaleCertFlood",
    "UniformArrivals",
    "compile_scenario",
    "get_scenario",
    "load_scenario",
]


def _seed_rng(seed: bytes, label: bytes) -> random.Random:
    """A deterministic PRNG stream derived from the master seed."""
    return random.Random(int.from_bytes(sha256(seed + label), "big"))


def _require(condition: bool, message: str) -> None:
    """Raise a :class:`~repro.errors.ScenarioError` unless ``condition``."""
    if not condition:
        raise ScenarioError(message)


class _Part(CheckedSpec):
    """A scenario part; its field checks raise ``ScenarioError``."""

    error = ScenarioError


# -- arrival processes ---------------------------------------------------------


@dataclass(frozen=True)
class UniformArrivals(_Part):
    """Legacy arrivals: uniform jitter over ``[0, spread_ms)``.

    With ``spread_ms=None`` the spread comes from
    ``config.arrival_spread_ms``: the arrivals of the ``legacy-uniform``
    scenario, which a run given no scenario executes — the stream every
    golden digest relies on.

    Attributes:
        spread_ms: jitter window in simulated ms (``None`` = take the
            config's ``arrival_spread_ms``).
    """

    spread_ms: float | None = bound(None, ge=0)

    kind = "uniform"

    def compile(self, config) -> tuple[float, ...]:
        """Per-vehicle arrival times, replaying the legacy jitter stream."""
        spread = (
            config.arrival_spread_ms
            if self.spread_ms is None
            else self.spread_ms
        )
        rng = _seed_rng(config.seed, b"|arrivals")
        return tuple(
            rng.uniform(0.0, spread) for _ in range(config.n_vehicles)
        )


@dataclass(frozen=True)
class PoissonArrivals(_Part):
    """Memoryless arrivals: exponential inter-arrival gaps.

    Attributes:
        rate_per_s: mean arrivals per simulated second (> 0).
    """

    rate_per_s: float = bound(50.0, gt=0)

    kind = "poisson"

    def compile(self, config) -> tuple[float, ...]:
        """Cumulative exponential gaps drawn from the scenario stream."""
        rng = _seed_rng(config.seed, b"|scenario|poisson")
        rate_per_ms = self.rate_per_s / 1000.0
        now = 0.0
        times = []
        for _ in range(config.n_vehicles):
            now += rng.expovariate(rate_per_ms)
            times.append(now)
        return tuple(times)


@dataclass(frozen=True)
class BurstArrivals(_Part):
    """Rush-hour waves: the fleet arrives in ``waves`` separated bursts.

    Vehicles are split into contiguous index blocks, one per wave; wave
    ``w`` arrives jittered uniformly over
    ``[w * wave_interval_ms, w * wave_interval_ms + wave_spread_ms)``.
    ``wave_spread_ms`` must not exceed ``wave_interval_ms`` — overlapping
    waves are a spec error, not a silently merged workload.

    Attributes:
        waves: number of bursts (>= 1).
        wave_interval_ms: spacing between wave starts (> 0).
        wave_spread_ms: jitter window within a wave (>= 0).
    """

    waves: int = bound(3, ge=1)
    wave_interval_ms: float = bound(500.0, gt=0)
    wave_spread_ms: float = bound(100.0, ge=0)

    kind = "burst"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(
            self.wave_spread_ms <= self.wave_interval_ms,
            f"burst waves overlap: wave_spread_ms {self.wave_spread_ms} >"
            f" wave_interval_ms {self.wave_interval_ms}; shrink the spread"
            " or widen the interval",
        )

    def compile(self, config) -> tuple[float, ...]:
        """Wave start plus in-wave jitter, vehicles blocked by index."""
        rng = _seed_rng(config.seed, b"|scenario|burst")
        n = config.n_vehicles
        times = []
        for index in range(n):
            wave = index * self.waves // n
            times.append(
                wave * self.wave_interval_ms
                + rng.uniform(0.0, self.wave_spread_ms)
            )
        return tuple(times)


@dataclass(frozen=True)
class DiurnalArrivals(_Part):
    """A diurnal intensity ramp over one period.

    Arrival intensity follows ``1 + amplitude * sin(2*pi*t/T - pi/2)`` —
    a trough at ``t=0`` ramping to a peak at ``T/2`` and back.  Each
    vehicle's arrival is the inverse CDF of a uniform draw, solved by
    bisection (deterministic; no closed form needed).

    Attributes:
        period_ms: the period ``T`` the whole fleet arrives within (> 0).
        amplitude: peak-to-mean intensity swing in ``[0, 1]``.
    """

    period_ms: float = bound(2_000.0, gt=0)
    amplitude: float = bound(0.9, ge=0, le=1)

    kind = "diurnal"

    def _cdf(self, t: float) -> float:
        period = self.period_ms
        return (
            t
            - (self.amplitude * period / (2.0 * math.pi))
            * math.sin(2.0 * math.pi * t / period)
        ) / period

    def compile(self, config) -> tuple[float, ...]:
        """Inverse-CDF sampling of the sinusoidal intensity by bisection."""
        rng = _seed_rng(config.seed, b"|scenario|diurnal")
        times = []
        for _ in range(config.n_vehicles):
            u = rng.random()
            lo, hi = 0.0, self.period_ms
            for _ in range(60):  # ~1e-18 relative precision, deterministic
                mid = (lo + hi) / 2.0
                if self._cdf(mid) < u:
                    lo = mid
                else:
                    hi = mid
            times.append((lo + hi) / 2.0)
        return tuple(times)


#: Registry of arrival-process kinds for JSON deserialization.
ARRIVAL_KINDS = {
    cls.kind: cls
    for cls in (UniformArrivals, PoissonArrivals, BurstArrivals, DiurnalArrivals)
}


# -- behavior profiles ---------------------------------------------------------


@dataclass(frozen=True)
class BehaviorProfile(_Part):
    """How a block of vehicles behaves once enrolled.

    Profiles claim vehicles in spec order from index 0 (the first profile
    takes the first ``count`` vehicles and so on); unclaimed vehicles keep
    the config-default behavior.  ``None`` fields inherit the config.

    Attributes:
        name: profile identity (unique within a scenario; shows up in the
            stats' profile counters).  The empty name is reserved for
            the config-default profile of unclaimed vehicles.
        count: vehicles this profile claims (>= 1).
        records_per_vehicle: per-vehicle record budget override.
        send_interval_ms: per-vehicle record spacing override.
        max_records: per-vehicle session-key record budget override — a
            commuter re-key cadence tighter (or looser) than the fleet
            policy, enforced by the vehicle-side session manager.
        roam_every: live-migrate to the next alive shard after every
            ``roam_every`` delivered records (a roamer; needs >= 2 shards
            to ever fire).
        convoy_size: partition the claimed vehicles into convoys of this
            size; each convoy arrives together (at its leader's compiled
            time) and pins to one seed-derived shard (a platoon).
    """

    name: str
    count: int = bound(ge=1)
    records_per_vehicle: int | None = bound(None, ge=1)
    send_interval_ms: float | None = bound(None, gt=0)
    max_records: int | None = bound(None, ge=1)
    roam_every: int | None = bound(None, ge=1)
    convoy_size: int | None = bound(None, ge=2)

    kind = "profile"

    def _owner(self) -> str:
        """Messages name the profile, not just its kind."""
        return f"profile {self.name!r}"

    def __post_init__(self) -> None:
        super().__post_init__()
        _require(bool(self.name), "behavior profiles need a non-empty name")
        _require(
            self.roam_every is None or self.convoy_size is None,
            f"profile {self.name!r} cannot both roam and pin to a convoy"
            " shard; split it into two profiles",
        )


_PROFILE_KINDS = {BehaviorProfile.kind: BehaviorProfile}


@dataclass(frozen=True)
class CompiledProfile:
    """A profile resolved against one config (all ``None`` filled in)."""

    name: str
    records_per_vehicle: int
    send_interval_ms: float
    max_records: int | None
    roam_every: int | None

    @classmethod
    def resolve(
        cls, profile: "BehaviorProfile | None", config
    ) -> "CompiledProfile":
        """Fill a profile's inherited fields from the fleet config.

        ``None`` resolves the behavior of a vehicle no profile claims:
        the config's own, under the reserved name ``""``.
        """
        if profile is None:
            return cls("", config.records_per_vehicle,
                       config.send_interval_ms, None, None)
        return cls(
            name=profile.name,
            records_per_vehicle=(
                config.records_per_vehicle
                if profile.records_per_vehicle is None
                else profile.records_per_vehicle
            ),
            send_interval_ms=(
                config.send_interval_ms
                if profile.send_interval_ms is None
                else profile.send_interval_ms
            ),
            max_records=profile.max_records,
            roam_every=profile.roam_every,
        )


# -- adversarial injections ----------------------------------------------------


@dataclass(frozen=True)
class ReplayStorm(_Part):
    """Replay captured application records against a gateway shard.

    The adversary records vehicle→gateway wire traffic (the orchestrator
    keeps the capture when this injection is scheduled) and at ``at_ms``
    replays the freshest captured record of each victim back at the
    target gateway, cycling victims until ``replays`` attempts are spent.
    Every attempt runs the real record-channel verification on the
    gateway (priced on the shard's resource — the storm costs the
    gateway real time) and must be rejected: sequence-window enforcement
    kills verbatim replays, and any re-keyed session fails the MAC
    outright.

    Attributes:
        at_ms: injection time on the simulated clock (>= 0).
        replays: total replay attempts (>= 1).
        target_shard: gateway shard under attack.
    """

    at_ms: float = bound(ge=0)
    replays: int = bound(32, ge=1)
    target_shard: int = bound(0, ge=0)

    kind = "replay-storm"

    def validate(self, config) -> None:
        """Compile-time checks against the fleet config."""
        _require(
            self.target_shard < config.shards,
            f"replay-storm targets shard {self.target_shard} but the fleet"
            f" has {config.shards} shard(s)",
        )


@dataclass(frozen=True)
class StaleCertFlood(_Part):
    """Present retired chain-epoch certificates after a gateway rejoin.

    When the failed shard rejoins, the trust store retires its old
    epoch's intermediate; this injection models adversaries (or simply
    stale peers) flooding the rejoined gateway with certificates issued
    by the dead CA.  Each attempt runs the full chain validation
    (:meth:`~repro.ecqv.TrustStore.resolve_and_validate`, priced on the
    gateway) and must be rejected with the chain-epoch error.

    Attributes:
        at_ms: injection time; must land *after* the configured rejoin.
        attempts: validation attempts (>= 1), cycling the captured
            stale certificates.
    """

    at_ms: float = bound(ge=0)
    attempts: int = bound(32, ge=1)

    kind = "stale-cert-flood"

    def validate(self, config) -> None:
        """Compile-time checks against the fleet config."""
        _require(
            config.shard_rejoin_at_ms is not None,
            "stale-cert-flood needs a gateway rejoin to roll the chain"
            " epoch: set shard_fail_at_ms and shard_rejoin_at_ms on the"
            " FleetConfig",
        )
        _require(
            self.at_ms > config.shard_rejoin_at_ms,
            f"stale-cert-flood at {self.at_ms} ms fires before the rejoin"
            f" at {config.shard_rejoin_at_ms} ms; there is no retired"
            " epoch to flood yet",
        )


@dataclass(frozen=True)
class CaQueueFlood(_Part):
    """Flood a shard CA's issuance queue with forged enrollment requests.

    At ``at_ms`` the adversary enqueues ``requests`` certificate
    requests whose proof-of-possession signatures are forged (signed
    with scalars unrelated to the request points).  The CA screens every
    flood request with a real batched ECDSA verification — work that
    contends the shard's resource and delays legitimate enrollments (the
    DoS under measurement) — and rejects each one; an accepted forgery
    would count as a success and is asserted zero by the benchmarks.

    Attributes:
        at_ms: injection time on the simulated clock (>= 0).
        requests: forged requests enqueued (>= 1).
        target_shard: CA shard under attack.
    """

    at_ms: float = bound(ge=0)
    requests: int = bound(64, ge=1)
    target_shard: int = bound(0, ge=0)

    kind = "ca-flood"

    def validate(self, config) -> None:
        """Compile-time checks against the fleet config."""
        _require(
            self.target_shard < config.shards,
            f"ca-flood targets shard {self.target_shard} but the fleet"
            f" has {config.shards} shard(s)",
        )
        _require(
            config.authenticate_requests,
            "ca-flood needs authenticate_requests=True on the FleetConfig:"
            " without proof-of-possession screening the CA would issue"
            " certificates to the flooder instead of rejecting it",
        )


#: Registry of injection kinds for JSON deserialization.
INJECTION_KINDS = {
    cls.kind: cls for cls in (ReplayStorm, StaleCertFlood, CaQueueFlood)
}


# -- the scenario spec ---------------------------------------------------------


def _spec_dict(spec) -> dict:
    """Render one kinded spec dataclass as a JSON-ready mapping."""
    data = {"kind": spec.kind}
    for spec_field in fields(spec):
        data[spec_field.name] = getattr(spec, spec_field.name)
    return data


@dataclass(frozen=True)
class Scenario:
    """One declarative workload: arrivals + behavior profiles + injections.

    Attributes:
        name: scenario identity (reported in benchmark records).
        arrivals: the arrival process (defaults to the legacy uniform
            jitter, making ``Scenario(name=...)`` a bit-compatible
            wrapper of the pre-scenario workload).
        profiles: behavior profiles, claiming vehicles in order.
        injections: adversarial injections, any order (compiled sorted
            by time).
        policies: policy rules shipped with the workload
            (:mod:`repro.fleet.policy` specs).  They run *ahead of* the
            bundle :attr:`~repro.fleet.FleetConfig.policy` selects, so a
            scenario can pre-empt the default strategies at shared
            decision points.
        description: free-text note (round-trips, not hashed).

    Examples:
        Specs validate eagerly, round-trip losslessly through JSON, and
        compile deterministically against a
        :class:`~repro.fleet.FleetConfig`::

            >>> from repro.fleet import (PoissonArrivals, ReplayStorm,
            ...     Scenario, load_scenario)
            >>> spec = Scenario(
            ...     name="docs-demo",
            ...     arrivals=PoissonArrivals(rate_per_s=40.0),
            ...     injections=(ReplayStorm(at_ms=2_000.0, replays=8),),
            ... )
            >>> load_scenario(spec.as_json()) == spec
            True
            >>> Scenario(name="")
            Traceback (most recent call last):
                ...
            repro.errors.ScenarioError: scenarios need a non-empty name

        Equal ``(spec, config)`` pairs always compile to the identical
        schedule::

            >>> from repro.fleet import FleetConfig, compile_scenario
            >>> config = FleetConfig(n_vehicles=4, seed=b"docs")
            >>> a = compile_scenario(spec, config)
            >>> b = compile_scenario(spec, config)
            >>> a.arrival_ms == b.arrival_ms
            True
    """

    name: str
    arrivals: object = field(default_factory=UniformArrivals)
    profiles: tuple[BehaviorProfile, ...] = ()
    injections: tuple[object, ...] = ()
    policies: tuple[object, ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        for attr in ("name", "description"):
            value = getattr(self, attr)
            _require(
                isinstance(value, str),
                f"scenario: {attr} must be a str, got {value!r}",
            )
        _require(bool(self.name), "scenarios need a non-empty name")
        for attr in ("profiles", "injections", "policies"):
            object.__setattr__(self, attr, tuple(getattr(self, attr)))
        for attr, parts, registry in (
            ("policies", self.policies, POLICY_RULES),
            ("arrivals", (self.arrivals,), ARRIVAL_KINDS),
            ("injections", self.injections, INJECTION_KINDS),
            ("profiles", self.profiles, _PROFILE_KINDS),
        ):
            for part in parts:
                _require(
                    type(part) in registry.values(),
                    f"{attr} must be one of {sorted(registry)},"
                    f" got {type(part).__name__}",
                )
        names = [profile.name for profile in self.profiles]
        _require(
            len(names) == len(set(names)),
            f"duplicate profile names in scenario {self.name!r}: {names}",
        )

    def as_dict(self) -> dict:
        """JSON-ready mapping; ``load_scenario`` inverts it losslessly."""
        return {
            "name": self.name,
            "description": self.description,
            "arrivals": _spec_dict(self.arrivals),
            "profiles": [_spec_dict(profile) for profile in self.profiles],
            "injections": [
                _spec_dict(injection) for injection in self.injections
            ],
            "policies": [policy_dict(policy) for policy in self.policies],
        }

    def as_json(self) -> str:
        """Canonical JSON rendering of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def load_scenario(data: "dict | str") -> Scenario:
    """Rebuild a :class:`Scenario` from :meth:`Scenario.as_dict` output.

    Accepts the mapping itself or its JSON string.  Malformed JSON, a
    ``profiles``, ``injections`` or ``policies`` value that is not a
    list, an unknown kind, and an arrival process, profile or injection
    with an unknown field, a missing required field or a value outside
    the field's declared type or bound (``"replays": 2.5``) raise
    :class:`~repro.errors.ScenarioError` naming the part's kind, its
    parameters and the field, rather than being silently dropped or
    failing mid-run; malformed policy rules raise
    :class:`~repro.errors.PolicyError` the same way.  Values load as
    given: ``"at_ms": 4000`` stays an ``int``.
    """
    data = _json_object(data, "scenario", ScenarioError)
    for key in ("profiles", "injections", "policies"):
        parts = data.get(key, [])
        _require(
            isinstance(parts, (list, tuple)),
            f"scenario: {key} must be a list, got {type(parts).__name__}",
        )
    return Scenario(
        name=data.get("name", ""),
        description=data.get("description", ""),
        arrivals=_load_kinded(
            data.get("arrivals", {"kind": "uniform"}),
            ARRIVAL_KINDS,
            "arrival process",
            ScenarioError,
        ),
        profiles=tuple(
            _load_kinded(payload, _PROFILE_KINDS, "profile", ScenarioError)
            for payload in data.get("profiles", [])
        ),
        injections=tuple(
            _load_kinded(payload, INJECTION_KINDS, "injection", ScenarioError)
            for payload in data.get("injections", [])
        ),
        policies=tuple(
            load_policy(payload) for payload in data.get("policies", [])
        ),
    )


# -- compilation ---------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSchedule:
    """A scenario fully resolved against one fleet configuration.

    Everything the orchestrator consumes: one arrival time, profile name
    and optional shard pin per vehicle index, the resolved profiles, the
    convoy partition, and the injections in firing order.

    Attributes:
        scenario: the source spec (``legacy-uniform`` when compiled from
            ``None``).
        arrival_ms: per-vehicle arrival times.
        profile_of: per-vehicle profile name (``""`` for a vehicle no
            profile claims).
        profiles: resolved profiles keyed by name, the config-default
            profile under ``""`` included.
        convoys: platoon convoys as tuples of member indices.
        pinned_shard: per-vehicle shard pin (``None`` = policy-assigned).
        injections: injections sorted by ``at_ms`` (stable).
    """

    scenario: Scenario
    arrival_ms: tuple[float, ...]
    profile_of: tuple[str, ...]
    profiles: dict
    convoys: tuple[tuple[int, ...], ...]
    pinned_shard: tuple[int | None, ...]
    injections: tuple[object, ...]

    @property
    def profile_counts(self) -> tuple[tuple[str, int], ...]:
        """Vehicles actually assigned per profile, in spec order."""
        return tuple(
            (profile.name, self.profile_of.count(profile.name))
            for profile in self.scenario.profiles
        )

    def profile_for(self, index: int) -> CompiledProfile:
        """The resolved profile of vehicle ``index``.

        The one read of its record budget, send interval, re-key budget
        and roam cadence; a vehicle no profile claims gets the
        config-default profile ``""``.
        """
        return self.profiles[self.profile_of[index]]

    def digest(self) -> str:
        """Stable hash of the fully compiled schedule.

        Equal ``(spec, seed, fleet shape)`` must compile to equal
        digests — the determinism contract the property tests pin.
        """
        segments = [
            f"scenario={self.scenario.name}",
            "arr=" + ",".join(f"{t:.9f}" for t in self.arrival_ms),
            "prof=" + ",".join(self.profile_of),
            "pins="
            + ",".join(
                "-" if pin is None else str(pin)
                for pin in self.pinned_shard
            ),
            "convoys="
            + ";".join(
                ",".join(str(i) for i in convoy) for convoy in self.convoys
            ),
            "inj="
            + ";".join(
                json.dumps(_spec_dict(injection), sort_keys=True)
                for injection in self.injections
            ),
        ]
        if self.scenario.policies:
            # Extension segment: hashed only when the scenario ships
            # policy rules, so every pre-policy schedule digest is
            # preserved bit-for-bit.
            segments.append(
                "pol="
                + ";".join(
                    json.dumps(policy_dict(policy), sort_keys=True)
                    for policy in self.scenario.policies
                )
            )
        canonical = "|".join(segments)
        return sha256(canonical.encode()).hex()


def compile_scenario(scenario: "Scenario | None", config) -> ScenarioSchedule:
    """Resolve a scenario against a config into an executable schedule.

    Pure and deterministic: arrival processes draw from seed-derived
    PRNG streams, profiles claim contiguous vehicle index blocks in spec
    order, platoon convoys synchronize on their leader's arrival and pin
    to a seed-derived shard, and injections are validated against the
    config (actionable :class:`~repro.errors.ScenarioError` on any
    mismatch) then sorted by firing time.  ``None`` compiles the
    ``legacy-uniform`` scenario: the schedule of a run given none.
    """
    if scenario is None:
        scenario = _legacy_uniform()
    claimed = sum(profile.count for profile in scenario.profiles)
    _require(
        claimed <= config.n_vehicles,
        f"scenario {scenario.name!r} profiles claim {claimed} vehicles but"
        f" the fleet has {config.n_vehicles}; shrink the profile counts or"
        " grow n_vehicles",
    )
    for profile in scenario.profiles:
        if profile.roam_every is not None:
            _require(
                config.shards >= 2,
                f"profile {profile.name!r} roams across shards but the"
                f" fleet has {config.shards} shard(s)",
            )
        if profile.convoy_size is not None:
            _require(
                profile.count % profile.convoy_size == 0,
                f"profile {profile.name!r} claims {profile.count} vehicles"
                f" but convoys ride {profile.convoy_size} abreast; a"
                f" trailing partial convoy would be a singleton — make"
                " count a multiple of convoy_size",
            )
    for injection in scenario.injections:
        injection.validate(config)
    resolved = (
        CompiledProfile.resolve(profile, config)
        for profile in (None, *scenario.profiles)
    )

    arrival = list(scenario.arrivals.compile(config))
    profile_of = [""] * config.n_vehicles
    pinned: list[int | None] = [None] * config.n_vehicles
    convoys: list[tuple[int, ...]] = []
    cursor = 0
    for profile in scenario.profiles:
        members = list(range(cursor, cursor + profile.count))
        cursor += profile.count
        for index in members:
            profile_of[index] = profile.name
        if profile.convoy_size is not None:
            for start in range(0, len(members), profile.convoy_size):
                convoy = tuple(members[start : start + profile.convoy_size])
                convoys.append(convoy)
                leader = convoy[0]
                # The convoy rides together: everyone takes the leader's
                # compiled arrival, and the whole convoy pins to one
                # seed-derived shard so its members share a gateway.
                shard = int.from_bytes(
                    sha256(config.seed + b"|scenario|convoy|%d" % leader),
                    "big",
                ) % config.shards
                for index in convoy:
                    arrival[index] = arrival[leader]
                    pinned[index] = shard
    return ScenarioSchedule(
        scenario=scenario,
        arrival_ms=tuple(arrival),
        profile_of=tuple(profile_of),
        profiles={profile.name: profile for profile in resolved},
        convoys=tuple(convoys),
        pinned_shard=tuple(pinned),
        injections=tuple(
            sorted(scenario.injections, key=lambda inj: (inj.at_ms, inj.kind))
        ),
    )


# -- named scenarios -----------------------------------------------------------


def _legacy_uniform() -> Scenario:
    return Scenario(
        name="legacy-uniform",
        description=(
            "The pre-scenario workload: uniform arrival jitter, default"
            " behavior, no adversary.  The schedule a run given no"
            " scenario executes."
        ),
    )


def _rush_hour() -> Scenario:
    return Scenario(
        name="rush-hour",
        description="Four commute waves slamming the CAs in bursts.",
        arrivals=BurstArrivals(
            waves=4, wave_interval_ms=400.0, wave_spread_ms=120.0
        ),
    )


def _poisson_open_road() -> Scenario:
    return Scenario(
        name="poisson-open-road",
        description="Memoryless highway arrivals at a steady rate.",
        arrivals=PoissonArrivals(rate_per_s=120.0),
    )


def _diurnal_commute() -> Scenario:
    return Scenario(
        name="diurnal-commute",
        description=(
            "A diurnal intensity ramp; a commuter block re-keys on a"
            " tighter record budget and chats faster than the fleet"
            " default."
        ),
        arrivals=DiurnalArrivals(period_ms=2_000.0, amplitude=0.9),
        profiles=(
            BehaviorProfile(
                name="commuter",
                count=8,
                send_interval_ms=15.0,
                max_records=3,
            ),
        ),
    )


def _platoon_convoys() -> Scenario:
    return Scenario(
        name="platoon-convoys",
        description=(
            "Half the fleet rides in 4-vehicle convoys that arrive"
            " together and pin to one gateway shard each."
        ),
        arrivals=BurstArrivals(
            waves=3, wave_interval_ms=500.0, wave_spread_ms=150.0
        ),
        profiles=(
            BehaviorProfile(name="platoon", count=16, convoy_size=4),
        ),
    )


def _roaming_rebalance() -> Scenario:
    return Scenario(
        name="roaming-rebalance",
        description=(
            "A roamer block live-migrates to the next shard every few"
            " records, churning the shard placement mid-run."
        ),
        profiles=(
            BehaviorProfile(name="roamer", count=8, roam_every=4),
        ),
    )


def _replay_storm() -> Scenario:
    return Scenario(
        name="replay-storm",
        description=(
            "Adversarial: captured application records replayed at a"
            " gateway mid-run; every replay must die on the record"
            " channel's sequence/MAC checks."
        ),
        injections=(
            ReplayStorm(at_ms=4_000.0, replays=48, target_shard=0),
        ),
    )


def _stale_cert_flood() -> Scenario:
    return Scenario(
        name="stale-cert-flood",
        description=(
            "Adversarial: after the failed gateway rejoins at the next"
            " chain epoch, the old epoch's certificates are flooded at"
            " the trust store; every validation must raise the"
            " chain-epoch rejection."
        ),
        injections=(StaleCertFlood(at_ms=6_500.0, attempts=48),),
    )


def _ca_flood() -> Scenario:
    return Scenario(
        name="ca-flood",
        description=(
            "Adversarial: forged enrollment requests flood the CA queue"
            " during the arrival storm; batched proof-of-possession"
            " verification rejects all of them while legitimate"
            " enrollments pay the queue-time cost."
        ),
        injections=(
            CaQueueFlood(at_ms=50.0, requests=96, target_shard=0),
        ),
    )


#: Named scenario registry: name -> zero-argument factory.
NAMED_SCENARIOS = {
    "legacy-uniform": _legacy_uniform,
    "rush-hour": _rush_hour,
    "poisson-open-road": _poisson_open_road,
    "diurnal-commute": _diurnal_commute,
    "platoon-convoys": _platoon_convoys,
    "roaming-rebalance": _roaming_rebalance,
    "replay-storm": _replay_storm,
    "stale-cert-flood": _stale_cert_flood,
    "ca-flood": _ca_flood,
}


def get_scenario(name: str) -> Scenario:
    """Build a named scenario; actionable error on unknown names.

    Examples:
        The registry covers six workload shapes and three adversarial
        scenarios (see the README table)::

            >>> from repro.fleet import NAMED_SCENARIOS, get_scenario
            >>> len(NAMED_SCENARIOS)
            9
            >>> get_scenario("rush-hour").name
            'rush-hour'
            >>> bool(get_scenario("replay-storm").injections)
            True
            >>> get_scenario("gridlock")
            Traceback (most recent call last):
                ...
            repro.errors.ScenarioError: unknown scenario 'gridlock'; have ['ca-flood', 'diurnal-commute', 'legacy-uniform', 'platoon-convoys', 'poisson-open-road', 'replay-storm', 'roaming-rebalance', 'rush-hour', 'stale-cert-flood']
    """
    try:
        factory = NAMED_SCENARIOS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; have {sorted(NAMED_SCENARIOS)}"
        ) from None
    return factory()
