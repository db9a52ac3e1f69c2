"""Aggregate statistics for fleet-scale orchestration runs.

Everything here is deterministic: latencies come from the discrete-event
clock, energy from the hardware cost model, and :meth:`FleetStats.digest`
hashes a canonical rendering so two runs with the same seed can be checked
for bit-identical aggregate behaviour (the reproducibility contract the
fleet benchmark enforces).

Topology runs add a per-shard breakdown (:class:`ShardStats`, one per
gateway shard) plus V2V/handover aggregates.  The digest grows extension
segments **only** for non-degenerate runs — a single-gateway, no-V2V run
hashes the exact canonical string the single-gateway orchestrator always
produced, which is what keeps ``shards=1, v2v_fraction=0`` bit-compatible
with the pre-topology fleet.

Each statistic is declared once, as a dataclass field (see :func:`stat`);
``as_dict``, ``from_dict`` and :meth:`FleetStats.digest` derive from the
declarations.
"""

from __future__ import annotations

import collections
import functools
import math
import typing
from dataclasses import MISSING, dataclass, field, fields

from ..errors import StatsError
from ..primitives import sha256


def _require_finite(value: float, where: str) -> float:
    """Reject NaN/inf before it can poison digest material."""
    value = float(value)
    if not math.isfinite(value):
        raise StatsError(
            f"{where} must be finite, got {value!r}; NaN/inf samples"
            " would render into digest material and poison the"
            " reproducibility contract"
        )
    return value


def _percentile(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile on pre-sorted samples (deterministic).

    **Legacy rounding rule, digest-frozen.**  ``round()`` is banker's
    rounding, so an exact ``.5`` rank resolves to the *even* neighbour —
    e.g. the p50 of 4 samples reads rank ``round(1.5) == 2``, but the
    p99 of 151 samples reads rank ``round(148.5) == 148``, the *lower*
    sample.  That bias is a bug for a tail percentile, but ``p50_ms`` and
    ``p95_ms`` computed with this rule are baked into every historical
    :meth:`LatencySummary.row` digest (PR 1 onward), so the rule here
    must never change.  ``p99_ms`` is digest-excluded and uses the
    corrected :func:`_percentile_ceil` instead.
    """
    if not sorted_samples:
        return 0.0
    index = min(
        len(sorted_samples) - 1,
        max(0, round(q * (len(sorted_samples) - 1))),
    )
    return sorted_samples[index]


def _percentile_ceil(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank percentile with round-half-**up** rank resolution.

    ``floor(rank + 0.5)`` picks the upper neighbour on exact ``.5``
    ranks, so a tail percentile can never under-report by one sample the
    way banker's rounding does (see :func:`_percentile`).  Used only for
    the digest-excluded ``p99_ms``; changing it cannot perturb any
    historical digest because :meth:`LatencySummary.row` never renders
    it.
    """
    if not sorted_samples:
        return 0.0
    rank = q * (len(sorted_samples) - 1)
    index = min(len(sorted_samples) - 1, int(rank + 0.5))
    return sorted_samples[index]


# -- field declarations -----------------------------------------------------


def stat(
    *, path: str = "", token: str = "", fmt: str = "", segment: str = "core",
    default=MISSING,
):
    """Declare one statistic: its ``as_dict`` path and its digest token.

    ``path`` is the dotted ``as_dict`` key (the field name when empty).
    A ``token`` makes :meth:`FleetStats.digest` hash the field as
    ``token=value`` in ``segment`` (``core``, ``topology`` or ``churn``),
    a latency summary as its :meth:`LatencySummary.row` and anything
    else through ``format(value, fmt)``.  ``default`` is also what
    ``from_dict`` loads when an older payload lacks the key.  A plain
    annotated field is a statistic at its own name, never hashed.
    """
    return field(
        default=default, metadata={"stat": (path, token, fmt, segment)}
    )


#: One field declaration, compiled with the ``load``/``dump`` codec of
#: its annotation; ``path`` is the tuple of ``as_dict`` keys.
_Stat = collections.namedtuple(
    "_Stat", "name path token fmt segment default load dump"
)


@functools.cache
def _schema(cls) -> tuple[_Stat, ...]:
    """``cls``'s compiled field declarations, in declaration order."""
    hints = typing.get_type_hints(cls)
    table = []
    for f in fields(cls):
        path, token, fmt, segment = f.metadata.get(
            "stat", ("", "", "", "core")
        )
        load, dump = _codec(hints[f.name])
        table.append(
            _Stat(f.name, tuple((path or f.name).split(".")), token, fmt,
                  segment, f.default, load, dump)
        )
    return tuple(table)


def _keep(value, where: str = ""):
    return value


def _codec(hint) -> tuple:
    """``(load, dump)`` for one annotation.

    Floats must be finite; a nested statistics class maps to its own
    mapping, ``tuple[X, ...]`` to a list of ``X`` and a fixed record such
    as the ``(name, count)`` profile pair to a plain list.
    """
    if hint is float:
        return _require_finite, _keep
    if isinstance(hint, type) and issubclass(hint, _Declared):
        return functools.partial(_load, hint), hint.as_dict
    if typing.get_origin(hint) is tuple:
        item, *rest = typing.get_args(hint)
        if rest != [Ellipsis]:
            return (lambda data, where: tuple(data)), list
        load_item, dump_item = _codec(item)
        return (
            lambda data, where: tuple(
                load_item(entry, f"{where}[{i}]")
                for i, entry in enumerate(data)
            ),
            lambda value: [dump_item(entry) for entry in value],
        )
    return _keep, _keep


def _load(cls, data, where: str):
    """Build ``cls`` from a mapping found at dotted path ``where``."""
    values = {}
    for s in _schema(cls):
        dotted = ".".join((where, *s.path) if where else s.path)
        node = data
        for key in s.path:
            if not isinstance(node, dict) or key not in node:
                node = MISSING
                break
            node = node[key]
        if node is not MISSING:
            values[s.name] = s.load(node, dotted)
        elif s.default is not MISSING:
            values[s.name] = s.default
        else:
            raise StatsError(
                f"malformed stats payload: required key {dotted!r} is missing"
            )
    return cls(**values)


class _Declared:
    """``as_dict``/``from_dict`` derived from the field declarations."""

    def as_dict(self) -> dict:
        """JSON-ready mapping: every field at its declared path."""
        out: dict = {}
        for s in _schema(type(self)):
            *sections, key = s.path
            node = out
            for section in sections:
                node = node.setdefault(section, {})
            node[key] = s.dump(getattr(self, s.name))
        return out

    @classmethod
    def from_dict(cls, data: dict):
        """Rebuild an instance from its :meth:`as_dict` mapping.

        A key missing from an older payload loads as its field's
        default, so frozen records from before the topology, churn and
        scenario layers still round-trip to their original digest.  A
        missing required key, or a non-finite float, raises
        :class:`~repro.errors.StatsError` naming its dotted path.
        """
        return _load(cls, data, "")


# -- the statistics ---------------------------------------------------------


@dataclass(frozen=True)
class LatencySummary(_Declared):
    """Summary of a latency sample set (milliseconds).

    ``p99_ms`` arrived with the topology benchmarks; it is deliberately
    excluded from :meth:`row` (and therefore from every digest built on
    it) so its addition cannot perturb historical digests.
    """

    count: int
    min_ms: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    max_ms: float
    p99_ms: float = 0.0

    @classmethod
    def from_samples(cls, samples: list[float]) -> "LatencySummary":
        """Summarize raw samples; all-zero summary for an empty set.

        Non-finite samples raise :class:`~repro.errors.StatsError`: a
        NaN would even corrupt the *sort* the percentile ranks rely on,
        and both NaN and inf would render into digest material.
        """
        if not samples:
            return cls(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for sample in samples:
            _require_finite(sample, "latency samples")
        ordered = sorted(samples)
        return cls(
            count=len(ordered),
            min_ms=ordered[0],
            mean_ms=sum(ordered) / len(ordered),
            p50_ms=_percentile(ordered, 0.50),
            p95_ms=_percentile(ordered, 0.95),
            max_ms=ordered[-1],
            p99_ms=_percentile_ceil(ordered, 0.99),
        )

    def row(self) -> str:
        """One-line rendering used by reports (and digest material)."""
        return (
            f"n={self.count} min={self.min_ms:.3f} mean={self.mean_ms:.3f}"
            f" p50={self.p50_ms:.3f} p95={self.p95_ms:.3f}"
            f" max={self.max_ms:.3f} ms"
        )


#: The all-zero summary; frozen, so one instance serves every default.
_EMPTY_LATENCY = LatencySummary.from_samples([])


class StreamingLatency:
    """Constant-state streaming replacement for a raw sample list.

    Holds the sample **multiset** as a ``value -> count`` mapping instead
    of materializing one Python float object per sample.  Memory is
    bounded by the number of *distinct* sample values — which the
    discrete cost model quantizes heavily (thousands of vehicles doing
    identical priced work produce identical latencies) — not by the
    sample count, and :meth:`summary` reproduces
    :meth:`LatencySummary.from_samples` **bit-for-bit** on every
    digest-frozen field:

    * ``min``/``max`` are the smallest/largest distinct value;
    * ``mean`` replays the sequential float addition ``sum(sorted(...))``
      performs — equal values are adjacent after sorting, so repeated
      addition over the sorted distinct values is the *same* float
      operation sequence;
    * ``p50``/``p95`` (and the digest-excluded ``p99``) resolve the
      legacy nearest-rank indices through cumulative counts.

    ``merge`` adds count mappings, which is order-independent and
    associative — the property the process-parallel barrier merge
    relies on (locked by the hypothesis suite).
    """

    __slots__ = ("_counts", "_n")

    def __init__(self) -> None:
        self._counts: dict[float, int] = {}
        self._n = 0

    def add(self, value: float) -> None:
        """Record one sample; NaN/inf raise :class:`~repro.errors.StatsError`."""
        value = _require_finite(value, "latency samples")
        self._counts[value] = self._counts.get(value, 0) + 1
        self._n += 1

    @property
    def count(self) -> int:
        """Samples recorded so far."""
        return self._n

    @property
    def distinct(self) -> int:
        """Distinct sample values held (the memory bound)."""
        return len(self._counts)

    def merge(self, other: "StreamingLatency") -> None:
        """Fold another accumulator in (order-independent, associative)."""
        for value, count in other._counts.items():
            self._counts[value] = self._counts.get(value, 0) + count
        self._n += other._n

    def summary(self) -> "LatencySummary":
        """Freeze into a summary, bit-identical to the materialized path."""
        if not self._n:
            return LatencySummary.from_samples([])
        values = sorted(self._counts)
        total = 0.0
        for value in values:
            for _ in range(self._counts[value]):
                total += value
        return LatencySummary(
            count=self._n,
            min_ms=values[0],
            mean_ms=total / self._n,
            p50_ms=self._value_at(values, self._rank_legacy(0.50)),
            p95_ms=self._value_at(values, self._rank_legacy(0.95)),
            max_ms=values[-1],
            p99_ms=self._value_at(values, self._rank_ceil(0.99)),
        )

    def _rank_legacy(self, q: float) -> int:
        # The digest-frozen banker's-rounding rank of _percentile.
        return min(self._n - 1, max(0, round(q * (self._n - 1))))

    def _rank_ceil(self, q: float) -> int:
        # The round-half-up rank of _percentile_ceil (p99 only).
        return min(self._n - 1, int(q * (self._n - 1) + 0.5))

    def _value_at(self, values: list[float], rank: int) -> float:
        """The ``rank``-th (0-based) order statistic via cumulative counts."""
        seen = 0
        for value in values:
            seen += self._counts[value]
            if rank < seen:
                return value
        return values[-1]  # pragma: no cover - rank is always < n

    def canonical(self) -> str:
        """Canonical rendering for transport checkpointing (repr-exact)."""
        return ";".join(
            f"{value!r}:{self._counts[value]}" for value in sorted(self._counts)
        )


class ExactSum:
    """Exactly-rounded streaming float sum (Shewchuk partials).

    Keeps the running sum as a list of non-overlapping partials whose
    mathematical sum is *exactly* the sum of every input; :attr:`value`
    rounds once via :func:`math.fsum`.  The result equals
    ``math.fsum(inputs)`` regardless of input order, and :meth:`merge`
    (feeding another accumulator's partials in) preserves exactness —
    so per-worker partial sums fold into the same bits the single-worker
    accumulation produces.  Used for the fleet-global vehicle energy
    total, the one digest-feeding float accumulated across shard
    boundaries in interleaved event order.
    """

    __slots__ = ("_partials",)

    def __init__(self) -> None:
        self._partials: list[float] = []

    def add(self, value: float) -> None:
        """Fold one term in; NaN/inf raise :class:`~repro.errors.StatsError`."""
        x = _require_finite(value, "sum terms")
        partials = self._partials
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]

    def merge(self, other: "ExactSum") -> None:
        """Fold another accumulator in exactly (order-independent)."""
        for partial in list(other._partials):
            self.add(partial)

    @property
    def value(self) -> float:
        """The correctly-rounded sum of every term added so far."""
        return math.fsum(self._partials)

    def canonical(self) -> str:
        """Canonical rendering for transport checkpointing (repr-exact)."""
        return ";".join(f"{partial!r}" for partial in self._partials)


@dataclass(frozen=True)
class ShardStats(_Declared):
    """One gateway shard's share of a fleet run.

    The churn fields (``epoch``, ``migrations_in``, ``migrations_out``)
    default to the values every pre-churn run had, and :meth:`row` only
    renders them when they moved off those defaults — which is what keeps
    every historical shard digest bit-stable while making any epoch roll
    or migration visible in the digest of a churn run.
    """

    index: int
    name: str
    vehicles_assigned: int
    enrollments: int
    sessions_established: int
    rekeys: int
    handovers_in: int
    failed: bool
    ca_busy_ms: float
    ca_utilisation: float
    ca_batches: int
    ca_max_batch: int
    queue_latency: LatencySummary
    ca_energy_mj: float
    # -- churn extensions (defaults keep legacy digests bit-stable) ----------
    epoch: int = 1
    migrations_in: int = 0
    migrations_out: int = 0

    @property
    def churned(self) -> bool:
        """True when this shard saw an epoch roll or any migration."""
        return (
            self.epoch != 1
            or self.migrations_in > 0
            or self.migrations_out > 0
        )

    def row(self) -> str:
        """One-line rendering used by reports and the shard digest."""
        rendered = (
            f"shard {self.index} ({self.name}){' [FAILED]' if self.failed else ''}:"
            f" {self.vehicles_assigned} assigned, {self.enrollments} enrolled,"
            f" {self.sessions_established} sessions ({self.rekeys} re-keys,"
            f" {self.handovers_in} handovers in),"
            f" busy {self.ca_busy_ms:.3f} ms"
            f" ({self.ca_utilisation * 100.0:.1f} %,"
            f" {self.ca_batches} batches, max {self.ca_max_batch}),"
            f" queue [{self.queue_latency.row()}],"
            f" energy {self.ca_energy_mj:.3f} mJ"
        )
        if self.churned:
            rendered += (
                f", epoch {self.epoch},"
                f" migrations +{self.migrations_in}/-{self.migrations_out}"
            )
        return rendered

    def digest(self) -> str:
        """Stable hash of this shard's aggregate numbers."""
        return sha256(self.row().encode()).hex()


@dataclass(frozen=True)
class InjectionStats(_Declared):
    """Outcome accounting of one adversarial scenario injection.

    ``attempts`` counts the attack operations the adversary actually ran
    against the live fleet, ``rejected`` how many the defenses threw out
    (sequence/MAC checks, chain-epoch retirement, proof-of-possession
    screening), and ``succeeded`` the forgeries that got through — which
    the scenario benchmarks assert to be zero.
    """

    kind: str
    at_ms: float
    attempts: int
    rejected: int
    succeeded: int

    def row(self) -> str:
        """One-line rendering used by reports and the scenario digest."""
        return (
            f"{self.kind}@{self.at_ms:.3f}ms: attempts={self.attempts}"
            f" rejected={self.rejected} succeeded={self.succeeded}"
        )


def merge_shard_stats(shards: "tuple[ShardStats, ...] | list[ShardStats]") -> dict:
    """Cross-shard merge: fold per-shard breakdowns into fleet-level CA totals.

    Counts sum across shards and the max batch is the fleet-wide
    maximum; the float totals (busy time, energy) accumulate via
    :func:`math.fsum` over the shards sorted by their canonical order
    (shard index), so the merge is **order-independent**: float addition
    is not associative, and the plain ``sum`` this used to run could
    drift from the sequential digest under a permuted or parallel merge.
    ``fsum`` is exactly rounded, hence permutation-invariant even before
    the canonical sort (the sort makes the intent explicit and keeps any
    future non-exact reducer honest).  For a single shard this is the
    identity — the degenerate fleet reports exactly its one resource's
    numbers.
    """
    ordered = sorted(shards, key=lambda s: s.index)
    return {
        "vehicles_assigned": sum(s.vehicles_assigned for s in shards),
        "enrollments": sum(s.enrollments for s in shards),
        "sessions_established": sum(s.sessions_established for s in shards),
        "rekeys": sum(s.rekeys for s in shards),
        "handovers_in": sum(s.handovers_in for s in shards),
        "ca_busy_ms": math.fsum(s.ca_busy_ms for s in ordered),
        "ca_batches": sum(s.ca_batches for s in shards),
        "ca_max_batch": max((s.ca_max_batch for s in shards), default=0),
        "ca_energy_mj": math.fsum(s.ca_energy_mj for s in ordered),
        "failed_shards": sum(1 for s in shards if s.failed),
        "migrations_in": sum(s.migrations_in for s in shards),
        "migrations_out": sum(s.migrations_out for s in shards),
        "max_epoch": max((s.epoch for s in shards), default=1),
    }


@dataclass(frozen=True)
class FleetStats(_Declared):
    """Aggregate outcome of one :class:`~repro.fleet.FleetOrchestrator` run.

    The pre-topology fields keep their exact meaning (``sessions_established``
    counts vehicle↔gateway establishments; V2V sessions are reported
    separately) so single-gateway digests stay bit-stable.

    Examples:
        Stats are a pure function of the config seed, round-trip through
        ``as_dict``/``from_dict`` losslessly, and :meth:`digest` is the
        reproducibility anchor every benchmark asserts on::

            >>> from repro.fleet import FleetConfig, FleetStats, run_fleet
            >>> stats = run_fleet(FleetConfig(
            ...     n_vehicles=2, seed=b"docs-stats", records_per_vehicle=2,
            ...     max_records=2, arrival_spread_ms=5.0)).stats
            >>> stats.records_sent
            4
            >>> FleetStats.from_dict(stats.as_dict()).digest() == stats.digest()
            True

        The crypto backend never enters the digest (bit-parity
        contract)::

            >>> fast = run_fleet(FleetConfig(
            ...     n_vehicles=2, seed=b"docs-stats", records_per_vehicle=2,
            ...     max_records=2, arrival_spread_ms=5.0,
            ...     backend="accelerated")).stats
            >>> fast.digest() == stats.digest()
            True
    """

    vehicles: int = stat(token="v")
    enrollments: int = stat(token="enr")
    sessions_established: int = stat(token="sess")
    rekeys: int = stat(token="rekey")
    records_sent: int = stat(token="rec")
    duration_ms: float = stat(token="dur", fmt=".6f")
    ca_busy_ms: float = stat(token="cabusy", fmt=".6f")
    ca_utilisation: float = stat(token="cau", fmt=".6f")
    ca_batches: int = stat(token="cab")
    ca_max_batch: int = stat(token="cam")
    enrollment_latency: LatencySummary = stat(token="enl")
    establishment_latency: LatencySummary = stat(token="esl")
    vehicle_energy_mj: float = stat(
        path="energy_mj.vehicles", token="ve", fmt=".6f"
    )
    ca_energy_mj: float = stat(path="energy_mj.ca", token="cae", fmt=".6f")
    # -- topology extensions (defaults keep legacy construction valid) -------
    #: Each shard's digest closes the topology segment.
    per_shard: tuple[ShardStats, ...] = ()
    ca_queue_latency: LatencySummary = stat(
        token="qlat", segment="topology", default=_EMPTY_LATENCY
    )
    v2v_sessions: int = stat(
        path="v2v.sessions", token="v2v", segment="topology", default=0
    )
    v2v_rekeys: int = stat(
        path="v2v.rekeys", token="v2vr", segment="topology", default=0
    )
    v2v_cross_shard: int = stat(
        path="v2v.cross_shard", token="v2vx", segment="topology", default=0
    )
    v2v_records_sent: int = stat(
        path="v2v.records_sent", token="v2vrec", segment="topology", default=0
    )
    v2v_latency: LatencySummary = stat(
        path="v2v.latency", token="v2vlat", segment="topology",
        default=_EMPTY_LATENCY,
    )
    handovers: int = stat(token="ho", segment="topology", default=0)
    # -- churn extensions (defaults keep legacy construction valid) ----------
    migrations: int = stat(
        path="churn.migrations", token="mig", segment="churn", default=0
    )
    rejoins: int = stat(
        path="churn.rejoins", token="rej", segment="churn", default=0
    )
    re_enrollments: int = stat(
        path="churn.re_enrollments", token="reenr", segment="churn", default=0
    )
    migration_latency: LatencySummary = stat(
        path="churn.migration_latency", token="miglat", segment="churn",
        default=_EMPTY_LATENCY,
    )
    # -- scenario extensions (defaults keep legacy construction valid) -------
    #: Scenario name (metadata only — never hashed, so the same workload
    #: digests identically whether it ran as a named scenario or not).
    scenario: str = stat(path="scenario.name", default="")
    profile_counts: tuple[tuple[str, int], ...] = stat(
        path="scenario.profiles", default=()
    )
    injection_stats: tuple[InjectionStats, ...] = stat(
        path="scenario.injections", default=()
    )
    # -- policy extension (defaults keep legacy construction valid) ----------
    #: Policy bundle name (metadata only — never hashed: the ``default``
    #: bundle reproduces the legacy strategies bit-for-bit, so the same
    #: workload digests identically with the engine on or off, and
    #: alternative bundles are compared by their *behavioral* deltas).
    policy: str = ""

    @property
    def throughput_records_per_s(self) -> float:
        """Application records delivered per simulated second."""
        seconds = self.duration_ms / 1000.0
        # Guard the *computed* denominator: a subnormal duration can
        # underflow to exactly 0.0 even though duration_ms > 0.
        if seconds <= 0:
            return 0.0
        return self.records_sent / seconds

    @property
    def sessions_per_s(self) -> float:
        """Session establishments (incl. re-keys) per simulated second."""
        seconds = self.duration_ms / 1000.0
        if seconds <= 0:
            return 0.0
        return self.sessions_established / seconds

    @property
    def is_topology_run(self) -> bool:
        """True when sharding, V2V, failover or churn shaped this run."""
        return (
            len(self.per_shard) > 1
            or self.v2v_sessions > 0
            or self.handovers > 0
            or self.is_churn_run
        )

    @property
    def is_churn_run(self) -> bool:
        """True when live migration, re-enrollment or a rejoin happened."""
        return (
            self.migrations > 0
            or self.rejoins > 0
            or self.re_enrollments > 0
        )

    @property
    def is_scenario_run(self) -> bool:
        """True when behavior profiles or injections shaped this run.

        A scenario that only swaps the arrival process (no profiles, no
        injections) is deliberately *not* a scenario run for digest
        purposes: its behavior difference is already fully visible in the
        base aggregates, and the legacy uniform scenario must hash
        bit-identically to the pre-scenario orchestrator.
        """
        return bool(self.profile_counts) or bool(self.injection_stats)

    @property
    def attack_attempts(self) -> int:
        """Total adversarial attempts across every injection."""
        return sum(s.attempts for s in self.injection_stats)

    @property
    def attack_rejections(self) -> int:
        """Total rejected adversarial attempts across every injection."""
        return sum(s.rejected for s in self.injection_stats)

    @property
    def attack_successes(self) -> int:
        """Total successful forgeries (zero on every healthy defense)."""
        return sum(s.succeeded for s in self.injection_stats)

    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"fleet: {self.vehicles} vehicles, {self.enrollments} enrolled,"
            f" {self.sessions_established} sessions"
            f" ({self.rekeys} re-keys), {self.records_sent} records",
            f"  sim duration        : {self.duration_ms:.3f} ms",
            f"  throughput          : {self.throughput_records_per_s:.2f}"
            f" records/s, {self.sessions_per_s:.2f} sessions/s",
            f"  CA busy             : {self.ca_busy_ms:.3f} ms"
            f" ({self.ca_utilisation * 100.0:.1f} % utilisation,"
            f" {self.ca_batches} issuance batches,"
            f" max batch {self.ca_max_batch})",
            f"  enrollment latency  : {self.enrollment_latency.row()}",
            f"  establish latency   : {self.establishment_latency.row()}",
            f"  energy              : vehicles {self.vehicle_energy_mj:.3f} mJ,"
            f" CA {self.ca_energy_mj:.3f} mJ",
        ]
        if self.ca_queue_latency.count:
            lines.append(
                f"  CA queue latency    : {self.ca_queue_latency.row()}"
            )
        if self.is_topology_run:
            if self.v2v_sessions:
                lines.append(
                    f"  V2V                 : {self.v2v_sessions} sessions"
                    f" ({self.v2v_rekeys} re-keys,"
                    f" {self.v2v_cross_shard} cross-shard),"
                    f" {self.v2v_records_sent} records"
                )
                lines.append(
                    f"  V2V latency         : {self.v2v_latency.row()}"
                )
            if self.handovers:
                lines.append(
                    f"  handovers           : {self.handovers}"
                    " (gateway failover)"
                )
            if self.is_churn_run:
                lines.append(
                    f"  churn               : {self.migrations} migrations,"
                    f" {self.re_enrollments} re-enrollments,"
                    f" {self.rejoins} gateway rejoins"
                )
                if self.migration_latency.count:
                    lines.append(
                        f"  migration latency   :"
                        f" {self.migration_latency.row()}"
                    )
            for shard in self.per_shard:
                lines.append(f"  {shard.row()}")
        if self.scenario:
            lines.append(f"  scenario            : {self.scenario}")
        if self.policy:
            lines.append(f"  policy              : {self.policy}")
        if self.profile_counts:
            rendered = ", ".join(
                f"{name}={count}" for name, count in self.profile_counts
            )
            lines.append(f"  profiles            : {rendered}")
        for injection in self.injection_stats:
            lines.append(f"  injection           : {injection.row()}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-ready mapping (``BENCH_*.json`` is built from it): the
        declared fields plus the derived rates and the digest, which
        :meth:`from_dict` recomputes instead of reading."""
        return {
            **super().as_dict(),
            "throughput_records_per_s": self.throughput_records_per_s,
            "sessions_per_s": self.sessions_per_s,
            "digest": self.digest(),
        }

    def digest(self) -> str:
        """Stable hash of the aggregate numbers (reproducibility checks).

        Every field declared with a ``token`` renders as ``token=value``
        (floats at fixed precision: insensitive to representation noise,
        sensitive to any real behavioural change), in declaration order
        within its segment.  A degenerate run (one shard, no V2V, no
        handovers) hashes the ``core`` segment alone, byte-identical to
        the pre-topology string; other runs append the ``topology``
        segment, the ``churn`` segment if churn happened, and every
        per-shard digest (epoch awareness rides in through
        :meth:`ShardStats.row`).
        """
        segments: dict = {"core": [], "topology": [], "churn": []}
        for s in _schema(FleetStats):
            if s.token:
                value = getattr(self, s.name)
                if isinstance(value, LatencySummary):
                    value = value.row()
                segments[s.segment].append(f"{s.token}={value:{s.fmt}}")
        tokens = segments["core"]
        if self.is_topology_run:
            tokens += segments["topology"]
            if self.is_churn_run:
                tokens += segments["churn"]
            tokens += (
                f"shard{shard.index}={shard.digest()}"
                for shard in self.per_shard
            )
        if self.is_scenario_run:
            # Scenario segment: only runs shaped by profiles or
            # injections hash it, so every historical digest — including
            # a named scenario that merely swaps the arrival process —
            # stays bit-identical.  The scenario *name* is metadata and
            # deliberately excluded.
            tokens.append(
                "profiles="
                + ",".join(
                    f"{name}:{count}" for name, count in self.profile_counts
                )
            )
            tokens += (
                f"inj{index}={injection.row()}"
                for index, injection in enumerate(self.injection_stats)
            )
        return sha256("|".join(tokens).encode()).hex()
