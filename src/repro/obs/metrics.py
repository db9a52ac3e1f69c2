"""Labeled, mergeable fleet metrics: counters, gauges, histograms.

The process-parallel orchestrator (:mod:`repro.fleet.parallel`) runs
shards in worker processes and folds their telemetry back together,
the way it folds their stats.  That forces one law onto everything in
this module:

    **snapshot merge is order-independent and associative.**

:meth:`MetricsSnapshot.merge` is the one fold.  Absorbing worker
snapshots (:meth:`MetricsRegistry.absorb`), importing JSONL metric
events (:meth:`MetricsSnapshot.from_events`) and folding digest-tree
metric leaves (:func:`merge_metric_events`) all go through it.

``merge(a, merge(b, c)) == merge(merge(a, b), c)`` and any permutation
of the operands produces the *same* snapshot, bit for bit.  Integers
(counts, bucket tallies) satisfy this trivially; floating-point sums do
**not** (float addition is not associative), so histogram sums
accumulate in exact arithmetic (:class:`fractions.Fraction` — every
float is exactly representable) and only convert to float at export
time.  Gauges here are *high-watermark* gauges (peak RSS, deepest CA
queue, largest issuance batch): ``merge`` takes the max, which is
commutative and associative, unlike last-writer-wins.

The hypothesis suite (``tests/obs/test_obs_properties.py``) drives the
law over random instrument programs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from ..errors import ObsError

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS_MS",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "MetricsRegistry",
    "MetricsSnapshot",
    "merge_metric_events",
]

#: Default histogram bucket upper bounds (milliseconds); the implicit
#: final bucket is ``+inf``.  Roughly logarithmic, chosen to resolve
#: both bus-level microbursts and multi-second enrollment storms.
DEFAULT_BUCKETS_MS = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1_000.0, 2_000.0, 5_000.0, 10_000.0, 30_000.0, 60_000.0,
)


#: The :class:`MetricsSnapshot` field each metric event type folds into.
_SECTIONS = {
    "counter": "counters",
    "gauge": "gauges",
    "histogram": "histograms",
}


def _label_key(labels: dict) -> tuple:
    """Canonical hashable form of a label set (sorted, values as str)."""
    return tuple((str(k), str(v)) for k, v in sorted(labels.items()))


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (a non-negative integer) to the counter."""
        if not isinstance(n, int) or n < 0:
            raise ObsError(f"counter increments must be ints >= 0, got {n!r}")
        self.value += n


class Gauge:
    """A high-watermark gauge: records the maximum value observed.

    Max semantics (not last-writer-wins) keep snapshot merging
    order-independent; use it for peaks — RSS, queue depth, batch size.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def record(self, value: float) -> None:
        """Raise the watermark to ``value`` if it is higher."""
        value = float(value)
        if self.value is None or value > self.value:
            self.value = value


class Histogram:
    """A fixed-bucket histogram with an exact (Fraction) running sum."""

    __slots__ = ("bounds", "bucket_counts", "count", "_sum", "min", "max")

    def __init__(self, bounds: tuple = DEFAULT_BUCKETS_MS) -> None:
        bounds = tuple(float(b) for b in bounds)
        if list(bounds) != sorted(set(bounds)):
            raise ObsError(
                f"histogram bounds must be strictly increasing: {bounds}"
            )
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1: overflow bucket
        self.count = 0
        self._sum = Fraction(0)
        self.min: float | None = None
        self.max: float | None = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        self.count += 1
        self._sum += Fraction(value)
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    def snapshot(self) -> "HistogramSnapshot":
        """Immutable snapshot of the current state."""
        return HistogramSnapshot(
            count=self.count,
            sum_exact=self._sum,
            min=self.min,
            max=self.max,
            bounds=self.bounds,
            bucket_counts=tuple(self.bucket_counts),
        )


@dataclass(frozen=True)
class HistogramSnapshot:
    """Frozen histogram state; merging is exact and associative."""

    count: int
    sum_exact: Fraction
    min: float | None
    max: float | None
    bounds: tuple
    bucket_counts: tuple

    @property
    def sum(self) -> float:
        """The sample sum as a float (exact internally, rounded once)."""
        return float(self.sum_exact)

    @property
    def mean(self) -> float:
        """Arithmetic mean of the samples (0.0 for an empty histogram)."""
        if self.count == 0:
            return 0.0
        return float(self.sum_exact / self.count)

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Fold two snapshots; bucket geometry must match."""
        if self.bounds != other.bounds:
            raise ObsError(
                "cannot merge histograms with different bucket bounds:"
                f" {self.bounds} != {other.bounds}"
            )
        mins = [m for m in (self.min, other.min) if m is not None]
        maxs = [m for m in (self.max, other.max) if m is not None]
        return HistogramSnapshot(
            count=self.count + other.count,
            sum_exact=self.sum_exact + other.sum_exact,
            min=min(mins) if mins else None,
            max=max(maxs) if maxs else None,
            bounds=self.bounds,
            bucket_counts=tuple(
                a + b for a, b in zip(self.bucket_counts, other.bucket_counts)
            ),
        )

    def as_dict(self) -> dict:
        """JSON-ready mapping (the exact sum serialises as ``num/den``)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "sum_exact": [
                self.sum_exact.numerator,
                self.sum_exact.denominator,
            ],
            "min": self.min,
            "max": self.max,
            "bounds": list(self.bounds),
            "buckets": list(self.bucket_counts),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "HistogramSnapshot":
        """Rebuild a snapshot from its :meth:`as_dict` mapping."""
        numerator, denominator = data["sum_exact"]
        return cls(
            count=data["count"],
            sum_exact=Fraction(numerator, denominator),
            min=data["min"],
            max=data["max"],
            bounds=tuple(data["bounds"]),
            bucket_counts=tuple(data["buckets"]),
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen view of a whole registry; the mergeable unit.

    Keys are ``(name, labels)`` pairs where ``labels`` is a sorted tuple
    of ``(key, value)`` string pairs.
    """

    counters: dict
    gauges: dict
    histograms: dict

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity."""
        return cls(counters={}, gauges={}, histograms={})

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pointwise fold: counters add, gauges max, histograms merge."""
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0) + value
        gauges = dict(self.gauges)
        for key, value in other.gauges.items():
            gauges[key] = max(gauges[key], value) if key in gauges else value
        histograms = dict(self.histograms)
        for key, snap in other.histograms.items():
            histograms[key] = (
                histograms[key].merge(snap) if key in histograms else snap
            )
        return MetricsSnapshot(
            counters=counters, gauges=gauges, histograms=histograms
        )

    def counter_total(self, name: str) -> int:
        """Sum of one counter across every label set."""
        return sum(
            value
            for (metric, _labels), value in self.counters.items()
            if metric == name
        )

    def events(self) -> list[dict]:
        """JSONL-ready metric events, deterministically ordered."""
        out = []
        for (name, labels) in sorted(self.counters):
            out.append(
                {
                    "type": "counter",
                    "name": name,
                    "labels": dict(labels),
                    "value": self.counters[(name, labels)],
                }
            )
        for (name, labels) in sorted(self.gauges):
            out.append(
                {
                    "type": "gauge",
                    "name": name,
                    "labels": dict(labels),
                    "value": self.gauges[(name, labels)],
                }
            )
        for (name, labels) in sorted(self.histograms):
            out.append(
                {
                    "type": "histogram",
                    "name": name,
                    "labels": dict(labels),
                    **self.histograms[(name, labels)].as_dict(),
                }
            )
        return out

    @classmethod
    def from_events(cls, events: list[dict]) -> "MetricsSnapshot":
        """Rebuild a snapshot from :meth:`events` output (JSONL import).

        Each metric event becomes a one-instrument snapshot, and
        :meth:`merge` folds them; events of other types are skipped.
        """
        snapshot = cls.empty()
        for event in events:
            section = _SECTIONS.get(event.get("type"))
            if section is None:
                continue
            key = (event["name"], _label_key(event["labels"]))
            value = (
                HistogramSnapshot.from_dict(event)
                if section == "histograms"
                else event["value"]
            )
            part = replace(cls.empty(), **{section: {key: value}})
            snapshot = snapshot.merge(part)
        return snapshot


def merge_metric_events(a: dict, b: dict) -> dict:
    """Fold two JSONL metric events for one instrument into one.

    The event-dict face of :meth:`MetricsSnapshot.merge` — counters
    add, gauges take the max, histograms merge exactly — used by the
    digest tree (:mod:`repro.obs.tree`) to fold metric leaves so that
    tree merging agrees with :meth:`MetricsRegistry.absorb`.  Both
    events must describe the same instrument (type, name and labels).
    """
    kind = a.get("type")
    if (
        b.get("type") != kind
        or a.get("name") != b.get("name")
        or a.get("labels") != b.get("labels")
    ):
        raise ObsError(
            "cannot fold metric events for different instruments:"
            f" {a.get('type')}:{a.get('name')}:{a.get('labels')} !="
            f" {b.get('type')}:{b.get('name')}:{b.get('labels')}"
        )
    if kind not in _SECTIONS:
        raise ObsError(f"cannot fold events of non-metric type {kind!r}")
    (merged,) = MetricsSnapshot.from_events([a, b]).events()
    return merged


class MetricsRegistry:
    """Creates and caches labeled instruments; snapshots the whole set.

    Example::

        reg = MetricsRegistry()
        reg.counter("fleet.records_sent", shard=0).inc()
        reg.histogram("fleet.enrollment_latency_ms").observe(12.5)
        snap = reg.snapshot()
        snap.merge(MetricsSnapshot.empty()) == snap   # identity law
    """

    def __init__(self) -> None:
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}
        self._histogram_bounds: dict = {}
        self._absorbed = MetricsSnapshot.empty()

    def counter(self, name: str, **labels) -> Counter:
        """The counter registered under ``name`` + ``labels``."""
        key = (name, _label_key(labels))
        if key not in self._counters:
            self._counters[key] = Counter()
        return self._counters[key]

    def gauge(self, name: str, **labels) -> Gauge:
        """The high-watermark gauge under ``name`` + ``labels``."""
        key = (name, _label_key(labels))
        if key not in self._gauges:
            self._gauges[key] = Gauge()
        return self._gauges[key]

    def histogram(
        self, name: str, bounds: tuple | None = None, **labels
    ) -> Histogram:
        """The histogram under ``name`` + ``labels``.

        Bucket bounds are fixed per metric *name* at first creation so
        every label series of one metric stays mergeable.
        """
        key = (name, _label_key(labels))
        if key not in self._histograms:
            if name in self._histogram_bounds:
                fixed = self._histogram_bounds[name]
                if bounds is not None and tuple(bounds) != fixed:
                    raise ObsError(
                        f"histogram {name!r} already registered with"
                        f" bounds {fixed}"
                    )
                bounds = fixed
            else:
                bounds = (
                    tuple(bounds) if bounds is not None else DEFAULT_BUCKETS_MS
                )
                self._histogram_bounds[name] = bounds
            self._histograms[key] = Histogram(bounds)
        return self._histograms[key]

    def absorb(self, snapshot: MetricsSnapshot) -> None:
        """Fold a frozen snapshot into the registry.

        The process-parallel orchestrator's barrier merge: each worker
        ships its registry as a :class:`MetricsSnapshot` and the parent
        absorbs them all.  Absorbed snapshots fold into one held
        snapshot with :meth:`MetricsSnapshot.merge`, so
        ``registry.snapshot()`` afterwards equals
        ``before.merge(snapshot)`` for any absorption order.  A
        histogram's bounds are fixed per metric name here as in
        :meth:`histogram`.
        """
        for (name, _labels), snap in snapshot.histograms.items():
            fixed = self._histogram_bounds.setdefault(name, snap.bounds)
            if fixed != snap.bounds:
                raise ObsError(
                    f"histogram {name!r} already registered with"
                    f" bounds {fixed}"
                )
        self._absorbed = self._absorbed.merge(snapshot)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every live instrument, merged with what was absorbed."""
        live = MetricsSnapshot(
            counters={
                key: counter.value for key, counter in self._counters.items()
            },
            gauges={
                key: gauge.value
                for key, gauge in self._gauges.items()
                if gauge.value is not None
            },
            histograms={
                key: histogram.snapshot()
                for key, histogram in self._histograms.items()
            },
        )
        return live.merge(self._absorbed)
