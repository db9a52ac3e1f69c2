"""``repro.obs`` — deterministic fleet telemetry.

The paper's methodology is observability-by-counting: primitives are
traced (:mod:`repro.trace`) and priced into embedded execution time.
This package extends that lens along the axes the flat counters miss —
*when* things happened (sim-time spans), *where* (labeled metrics per
shard/backend/event class) and *how the run is going* (progress
heartbeats).  :mod:`repro.obs.profile` times the backend seam per
primitive class for perfbench's per-layer host-time report.

Two contracts, inherited from :class:`repro.trace.CostTrace`:

* **Zero overhead when disabled.**  Without an observer attached the
  orchestrator's only extra work is the one ``is not None`` check in
  its lifecycle narrator, and nothing in this package is imported.
* **Digest-neutral when enabled.**  The step handlers in
  :mod:`repro.obs.fleet` read state; they never consume DRBG output,
  never schedule simulator events, and never mutate fleet state —
  every historical golden digest reproduces
  bit-identically with observability on or off
  (``tests/fleet/test_goldens.py`` runs every golden with an observer
  attached).

Quickstart::

    >>> from repro.fleet import FleetConfig, run_fleet
    >>> from repro.obs import Observer
    >>> obs = Observer()
    >>> result = run_fleet(FleetConfig(
    ...     n_vehicles=2, seed=b"docs-obs", records_per_vehicle=2,
    ...     max_records=2, arrival_spread_ms=5.0), obs=obs)
    >>> obs.spans.validate()            # tree well-formed
    >>> obs.metrics.snapshot().counter_total("fleet.records_sent")
    4
    >>> [hb["vehicles_done"] for hb in obs.heartbeats][-1]
    2

Export the same run for Perfetto / ``chrome://tracing`` with
``obs.export_chrome_trace(path)``, as JSONL with
``obs.export_jsonl(path)``, or as a markdown rollup with
``obs.markdown_rollup()``.
"""

from __future__ import annotations

from .export import (
    CHROME_TRACE_SCHEMA,
    EVENT_SCHEMAS,
    chrome_trace,
    markdown_rollup,
    read_jsonl,
    validate_chrome_trace,
    validate_events,
    validate_schema,
    write_chrome_trace,
    write_jsonl,
)
from .diff import DivergenceReport, diff_runs
from .lint import (
    LINT_RULES,
    LintFinding,
    lint_archive,
    lint_rule,
    run_lint,
)
from .metrics import (
    DEFAULT_BUCKETS_MS,
    HistogramSnapshot,
    MetricsRegistry,
    MetricsSnapshot,
    merge_metric_events,
)
from .profile import PRIMITIVE_CLASSES, ProfilingBackend, profiled_backend
from .spans import FLEET_CATEGORIES, Span, SpanRecorder
from .tree import (
    TREE_SECTIONS,
    DigestTree,
    DigestTreeBuilder,
    TreeNode,
    event_tree_path,
)

__all__ = [
    "CHROME_TRACE_SCHEMA",
    "DEFAULT_BUCKETS_MS",
    "DigestTree",
    "DigestTreeBuilder",
    "DivergenceReport",
    "EVENT_SCHEMAS",
    "FLEET_CATEGORIES",
    "HistogramSnapshot",
    "LINT_RULES",
    "LintFinding",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observer",
    "PRIMITIVE_CLASSES",
    "ProfilingBackend",
    "Span",
    "SpanRecorder",
    "TREE_SECTIONS",
    "TreeNode",
    "chrome_trace",
    "diff_runs",
    "event_tree_path",
    "lint_archive",
    "lint_rule",
    "markdown_rollup",
    "merge_metric_events",
    "profiled_backend",
    "read_jsonl",
    "run_lint",
    "validate_chrome_trace",
    "validate_events",
    "validate_schema",
    "write_chrome_trace",
    "write_jsonl",
]


def _peak_rss_kb() -> int | None:
    """Peak resident set size of this process in kB (Linux/macOS)."""
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is kB on Linux, bytes on macOS.
        return peak // 1024 if sys.platform == "darwin" else peak
    except Exception:  # pragma: no cover - platform without resource
        return None


class Observer:
    """One run's telemetry: spans + metrics + heartbeats + meta.

    Args:
        wall_clock: annotate spans and heartbeats with host wall-clock
            and peak-RSS readings.  Off by default; the annotations are
            non-deterministic by definition and live under the clearly
            marked ``wall`` keys that :meth:`deterministic_events`
            strips.
        heartbeat_interval_ms: minimum *simulated* time between
            progress heartbeats (a final beat always fires at run end).
        on_heartbeat: optional callable invoked with each heartbeat
            dict — hook for live progress printing on long runs.
    """

    def __init__(
        self,
        wall_clock: bool = False,
        heartbeat_interval_ms: float = 1_000.0,
        on_heartbeat=None,
    ) -> None:
        if heartbeat_interval_ms <= 0:
            from ..errors import ObsError

            raise ObsError(
                "heartbeat_interval_ms must be positive,"
                f" got {heartbeat_interval_ms}"
            )
        self.wall_clock = wall_clock
        self.heartbeat_interval_ms = heartbeat_interval_ms
        self.on_heartbeat = on_heartbeat
        self.spans = SpanRecorder(wall_clock=wall_clock)
        self.metrics = MetricsRegistry()
        self.heartbeats: list[dict] = []
        self.meta: dict = {}

    # -- heartbeats ---------------------------------------------------------

    def heartbeat(
        self,
        sim_ms: float,
        vehicles_done: int,
        vehicles_total: int,
        records_sent: int,
    ) -> dict:
        """Record one progress beat (and return it)."""
        beat = {
            "type": "heartbeat",
            "sim_ms": sim_ms,
            "vehicles_done": vehicles_done,
            "vehicles_total": vehicles_total,
            "records_sent": records_sent,
        }
        if self.wall_clock:
            wall: dict = {}
            peak = _peak_rss_kb()
            if peak is not None:
                wall["peak_rss_kb"] = peak
            import tracemalloc

            if tracemalloc.is_tracing():
                current, traced_peak = tracemalloc.get_traced_memory()
                wall["tracemalloc_current"] = current
                wall["tracemalloc_peak"] = traced_peak
            if wall:
                beat["wall"] = wall
        self.heartbeats.append(beat)
        if self.on_heartbeat is not None:
            self.on_heartbeat(beat)
        return beat

    # -- event stream -------------------------------------------------------

    def _meta_event(self) -> dict:
        meta = {"type": "meta", "run": "fleet", "sim_end_ms": 0.0}
        meta.update(self.meta)
        return meta

    def events(self) -> list[dict]:
        """Full JSONL event stream: meta, spans, heartbeats, metrics."""
        events = [self._meta_event()]
        events.extend(span.as_dict() for span in self.spans.finished())
        events.extend(self.heartbeats)
        events.extend(self.metrics.snapshot().events())
        return events

    def deterministic_events(self) -> list[dict]:
        """The event stream with every ``wall`` annotation stripped.

        Two runs with equal ``(config, seed)`` produce *identical*
        output from this method — the property the hypothesis suite
        asserts.
        """
        events = [self._meta_event()]
        events.extend(
            span.deterministic_dict() for span in self.spans.finished()
        )
        events.extend(
            {key: value for key, value in beat.items() if key != "wall"}
            for beat in self.heartbeats
        )
        events.extend(self.metrics.snapshot().events())
        return events

    # -- exporters ----------------------------------------------------------

    def export_jsonl(self, path) -> int:
        """Write the full event stream as JSONL; returns event count."""
        return write_jsonl(path, self.events())

    def export_chrome_trace(self, path) -> dict:
        """Write a Perfetto/``chrome://tracing`` trace; returns it."""
        return write_chrome_trace(
            path,
            self.spans.finished(),
            heartbeats=self.heartbeats,
            meta=self.meta,
        )

    def markdown_rollup(self) -> str:
        """Markdown telemetry summary (body only, no header)."""
        return markdown_rollup(
            self.spans.finished(),
            self.metrics.snapshot(),
            heartbeats=self.heartbeats,
            meta=self.meta,
        )

    def digest_tree(self, include=None) -> DigestTree:
        """Hierarchical digest tree over :meth:`deterministic_events`.

        ``include`` restricts the tree to a subset of
        :data:`TREE_SECTIONS` (e.g. ``("metrics",)`` for the plane
        that is bit-identical across worker counts).
        """
        return DigestTree.from_events(
            self.deterministic_events(), include=include
        )

    def validate(self) -> int:
        """Validate the span tree and the event stream; returns count."""
        self.spans.validate()
        return validate_events(self.events())
