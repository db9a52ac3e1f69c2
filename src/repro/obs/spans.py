"""Hierarchical sim-time spans with deterministic identifiers.

A :class:`Span` is one interval on the *simulated* clock — a fleet run,
one shard's lifetime, one vehicle's lifecycle, one enrollment or session
establishment inside it.  Spans form a tree: every span except the root
names a parent, and a child's interval must nest inside its parent's.

Determinism is the design constraint everything here serves:

* **Ids are deterministic.**  Span ids are assigned sequentially in
  ``begin()`` order.  The orchestrator opens spans at deterministic
  simulation events, so two runs with equal ``(config, seed)`` produce
  identical id streams — no UUIDs, no wall-clock, no process state.
* **Timestamps are sim-time.**  ``start_ms``/``end_ms`` come from the
  discrete-event clock, never from the host.
* **Wall-clock is opt-in and clearly marked.**  With
  ``wall_clock=True`` the recorder annotates each finished span with a
  host-monotonic ``wall_ns`` duration.  That field is *non-deterministic
  by definition*; :meth:`Span.deterministic_dict` strips it, and the
  determinism property tests compare exactly that view.

When no recorder is attached to a fleet run nothing in this module is
ever called — the same zero-overhead-when-disabled contract
:mod:`repro.trace` honors.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..errors import ObsError
from .lint import run_lint

__all__ = ["Span", "SpanRecorder"]

#: Well-known span categories the fleet instrumentation emits.  The set
#: is advisory (custom callers may invent categories); exporters use it
#: to group tracks.
FLEET_CATEGORIES = (
    "run",
    "shard",
    "vehicle",
    "enroll",
    "establish",
    "re-enroll",
    "rekey",
    "migrate",
    "rejoin",
    "failover",
    "v2v",
    "injection",
    "ca-batch",
    "heartbeat",
)


def _freeze_attrs(attributes: dict) -> tuple:
    """Canonicalize an attribute mapping (sorted, hashable, JSON-safe)."""
    frozen = []
    for key in sorted(attributes):
        value = attributes[key]
        if value is None or isinstance(value, (str, int, float, bool)):
            frozen.append((key, value))
        else:
            frozen.append((key, str(value)))
    return tuple(frozen)


@dataclass(frozen=True)
class Span:
    """One finished interval on the simulated clock.

    Attributes:
        span_id: deterministic sequential id (``begin()`` order).
        parent_id: id of the enclosing span, ``None`` for a root.
        name: human-readable label (``veh0003:establish`` ...).
        category: coarse class (one of :data:`FLEET_CATEGORIES` for
            fleet runs).
        start_ms / end_ms: simulated interval, ``end_ms >= start_ms``.
        attributes: sorted ``(key, value)`` pairs of deterministic
            annotations (shard index, session generation, ...).
        wall_ns: host-monotonic duration of the instrumented block —
            **non-deterministic**, present only under
            ``SpanRecorder(wall_clock=True)`` and excluded from
            :meth:`deterministic_dict`.
    """

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_ms: float
    end_ms: float
    attributes: tuple = ()
    wall_ns: int | None = None

    @property
    def duration_ms(self) -> float:
        """Simulated duration of this span."""
        return self.end_ms - self.start_ms

    def deterministic_dict(self) -> dict:
        """JSON-ready mapping with every non-deterministic field removed."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "cat": self.category,
            "start_ms": self.start_ms,
            "end_ms": self.end_ms,
            "attrs": {key: value for key, value in self.attributes},
        }

    def as_dict(self) -> dict:
        """JSON-ready mapping including the wall-clock annotation."""
        data = self.deterministic_dict()
        if self.wall_ns is not None:
            data["wall"] = {"wall_ns": self.wall_ns}
        return data


class _OpenSpan:
    """Book-keeping for a span between ``begin()`` and ``end()``."""

    __slots__ = ("span_id", "parent_id", "name", "category", "start_ms",
                 "attributes", "wall_t0")

    def __init__(self, span_id, parent_id, name, category, start_ms,
                 attributes, wall_t0):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start_ms = start_ms
        self.attributes = attributes
        self.wall_t0 = wall_t0


class SpanRecorder:
    """Collects a deterministic span tree for one run.

    The recorder never touches a clock itself: callers pass the
    simulated timestamp into :meth:`begin`/:meth:`end` explicitly, so the
    recorder composes with any clock source (the fleet instrumentation
    passes ``Simulator.now``).

    Example::

        rec = SpanRecorder()
        run = rec.begin("run", "run", 0.0)
        child = rec.begin("veh0", "vehicle", 1.5, parent=run, shard=0)
        rec.end(child, 9.0)
        rec.end(run, 10.0)
        rec.validate()          # tree well-formed: parents exist, nesting
    """

    def __init__(self, wall_clock: bool = False) -> None:
        self.wall_clock = wall_clock
        self._finished: list[Span] = []
        self._open: dict[int, _OpenSpan] = {}
        self._next_id = 0

    # -- recording ----------------------------------------------------------

    def begin(
        self,
        name: str,
        category: str,
        start_ms: float,
        parent: int | None = None,
        **attributes,
    ) -> int:
        """Open a span; returns its deterministic id."""
        if parent is not None and not self._knows(parent):
            raise ObsError(
                f"span {name!r} names unknown parent id {parent}"
            )
        span_id = self._next_id
        self._next_id += 1
        self._open[span_id] = _OpenSpan(
            span_id,
            parent,
            name,
            category,
            start_ms,
            dict(attributes),
            time.perf_counter_ns() if self.wall_clock else None,
        )
        return span_id

    def end(self, span_id: int, end_ms: float, **attributes) -> Span:
        """Close an open span at ``end_ms``; extra attributes merge in."""
        try:
            pending = self._open.pop(span_id)
        except KeyError:
            raise ObsError(
                f"span id {span_id} is not open (double end, or never"
                " begun)"
            ) from None
        if end_ms < pending.start_ms:
            raise ObsError(
                f"span {pending.name!r} would end at {end_ms} ms, before"
                f" its start {pending.start_ms} ms"
            )
        pending.attributes.update(attributes)
        span = Span(
            span_id=pending.span_id,
            parent_id=pending.parent_id,
            name=pending.name,
            category=pending.category,
            start_ms=pending.start_ms,
            end_ms=end_ms,
            attributes=_freeze_attrs(pending.attributes),
            wall_ns=(
                time.perf_counter_ns() - pending.wall_t0
                if pending.wall_t0 is not None
                else None
            ),
        )
        self._finished.append(span)
        return span

    def event(
        self,
        name: str,
        category: str,
        at_ms: float,
        parent: int | None = None,
        **attributes,
    ) -> Span:
        """Record a zero-duration marker span (e.g. a shard rejoin)."""
        span_id = self.begin(
            name, category, at_ms, parent=parent, **attributes
        )
        return self.end(span_id, at_ms)

    # -- introspection ------------------------------------------------------

    def _knows(self, span_id: int) -> bool:
        return span_id in self._open or any(
            span.span_id == span_id for span in self._finished
        )

    @property
    def open_count(self) -> int:
        """Number of spans begun but not yet ended."""
        return len(self._open)

    def finished(self) -> tuple[Span, ...]:
        """Finished spans sorted by deterministic id."""
        return tuple(sorted(self._finished, key=lambda s: s.span_id))

    def by_category(self, category: str) -> tuple[Span, ...]:
        """Finished spans of one category, id-sorted."""
        return tuple(
            span for span in self.finished() if span.category == category
        )

    def validate(self) -> None:
        """Check the finished tree is well-formed; raise :class:`ObsError`.

        Well-formed means: no span is still open, and the finished spans
        pass tracelint's ``span-nesting`` rule — every ``parent_id``
        resolves to a finished span, every interval is non-negative, and
        every child's interval nests inside its parent's.  This is the
        invariant the hypothesis property suite drives.
        """
        if self._open:
            names = [s.name for s in self._open.values()][:5]
            raise ObsError(f"spans still open: {names}")
        findings = run_lint(
            (span.as_dict() for span in self.finished()),
            rules=("span-nesting",),
        )
        if findings:
            raise ObsError(findings[0].message)
