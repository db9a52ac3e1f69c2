"""A small discrete-event simulation engine.

Events are ``(time, sequence, callback)`` triples in a binary heap; the
sequence number makes simultaneous events fire in scheduling order, which
keeps every simulation deterministic.  The session timeline builder and
the scheduling experiments run on this engine.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from ..errors import SimulationError


class Simulator:
    """Deterministic event-driven simulator with millisecond time."""

    def __init__(self) -> None:
        #: ``(time, sequence, callback)`` heap; the unique sequence number
        #: settles every tie, so callbacks are never compared.
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._sequence = itertools.count()
        self.now: float = 0.0
        self._events_processed = 0

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now {self.now}"
            )
        heapq.heappush(self._queue, (time, next(self._sequence), callback))

    def schedule_after(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` after ``delay`` milliseconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.schedule_at(self.now + delay, callback)

    @property
    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    @property
    def events_processed(self) -> int:
        """Number of events executed so far."""
        return self._events_processed

    def step(self) -> bool:
        """Run the next event; returns False if the queue is empty."""
        if not self._queue:
            return False
        self.now, _, callback = heapq.heappop(self._queue)
        self._events_processed += 1
        callback()
        return True

    def run(self, until: float | None = None, max_events: int = 1_000_000) -> float:
        """Run until the queue drains (or ``until``); returns final time."""
        processed = 0
        while self._queue:
            if until is not None and self._queue[0][0] > until:
                self.now = until
                break
            if processed >= max_events:
                raise SimulationError(
                    f"simulation exceeded {max_events} events — runaway loop?"
                )
            self.step()
            processed += 1
        return self.now


class Resource:
    """A serially-reusable resource (e.g. one CPU, the CAN bus).

    Callers reserve an interval starting no earlier than ``ready_at``;
    the resource tracks when it frees up and its total busy time.

    ``record_intervals=False`` disables the per-reservation interval
    trace (an O(reservations) allocation) for constant-memory streaming
    runs; ``ready_at``/``busy_ms`` accounting — everything the
    simulated results depend on — is unaffected.
    """

    def __init__(self, name: str, record_intervals: bool = True) -> None:
        self.name = name
        self.ready_at: float = 0.0
        self.busy_ms: float = 0.0
        self.record_intervals = record_intervals
        self.intervals: list[tuple[float, float]] = []

    def reserve(self, earliest_start: float, duration: float) -> tuple[float, float]:
        """Occupy the resource; returns the (start, end) actually granted."""
        if duration < 0:
            raise SimulationError(f"negative duration {duration}")
        start = max(earliest_start, self.ready_at)
        end = start + duration
        self.ready_at = end
        self.busy_ms += duration
        if self.record_intervals:
            self.intervals.append((start, end))
        return start, end
