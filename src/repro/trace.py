"""Primitive-operation cost tracing.

The paper measures protocol execution time on four embedded boards.  We run
the *real* cryptography (pure Python) and, instead of wall-clock time, count
how often each costly primitive is invoked.  A device model
(:mod:`repro.hardware`) then prices each event class to reconstruct the
embedded execution time.  This mirrors how embedded engineers budget
cycle counts before measuring on silicon.

Every traced primitive calls :func:`record` with a stable event name, e.g.::

    ec.mul_base      scalar multiplication of the curve base point
    ec.mul_point     scalar multiplication of an arbitrary point
    ec.mul_double    Shamir/Strauss double multiplication (u*P + v*Q)
    ec.add           stand-alone affine point addition
    mod.inv          stand-alone modular inversion
    sha2.block       one 64-byte (SHA-256) / 128-byte (SHA-512) compression
    aes.block        one AES block encryption/decryption
    hmac.call        one HMAC computation (excl. its hash blocks)
    kdf.call         one KDF invocation (excl. its hash blocks)
    drbg.generate    one DRBG generate call
    rng.bytes        random byte generation request

Tracing is nestable: multiple :class:`CostTrace` objects may be active at
once (e.g. a per-operation trace inside a per-protocol trace) and each
records every event.  When no trace is active, :func:`record` is a cheap
no-op, so the primitives stay usable as an ordinary crypto library.

A memoized computation keeps the device's bill intact with
:class:`capture` and :func:`replay`: the first run records its ordered
event stream, and every later hit replays that stream into the active
traces instead of redoing the host work.
"""

from __future__ import annotations

from contextvars import ContextVar

#: Active recorders: every open :class:`CostTrace` plus any open
#: :class:`capture`; each has a ``record(event, n)`` method.
_ACTIVE: ContextVar[tuple["CostTrace | capture", ...]] = ContextVar(
    "repro_active_traces", default=()
)


class CostTrace:
    """A counter of primitive-operation events.

    Attributes:
        counts: plain dict of event name to number of occurrences, in
            the order each event was first recorded.  Pricing sums in
            that order and memoizes totals keyed by the ordered items
            (:meth:`repro.hardware.CostModel.price`), so the order is
            part of a trace's value.
        label: optional human-readable label (used in reports).
    """

    __slots__ = ("counts", "label")

    def __init__(self, label: str = "") -> None:
        self.counts: dict[str, int] = {}
        self.label = label

    def record(self, event: str, n: int = 1) -> None:
        """Add ``n`` occurrences of ``event`` to this trace."""
        counts = self.counts
        counts[event] = counts.get(event, 0) + n

    def merge(self, other: "CostTrace") -> None:
        """Fold another trace's counts into this one.

        Events new to this trace follow its own, in ``other``'s order.
        """
        counts = self.counts
        for event, n in other.counts.items():
            counts[event] = counts.get(event, 0) + n

    def copy(self) -> "CostTrace":
        """Return an independent copy of this trace."""
        dup = CostTrace(self.label)
        dup.counts = dict(self.counts)
        return dup

    def __getitem__(self, event: str) -> int:
        return self.counts.get(event, 0)

    def total(self, prefix: str = "") -> int:
        """Total event count, optionally restricted to a name prefix."""
        return sum(
            n for name, n in self.counts.items() if name.startswith(prefix)
        )

    def as_dict(self) -> dict[str, int]:
        """Snapshot the counts as a plain dict (sorted by event name)."""
        return dict(sorted(self.counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        label = f" {self.label!r}" if self.label else ""
        return f"<CostTrace{label} {inner}>"


def record(event: str, n: int = 1) -> None:
    """Record ``n`` occurrences of ``event`` on every active trace."""
    traces = _ACTIVE.get()
    if traces:
        for t in traces:
            t.record(event, n)


def tracing_active() -> bool:
    """Return True if at least one :class:`CostTrace` or :class:`capture` is active."""
    return bool(_ACTIVE.get())


class trace:  # noqa: N801 - called like a function: ``with trace.trace():``
    """Context manager that activates a fresh :class:`CostTrace`.

    A slotted class rather than a generator ``@contextmanager``, because
    every record of the fleet's record channel opens two of these scopes.

    Example::

        with trace("sts-op1") as t:
            curve.mul_base(secret)
        assert t["ec.mul_base"] == 1
    """

    __slots__ = ("_trace", "_token")

    def __init__(self, label: str = "") -> None:
        self._trace = CostTrace(label)

    def __enter__(self) -> CostTrace:
        self._token = _ACTIVE.set(_ACTIVE.get() + (self._trace,))
        return self._trace

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._token)


class capture:  # noqa: N801 - used like ``trace``: ``with capture() as c:``
    """Context manager that keeps the ordered event stream of a block.

    Events still reach every active trace exactly once; the capture
    additionally appends each ``(event, n)`` call, in order, to
    :attr:`events`, so :func:`replay` can charge the same stream later.
    It records even when no trace is active, and it is not a
    :class:`trace` scope.

    Example::

        with capture() as c:
            mul_point(k, p)
        with trace() as t:
            replay(c.events)
        assert t["ec.mul_point"] == 1
    """

    __slots__ = ("events", "_token")

    def __init__(self) -> None:
        self.events: list[tuple[str, int]] = []

    def record(self, event: str, n: int = 1) -> None:
        """Append one ``(event, n)`` call to the captured stream."""
        self.events.append((event, n))

    def __enter__(self) -> "capture":
        self._token = _ACTIVE.set(_ACTIVE.get() + (self,))
        return self

    def __exit__(self, *exc_info) -> None:
        _ACTIVE.reset(self._token)


def replay(events) -> None:
    """Record a captured ``(event, n)`` stream again, call by call.

    Every active recorder sees the same calls in the same order as when
    the stream was captured, so counts and first-seen order match.
    """
    traces = _ACTIVE.get()
    if traces:
        for event, n in events:
            for t in traces:
                t.record(event, n)
