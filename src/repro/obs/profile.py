"""Backend profiling hooks: wall-time per primitive event class.

:class:`ProfilingBackend` wraps any registered crypto backend and times
every call through the seam, bucketed by the same event classes
:mod:`repro.trace` counts (``ec.mul_base``, ``ec.mul_point``,
``ec.mul_double``, ``sha2``, ``hmac``, ``aes``).  Because the wrapper
is *pure delegation* — same bytes out, no extra trace events, no DRBG
draws — golden digests survive profiling bit-identically; only host
wall-clock numbers (non-deterministic by definition) are added.

:func:`profile_fleet_run` runs one fleet under a profiled backend and
reconciles the measured wall time against the ``CostTrace`` counts of
the same run, and :func:`speedup_table` folds a reference profile and
an accelerated profile into the per-primitive speedup table
``bench_fleet_scale.py --json`` emits.

A row's backend ``calls`` can be lower than its ``trace_count``: the
trace counts the simulated device's work, the calls count the host's.
A :class:`~repro.ecqv.KeyCache` hit replays the ``ec.mul_point`` of a
peer-key reconstruction without calling the backend, so a fleet that
re-keys makes fewer ``ec_mul`` calls than it records ``ec.mul_point``
events.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

from ..backend import (
    register_backend,
    unregister_backend,
    use_backend,
)
from ..errors import ObsError
from .. import trace as trace_mod

__all__ = [
    "PRIMITIVE_CLASSES",
    "ProfileReport",
    "ProfilingBackend",
    "profile_fleet_run",
    "profiled_backend",
    "render_speedup_table",
    "speedup_table",
]

#: Profiled event classes and the ``CostTrace`` event whose count they
#: reconcile against (``None`` → no direct trace counterpart).
PRIMITIVE_CLASSES = {
    "ec.mul_base": "ec.mul_base",
    "ec.mul_point": "ec.mul_point",
    "ec.mul_double": "ec.mul_double",
    "ec.normalize": None,
    "sha2": "sha2.block",
    "hmac": "hmac.call",
    "aes": "aes.block",
}


class _TimedProxy:
    """Times every method call on a wrapped object under one event class.

    Used for the streaming hash and cipher objects the backend hands
    out, so ``update``/``digest``/``encrypt_cbc``/... time is attributed
    to the class of the call that created the object.
    """

    __slots__ = ("_inner", "_profile", "_event")

    def __init__(self, inner, profile, event):
        self._inner = inner
        self._profile = profile
        self._event = event

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        profile, event = self._profile, self._event

        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                result = attr(*args, **kwargs)
            finally:
                profile._add(event, time.perf_counter_ns() - start, calls=0)
            if result is self._inner:  # chainable update() stays wrapped
                return self
            return result

        return timed


#: The backend seam methods :class:`ProfilingBackend` forwards and times:
#: the event class each is timed under and, for a batch or check method,
#: the parameter whose terms each count as one call.
_FORWARDED = {
    "hash_digest": ("sha2", None),
    "hmac_digest": ("hmac", None),
    "ec_mul_base": ("ec.mul_base", None),
    "ec_mul": ("ec.mul_point", None),
    "ec_mul_double": ("ec.mul_double", None),
    "ec_mul_base_batch": ("ec.mul_base", "ks"),
    "ec_mul_double_batch": ("ec.mul_double", "terms"),
    "ec_mul_double_check": ("ec.mul_double", "terms"),
    "ec_normalize_batch": ("ec.normalize", "jacs"),
}


class ProfilingBackend:
    """A delegating crypto backend that times each primitive class.

    The wrapper satisfies the full :class:`repro.backend.CryptoBackend`
    surface by forwarding to ``inner`` unchanged, so byte parity and
    trace parity are inherited — it only accumulates
    ``{event: {"wall_ns", "calls"}}`` on the side.  The seam methods
    other than ``create_hash``/``create_cipher``/``describe`` are timed
    wrappers bound on the instance, so a caller may look them up and
    replace them there.
    """

    def __init__(self, inner):
        self.inner = inner
        self.name = f"profiled:{inner.name}"
        self.timings: dict = {
            event: {"wall_ns": 0, "calls": 0} for event in PRIMITIVE_CLASSES
        }
        for method, (event, batch) in _FORWARDED.items():
            setattr(self, method, self._timed(method, event, batch))

    def _add(self, event: str, wall_ns: int, calls: int = 1) -> None:
        bucket = self.timings[event]
        bucket["wall_ns"] += wall_ns
        bucket["calls"] += calls

    def _timed(self, method: str, event: str, batch):
        """``inner.<method>`` timed under ``event``.

        The inner method is looked up at each call, so a later patch of
        the inner backend is seen.  A call counts once, or once per term
        of its ``batch`` argument (the last, by position or by name).
        """

        def timed(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return getattr(self.inner, method)(*args, **kwargs)
            finally:
                if batch is None:
                    calls = 1
                else:
                    calls = len(kwargs[batch] if batch in kwargs else args[-1])
                self._add(event, time.perf_counter_ns() - start, calls)

        return timed

    def create_hash(self, name: str, data: bytes = b""):
        """Delegate and time under the ``sha2`` class; proxy-wrapped."""
        start = time.perf_counter_ns()
        obj = self.inner.create_hash(name, data)
        self._add("sha2", time.perf_counter_ns() - start)
        return _TimedProxy(obj, self, "sha2")

    def create_cipher(self, key: bytes):
        """Delegate and time under the ``aes`` class; proxy-wrapped."""
        start = time.perf_counter_ns()
        obj = self.inner.create_cipher(key)
        self._add("aes", time.perf_counter_ns() - start)
        return _TimedProxy(obj, self, "aes")

    def describe(self) -> dict:
        """The inner backend's description, marked ``profiled``."""
        info = dict(self.inner.describe())
        info["name"] = self.name
        info["profiled"] = True
        return info


@contextmanager
def profiled_backend(base: str = "reference", name: str = "profiled"):
    """Activate a profiling wrapper around backend ``base`` for a block.

    Registers a temporary backend ``name``, scopes it with
    :func:`repro.backend.use_backend`, and always unregisters on exit so
    ``available_backends()`` is left untouched.  Yields the
    :class:`ProfilingBackend` (read ``.timings`` after the block).
    """
    with use_backend(base) as inner:
        profiler = ProfilingBackend(inner)
    register_backend(name, lambda: profiler)
    try:
        with use_backend(name):
            yield profiler
    finally:
        unregister_backend(name)


@dataclasses.dataclass(frozen=True)
class ProfileReport:
    """One profiled fleet run: wall time + trace counts per class."""

    backend: str
    wall_s: float
    digest: str
    timings: dict
    trace_counts: dict

    def rows(self) -> list:
        """Per-class rows reconciling wall time against trace counts."""
        out = []
        for event, trace_event in PRIMITIVE_CLASSES.items():
            bucket = self.timings[event]
            count = (
                self.trace_counts.get(trace_event, 0)
                if trace_event is not None
                else bucket["calls"]
            )
            out.append(
                {
                    "event": event,
                    "trace_event": trace_event,
                    "wall_ns": bucket["wall_ns"],
                    "calls": bucket["calls"],
                    "trace_count": count,
                }
            )
        return out

    def as_dict(self) -> dict:
        """JSON-ready mapping of the report (rows reconciled)."""
        return {
            "backend": self.backend,
            "wall_s": self.wall_s,
            "digest": self.digest,
            "rows": self.rows(),
        }


def profile_fleet_run(config, scenario=None, backend: str = "reference"):
    """Run one fleet with a profiled ``backend``; returns a report.

    ``config.backend`` is stripped (the profiled scope must win over the
    orchestrator's own ``use_backend(config.backend)`` wrapper) and the
    whole run is traced so primitive counts come from the same run the
    wall times do.
    """
    from ..fleet import run_fleet

    config = dataclasses.replace(config, backend=None)
    with profiled_backend(base=backend) as profiler:
        with trace_mod.trace(f"profile:{backend}") as cost:
            t0 = time.perf_counter()
            result = run_fleet(config, scenario=scenario)
            wall_s = time.perf_counter() - t0
    return ProfileReport(
        backend=backend,
        wall_s=wall_s,
        digest=result.stats.digest(),
        timings={k: dict(v) for k, v in profiler.timings.items()},
        trace_counts=cost.as_dict(),
    )


def speedup_table(reference: ProfileReport, accelerated: ProfileReport):
    """Fold two profiles into per-primitive speedup rows.

    Both runs must be the same deterministic workload: digests and
    trace counts are required to match exactly (that *is* the
    bit-parity contract the seam promises), otherwise the comparison
    would be between different work.
    """
    if reference.digest != accelerated.digest:
        raise ObsError(
            "profiled runs diverged: digest"
            f" {reference.digest[:16]} != {accelerated.digest[:16]}"
        )
    if reference.trace_counts != accelerated.trace_counts:
        raise ObsError(
            "profiled runs diverged: trace counts differ between"
            " backends"
        )
    rows = []
    acc_by_event = {row["event"]: row for row in accelerated.rows()}
    for ref_row in reference.rows():
        acc_row = acc_by_event[ref_row["event"]]
        ref_ns, acc_ns = ref_row["wall_ns"], acc_row["wall_ns"]
        rows.append(
            {
                "event": ref_row["event"],
                "trace_count": ref_row["trace_count"],
                "reference_ms": ref_ns / 1e6,
                "accelerated_ms": acc_ns / 1e6,
                "speedup": (ref_ns / acc_ns) if acc_ns else None,
            }
        )
    return {
        "rows": rows,
        "reference_wall_s": reference.wall_s,
        "accelerated_wall_s": accelerated.wall_s,
        "digest": reference.digest,
    }


def render_speedup_table(table: dict) -> str:
    """Plain-text rendering of :func:`speedup_table` output."""
    lines = [
        f"{'primitive':<14} {'trace count':>12} {'reference ms':>13}"
        f" {'accel ms':>10} {'speedup':>8}",
    ]
    for row in table["rows"]:
        speedup = (
            f"{row['speedup']:.1f}x" if row["speedup"] is not None else "—"
        )
        lines.append(
            f"{row['event']:<14} {row['trace_count']:>12}"
            f" {row['reference_ms']:>13.2f}"
            f" {row['accelerated_ms']:>10.2f} {speedup:>8}"
        )
    return "\n".join(lines)
