"""Per-layer tracing for the benchmark's traced pass.

The tracer wraps the public entry point of each layer *from outside*
``repro`` — class attributes and module functions are swapped for timing
wrappers while a traced repetition runs and put back afterwards — and
records one span per call: name, start, end, parent span, workload and
repetition.  Only calls inside ``FleetOrchestrator.run`` (the root span)
are traced, so fleet construction stays out of the numbers.

The crypto backend is timed per primitive by
:func:`repro.obs.profiled_backend`.  The profiler times nested primitive
calls twice (on the reference backend an HMAC's inner SHA-2 counts under
both classes), so for self times a :class:`BackendClock` adds up only
the outermost backend calls.  A span's self time is its duration minus
its child spans and minus the backend calls made directly under it.

Wrappers run in the process that installs them.  Worker processes of a
``workers > 1`` run inherit them but their spans stay in the worker, so
the caller traces such a workload a second time at ``workers=1``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

#: Backend primitive classes reported, as (metric name, profiler event).
BACKEND_PRIMITIVES = (
    ("ec_mul_base", "ec.mul_base"),
    ("ec_mul_point", "ec.mul_point"),
    ("ec_mul_double", "ec.mul_double"),
    ("sha2", "sha2"),
    ("hmac", "hmac"),
    ("aes", "aes"),
)

#: Backend methods the :class:`BackendClock` times.
BACKEND_METHODS = (
    "create_hash", "hash_digest", "hmac_digest", "create_cipher",
    "ec_mul_base", "ec_mul", "ec_mul_double", "ec_mul_base_batch",
    "ec_mul_double_batch", "ec_normalize_batch",
)

#: The root span: only calls made inside a fleet run are traced.
ROOT = "fleet.run"

#: Span layers: the entry points wrapped, as (span name, import path of
#: the owner, attribute).  Two entries may share a span name; a call that
#: re-enters the layer it is already in is not a new span.
ENTRY_POINTS = (
    (ROOT, "repro.fleet.orchestrator:FleetOrchestrator", "run"),
    ("fleet.parallel", "repro.fleet.parallel", "run_parallel"),
    ("fleet.policy.decide", "repro.fleet.policy:PolicyEngine", "decide"),
    ("protocols.establish", "repro.fleet.orchestrator", "run_protocol"),
    ("protocols.send", "repro.protocols.manager:SessionManager", "send"),
    ("protocols.receive", "repro.protocols.manager:SessionManager", "receive"),
    ("ecqv.issue_batch", "repro.ecqv.ca:CertificateAuthority", "issue_batch"),
    ("hardware.price", "repro.hardware.devices:DeviceModel", "time_ms"),
    ("hardware.price", "repro.hardware.devices:DeviceModel", "energy_mj"),
)

#: Counted, not timed: every ``repro.trace.trace`` scope opened in a run.
TRACE_SCOPES = ("repro.trace", "trace")


def _owner(path: str):
    """The module or class an :data:`ENTRY_POINTS` path names."""
    module_name, _, class_name = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, class_name) if class_name else module


def entry_point_objects() -> dict:
    """``(owner path, attribute) -> object`` currently installed.

    Compared before and after a traced repetition to prove the wrappers
    are gone.
    """
    return {
        (path, attr): _owner(path).__dict__[attr]
        for _, path, attr in ENTRY_POINTS + (("", *TRACE_SCOPES),)
    }


class BackendClock:
    """Wall time inside the outermost calls through a backend object.

    Wraps the backend's methods on the instance, and the hash and cipher
    objects they hand out, so a primitive that calls another primitive
    through the backend is timed once.
    """

    def __init__(self, backend) -> None:
        self.ns = 0
        self._busy = False
        for name in BACKEND_METHODS:
            method = getattr(backend, name)
            if name.startswith("create_"):
                method = self._proxying(method)
            setattr(backend, name, self.timed(method))

    def timed(self, method):
        clock = self

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            if clock._busy:
                return method(*args, **kwargs)
            clock._busy = True
            start = time.perf_counter_ns()
            try:
                return method(*args, **kwargs)
            finally:
                clock.ns += time.perf_counter_ns() - start
                clock._busy = False

        return wrapper

    def _proxying(self, factory):
        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _ClockedObject(factory(*args, **kwargs), self)

        return wrapper


class _ClockedObject:
    """A hash or cipher object whose method calls run on the clock."""

    __slots__ = ("_inner", "_clock")

    def __init__(self, inner, clock: BackendClock) -> None:
        self._inner = inner
        self._clock = clock

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr
        timed = self._clock.timed(attr)

        def call(*args, **kwargs):
            result = timed(*args, **kwargs)
            return self if result is self._inner else result

        return call


def _new_totals():
    totals = defaultdict(
        lambda: {"calls": 0, "busy_ns": 0, "self_ns": 0, "failed": 0}
    )
    totals["backend"] = defaultdict(lambda: {"wall_ns": 0, "calls": 0})
    return totals


class LayerTracer:
    """Spans and counts at every layer boundary of one traced pass."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        #: Finished spans: (id, name, start_ns, end_ns, parent id, rep).
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._rep = None
        self._profiler = None
        self._clock = None
        self._at_root: dict = {}
        self._totals: dict = {}

    # -- span bookkeeping -------------------------------------------------

    def _backend_ns(self) -> int:
        return self._clock.ns if self._clock is not None else 0

    def _primitive_timings(self) -> dict:
        if self._profiler is None:
            return {}
        return {
            event: (bucket["wall_ns"], bucket["calls"])
            for event, bucket in self._profiler.timings.items()
        }

    def _open(self, name: str) -> list:
        if name == ROOT:
            self._at_root = self._primitive_timings()
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        # id, name, parent, start, backend ns at start, child busy, child backend
        frame = [self._next_id, name, parent, 0, self._backend_ns(), 0, 0]
        self._stack.append(frame)
        frame[3] = time.perf_counter_ns()
        return frame

    def _close(self, frame: list, failed: bool) -> None:
        end = time.perf_counter_ns()
        span_id, name, parent, start, backend_start, child_busy, child_backend = frame
        self._stack.pop()
        busy = end - start
        backend = self._backend_ns() - backend_start
        total = self._totals[name]
        total["calls"] += 1
        total["busy_ns"] += busy
        total["self_ns"] += busy - child_busy - (backend - child_backend)
        total["failed"] += failed
        if self._stack:
            self._stack[-1][5] += busy
            self._stack[-1][6] += backend
        else:
            spent = self._totals["backend"]
            for event, (wall_ns, calls) in self._primitive_timings().items():
                before_ns, before_calls = self._at_root[event]
                spent[event]["wall_ns"] += wall_ns - before_ns
                spent[event]["calls"] += calls - before_calls
        self.spans.append((span_id, name, start, end, parent, self._rep))

    def _wrap(self, name: str, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack[-1][1] == name if stack else name != ROOT:
                # Re-entry into the current layer, or a call outside any
                # run (fleet construction): not a span of this pass.
                return original(*args, **kwargs)
            if name == "ecqv.issue_batch":
                tracer._totals["ecqv.requests"]["calls"] += len(args[1])
            frame = tracer._open(name)
            failed = True
            try:
                result = original(*args, **kwargs)
                failed = False
            finally:
                tracer._close(frame, failed)
            if name == ROOT and hasattr(args[0], "sim"):
                # Serial runs only: a parallel run's simulators live in
                # its worker processes.
                tracer._totals["sim.events"]["calls"] += (
                    args[0].sim.events_processed
                )
            return result

        return wrapper

    def _count_trace_scopes(self, original):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._stack:
                tracer._totals["trace.scopes"]["calls"] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- one traced repetition --------------------------------------------

    @contextmanager
    def traced(self, rep, backend: str | None):
        """Install every wrapper, and profile ``backend``, for one block.

        Yields the repetition's totals, complete once the block exits.
        With a ``backend`` the block must run its fleet with
        ``FleetConfig.backend=None`` so the profiled scope is in effect;
        ``None`` leaves the backend unprofiled (a parallel run, whose
        backend calls happen in its workers).  Every wrapper is restored
        on exit, also when the block raises.
        """
        from repro.obs import profiled_backend

        self._totals, self._rep, self._stack = _new_totals(), rep, []
        patches = []
        try:
            for name, path, attr in ENTRY_POINTS:
                owner = _owner(path)
                original = owner.__dict__[attr]
                patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            trace_module, attr = _owner(TRACE_SCOPES[0]), TRACE_SCOPES[1]
            original = trace_module.__dict__[attr]
            patches.append((trace_module, attr, original))
            setattr(trace_module, attr, self._count_trace_scopes(original))
            if backend is None:
                yield self._totals
            else:
                with profiled_backend(base=backend) as profiler:
                    self._profiler = profiler
                    self._clock = BackendClock(profiler)
                    yield self._totals
        finally:
            self._profiler = self._clock = None
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON line each."""
        fields = ("id", "name", "start_ns", "end_ns", "parent", "rep")
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = dict(zip(fields, span), workload=self.workload)
                out.write(json.dumps(record) + "\n")


def layer_metrics(totals: dict, sessions: int) -> dict:
    """Per-layer metric values of one traced repetition.

    ``totals`` is what :meth:`LayerTracer.traced` yielded; ``sessions``
    the STS sessions the repetition established.
    """
    out = {}
    backend = totals["backend"]
    for metric, event in BACKEND_PRIMITIVES:
        out[f"backend.{metric}.calls"] = backend[event]["calls"]
        out[f"backend.{metric}.busy_s"] = backend[event]["wall_ns"] / 1e9
    ec_calls = sum(
        backend[event]["calls"]
        for event in ("ec.mul_base", "ec.mul_point", "ec.mul_double")
    )
    out["backend.ec_calls_per_establishment"] = ec_calls / sessions
    for layer, stats in (
        ("protocols.send", ("calls", "busy_s", "self_s")),
        ("protocols.receive", ("calls", "busy_s", "self_s", "failed")),
        ("protocols.establish", ("calls", "busy_s", "self_s")),
        ("ecqv.issue_batch", ("calls", "busy_s")),
        ("hardware.price", ("calls", "busy_s")),
        ("fleet.policy.decide", ("calls", "busy_s")),
    ):
        span = totals[layer]
        for stat in stats:
            out[f"{layer}.{stat}"] = _stat(span, stat)
    issued = totals["ecqv.issue_batch"]["calls"]
    out["ecqv.issue_batch.requests_per_call"] = (
        totals["ecqv.requests"]["calls"] / issued if issued else 0.0
    )
    out["trace.scopes"] = totals["trace.scopes"]["calls"]
    out["sim.events"] = totals["sim.events"]["calls"]
    out["fleet.run.busy_s"] = _stat(totals[ROOT], "busy_s")
    out["fleet.self_s"] = _stat(totals[ROOT], "self_s")
    out["fleet.parallel.wait_s"] = _stat(totals["fleet.parallel"], "busy_s")
    return out


def _stat(span: dict, stat: str):
    if stat in ("busy_s", "self_s"):
        return span[stat[:-2] + "_ns"] / 1e9
    return span[stat]


#: Layer -> the metric whose zero means the layer was never entered.
LAYER_PROBES = {
    "backend": "backend.sha2.calls",
    "protocols": "protocols.send.calls",
    "ecqv": "ecqv.issue_batch.calls",
    "hardware": "hardware.price.calls",
    "trace": "trace.scopes",
    "sim": "sim.events",
    "fleet.policy": "fleet.policy.decide.calls",
    "fleet.parallel": "fleet.parallel.wait_s",
}


def unreached_layers(metrics: dict) -> list[str]:
    """Layers whose probe metric is zero in ``metrics``."""
    return [layer for layer, probe in LAYER_PROBES.items() if not metrics[probe]]
