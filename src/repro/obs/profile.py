"""Backend profiling hooks: wall-time per primitive event class.

:class:`ProfilingBackend` wraps any registered crypto backend and times
every call through the seam, bucketed by the same event classes
:mod:`repro.trace` counts (``ec.mul_base``, ``ec.mul_point``,
``ec.mul_double``, ``sha2``, ``hmac``, ``aes``).  Because the wrapper
is *pure delegation* — same bytes out, no extra trace events, no DRBG
draws — golden digests survive profiling bit-identically; only host
wall-clock numbers (non-deterministic by definition) are added.
:func:`profiled_backend` scopes one over a block; perfbench's traced
pass reads its ``timings`` as the backend layer's host time.

A bucket's backend ``calls`` can be lower than the run's trace count
for the same class: the trace counts the simulated device's work, the
calls count the host's.  A :class:`~repro.ecqv.KeyCache` hit replays
the ``ec.mul_point`` of a peer-key reconstruction without calling the
backend, so a fleet that re-keys makes fewer ``ec_mul`` calls than it
records ``ec.mul_point`` events.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from ..backend import (
    register_backend,
    unregister_backend,
    use_backend,
)

__all__ = [
    "PRIMITIVE_CLASSES",
    "ProfilingBackend",
    "profiled_backend",
]

#: The event classes :class:`ProfilingBackend` buckets host time by.
PRIMITIVE_CLASSES = (
    "ec.mul_base",
    "ec.mul_point",
    "ec.mul_double",
    "ec.normalize",
    "sha2",
    "hmac",
    "aes",
)


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
