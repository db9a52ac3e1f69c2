"""Pluggable crypto backends: same bytes, same trace, different speed.

The from-scratch FIPS primitives in :mod:`repro.primitives` are the
*reference* implementation — readable, auditable, and the source of
truth for every test vector in the suite.  They are also what caps how
many vehicles and scenarios a fleet sweep can push through: the paper's
cost accounting only needs the *counts* of compressions and block
encryptions, yet the reference pays the full pure-Python price for each
one.  This package makes the implementation pluggable:

``reference``
    The unchanged from-scratch primitives.  Default.

``accelerated``
    ``hashlib``/``hmac`` from the standard library for the SHA-2 family
    and HMAC, and AES **and EC scalar multiplication** via the optional
    ``cryptography`` package (OpenSSL).  Without it, AES and EC run the
    reference code; EC also runs it on any curve the local OpenSSL
    build does not serve.  Trace events are computed analytically from
    message lengths — and stay with the EC callers entirely — so
    hardware pricing, energy accounting and every golden fleet/scenario
    digest are **bit-identical** to the reference; only host wall-clock
    changes.

Selection, most specific wins:

1. :func:`use_backend` — a context manager scoping a backend to a block
   (what :class:`repro.fleet.FleetConfig`'s ``backend`` knob uses);
2. :func:`set_backend` — process-wide default for the session;
3. the ``REPRO_BACKEND`` environment variable at import time;
4. ``reference``.

Example::

    >>> from repro.backend import available_backends, get_backend
    >>> available_backends()
    ('reference', 'accelerated')
    >>> get_backend().name
    'reference'
    >>> from repro.backend import use_backend
    >>> with use_backend("accelerated") as backend:
    ...     backend.name
    'accelerated'
    >>> get_backend().name
    'reference'
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator

from ..errors import BackendError
from .base import (
    HASH_INFO,
    HashInfo,
    CryptoBackend,
    compression_blocks,
    hmac_sha2_blocks,
)

__all__ = [
    "CryptoBackend",
    "HASH_INFO",
    "HashInfo",
    "available_backends",
    "compression_blocks",
    "get_backend",
    "hmac_sha2_blocks",
    "register_backend",
    "set_backend",
    "unregister_backend",
    "use_backend",
]


def _load_reference() -> CryptoBackend:
    """Build the reference backend (imported lazily to avoid cycles)."""
    from .reference import ReferenceBackend

    return ReferenceBackend()


def _load_accelerated() -> CryptoBackend:
    """Build the accelerated backend (imported lazily to avoid cycles)."""
    from .accelerated import AcceleratedBackend

    return AcceleratedBackend()


#: name -> zero-argument factory.  Factories import lazily so that
#: ``repro.primitives`` (which the implementations wrap) can itself
#: import :func:`get_backend` without a circular import.
_FACTORIES: dict[str, Callable[[], CryptoBackend]] = {
    "reference": _load_reference,
    "accelerated": _load_accelerated,
}
_INSTANCES: dict[str, CryptoBackend] = {}

#: Process-wide default, seeded from the environment once at import.
_DEFAULT: str = os.environ.get("REPRO_BACKEND", "reference")

#: Scoped override installed by :func:`use_backend` (context-local, so
#: nested scopes and threads compose the same way `repro.trace` does).
_OVERRIDE: ContextVar[str | None] = ContextVar(
    "repro_backend_override", default=None
)


def available_backends() -> tuple[str, ...]:
    """Registered backend names, registration order preserved."""
    return tuple(_FACTORIES)


def register_backend(
    name: str, factory: Callable[[], CryptoBackend]
) -> None:
    """Register a custom backend factory under ``name``.

    Intended for experiments (e.g. an instrumented or hardware-offload
    backend); the two built-in names cannot be replaced.
    """
    if name in ("reference", "accelerated"):
        raise BackendError(f"built-in backend {name!r} cannot be replaced")
    if not name or not isinstance(name, str):
        raise BackendError(f"backend name must be a non-empty str, got {name!r}")
    if not callable(factory):
        raise BackendError(
            f"backend factory for {name!r} must be a zero-argument"
            f" callable, got {type(factory).__name__}"
        )
    _FACTORIES[name] = factory
    _INSTANCES.pop(name, None)


def unregister_backend(name: str) -> None:
    """Remove a backend registered with :func:`register_backend`.

    Built-ins cannot be removed.  Callers that install a temporary
    backend (e.g. the :mod:`repro.obs.profile` wrapper) use this so
    :func:`available_backends` is left exactly as they found it.
    """
    if name in ("reference", "accelerated"):
        raise BackendError(f"built-in backend {name!r} cannot be removed")
    if name not in _FACTORIES:
        raise BackendError(f"backend {name!r} is not registered")
    del _FACTORIES[name]
    _INSTANCES.pop(name, None)


def _resolve(name: str) -> CryptoBackend:
    """Instantiate (and cache) the backend registered under ``name``."""
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise BackendError(
            f"unknown crypto backend {name!r};"
            f" have {sorted(_FACTORIES)} (check REPRO_BACKEND)"
        ) from None
    if name not in _INSTANCES:
        _INSTANCES[name] = factory()
    return _INSTANCES[name]


def get_backend() -> CryptoBackend:
    """The currently active backend (override > default > reference)."""
    override = _OVERRIDE.get()
    return _resolve(override if override is not None else _DEFAULT)


def set_backend(name: str) -> CryptoBackend:
    """Set the process-wide default backend; returns the instance.

    Does not affect blocks currently inside :func:`use_backend` scopes
    (scoped overrides win).
    """
    global _DEFAULT
    backend = _resolve(name)  # validate before switching
    _DEFAULT = name
    return backend


@contextmanager
def use_backend(name: str | None) -> Iterator[CryptoBackend]:
    """Scope a backend to a ``with`` block.

    ``None`` is a no-op scope that keeps the ambient backend — callers
    with an optional backend knob (e.g. ``FleetConfig.backend``) can
    always wrap their work without special-casing.
    """
    if name is None:
        yield get_backend()
        return
    backend = _resolve(name)
    token = _OVERRIDE.set(name)
    try:
        yield backend
    finally:
        _OVERRIDE.reset(token)
