"""Unit tests for the backend profiling hooks.

The profiler is pure delegation: identical bytes out, identical trace
counts, identical digests — only wall-clock buckets are added on the
side.  These tests pin that contract plus the registry hygiene of the
temporary ``profiled`` backend.
"""

from __future__ import annotations

import pytest

from repro.backend import CryptoBackend, available_backends, use_backend
from repro.ec import SECP256R1, mul_base
from repro.fleet import FleetConfig, run_fleet
from repro.obs import PRIMITIVE_CLASSES, ProfilingBackend, profiled_backend

_CONFIG = FleetConfig(
    n_vehicles=3,
    seed=b"obs-profile",
    records_per_vehicle=2,
    max_records=2,
    send_interval_ms=20.0,
    arrival_spread_ms=15.0,
)


class TestProfilingBackend:
    def test_delegation_is_bit_exact(self):
        with use_backend("reference") as inner:
            pass
        profiler = ProfilingBackend(inner)
        data = b"profiling parity"
        assert profiler.hash_digest("sha256", data) == inner.hash_digest(
            "sha256", data
        )
        assert profiler.hmac_digest(b"k" * 32, data, "sha256") == (
            inner.hmac_digest(b"k" * 32, data, "sha256")
        )
        assert profiler.hash_digest("sha256", data=data) == (
            inner.hash_digest("sha256", data)
        )
        assert profiler.timings["sha2"]["calls"] == 2
        assert profiler.timings["hmac"]["calls"] == 1
        assert profiler.timings["sha2"]["wall_ns"] > 0

    def test_sees_a_later_patch_of_the_inner_backend(self, monkeypatch):
        # The inner method is looked up at each call, so a patch of the
        # inner backend made after wrapping is what the wrapper runs.
        with use_backend("reference") as inner:
            pass
        profiler = ProfilingBackend(inner)
        monkeypatch.setattr(inner, "hash_digest", lambda *args: b"patched")
        assert profiler.hash_digest("sha256", b"x") == b"patched"
        assert profiler.timings["sha2"]["calls"] == 1

    def test_streaming_hash_proxy_stays_chainable(self):
        with use_backend("reference") as inner:
            pass
        profiler = ProfilingBackend(inner)
        proxy = profiler.create_hash("sha256")
        chained = proxy.update(b"ab")
        # Chainable update returns the *proxy*, not the bare inner object,
        # so follow-on calls keep being timed.
        assert chained is proxy
        reference = inner.create_hash("sha256", b"ab").digest()
        assert proxy.digest() == reference

    def test_describe_marks_profiled(self):
        with use_backend("reference") as inner:
            info = ProfilingBackend(inner).describe()
        assert info["profiled"] is True
        assert info["name"].startswith("profiled:")

    def test_timings_cover_every_primitive_class(self):
        with use_backend("reference") as inner:
            profiler = ProfilingBackend(inner)
        assert set(profiler.timings) == set(PRIMITIVE_CLASSES)

    def test_forwards_every_backend_method(self):
        # A method the wrapper lacks raises AttributeError at its first
        # call through a profiled backend.  The timed forwarders are
        # bound per instance, so the check looks at an instance.
        public = {
            name
            for name, member in vars(CryptoBackend).items()
            if callable(member) and not name.startswith("_")
        }
        assert "ec_mul_double_check" in public
        with use_backend("reference") as inner:
            profiler = ProfilingBackend(inner)
        missing = {
            name
            for name in public
            if not callable(getattr(profiler, name, None))
        }
        assert not missing

    @pytest.mark.parametrize("backend", ["reference", "accelerated"])
    def test_mul_double_check_timed_as_double_multiplications(self, backend):
        with use_backend(backend) as inner:
            pass
        profiler = ProfilingBackend(inner)
        curve = SECP256R1
        q_point = mul_base(7, curve)
        r = mul_base(3 + 5 * 7, curve).x % curve.n
        terms = [(3, 5, q_point, r), (3, 5, q_point, r % (curve.n - 1) + 1)]
        assert profiler.ec_mul_double_check(curve, terms) == [True, False]
        assert inner.ec_mul_double_check(curve, terms) == [True, False]
        assert profiler.timings["ec.mul_double"]["calls"] == 2
        # Passed by name, the terms still count one call each.
        assert profiler.ec_mul_double_check(curve=curve, terms=terms) == [
            True,
            False,
        ]
        assert profiler.timings["ec.mul_double"]["calls"] == 4
        assert profiler.timings["ec.mul_double"]["wall_ns"] > 0


class TestProfiledBackendScope:
    def test_registry_left_untouched(self):
        before = available_backends()
        with profiled_backend("reference"):
            assert "profiled" in available_backends()
        assert available_backends() == before

    def test_unregistered_even_on_error(self):
        before = available_backends()
        with pytest.raises(RuntimeError):
            with profiled_backend("reference"):
                raise RuntimeError("boom")
        assert available_backends() == before


class TestProfiledFleetRun:
    def test_profiled_run_keeps_digest_and_times_primitives(self):
        plain = run_fleet(_CONFIG)
        with profiled_backend("reference") as profiler:
            profiled = run_fleet(_CONFIG)
        assert profiled.stats.digest() == plain.stats.digest()
        for event in ("ec.mul_base", "sha2", "hmac", "aes"):
            assert profiler.timings[event]["calls"] > 0
            assert profiler.timings[event]["wall_ns"] > 0
