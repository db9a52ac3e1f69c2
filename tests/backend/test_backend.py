"""Backend registry semantics: selection, scoping, errors, fallback.

The parity contract itself (same bytes, same trace events) is fuzzed in
``test_parity_fuzz.py``; this module locks down the plumbing — how a
backend is chosen, how scopes nest, and how the accelerated backend
degrades when the optional ``cryptography`` package is absent.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from repro.backend import (
    available_backends,
    get_backend,
    register_backend,
    set_backend,
    use_backend,
)
from repro.backend.accelerated import AcceleratedBackend
from repro.backend.reference import ReferenceBackend
from repro.errors import BackendError, CryptoError, ReproError


#: What this process's default backend should be: the suite also runs
#: in CI with ``REPRO_BACKEND=accelerated`` exported (the backend-matrix
#: lane), where the ambient default is legitimately not the reference.
ENV_DEFAULT = os.environ.get("REPRO_BACKEND", "reference")


@pytest.fixture(autouse=True)
def _restore_default_backend():
    """Every test leaves the process on its configured default."""
    yield
    set_backend(ENV_DEFAULT)


class TestRegistry:
    def test_default_follows_environment(self):
        assert get_backend().name == ENV_DEFAULT
        if ENV_DEFAULT == "reference":
            assert isinstance(get_backend(), ReferenceBackend)

    def test_reference_is_the_fallback_without_env(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.backend import get_backend;"
                "print(get_backend().name)",
            ],
            env={
                **{k: v for k, v in os.environ.items()
                   if k != "REPRO_BACKEND"},
                "PYTHONPATH": "src",
            },
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "reference"

    def test_available_backends_names_both_builtins(self):
        assert set(available_backends()) >= {"reference", "accelerated"}

    def test_instances_are_cached(self):
        assert get_backend() is get_backend()
        with use_backend("accelerated") as first:
            pass
        with use_backend("accelerated") as second:
            pass
        assert first is second

    def test_set_backend_switches_process_default(self):
        backend = set_backend("accelerated")
        assert isinstance(backend, AcceleratedBackend)
        assert get_backend() is backend

    def test_unknown_backend_is_actionable_and_catchable(self):
        with pytest.raises(BackendError, match="turbo.*accelerated"):
            set_backend("turbo")
        with pytest.raises(ReproError):
            set_backend("turbo")
        # A failed switch must not corrupt the current selection.
        assert get_backend().name == ENV_DEFAULT

    def test_register_backend_rejects_builtin_names_and_junk(self):
        with pytest.raises(BackendError, match="built-in"):
            register_backend("reference", ReferenceBackend)
        with pytest.raises(BackendError, match="non-empty"):
            register_backend("", ReferenceBackend)
        with pytest.raises(BackendError, match="callable"):
            register_backend("probe", ReferenceBackend())

    def test_register_custom_backend_roundtrip(self):
        class Custom(ReferenceBackend):
            """Registry-extension probe."""

            name = "custom-probe"

        register_backend("custom-probe", Custom)
        try:
            with use_backend("custom-probe") as backend:
                assert backend.name == "custom-probe"
                assert get_backend() is backend
        finally:
            from repro.backend import _FACTORIES, _INSTANCES

            _FACTORIES.pop("custom-probe", None)
            _INSTANCES.pop("custom-probe", None)


class TestScoping:
    def test_use_backend_scopes_and_restores(self):
        set_backend("reference")  # pin: scoping is default-independent
        with use_backend("accelerated"):
            assert get_backend().name == "accelerated"
            with use_backend("reference"):
                assert get_backend().name == "reference"
            assert get_backend().name == "accelerated"
        assert get_backend().name == "reference"

    def test_use_backend_none_is_a_no_op_scope(self):
        with use_backend(None) as backend:
            assert backend is get_backend()
        set_backend("accelerated")
        with use_backend(None) as backend:
            assert backend.name == "accelerated"

    def test_scoped_override_wins_over_set_backend(self):
        with use_backend("accelerated"):
            set_backend("reference")
            assert get_backend().name == "accelerated"
        assert get_backend().name == "reference"

    def test_restores_even_on_exception(self):
        set_backend("reference")
        with pytest.raises(RuntimeError):
            with use_backend("accelerated"):
                raise RuntimeError("boom")
        assert get_backend().name == "reference"


class TestEnvSelection:
    def test_repro_backend_env_selects_the_default(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.backend import get_backend;"
                "print(get_backend().name)",
            ],
            env={**os.environ, "REPRO_BACKEND": "accelerated",
                 "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "accelerated"

    def test_bogus_env_value_fails_loudly_on_first_use(self):
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.primitives import sha256; sha256(b'x')",
            ],
            env={**os.environ, "REPRO_BACKEND": "warp-drive",
                 "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert out.returncode != 0
        assert "warp-drive" in out.stderr
        assert "REPRO_BACKEND" in out.stderr


class TestAcceleratedSurface:
    def test_describe_names_the_implementations(self):
        with use_backend("accelerated") as backend:
            described = backend.describe()
        assert described["name"] == "accelerated"
        assert "hashlib" in described["sha2"]

    def test_unknown_hash_names_raise_crypto_errors(self):
        with use_backend("accelerated") as backend:
            with pytest.raises(CryptoError, match="unknown hash"):
                backend.create_hash("md5")
            with pytest.raises(CryptoError, match="unknown hash"):
                backend.hash_digest("md5", b"")
            with pytest.raises(CryptoError, match="unknown hash"):
                backend.hmac_digest(b"k", b"m", "md5")

    def test_bad_aes_keys_and_blocks_match_reference_errors(self):
        with use_backend("accelerated") as backend:
            with pytest.raises(CryptoError, match="16/24/32"):
                backend.create_cipher(b"short")
            cipher = backend.create_cipher(b"k" * 16)
            with pytest.raises(CryptoError, match="16 bytes"):
                cipher.encrypt_block(b"tiny")

    def test_streaming_hash_rejects_text_like_reference(self):
        with use_backend("accelerated") as backend:
            with pytest.raises(CryptoError, match="bytes-like"):
                backend.create_hash("sha256").update("text")

    def test_aes_fallback_when_cryptography_is_missing(self, monkeypatch):
        """Hashes stay accelerated; AES degrades to the reference class."""
        from repro.primitives.aes import Aes

        backend = AcceleratedBackend()
        monkeypatch.setattr(backend, "aes_accelerated", False)
        cipher = backend.create_cipher(b"0123456789abcdef")
        assert isinstance(cipher, Aes)
        assert "fallback" in backend.describe()["aes"]
        # And the cipher still satisfies the bulk protocol used by modes.
        assert cipher.encrypt_ecb(b"p" * 16) != b"p" * 16


class TestEcSurface:
    def test_describe_includes_the_ec_layer(self):
        with use_backend("reference") as backend:
            assert "Jacobian" in backend.describe()["ec"]
        with use_backend("accelerated") as backend:
            description = backend.describe()["ec"]
        # Either tier names itself honestly.
        assert description.startswith(("cryptography (OpenSSL", "reference:"))

    def test_base_class_defaults_are_the_reference_path(self):
        # A custom backend that implements nothing EC-specific inherits
        # bit-exact reference behaviour from CryptoBackend's defaults.
        from repro.backend import CryptoBackend
        from repro.ec import SECP256R1, mul_base, mul_point

        defaults = CryptoBackend()
        with use_backend("reference"):
            k = 0xDECAFBAD % SECP256R1.n
            assert defaults.ec_mul_base(SECP256R1, k) == mul_base(k, SECP256R1)
            g = SECP256R1.generator
            assert defaults.ec_mul(SECP256R1, k, g) == mul_point(k, g)

    def test_ec_fallback_for_unknown_curves(self):
        # A curve object that is NOT the canonical registry entry (here:
        # a structurally equal copy is canonical, so use a fresh Curve
        # with a bogus name) must never reach OpenSSL; the reference
        # code answers for it, bit for bit.
        import dataclasses

        from repro.ec import SECP256R1, mul_base

        rogue = dataclasses.replace(SECP256R1, name="not-a-registry-curve")
        backend = AcceleratedBackend()
        assert backend._curve_impl(rogue) is None
        got = backend.ec_mul_base(rogue, 12345)
        want = mul_base(12345, SECP256R1)
        assert (got.x, got.y) == (want.x, want.y)

    def test_ec_check_answers_through_openssl_where_it_can(self, monkeypatch):
        # Served curves answer ordinary terms with an OpenSSL verification
        # and send only the terms without a signature form to the
        # reference path, so the parity fuzz compares two different
        # engines, not the reference twice.
        import dataclasses

        from repro.backend import CryptoBackend
        from repro.ec import SECP256R1, Point, mul_base

        curve = SECP256R1
        q = mul_base(7, curve)
        r = mul_base(3 + 5 * 7, curve).x % curve.n
        no_signature_form = [
            (3, 0, q, r),
            (3, 5, Point.infinity(curve), r),
            (3, 5, q, 0),
            (3, 5, q, curve.n),
        ]
        seen = []
        reference_check = CryptoBackend.ec_mul_double_check

        def spy(self, curve, terms):
            seen.append(list(terms))
            return reference_check(self, curve, terms)

        monkeypatch.setattr(CryptoBackend, "ec_mul_double_check", spy)
        backend = AcceleratedBackend()
        assert backend.ec_mul_double_check(
            curve,
            [(3, 5, q, r), (3, 5, q, r % (curve.n - 1) + 1)]
            + no_signature_form,
        ) == [True, False, False, False, False, False]
        assert seen == [no_signature_form]
        # A curve OpenSSL does not serve goes to the reference path whole.
        rogue = dataclasses.replace(curve, name="not-a-registry-curve")
        rogue_q = mul_base(7, rogue)
        seen.clear()
        assert backend.ec_mul_double_check(rogue, [(3, 5, rogue_q, r)]) == [
            True
        ]
        assert seen == [[(3, 5, rogue_q, r)]]

    def test_ec_fallback_when_cryptography_is_missing(self, monkeypatch):
        import repro.backend.ec_accelerated as ec_mod
        from repro.ec import SECP256R1, mul_base, mul_point

        monkeypatch.setattr(ec_mod, "OPENSSL_EC", False)
        backend = AcceleratedBackend()
        assert backend._curve_impl(SECP256R1) is None
        assert backend.describe()["ec"].startswith("reference")
        k = 0xFEEDFACE % SECP256R1.n
        assert backend.ec_mul_base(SECP256R1, k) == mul_base(k, SECP256R1)
        g = SECP256R1.generator
        assert backend.ec_mul(SECP256R1, k, g) == mul_point(k, g)

    def test_fallback_taken_at_import_without_cryptography(self):
        # The other fallback tests patch the flags after import; this one
        # blocks the package before the accelerated backend is imported.
        script = """
import sys
sys.modules["cryptography"] = None
from repro.backend.accelerated import AES_ACCELERATED, AcceleratedBackend
from repro.backend.ec_accelerated import OPENSSL_EC
from repro.fleet import FleetConfig, run_fleet
digests = {
    backend: run_fleet(FleetConfig(
        n_vehicles=2, seed=b"no-cryptography", records_per_vehicle=2,
        max_records=1, backend=backend,
    )).stats.digest()
    for backend in ("reference", "accelerated")
}
print(OPENSSL_EC, AES_ACCELERATED)
print(AcceleratedBackend().describe()["ec"])
print(len(set(digests.values())))
"""
        out = subprocess.run(
            [sys.executable, "-c", script],
            env={
                **{k: v for k, v in os.environ.items()
                   if k != "REPRO_BACKEND"},
                "PYTHONPATH": "src",
            },
            capture_output=True,
            text=True,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        assert out.returncode == 0, out.stderr
        flags, ec, distinct = out.stdout.strip().splitlines()
        assert flags == "False False"
        assert ec.startswith("reference: from-scratch")
        assert distinct == "1"

    def test_openssl_tier_active_in_this_environment(self):
        # The test environments install `cryptography`, so the
        # accelerated backend must actually be offloading EC here —
        # guards against silently testing the reference code twice.
        from repro.backend.ec_accelerated import OPENSSL_EC

        assert OPENSSL_EC
        backend = AcceleratedBackend()
        assert backend.ec_accelerated
