"""Tests for the from-scratch SHA-2 family against hashlib and NIST vectors."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro import trace
from repro.backend import HASH_INFO, compression_blocks
from repro.errors import CryptoError
from repro.primitives import (
    HASHES,
    Sha224,
    Sha256,
    Sha384,
    Sha512,
    new_hash,
    sha224,
    sha256,
    sha384,
    sha512,
)

NIST_SHA256 = [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (
        b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
    ),
]

NIST_SHA512 = [
    (
        b"abc",
        "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
        "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f",
    ),
]


class TestKnownVectors:
    @pytest.mark.parametrize("message,expected", NIST_SHA256)
    def test_sha256_nist(self, message, expected):
        assert sha256(message).hex() == expected

    @pytest.mark.parametrize("message,expected", NIST_SHA512)
    def test_sha512_nist(self, message, expected):
        assert sha512(message).hex() == expected

    def test_sha224_abc(self):
        assert (
            sha224(b"abc").hex()
            == "23097d223405d8228642a477bda255b32aadbce4bda0b3f7e36c9da7"
        )

    def test_sha384_abc(self):
        assert sha384(b"abc").hex() == (
            "cb00753f45a35e8bb5a03d699ac65007272c32ab0eded1631a8b605a43ff5bed"
            "8086072ba1e7cc2358baeca134c825a7"
        )

    def test_million_a_sha256(self):
        assert (
            sha256(b"a" * 1_000_000).hex()
            == "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        )


class TestAgainstHashlib:
    @given(st.binary(max_size=600))
    @settings(max_examples=60)
    def test_sha256_matches(self, data):
        assert sha256(data) == hashlib.sha256(data).digest()

    @given(st.binary(max_size=600))
    @settings(max_examples=40)
    def test_sha512_matches(self, data):
        assert sha512(data) == hashlib.sha512(data).digest()

    @pytest.mark.parametrize("name", sorted(HASHES))
    @given(st.binary(max_size=300), st.integers(0, 300))
    @settings(max_examples=40)
    def test_reference_kernel_bytes_and_block_count(self, name, data, split):
        # The from-scratch classes directly, whatever backend is active:
        # digest equal to hashlib's and one sha2.block per compression.
        split = min(split, len(data))
        hasher = HASHES[name]()
        with trace.trace() as t:
            hasher.update(data[:split])
            hasher.update(data[split:])
            digest = hasher.digest()
        assert digest == hashlib.new(name, data).digest()
        assert t["sha2.block"] == compression_blocks(len(data), HASH_INFO[name])

    @pytest.mark.parametrize(
        "n", [0, 1, 55, 56, 57, 63, 64, 65, 111, 112, 119, 127, 128, 129, 257]
    )
    def test_padding_boundaries_all_variants(self, n):
        # Lengths straddling the Merkle-Damgard padding boundaries.
        data = bytes(range(256))[:n] if n <= 256 else bytes(n)
        assert sha224(data) == hashlib.sha224(data).digest()
        assert sha256(data) == hashlib.sha256(data).digest()
        assert sha384(data) == hashlib.sha384(data).digest()
        assert sha512(data) == hashlib.sha512(data).digest()


class TestStreaming:
    @given(st.binary(max_size=400), st.integers(0, 400))
    @settings(max_examples=40)
    def test_split_update_equals_oneshot(self, data, split):
        split = min(split, len(data))
        hasher = Sha256()
        hasher.update(data[:split])
        hasher.update(data[split:])
        assert hasher.digest() == sha256(data)

    def test_digest_is_idempotent(self):
        hasher = Sha256(b"hello")
        first = hasher.digest()
        assert hasher.digest() == first
        hasher.update(b" world")
        assert hasher.digest() == sha256(b"hello world")

    def test_copy_independence(self):
        hasher = Sha256(b"base")
        clone = hasher.copy()
        clone.update(b"-more")
        assert hasher.digest() == sha256(b"base")
        assert clone.digest() == sha256(b"base-more")

    def test_hexdigest(self):
        assert Sha256(b"abc").hexdigest() == sha256(b"abc").hex()

    def test_update_chaining(self):
        assert Sha256().update(b"ab").update(b"c").digest() == sha256(b"abc")

    def test_non_bytes_rejected(self):
        with pytest.raises(CryptoError):
            Sha256().update("not bytes")  # type: ignore[arg-type]


class TestFactoryAndTracing:
    def test_new_hash(self):
        assert new_hash("sha256", b"x").digest() == sha256(b"x")
        assert new_hash("sha384").digest_size == 48

    def test_unknown_hash(self):
        with pytest.raises(CryptoError):
            new_hash("md5")

    def test_block_counting_sha256(self):
        with trace.trace() as t:
            sha256(b"")  # 1 padded block
        assert t["sha2.block"] == 1
        with trace.trace() as t:
            sha256(b"x" * 64)  # one data block + one padding block
        assert t["sha2.block"] == 2
        with trace.trace() as t:
            sha256(b"x" * 55)  # still fits one block with padding
        assert t["sha2.block"] == 1

    def test_block_counting_sha512(self):
        with trace.trace() as t:
            sha512(b"x" * 128)
        assert t["sha2.block"] == 2

    def test_digest_sizes(self):
        assert len(sha224(b"")) == 28
        assert len(sha256(b"")) == 32
        assert len(sha384(b"")) == 48
        assert len(sha512(b"")) == 64
        assert Sha224.block_size == 64
        assert Sha384.block_size == 128
