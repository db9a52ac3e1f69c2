"""Tests for the authenticated secure-session channel."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import trace
from repro.backend import use_backend
from repro.errors import AuthenticationError, ProtocolError
from repro.obs import profiled_backend
from repro.primitives import ctr_keystream
from repro.protocols import (
    SecureSession,
    open_record_with_key,
    record_overhead,
    session_pair,
)
from repro.protocols.session import HEADER_SIZE, TAG_SIZE
from repro.protocols.wire import derive_session_key, enc_key, mac_key
from repro.utils import xor_bytes

KS = derive_session_key(b"premaster", b"salt")
BACKENDS = ("reference", "accelerated")

#: Plaintext length -> the ``aes.block`` and ``sha2.block`` events one
#: record costs on either side; each side also records one ``hmac.call``.
RECORD_EVENTS = {
    0: (0, 4),
    1: (1, 4),
    16: (1, 4),
    17: (2, 4),
    32: (2, 4),
    200: (13, 7),
}

#: First-seen event order of one record.  ``CostModel.price`` sums a
#: trace's terms in this order, so the order is pinned like the counts.
EVENT_ORDER = {
    ("reference", "encrypt"): ("aes.block", "sha2.block", "hmac.call"),
    ("reference", "decrypt"): ("sha2.block", "hmac.call", "aes.block"),
    ("accelerated", "encrypt"): ("aes.block", "hmac.call", "sha2.block"),
    ("accelerated", "decrypt"): ("hmac.call", "sha2.block", "aes.block"),
}


def ciphertext_of(record: bytes) -> bytes:
    """The bytes between a record's header and its tag."""
    return record[HEADER_SIZE:-TAG_SIZE]


class TestRoundTrip:
    @given(st.binary(max_size=200))
    @settings(max_examples=30)
    def test_encrypt_decrypt(self, plaintext):
        a, b = session_pair(KS)
        assert b.decrypt(a.encrypt(plaintext)) == plaintext

    def test_bidirectional(self):
        a, b = session_pair(KS)
        assert b.decrypt(a.encrypt(b"ping")) == b"ping"
        assert a.decrypt(b.encrypt(b"pong")) == b"pong"

    def test_many_records_in_order(self):
        a, b = session_pair(KS)
        for i in range(20):
            msg = f"message {i}".encode()
            assert b.decrypt(a.encrypt(msg)) == msg

    def test_record_overhead(self):
        a, _ = session_pair(KS)
        record = a.encrypt(b"x" * 10)
        assert len(record) == 10 + record_overhead()

    def test_distinct_ciphertexts_for_same_plaintext(self):
        a, _ = session_pair(KS)
        r1, r2 = a.encrypt(b"same"), a.encrypt(b"same")
        assert r1 != r2  # sequence number feeds the nonce


class TestRejections:
    def test_tampered_ciphertext(self):
        a, b = session_pair(KS)
        record = bytearray(a.encrypt(b"secret"))
        record[7] ^= 1
        with pytest.raises(AuthenticationError, match="MAC"):
            b.decrypt(bytes(record))

    def test_tampered_tag(self):
        a, b = session_pair(KS)
        record = bytearray(a.encrypt(b"secret"))
        record[-1] ^= 1
        with pytest.raises(AuthenticationError):
            b.decrypt(bytes(record))

    def test_truncated_record(self):
        _, b = session_pair(KS)
        with pytest.raises(AuthenticationError, match="short"):
            b.decrypt(b"tiny")

    def test_replay_rejected(self):
        a, b = session_pair(KS)
        record = a.encrypt(b"once")
        b.decrypt(record)
        with pytest.raises(AuthenticationError, match="out-of-order"):
            b.decrypt(record)

    def test_reordered_rejected(self):
        a, b = session_pair(KS)
        r0, r1 = a.encrypt(b"first"), a.encrypt(b"second")
        with pytest.raises(AuthenticationError, match="out-of-order"):
            b.decrypt(r1)
        b.decrypt(r0)

    def test_reflection_rejected(self):
        a, _ = session_pair(KS)
        record = a.encrypt(b"to-bob")
        with pytest.raises(AuthenticationError, match="reflected"):
            a.decrypt(record)

    def test_wrong_key_rejected(self):
        a, _ = session_pair(KS)
        record = a.encrypt(b"secret")
        other = SecureSession(derive_session_key(b"other", b"salt"), "B")
        with pytest.raises(AuthenticationError):
            other.decrypt(record)

    def test_bad_construction_args(self):
        with pytest.raises(ProtocolError):
            SecureSession(b"short", "A")
        with pytest.raises(ProtocolError):
            SecureSession(KS, "X")


class TestRawOpen:
    def test_open_with_raw_keys(self):
        a, _ = session_pair(KS)
        record = a.encrypt(b"payload")
        plaintext, seq, direction = open_record_with_key(
            enc_key(KS), mac_key(KS), record
        )
        assert plaintext == b"payload"
        assert seq == 0
        assert direction == "A"

    def test_open_rejects_garbage(self):
        with pytest.raises(AuthenticationError):
            open_record_with_key(enc_key(KS), mac_key(KS), b"\x00" * 40)


class TestCounterBlocks:
    def test_layout(self):
        # Record 1 from role A starts at 0x0a || 0^7 || seq 1 || block 0.
        a, _ = session_pair(KS)
        a.encrypt(b"")
        nonce = b"\x0a" + bytes(7) + (1).to_bytes(4, "big") + bytes(4)
        expected = ctr_keystream(enc_key(KS), nonce, 40)
        assert ciphertext_of(a.encrypt(bytes(40))) == expected

    @pytest.mark.parametrize("role", ["A", "B"])
    def test_consecutive_records_share_no_keystream(self, role):
        # If block 1 of record n reused block 0 of record n + 1, a passive
        # eavesdropper holding no key would read P_n[16:32] ^ P_n+1[:16].
        sender = SecureSession(KS, role)
        p0, p1 = bytes(range(32)), bytes(range(32, 64))
        c0 = ciphertext_of(sender.encrypt(p0))
        c1 = ciphertext_of(sender.encrypt(p1))
        assert xor_bytes(c0[16:], c1[:16]) != xor_bytes(p0[16:], p1[:16])


class TestRecordCost:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("length", sorted(RECORD_EVENTS))
    def test_trace_counts_and_order(self, backend, length):
        aes_blocks, sha2_blocks = RECORD_EVENTS[length]
        counts = {
            "aes.block": aes_blocks,
            "hmac.call": 1,
            "sha2.block": sha2_blocks,
        }
        with use_backend(backend):
            a, b = session_pair(KS)
            with trace.trace() as sent:
                record = a.encrypt(bytes(length))
            with trace.trace() as received:
                assert b.decrypt(record) == bytes(length)
        for side, cost in (("encrypt", sent), ("decrypt", received)):
            expected = [
                (event, counts[event])
                for event in EVENT_ORDER[backend, side]
                if counts[event]
            ]
            assert list(cost.counts.items()) == expected

    def test_one_cipher_per_session_endpoint(self):
        with profiled_backend(base="accelerated") as profiler:
            a, b = session_pair(KS)
            for i in range(5):
                b.decrypt(a.encrypt(b"record %d" % i))
        assert profiler.timings["aes"]["calls"] == 2

    def test_backend_switch_mid_session(self):
        sender = SecureSession(KS, "A")
        sent = []
        for backend in BACKENDS:
            with use_backend(backend):
                for i in range(2):
                    payload = b"%s record %d " % (backend.encode(), i) * 3
                    sent.append((payload, sender.encrypt(payload)))
        fresh_peer = SecureSession(KS, "B")
        for payload, record in sent:
            assert fresh_peer.decrypt(record) == payload
