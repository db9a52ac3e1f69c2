"""Tests for shared utilities, the cost tracer and the testbed helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro import trace
from repro.errors import ReproError
from repro.testbed import device_id, make_testbed
from repro.utils import (
    byte_length,
    bytes_to_int,
    chunks,
    constant_time_equal,
    hexstr,
    int_to_bytes,
    xor_bytes,
)


class TestIntBytes:
    @given(st.integers(0, 2**256 - 1))
    @settings(max_examples=40)
    def test_roundtrip(self, value):
        assert bytes_to_int(int_to_bytes(value, 32)) == value

    def test_fixed_width(self):
        assert int_to_bytes(1, 4) == b"\x00\x00\x00\x01"

    def test_overflow_rejected(self):
        with pytest.raises(ReproError):
            int_to_bytes(256, 1)

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            int_to_bytes(-1, 4)

    def test_byte_length(self):
        assert byte_length(0) == 1
        assert byte_length(255) == 1
        assert byte_length(256) == 2
        with pytest.raises(ReproError):
            byte_length(-1)


class TestByteHelpers:
    def test_constant_time_equal(self):
        assert constant_time_equal(b"abc", b"abc")
        assert not constant_time_equal(b"abc", b"abd")
        assert not constant_time_equal(b"abc", b"abcd")
        assert constant_time_equal(b"", b"")
        assert not constant_time_equal(b"", b"a")
        assert constant_time_equal(bytearray(b"abc"), memoryview(b"abc"))
        assert not constant_time_equal(memoryview(b"abc"), bytearray(b"abd"))
        assert not constant_time_equal(bytearray(b"ab"), memoryview(b"abc"))

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"
        assert xor_bytes(b"\x00\x01", b"\x00\x00") == b"\x00\x01"
        assert xor_bytes(b"", b"") == b""
        with pytest.raises(ReproError):
            xor_bytes(b"\x00", b"\x00\x00")

    def test_chunks(self):
        assert chunks(b"abcdefg", 3) == [b"abc", b"def", b"g"]
        assert chunks(b"", 3) == []
        with pytest.raises(ReproError):
            chunks(b"abc", 0)

    def test_hexstr(self):
        assert hexstr(b"\xde\xad\xbe\xef") == "deadbeef"
        assert hexstr(b"\xde\xad\xbe\xef", group=2) == "dead beef"


class TestTrace:
    def test_inactive_is_noop(self):
        assert not trace.tracing_active()
        trace.record("anything")  # must not raise

    def test_basic_counting(self):
        with trace.trace("t") as t:
            trace.record("x")
            trace.record("x", 2)
            trace.record("y")
        assert t["x"] == 3
        assert t["y"] == 1
        assert t["z"] == 0
        assert t.total() == 4
        assert t.total("x") == 3

    def test_nested_traces_both_record(self):
        with trace.trace() as outer:
            trace.record("a")
            with trace.trace() as inner:
                trace.record("b")
            trace.record("c")
        assert outer.as_dict() == {"a": 1, "b": 1, "c": 1}
        assert inner.as_dict() == {"b": 1}

    def test_merge_and_copy(self):
        a = trace.CostTrace()
        a.record("x", 2)
        b = a.copy()
        b.record("x")
        assert a["x"] == 2 and b["x"] == 3
        a.merge(b)
        assert a["x"] == 5

    def test_counts_are_a_plain_dict_in_first_seen_order(self):
        with trace.trace() as t:
            trace.record("b")
            trace.record("a", 2)
            trace.record("b", 3)
        assert type(t.counts) is dict
        assert list(t.counts.items()) == [("b", 4), ("a", 2)]

    def test_merge_adds_counts_and_keeps_first_seen_order(self):
        a = trace.CostTrace()
        a.record("y", 1)
        a.record("x", 2)
        b = trace.CostTrace()
        b.record("z", 5)
        b.record("x", 3)
        b.record("w", 1)
        a.merge(b)
        assert list(a.counts.items()) == [("y", 1), ("x", 5), ("z", 5), ("w", 1)]
        assert list(b.counts.items()) == [("z", 5), ("x", 3), ("w", 1)]
        empty = trace.CostTrace()
        empty.merge(b)
        assert list(empty.counts.items()) == list(b.counts.items())

    def test_copy_is_independent(self):
        a = trace.CostTrace("label")
        a.record("x", 2)
        a.record("y")
        b = a.copy()
        assert b.label == "label"
        assert b.counts is not a.counts
        assert list(b.counts.items()) == list(a.counts.items())
        b.record("x")
        b.record("z")
        a.record("w")
        assert list(a.counts.items()) == [("x", 2), ("y", 1), ("w", 1)]
        assert list(b.counts.items()) == [("x", 3), ("y", 1), ("z", 1)]

    def test_scope_exits_cleanly_on_error(self):
        with pytest.raises(ValueError):
            with trace.trace():
                raise ValueError("boom")
        assert not trace.tracing_active()


class TestCaptureReplay:
    def test_capture_records_each_event_once_and_in_order(self):
        with trace.trace() as outer:
            trace.record("a")
            with trace.capture() as captured:
                trace.record("b", 3)
                trace.record("a")
                trace.record("c")
        assert captured.events == [("b", 3), ("a", 1), ("c", 1)]
        assert outer.as_dict() == {"a": 2, "b": 3, "c": 1}
        assert list(outer.counts) == ["a", "b", "c"]

    def test_capture_works_without_an_active_trace(self):
        with trace.capture() as captured:
            trace.record("x", 2)
        assert captured.events == [("x", 2)]
        assert not trace.tracing_active()

    def test_replay_matches_the_original_counts_and_order(self):
        with trace.trace() as first:
            with trace.capture() as captured:
                trace.record("sha2.block")
                trace.record("ec.mul_point")
                trace.record("sha2.block", 2)
        with trace.trace() as again:
            trace.replay(captured.events)
        assert again.as_dict() == first.as_dict()
        assert list(again.counts) == list(first.counts)

    def test_replay_reaches_every_active_recorder(self):
        with trace.trace() as outer, trace.capture() as nested:
            trace.replay([("x", 1), ("y", 4)])
        assert outer.as_dict() == {"x": 1, "y": 4}
        assert nested.events == [("x", 1), ("y", 4)]

    def test_replay_without_trace_is_noop(self):
        trace.replay([("x", 1)])
        assert not trace.tracing_active()

    def test_capture_exits_cleanly_on_error(self):
        with pytest.raises(ValueError):
            with trace.capture():
                raise ValueError("boom")
        assert not trace.tracing_active()


class TestTestbed:
    def test_device_id(self):
        assert device_id("bms") == b"bms" + b"-" * 13
        assert len(device_id("a-very-long-name")) == 16
        with pytest.raises(ReproError):
            device_id("a-name-that-is-too-long")

    def test_unknown_device(self):
        testbed = make_testbed(("alice",), seed=b"tb")
        with pytest.raises(ReproError, match="unknown device"):
            testbed.context("mallory")

    def test_contexts_draw_fresh_randomness(self):
        testbed = make_testbed(("alice",), seed=b"tb2")
        c1 = testbed.context("alice")
        c2 = testbed.context("alice")
        assert c1.rng.generate(16) != c2.rng.generate(16)

    def test_credentials_bound_to_ca(self):
        testbed = make_testbed(("alice", "bob"), seed=b"tb3")
        from repro.ecqv import reconstruct_public_key

        for name in ("alice", "bob"):
            cred = testbed.credentials[name]
            assert (
                reconstruct_public_key(
                    cred.certificate, testbed.ca.public_key
                )
                == cred.public_key
            )

    def test_psk_installed_for_poramb_pairs(self):
        testbed = make_testbed(("alice", "bob"), seed=b"tb4")
        ctx_a, ctx_b = testbed.context_pair("alice", "bob", "poramb")
        assert bytes(ctx_b.device_id) in ctx_a.pre_shared_keys

    def test_psk_symmetric_regardless_of_order(self):
        testbed = make_testbed(("alice", "bob"), seed=b"tb5")
        ab = testbed.context_pair("alice", "bob", "poramb")
        ba = testbed.context_pair("bob", "alice", "poramb")
        key_ab = ab[0].pre_shared_keys[bytes(ab[1].device_id)]
        key_ba = ba[0].pre_shared_keys[bytes(ba[1].device_id)]
        assert key_ab == key_ba
