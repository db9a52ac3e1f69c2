"""Fault-injection property tests over all protocols.

The robustness invariant every KD protocol must satisfy on a hostile bus:

    For ANY single-byte corruption of ANY message, the run either aborts
    with a library error (never an unhandled crash), or both parties
    complete with EQUAL session keys.

Completing with *different* keys would be a silent key-agreement failure
— the worst possible outcome — and leaking an ``IndexError``/``KeyError``
from malformed input would be a parsing robustness bug.  Hypothesis
drives the corruption position, value and target message.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import AuthenticationError, ReproError
from repro.protocols import Message, TABLE_ORDER, get_protocol
from repro.testbed import make_testbed

TESTBED = make_testbed(("alice", "bob"), seed=b"fault-injection")


def _corrupt(message: Message, byte_index: int, xor_value: int) -> Message:
    """Flip one byte somewhere in the message payload."""
    flat = bytearray(message.payload)
    flat[byte_index % len(flat)] ^= xor_value
    # Re-split the flat payload into the original field widths.
    fields = []
    offset = 0
    for name, value in message.fields:
        fields.append((name, bytes(flat[offset : offset + len(value)])))
        offset += len(value)
    return Message(message.sender, message.label, tuple(fields))


def _drive_with_corruption(
    protocol: str, target_step: int, byte_index: int, xor_value: int
):
    """Run a session corrupting the ``target_step``-th message.

    Returns both parties; a library error propagates.
    """
    ctx_a, ctx_b = TESTBED.context_pair("alice", "bob", protocol)
    party_a, party_b = get_protocol(protocol).factory(ctx_a, ctx_b)
    outgoing = party_a.advance(None)
    step = 0
    current, other = party_b, party_a
    while outgoing is not None:
        if step == target_step:
            outgoing = _corrupt(outgoing, byte_index, xor_value)
        outgoing = current.advance(outgoing)
        current, other = other, current
        step += 1
        if step > 16:
            raise AssertionError("runaway protocol")
    return party_a, party_b


def _run_with_corruption(
    protocol: str, target_step: int, byte_index: int, xor_value: int
) -> tuple[str, bool]:
    """Run a session corrupting the ``target_step``-th message.

    Returns ``(outcome, keys_equal)`` where outcome is ``"completed"`` or
    ``"aborted"``.
    """
    try:
        party_a, party_b = _drive_with_corruption(
            protocol, target_step, byte_index, xor_value
        )
    except ReproError:
        return "aborted", False
    if not (party_a.complete and party_b.complete):
        return "aborted", False
    return "completed", party_a.session_key == party_b.session_key


@pytest.mark.parametrize("protocol", TABLE_ORDER)
@given(
    target_step=st.integers(0, 5),
    byte_index=st.integers(0, 500),
    xor_value=st.integers(1, 255),
)
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_single_byte_corruption_never_splits_keys(
    protocol, target_step, byte_index, xor_value
):
    outcome, keys_equal = _run_with_corruption(
        protocol, target_step, byte_index, xor_value
    )
    if outcome == "completed":
        assert keys_equal, (
            f"{protocol}: corrupted run completed with mismatched keys"
        )


class TestTargetedCorruption:
    """Deterministic spot checks of security-critical fields."""

    def _outcome(self, protocol, step, index):
        return _run_with_corruption(protocol, step, index, 0x01)

    def test_sts_corrupted_resp_always_aborts(self):
        # B1 = ID(16) Cert(101) XG(64) Resp(64): Resp starts at 181.
        for index in (181, 200, 244):
            outcome, _ = self._outcome("sts", 1, index)
            assert outcome == "aborted"

    def test_sts_corrupted_xg_always_aborts(self):
        # The signature covers the ephemerals, so XG flips must die.
        for index in (117, 150, 180):  # inside B1's XG field
            outcome, _ = self._outcome("sts", 1, index)
            assert outcome == "aborted"

    def test_s_ecdsa_corrupted_signature_aborts(self):
        # B1 = ID(16) Cert(101) Sign(64) Nonce(32): Sign at 117..180.
        for index in (117, 150, 180):
            outcome, _ = self._outcome("s-ecdsa", 1, index)
            assert outcome == "aborted"

    def test_scianc_corrupted_cert_aborts(self):
        # A1 = ID(16) Nonce(32) Cert(101): cert at 48..148.  A flipped
        # cert changes the reconstructed key, so the MACs diverge.
        for index in (48, 100, 148):
            outcome, _ = self._outcome("scianc", 0, index)
            assert outcome == "aborted"

    def test_poramb_corrupted_hello_aborts(self):
        # Hellos feed the phase-1 MACs.
        for index in (0, 16, 31):
            outcome, _ = self._outcome("poramb", 0, index)
            assert outcome == "aborted"

    @pytest.mark.parametrize("protocol", ["sts", "s-ecdsa"])
    @pytest.mark.parametrize("step", [0, 1], ids=["A1", "B1"])
    def test_announced_identity_must_match_certificate(self, protocol, step):
        # A1 and B1 both open with ID(16): a flipped ID byte announces an
        # identity the certificate does not carry, so the run must abort
        # even though every signature still checks out.
        for index in (0, 7, 15):
            with pytest.raises(AuthenticationError, match="announced identity"):
                _drive_with_corruption(protocol, step, index, 0x01)
