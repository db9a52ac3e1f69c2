"""Tests for the cost-model pricing machinery."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HardwareModelError
from repro.hardware import (
    DEVICES,
    CostModel,
    EC_RELATIVE_WEIGHTS,
    SYM_RELATIVE_WEIGHTS,
    ec_units,
    sym_units,
)
from repro.trace import CostTrace

#: Priced event names plus arbitrary unpriced ones.
EVENTS = st.sampled_from(
    sorted(EC_RELATIVE_WEIGHTS) + sorted(SYM_RELATIVE_WEIGHTS)
) | st.text("abcxyz._", min_size=1, max_size=6)


def make_trace(**counts) -> CostTrace:
    t = CostTrace()
    for event, n in counts.items():
        t.record(event.replace("_", "."), n)
    return t


class TestCostModel:
    MODEL = CostModel(scalar_mult_ms=100.0, hash_block_ms=0.5)

    def test_price_of_ec_events(self):
        assert self.MODEL.price_of("ec.mul_point") == 100.0
        assert self.MODEL.price_of("ec.mul_base") == 100.0
        assert self.MODEL.price_of("ec.mul_double") == pytest.approx(108.0)

    def test_price_of_sym_events(self):
        assert self.MODEL.price_of("sha2.block") == 0.5
        assert self.MODEL.price_of("aes.block") == pytest.approx(0.175)

    def test_unknown_event_is_free(self):
        assert self.MODEL.price_of("custom.event") == 0.0

    def test_extra_overrides(self):
        model = CostModel(100.0, 0.5, extra_ms={"custom.event": 3.0, "sha2.block": 1.0})
        assert model.price_of("custom.event") == 3.0
        assert model.price_of("sha2.block") == 1.5  # additive

    def test_price_trace(self):
        t = make_trace(ec_mul__point=2, sha2_block=4)
        t2 = CostTrace()
        t2.record("ec.mul_point", 2)
        t2.record("sha2.block", 4)
        assert self.MODEL.price(t2) == pytest.approx(202.0)

    def test_breakdown_sums_to_price(self):
        t = CostTrace()
        t.record("ec.mul_point", 3)
        t.record("aes.block", 10)
        t.record("mod.inv", 1)
        assert sum(self.MODEL.breakdown(t).values()) == pytest.approx(
            self.MODEL.price(t)
        )

    def test_ec_and_sym_split(self):
        t = CostTrace()
        t.record("ec.mul_point", 1)
        t.record("sha2.block", 2)
        assert self.MODEL.ec_ms(t) == pytest.approx(100.0)
        assert self.MODEL.sym_ms(t) == pytest.approx(1.0)

    def test_validate(self):
        CostModel(1.0, 0.0).validate()
        with pytest.raises(HardwareModelError):
            CostModel(0.0, 0.1).validate()
        with pytest.raises(HardwareModelError):
            CostModel(1.0, -0.1).validate()


class TestPriceBitIdentity:
    """``price`` and what builds on it equal the summed formula exactly."""

    @settings(max_examples=200, deadline=None)
    @given(
        device=st.sampled_from(sorted(DEVICES)),
        events=st.lists(
            st.tuples(EVENTS, st.integers(0, 10**6)), max_size=12
        ),
        extra=st.dictionaries(
            EVENTS, st.floats(-1e3, 1e4, allow_nan=False), max_size=4
        ),
    )
    def test_equals_summed_formula(self, device, events, extra):
        trace = CostTrace()
        for event, n in events:
            trace.record(event, n)
        base = DEVICES[device]
        overridden = dataclasses.replace(
            base,
            cost=CostModel(
                base.cost.scalar_mult_ms, base.cost.hash_block_ms, extra
            ),
        )
        for model in (base, overridden):
            formula = sum(
                count * model.cost.price_of(event)
                for event, count in trace.counts.items()
            )
            assert model.cost.price(trace) == formula
            assert model.time_ms(trace) == formula
            assert model.energy_mj(trace) == (
                model.active_power_mw * formula / 1_000.0
            )


class TestUnits:
    def test_ec_units(self):
        t = CostTrace()
        t.record("ec.mul_point", 2)
        t.record("ec.mul_double", 1)
        t.record("sha2.block", 100)  # ignored
        assert ec_units(t) == pytest.approx(2 + 1.08)

    def test_sym_units(self):
        t = CostTrace()
        t.record("sha2.block", 3)
        t.record("aes.block", 2)
        t.record("ec.mul_point", 5)  # ignored
        assert sym_units(t) == pytest.approx(3 + 0.7)

    def test_weights_cover_all_traced_events(self, transcripts):
        # Every event a protocol actually records must be priced by one
        # of the weight tables (or be knowingly free).
        priced = set(EC_RELATIVE_WEIGHTS) | set(SYM_RELATIVE_WEIGHTS)
        for transcript in transcripts.values():
            for party in (transcript.party_a, transcript.party_b):
                for event in party.total_cost().counts:
                    assert event in priced, f"unpriced event {event}"
