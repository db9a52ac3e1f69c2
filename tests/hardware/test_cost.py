"""Tests for the cost-model pricing machinery."""

from __future__ import annotations

import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HardwareModelError
from repro.fleet import FleetConfig, run_fleet
from repro.hardware import (
    DEVICES,
    CostModel,
    EC_RELATIVE_WEIGHTS,
    SYM_RELATIVE_WEIGHTS,
    ec_units,
    sym_units,
)
from repro.hardware.cost import PRICE_MEMO_ENTRIES
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

    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_sym_ms_is_zero_without_symmetric_events(self, device):
        # A difference of two float totals leaves residue (-1.8e-15 ms
        # on rpi4 at counts 5/3/3), so only symmetric events are summed.
        model = DEVICES[device].cost
        events = ("ec.mul_double", "mod.inv", "ec.add")
        for counts in itertools.product(range(1, 6), repeat=len(events)):
            t = CostTrace()
            for event, n in zip(events, counts):
                t.record(event, n)
            assert model.sym_ms(t) == 0.0, counts
            assert model.ec_ms(t) > 0.0

    def test_validate(self):
        CostModel(1.0, 0.0).validate()
        with pytest.raises(HardwareModelError):
            CostModel(0.0, 0.1).validate()
        with pytest.raises(HardwareModelError):
            CostModel(1.0, -0.1).validate()


class TestExtraMsIsOwned:
    """The model copies ``extra_ms``; the caller's dict stays the caller's."""

    @staticmethod
    def _trace() -> CostTrace:
        t = CostTrace()
        t.record("sha2.block", 2)
        t.record("custom.event", 3)
        return t

    def test_edit_after_pricing_changes_nothing(self):
        extra = {"custom.event": 1.0}
        model = CostModel(10.0, 0.5, extra_ms=extra)
        t = self._trace()
        assert model.price(t) == 4.0
        extra["custom.event"] = 3.0
        assert model.extra_ms == {"custom.event": 1.0}
        assert model.price(t) == 4.0
        assert model.breakdown(t) == {"custom.event": 3.0, "sha2.block": 1.0}
        assert sum(model.breakdown(t).values()) == model.price(t)
        assert model.sym_ms(t) == 1.0

    def test_edit_before_pricing_changes_nothing(self):
        extra = {"custom.event": 1.0}
        model = CostModel(10.0, 0.5, extra_ms=extra)
        extra["custom.event"] = 3.0
        t = self._trace()
        assert model.price_of("custom.event") == 1.0
        assert model.price(t) == 4.0
        assert sum(model.breakdown(t).values()) == 4.0
        assert model.sym_ms(t) == 1.0
        # A model built from the edited dict prices the edit.
        assert CostModel(10.0, 0.5, extra_ms=extra).price(t) == 10.0

    def test_model_pickles_with_its_tables(self):
        model = CostModel(10.0, 0.5, extra_ms={"custom.event": 1.0})
        t = self._trace()
        total = model.price(t)
        clone = pickle.loads(pickle.dumps(model))
        assert clone == model
        assert clone.price(t) == total
        assert clone.breakdown(t) == model.breakdown(t)


class TestPriceMemo:
    """``price`` memoizes totals per ordered trace shape, within a bound."""

    @staticmethod
    def _ordered_sum(model: CostModel, items) -> float:
        return sum(count * model.price_of(event) for event, count in items)

    def test_each_first_seen_order_gets_its_own_entry(self):
        # Summed left to right on Python 3.11, these prices give 0.0 in
        # one order and 1.0 in the other, so a memo keyed by the counts
        # alone would return the wrong bits for the second order.
        model = CostModel(
            1.0, 0.0, extra_ms={"big": 1e16, "one": 1.0, "neg": -1e16}
        )
        forward, backward = CostTrace(), CostTrace()
        for event in ("big", "one", "neg"):
            forward.record(event)
        for event in ("big", "neg", "one"):
            backward.record(event)
        assert forward.as_dict() == backward.as_dict()
        for t in (forward, backward):
            assert model.price(t) == self._ordered_sum(model, t.counts.items())
        assert len(model._totals) == 2
        # Hits return the stored totals.
        assert model.price(forward) == self._ordered_sum(
            model, forward.counts.items()
        )
        assert model.price(backward) == self._ordered_sum(
            model, backward.counts.items()
        )
        assert len(model._totals) == 2

    def test_memo_never_grows_past_its_bound(self):
        model = CostModel(100.0, 0.5)
        for n in range(1, PRICE_MEMO_ENTRIES + 50):
            t = CostTrace()
            t.record("ec.mul_point", n)
            t.record("sha2.block", 1)
            assert model.price(t) == self._ordered_sum(model, t.counts.items())
            assert len(model._totals) <= PRICE_MEMO_ENTRIES
        assert len(model._totals) == PRICE_MEMO_ENTRIES
        # The oldest shapes went first; the latest is still memoized.
        assert (("ec.mul_point", 1), ("sha2.block", 1)) not in model._totals
        assert (
            ("ec.mul_point", PRICE_MEMO_ENTRIES + 49),
            ("sha2.block", 1),
        ) in model._totals

    def test_memo_is_per_model(self):
        t = CostTrace()
        t.record("ec.mul_point")
        cheap, dear = CostModel(1.0, 0.0), CostModel(2.0, 0.0)
        assert cheap.price(t) == 1.0
        assert dear.price(t) == 2.0
        assert dataclasses.replace(cheap, scalar_mult_ms=3.0).price(t) == 3.0

    @pytest.mark.parametrize("backend", ["reference", "accelerated"])
    def test_fleet_run_totals_equal_the_ordered_sum(self, monkeypatch, backend):
        priced = []
        memoized_price = CostModel.price

        def spy(model, trace):
            total = memoized_price(model, trace)
            priced.append((model, tuple(trace.counts.items()), total))
            return total

        monkeypatch.setattr(CostModel, "price", spy)
        run_fleet(
            FleetConfig(
                n_vehicles=6,
                seed=b"price-memo",
                records_per_vehicle=3,
                max_records=2,
                shards=2,
                v2v_fraction=0.5,
                v2v_records=2,
                backend=backend,
            )
        )
        assert len(priced) > 50
        shapes = {(id(model), items) for model, items, _ in priced}
        assert len(shapes) < len(priced)  # the run hits the memo
        for model, items, total in priced:
            assert total == self._ordered_sum(model, items)


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
