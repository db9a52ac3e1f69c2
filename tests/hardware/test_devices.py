"""Tests for device models, calibration consistency and timing helpers."""

from __future__ import annotations

import pytest

from repro.errors import HardwareModelError
from repro.hardware import (
    ATMEGA2560,
    DEVICES,
    HASH_BLOCK_MS,
    PAPER_TABLE1,
    RASPBERRY_PI4,
    S32K144,
    STM32F767,
    TABLE_DEVICE_ORDER,
    estimate_energy,
    fit_all_devices,
    get_device,
    op_class_times,
    pair_time_ms,
    party_time_ms,
    step_times,
    validate_devices_match_calibration,
)


class TestRegistry:
    def test_four_devices(self):
        assert list(DEVICES) == list(TABLE_DEVICE_ORDER)

    def test_lookup(self):
        assert get_device("stm32f767") is STM32F767
        with pytest.raises(HardwareModelError):
            get_device("cortex-m85")

    def test_performance_classes(self):
        assert ATMEGA2560.performance_class == "low-end"
        assert S32K144.performance_class == "mid-tier"
        assert STM32F767.performance_class == "mid-tier"
        assert RASPBERRY_PI4.performance_class == "high-end"

    def test_speed_ordering(self):
        costs = [DEVICES[d].cost.scalar_mult_ms for d in TABLE_DEVICE_ORDER]
        assert costs[0] > costs[1] > costs[2] > costs[3]

    def test_cost_models_valid(self):
        for device in DEVICES.values():
            device.cost.validate()


class TestCalibration:
    def test_frozen_constants_match_fit(self):
        validate_devices_match_calibration(tolerance=1e-3)

    def test_residuals_small(self):
        for name, result in fit_all_devices().items():
            for protocol, residual in result.residuals.items():
                assert abs(residual) < 0.07, (name, protocol, residual)

    def test_calibration_data_complete(self):
        for protocol, row in PAPER_TABLE1.items():
            assert set(row) == set(TABLE_DEVICE_ORDER)
        assert set(HASH_BLOCK_MS) == set(TABLE_DEVICE_ORDER)


class TestTiming:
    def test_pair_time_close_to_paper(self, transcripts):
        # The directly-fitted rows must stay within a few percent.
        for protocol in ("s-ecdsa", "sts", "scianc", "poramb"):
            for device_name in TABLE_DEVICE_ORDER:
                modelled = pair_time_ms(
                    transcripts[protocol], DEVICES[device_name]
                )
                paper = PAPER_TABLE1[protocol][device_name]
                assert abs(modelled / paper - 1) < 0.07, (protocol, device_name)

    def test_sts_20_percent_overhead(self, transcripts):
        # The paper's headline claim.
        for device_name in TABLE_DEVICE_ORDER:
            device = DEVICES[device_name]
            ratio = pair_time_ms(transcripts["sts"], device) / pair_time_ms(
                transcripts["s-ecdsa"], device
            )
            assert 1.15 < ratio < 1.30, (device_name, ratio)

    def test_pair_time_sums_parties(self, transcripts):
        tr = transcripts["sts"]
        assert pair_time_ms(tr, STM32F767) == pytest.approx(
            party_time_ms(tr.party_a, STM32F767)
            + party_time_ms(tr.party_b, STM32F767)
        )

    def test_asymmetric_pair(self, transcripts):
        tr = transcripts["sts"]
        mixed = pair_time_ms(tr, S32K144, RASPBERRY_PI4)
        assert mixed < pair_time_ms(tr, S32K144)
        assert mixed > pair_time_ms(tr, RASPBERRY_PI4)

    def test_op_class_times_cover_party_total(self, transcripts):
        tr = transcripts["sts"]
        classes = op_class_times(tr.party_a, STM32F767)
        assert sum(classes.values()) == pytest.approx(
            party_time_ms(tr.party_a, STM32F767)
        )

    def test_step_times_cover_party_total(self, transcripts):
        tr = transcripts["s-ecdsa"]
        steps = step_times(tr.party_b, STM32F767)
        assert sum(ms for _, ms in steps) == pytest.approx(
            party_time_ms(tr.party_b, STM32F767)
        )


class TestEnergy:
    def test_energy_estimate(self, transcripts):
        est = estimate_energy(transcripts["sts"], S32K144)
        assert est.total_ms == pytest.approx(
            pair_time_ms(transcripts["sts"], S32K144)
        )
        assert est.total_mj == pytest.approx(
            S32K144.active_power_mw * est.total_ms / 1000.0
        )

    def test_sts_costs_more_energy_than_scianc(self, transcripts):
        sts = estimate_energy(transcripts["sts"], S32K144).total_mj
        scianc = estimate_energy(transcripts["scianc"], S32K144).total_mj
        assert sts > 3 * scianc

    def test_mixed_devices(self, transcripts):
        est = estimate_energy(transcripts["sts"], S32K144, RASPBERRY_PI4)
        assert est.device_a == "s32k144"
        assert est.device_b == "rpi4"
        assert est.mj_a != est.mj_b

    @pytest.mark.parametrize("protocol", ["sts", "scianc"])
    @pytest.mark.parametrize(
        "device_a, device_b",
        [(S32K144, RASPBERRY_PI4), (ATMEGA2560, ATMEGA2560)],
    )
    def test_energy_is_each_party_priced_through_energy_mj(
        self, transcripts, protocol, device_a, device_b
    ):
        # Energy follows from the one priced time, bit for bit.
        transcript = transcripts[protocol]
        est = estimate_energy(transcript, device_a, device_b)
        party_a, party_b = transcript.party_a, transcript.party_b
        assert est.mj_a == device_a.energy_mj(party_a.total_cost())
        assert est.mj_b == device_b.energy_mj(party_b.total_cost())
