"""Calibrated device models for the paper's four evaluation boards.

Performance groups (paper §V-A):

* **Low-end** — Arduino ATmega2560, 8-bit AVR @ 16 MHz
* **Mid-tier** — NXP S32K144, Cortex-M4F @ 80 MHz;
  ST STM32F767, Cortex-M7 @ 216 MHz
* **High-end** — Raspberry Pi 4, Cortex-A72 @ 1.5 GHz

``scalar_mult_ms`` (the cost of one P-256 scalar multiplication in the
paper's C stack) is **fitted** against Table I with weighted least squares
over the four directly-measured protocol rows; the derivation lives in
:mod:`repro.hardware.calibrate` and is re-checked by the test suite.  The
symmetric block costs are set from cycle-count estimates of software
SHA-256/AES on each core.  With a single fitted parameter per device the
model lands within ±6 % of every Table I anchor cell.

Power figures (used by the energy estimator, standing in for the paper's
Nordic PPK2 measurements) are typical active-mode values for each board.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import HardwareModelError
from ..trace import CostTrace
from .cost import CostModel


@dataclass(frozen=True)
class DeviceModel:
    """One embedded evaluation platform.

    Attributes:
        name: registry key (``"stm32f767"`` …).
        label: display name used in tables (``"STM32F767"``).
        cpu: core description.
        clock_mhz: nominal core clock.
        word_bits: native word width (drives the big-number cost asymmetry
            between the 8-bit AVR and the 32/64-bit ARMs).
        performance_class: ``"low-end" | "mid-tier" | "high-end"``.
        cost: calibrated per-event price model.
        active_power_mw: board-level active power draw.
    """

    name: str
    label: str
    cpu: str
    clock_mhz: float
    word_bits: int
    performance_class: str
    cost: CostModel
    active_power_mw: float

    def time_ms(self, trace: CostTrace) -> float:
        """Execution time of a traced computation on this device."""
        return self.cost.price(trace)

    def energy_mj(self, trace: CostTrace) -> float:
        """Energy (millijoules) for a traced computation."""
        return self.energy_of_ms(self.time_ms(trace))

    def energy_of_ms(self, ms: float) -> float:
        """Energy (millijoules) of ``ms`` milliseconds of computation.

        ``E = P_active * t`` — the quantity a PPK2 power profiler would
        integrate over the operation window.
        """
        return self.active_power_mw * ms / 1_000.0


ATMEGA2560 = DeviceModel(
    name="atmega2560",
    label="ATMega2560",
    cpu="AVR 8-bit (Arduino Mega)",
    clock_mhz=16.0,
    word_bits=8,
    performance_class="low-end",
    cost=CostModel(scalar_mult_ms=4259.912, hash_block_ms=1.25),
    active_power_mw=90.0,
)

S32K144 = DeviceModel(
    name="s32k144",
    label="S32K144",
    cpu="ARM Cortex-M4F",
    clock_mhz=80.0,
    word_bits=32,
    performance_class="mid-tier",
    cost=CostModel(scalar_mult_ms=341.588, hash_block_ms=0.05),
    active_power_mw=160.0,
)

STM32F767 = DeviceModel(
    name="stm32f767",
    label="STM32F767",
    cpu="ARM Cortex-M7",
    clock_mhz=216.0,
    word_bits=32,
    performance_class="mid-tier",
    cost=CostModel(scalar_mult_ms=297.245, hash_block_ms=0.014),
    active_power_mw=480.0,
)

RASPBERRY_PI4 = DeviceModel(
    name="rpi4",
    label="RaspberryPi 4",
    cpu="ARM Cortex-A72 (64-bit)",
    clock_mhz=1500.0,
    word_bits=64,
    performance_class="high-end",
    cost=CostModel(scalar_mult_ms=2.143, hash_block_ms=0.001),
    active_power_mw=4000.0,
)

#: Device registry in the column order of Table I.
DEVICES: dict[str, DeviceModel] = {
    d.name: d for d in (ATMEGA2560, S32K144, STM32F767, RASPBERRY_PI4)
}

#: Column order used by Table I reproductions.
TABLE_DEVICE_ORDER = ("atmega2560", "s32k144", "stm32f767", "rpi4")


def get_device(name: str) -> DeviceModel:
    """Look up a device model by name."""
    try:
        return DEVICES[name]
    except KeyError:
        raise HardwareModelError(
            f"unknown device {name!r}; known: {sorted(DEVICES)}"
        ) from None
