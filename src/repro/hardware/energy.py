"""Energy estimation (stand-in for the paper's Nordic PPK2 measurements).

The paper measured protocol runs with system ticks *and* a Nordic Power
Profiler Kit II.  We reconstruct the energy figure as active power
integrated over modelled execution time — sufficient for the relative
comparisons the paper draws.  Each station is priced once; its energy
follows from that time (:meth:`~repro.hardware.DeviceModel.energy_of_ms`),
the bits ``energy_mj`` of the station's total cost would return.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..protocols.base import ProtocolTranscript
from .devices import DeviceModel
from .timing import party_time_ms


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy consumption of one protocol run on a device pair.

    Attributes:
        protocol_name: registry name of the protocol.
        device_a / device_b: the two station platforms.
        ms_a / ms_b: per-station compute times.
        mj_a / mj_b: per-station energy in millijoules.
    """

    protocol_name: str
    device_a: str
    device_b: str
    ms_a: float
    ms_b: float
    mj_a: float
    mj_b: float

    @property
    def total_mj(self) -> float:
        """Combined pair energy."""
        return self.mj_a + self.mj_b

    @property
    def total_ms(self) -> float:
        """Combined sequential pair time."""
        return self.ms_a + self.ms_b


def estimate_energy(
    transcript: ProtocolTranscript,
    device_a: DeviceModel,
    device_b: DeviceModel | None = None,
) -> EnergyEstimate:
    """Estimate the energy of a completed protocol run."""
    if device_b is None:
        device_b = device_a
    ms_a = party_time_ms(transcript.party_a, device_a)
    ms_b = party_time_ms(transcript.party_b, device_b)
    return EnergyEstimate(
        protocol_name=transcript.protocol_name,
        device_a=device_a.name,
        device_b=device_b.name,
        ms_a=ms_a,
        ms_b=ms_b,
        mj_a=device_a.energy_of_ms(ms_a),
        mj_b=device_b.energy_of_ms(ms_b),
    )
