"""Host-speed calibration: every timing is scaled to a nominal host.

The 2-core host this benchmark was built on is shared: for seconds at a
time, other load slows every process on it by 10-40 %.  Over five
seeds, the raw median repetition time of a 20-second run moved by
7-19 % (quartile distance over median, per workload); with every
repetition divided by a calibration loop timed right before and after
it, the median moved by 3-7 %.  So every time the benchmark reports is
a wall time scaled by ``NOMINAL_S / calibration``: the time the work
would take on a host where the loop takes :data:`NOMINAL_S`.  The loop
is fixed code in this file — a pure-Python integer loop, big-integer
modular arithmetic and ``hashlib``, the kinds of work the fleet does —
so a change to the program under test cannot move it.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: About the calibration loop's time on the 2-core host the benchmark
#: was built on, unloaded, with Python 3.11: a scaled time is seconds
#: on that host.
NOMINAL_S = 0.004

_BLOCK = bytes(range(64))

#: The P-256 field prime: the loop's big-integer part is the modular
#: arithmetic the reference backend's EC code spends its time in.
_P256 = 2**256 - 2**224 + 2**192 + 2**96 - 1


def loop_s() -> float:
    """Wall time of one pass of the fixed calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(30_000):
        total += i * i % 7
    x = _P256 // 3
    for i in range(3_000):
        x = (x * x + i) % _P256
    digest = hashlib.sha256()
    for _ in range(500):
        digest.update(_BLOCK)
    digest.digest()
    return time.perf_counter() - start


def probe_s(passes: int = 5) -> float:
    """Median of ``passes`` calibration loops: the host's current speed."""
    return statistics.median(loop_s() for _ in range(passes))


class HostClock:
    """Scales wall times by the calibration probes around them."""

    def __init__(self) -> None:
        self.last = probe_s()

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of work that just ended, in nominal-host seconds.

        The work is scaled by the mean of the probe before it (the
        previous call's) and a probe taken now.
        """
        before, self.last = self.last, probe_s()
        return wall_s * NOMINAL_S / ((before + self.last) / 2)
