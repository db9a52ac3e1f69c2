"""Pricing primitive-operation traces in device milliseconds.

A :class:`CostModel` maps trace event names (see :mod:`repro.trace`) to a
per-occurrence cost in milliseconds on one device.  Pricing a
:class:`~repro.trace.CostTrace` reconstructs the embedded execution time of
whatever ran under that trace — a single operation, a protocol step, or a
whole session establishment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import HardwareModelError
from ..trace import CostTrace

#: Relative cost of EC events in units of one general scalar multiplication.
#: Derived from the operation structure of a wNAF/Jacobian implementation
#: (micro-ecc-like): a Strauss-Shamir double multiplication costs ~8 % more
#: than a single multiplication; a stand-alone affine addition is ~1/290 of
#: a multiplication (one add out of ~290 add-equivalents per mult); an
#: extended-Euclid inversion ~1/25; sign/verify bookkeeping ~1/400.
EC_RELATIVE_WEIGHTS: dict[str, float] = {
    "ec.mul_point": 1.0,
    "ec.mul_base": 1.0,  # micro-ecc has no base-point precomputation
    "ec.mul_double": 1.08,
    "ec.add": 1.0 / 290.0,
    "mod.inv": 1.0 / 25.0,
    "ecdsa.sign": 1.0 / 400.0,
    "ecdsa.verify": 1.0 / 400.0,
}

#: Relative cost of symmetric events in units of one hash compression.
#: hmac.call / kdf.call / cmac.call / drbg.generate price only the
#: *bookkeeping* of those constructions — their internal hash/AES blocks
#: are traced (and priced) individually.
SYM_RELATIVE_WEIGHTS: dict[str, float] = {
    "sha2.block": 1.0,
    "aes.block": 0.35,
    "hmac.call": 0.30,
    "kdf.call": 0.40,
    "cmac.call": 0.40,
    "drbg.generate": 0.40,
    "rng.bytes": 0.002,  # per byte of requested randomness
}

#: Most totals one :class:`CostModel` memoizes.  A fleet workload prices
#: only a few distinct trace shapes per device, so the memo fills within
#: a run's first records; the bound caps a caller pricing ever-new traces.
PRICE_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class CostModel:
    """Per-event millisecond prices for one device.

    Attributes:
        scalar_mult_ms: cost of one general EC scalar multiplication
            (the dominant term; everything EC scales from it).
        hash_block_ms: cost of one SHA-2 compression (everything symmetric
            scales from it).
        extra_ms: optional explicit per-event overrides/additions.  The
            model copies the dict it is given, so a caller's later edit
            to that dict cannot disagree with the prices it has cached.
    """

    scalar_mult_ms: float
    hash_block_ms: float
    extra_ms: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "extra_ms", dict(self.extra_ms))
        #: ``event -> price_of(event)``, filled as events are priced.
        object.__setattr__(self, "_prices", {})
        #: Ordered trace counts -> :meth:`price` total, first in first out.
        object.__setattr__(self, "_totals", {})

    def price_of(self, event: str) -> float:
        """Millisecond price of a single occurrence of ``event``.

        Unknown events price at zero — traces may carry events (e.g.
        purely diagnostic counters) that cost nothing by themselves.
        """
        price = 0.0
        if event in EC_RELATIVE_WEIGHTS:
            price += EC_RELATIVE_WEIGHTS[event] * self.scalar_mult_ms
        if event in SYM_RELATIVE_WEIGHTS:
            price += SYM_RELATIVE_WEIGHTS[event] * self.hash_block_ms
        price += self.extra_ms.get(event, 0.0)
        return price

    def _table(self, counts: dict[str, int]) -> dict[str, float]:
        """The per-event price table, holding every event in ``counts``."""
        prices = self._prices
        for event in counts:
            if event not in prices:
                prices[event] = self.price_of(event)
        return prices

    def price(self, trace: CostTrace) -> float:
        """Total milliseconds for every event recorded in ``trace``.

        Adds ``count * price_of(event)`` with the builtin :func:`sum`, in
        the trace's first-seen event order, reading each price from a
        per-model table.  Python 3.12's ``sum`` compensates float
        rounding, so a hand-written loop would change the bits there.

        Each total is memoized under the ordered ``(event, count)``
        items, so equal counts recorded in a different order are priced
        (and summed) on their own.  The memo keeps at most
        :data:`PRICE_MEMO_ENTRIES` totals, dropping the oldest first.
        """
        counts = trace.counts
        key = tuple(counts.items())
        totals = self._totals
        total = totals.get(key)
        if total is None:
            prices = self._table(counts)
            total = sum(count * prices[event] for event, count in key)
            if len(totals) >= PRICE_MEMO_ENTRIES:
                del totals[next(iter(totals))]
            totals[key] = total
        return total

    def breakdown(self, trace: CostTrace) -> dict[str, float]:
        """Per-event millisecond contributions (sorted by event name)."""
        prices = self._table(trace.counts)
        return {
            event: count * prices[event]
            for event, count in sorted(trace.counts.items())
        }

    def ec_ms(self, trace: CostTrace) -> float:
        """Milliseconds attributable to elliptic-curve events only."""
        return sum(
            count * EC_RELATIVE_WEIGHTS[event] * self.scalar_mult_ms
            for event, count in trace.counts.items()
            if event in EC_RELATIVE_WEIGHTS
        )

    def sym_ms(self, trace: CostTrace) -> float:
        """Milliseconds attributable to symmetric-crypto events only."""
        return sum(
            count * SYM_RELATIVE_WEIGHTS[event] * self.hash_block_ms
            for event, count in trace.counts.items()
            if event in SYM_RELATIVE_WEIGHTS
        )

    def validate(self) -> None:
        """Sanity-check the model parameters."""
        if self.scalar_mult_ms <= 0:
            raise HardwareModelError(
                f"scalar_mult_ms must be positive, got {self.scalar_mult_ms}"
            )
        if self.hash_block_ms < 0:
            raise HardwareModelError(
                f"hash_block_ms must be non-negative, got {self.hash_block_ms}"
            )


def ec_units(trace: CostTrace) -> float:
    """EC work in units of one scalar multiplication (device-independent).

    This is the quantity the calibration fit uses: for a protocol trace,
    ``time ≈ scalar_mult_ms * ec_units + sym time``.
    """
    return sum(
        count * weight
        for event, weight in EC_RELATIVE_WEIGHTS.items()
        if (count := trace.counts.get(event, 0))
    )


def sym_units(trace: CostTrace) -> float:
    """Symmetric work in units of one hash compression."""
    return sum(
        count * weight
        for event, weight in SYM_RELATIVE_WEIGHTS.items()
        if (count := trace.counts.get(event, 0))
    )
