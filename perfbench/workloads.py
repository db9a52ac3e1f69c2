"""The four pinned fleet workloads of the host-time benchmark.

Each workload is one :class:`repro.fleet.FleetConfig` shape plus what a
correct run of it must deliver.  The benchmark seed only picks the
config's ``seed`` bytes; everything else about a workload is fixed, so
the amount of work in a repetition does not depend on the seed.

This module imports nothing from ``repro``: :func:`fleet_kwargs` returns
plain keyword arguments and the workload process builds the config.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed a run uses when ``--seed`` is not given.  Only this seed is
#: checked against the pinned digests below.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    """One pinned workload.

    Attributes:
        name: workload name as given to ``--workload``.
        fleet: ``FleetConfig`` keyword arguments, minus ``seed``.
        default_seed: config seed bytes used for :data:`DEFAULT_SEED`.
        pinned_digest: ``FleetStats.digest()`` of the default-seed run.
        observe: attach ``Observer(wall_clock=True)`` to every run.
    """

    name: str
    fleet: dict
    default_seed: bytes
    pinned_digest: str
    observe: bool = False

    @property
    def backend(self) -> str:
        """The crypto backend the workload runs under."""
        return self.fleet["backend"]

    @property
    def records(self) -> int:
        """Application records a run must deliver (gateway + V2V)."""
        fleet = self.fleet
        gateway = fleet["n_vehicles"] * fleet["records_per_vehicle"]
        return gateway + self.v2v_pairs * fleet.get("v2v_records", 10)

    @property
    def sessions(self) -> int:
        """STS sessions a run must establish (gateway + V2V).

        A session carries at most ``max_records`` records, so a link
        that delivers ``r`` records establishes ``ceil(r / max_records)``
        sessions: the first one plus every re-key.
        """
        fleet = self.fleet
        budget = fleet.get("max_records", 25)
        per_vehicle = -(-fleet["records_per_vehicle"] // budget)
        per_pair = -(-fleet.get("v2v_records", 10) // budget)
        return fleet["n_vehicles"] * per_vehicle + self.v2v_pairs * per_pair

    @property
    def v2v_pairs(self) -> int:
        """V2V pairs the run plans (as ``plan_v2v_pairs`` counts them)."""
        n = self.fleet["n_vehicles"]
        participants = round(self.fleet.get("v2v_fraction", 0.0) * n)
        return min(participants // 2, n // 2)

    def seed_bytes(self, seed: int) -> bytes:
        """The ``FleetConfig.seed`` for benchmark seed ``seed``."""
        if seed == DEFAULT_SEED:
            return self.default_seed
        return b"perfbench|%s|%d" % (self.name.encode(), seed)

    def fleet_kwargs(self, seed: int) -> dict:
        """Keyword arguments of the workload's ``FleetConfig``."""
        return dict(self.fleet, seed=self.seed_bytes(seed))


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="records-steady",
            # The record channel dominates: 200 records per session.
            fleet=dict(
                n_vehicles=40,
                records_per_vehicle=200,
                max_records=1_000,
                shards=1,
                backend="accelerated",
            ),
            default_seed=b"perfbench|records-steady",
            pinned_digest=(
                "2422f804d7b0e5b924803b4f56243745"
                "cbe09dfb159ba84ac9bf1b315ee4a3b8"
            ),
        ),
        Workload(
            name="rekey-v2v",
            # STS establishment dominates: every record re-keys, on
            # gateway and V2V links.
            fleet=dict(
                n_vehicles=40,
                records_per_vehicle=3,
                max_records=1,
                shards=2,
                v2v_fraction=0.5,
                v2v_records=3,
                backend="accelerated",
            ),
            default_seed=b"perfbench|rekey-v2v",
            pinned_digest=(
                "a66590abff7058552e447b8db0ea5c84"
                "43c93280b71c4928789bb5cd7595b2f6"
            ),
        ),
        Workload(
            name="enroll-sharded",
            # The only workload through repro.fleet.parallel, the obs
            # hooks, streaming release and batched signed enrollment.
            fleet=dict(
                n_vehicles=200,
                records_per_vehicle=1,
                shards=4,
                authenticate_requests=True,
                stream=True,
                workers=2,
                backend="accelerated",
            ),
            default_seed=b"perfbench|enroll-sharded",
            pinned_digest=(
                "3b840d28a24dca3861fc42196325f657"
                "1cb8ac19bd6e5c78e4f38f5d93056dd2"
            ),
            observe=True,
        ),
        Workload(
            name="storm-reference",
            # The quick storm's shape on the default reference backend,
            # the only path through the from-scratch EC and primitives.
            fleet=dict(
                n_vehicles=5,
                records_per_vehicle=8,
                max_records=4,
                send_interval_ms=25.0,
                arrival_spread_ms=50.0,
                backend="reference",
            ),
            default_seed=b"perfbench|storm-reference",
            pinned_digest=(
                "6e3bd64ab1432c9d72cba144d96bc740"
                "a6651302a56c03408546a648c486f053"
            ),
        ),
    )
}
