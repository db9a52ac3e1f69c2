"""The fleet golden table: each shared golden run, declared once.

A golden is a fleet run whose :meth:`~repro.fleet.FleetStats.digest` is
pinned.  A change that moves a pinned digest changed what the simulated
fleet does, so the table is the specification of the fleet code.  Each
entry of :data:`GOLDENS` declares its :class:`~repro.fleet.FleetConfig`
(and scenario) once, with what pins it:

- the single-gateway storm of the pre-topology orchestrator;
- the topology runs of the pre-churn orchestrator: 1, 2 and 4 shards,
  the V2V mesh and the gateway failover;
- the lifecycle run, whose vehicle timelines and observer
  stream are pinned too;
- two self-parity entries without a digest, a churn run (failover,
  rejoin and live migration) and an adversarial replay storm: every run
  mode must reproduce their plain run's digest.

``test_goldens.py`` replays every entry in every run mode.  A test that
needs a variant of an entry builds it with
``dataclasses.replace(GOLDENS[name].config, ...)``; a test that only
reads an entry's plain run takes the one session-scoped run from the
``golden_run`` fixture (``conftest.py``).

Outside pytest, put this directory on the path::

    PYTHONPATH=src:tests/fleet python -c "from goldens import GOLDENS"
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.fleet import FleetConfig, FleetOrchestrator, get_scenario


@dataclass(frozen=True)
class Golden:
    """One golden fleet run.

    Attributes:
        config: the run's configuration.
        digest: the pinned ``FleetStats.digest()``, or ``None`` for a
            self-parity entry.
        scenario: name of the scenario the run executes, if any.
        timelines: sha256 of ``"\\n".join(v.timeline() for v in
            result.vehicles)``, where pinned.
        tree_root: root of an attached observer's digest tree, where
            pinned.
        observer_events: number of that observer's deterministic events.
    """

    config: FleetConfig
    digest: str | None = None
    scenario: str | None = None
    timelines: str | None = None
    tree_root: str | None = None
    observer_events: int | None = None

    def orchestrator(self, obs=None, **overrides) -> FleetOrchestrator:
        """An orchestrator for this run, with ``overrides`` on its config."""
        scenario = self.scenario and get_scenario(self.scenario)
        config = dataclasses.replace(self.config, **overrides)
        return FleetOrchestrator(config, scenario=scenario, obs=obs)


_TOPOLOGY = FleetConfig(
    n_vehicles=6,
    seed=b"topology-det",
    records_per_vehicle=2,
    max_records=4,
    send_interval_ms=20.0,
    arrival_spread_ms=15.0,
)

GOLDENS: dict[str, Golden] = {
    # Captured from the pre-topology orchestrator: ``shards=1`` must
    # reproduce the single-gateway fleet bit for bit.  Six records under
    # a three-record budget force one re-key per vehicle.
    "single-gateway": Golden(
        FleetConfig(
            n_vehicles=4,
            seed=b"fleet-test",
            records_per_vehicle=6,
            max_records=3,
            send_interval_ms=20.0,
            arrival_spread_ms=30.0,
        ),
        digest="5632228c71d42eadd416b2151a1c0be0a8fe6679e14fe78e66c889ac04314e17",
    ),
    # Captured from the pre-churn orchestrator.
    **{
        f"topology-{shards}": Golden(
            dataclasses.replace(_TOPOLOGY, shards=shards), digest=digest
        )
        for shards, digest in (
            (1, "a43e300427fe7035b2d2c1a68edaffe0d349313cf046a151c9f430aa153c6d4e"),
            (2, "6ed2a66e4325260712dd84192d06bab8cef9303a3b50768d51567ee46bc04a41"),
            (4, "3d0ba83a7e1369fa79147400588cf1bb013dc15809d89a6078f789992654df82"),
        )
    },
    "v2v-mesh": Golden(
        FleetConfig(
            n_vehicles=10,
            seed=b"topology-v2v",
            records_per_vehicle=2,
            max_records=4,
            send_interval_ms=20.0,
            arrival_spread_ms=15.0,
            shards=2,
            v2v_fraction=0.6,
            v2v_records=4,
        ),
        digest="b6d8c193008cf2c60d08616e1d44d24d3797227489a1a3b31ff143a7aec3d5e4",
    ),
    # The failure hits after every vehicle established its first session
    # (~3.7 s in), while records are still being delivered: the handover
    # is a live re-key, not a fresh enrollment.
    "failover": Golden(
        FleetConfig(
            n_vehicles=8,
            seed=b"topology-failover",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=4_000.0,
            fail_shard=0,
        ),
        digest="b5087aa40b037cd5709a3e735d9b7e41152aaef27908366bc84733415b38730d",
    ),
    # Failure at 4 s, rejoin at 6 s, re-balancing threshold 2.
    "churn": Golden(
        FleetConfig(
            n_vehicles=8,
            seed=b"churn-test",
            records_per_vehicle=40,
            max_records=100,
            send_interval_ms=25.0,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=4_000.0,
            fail_shard=0,
            shard_rejoin_at_ms=6_000.0,
            migrate_threshold=2,
        ),
    ),
    "replay-storm": Golden(
        FleetConfig(
            n_vehicles=8,
            seed=b"backend-scenario",
            records_per_vehicle=6,
            max_records=4,
            arrival_spread_ms=40.0,
            shards=2,
        ),
        scenario="replay-storm",
    ),
    # Fails shard 0 while requests are still queued (``requeue``),
    # rejoins it, re-balances (``migrate``, ``re-enroll``) and runs V2V
    # pairs: the run takes every timeline kind.
    "lifecycle": Golden(
        FleetConfig(
            n_vehicles=8,
            seed=b"lifecycle-coverage",
            records_per_vehicle=12,
            max_records=6,
            send_interval_ms=25.0,
            arrival_spread_ms=15.0,
            shards=2,
            shard_fail_at_ms=312.0,
            fail_shard=0,
            shard_rejoin_at_ms=3000.0,
            migrate_threshold=1,
            v2v_fraction=0.5,
            v2v_records=12,
        ),
        digest="30c1853271c454b1d07080d0cfc9243056119aa27ace16a061081bbff0fd7b11",
        timelines="b621301661a5b2817eed925129ee3e9e53dd328c91d9a2528644b122de85863c",
        tree_root="96e591fb58d3b06505e7d2a5f9289d16c6af6c849c59234ac450e252aea3f541",
        observer_events=169,
    ),
}
