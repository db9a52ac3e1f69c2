"""Per-vehicle state and lifecycle timeline for fleet orchestration.

Each vehicle is one constrained device working through the paper's full
session-key lifecycle: ECQV enrollment at the CA, dynamic key derivation
with the gateway, then managed application traffic until the session-key
policy forces a re-key.  The timeline records every lifecycle transition
with its discrete-event timestamp, giving per-vehicle observability on
top of the fleet-wide aggregates.  The transitions come from one closed
vocabulary, :data:`LIFECYCLE_STEPS`, which the orchestrator's narrator
also feeds to an attached observer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ecqv import EcqvCredential
from ..protocols import SessionManager
from ..protocols.pool import EphemeralPool


@dataclass(frozen=True)
class TimelineEvent:
    """One lifecycle transition of a vehicle (times in simulator ms).

    ``kind`` is one of the non-``None`` values of
    :data:`LIFECYCLE_STEPS`.
    """

    time_ms: float
    kind: str
    detail: str = ""


#: The closed vocabulary of lifecycle steps ``FleetOrchestrator._note``
#: narrates, in lifecycle order.  Each maps to the :class:`TimelineEvent`
#: kind it appends to the vehicle's timeline, or to ``None`` for a step
#: only an attached observer sees.  Three steps share a kind with
#: another: a re-enrollment coalesced into the one in flight, and the
#: responder's side of a V2V pair (the initiator narrates the pair).
LIFECYCLE_STEPS: dict[str, str | None] = {
    "run-started": None,
    "arrive": "arrive",
    "request": "request",
    "queue-wait": None,
    "ca-batch": None,
    "certified": "certified",
    "enrolled": "enrolled",
    "establish": None,
    "established": "established",
    "record": None,
    "rekey": "rekey",
    "done": "done",
    "shard-failed": None,
    "requeue": "requeue",
    "handover": "handover",
    "rejoin": None,
    "policy": None,
    "migrate": "migrate",
    "migrated": None,
    "re-enroll": "re-enroll",
    "re-enroll-coalesced": "re-enroll",
    "re-enrolled": "re-enrolled",
    "v2v-establish": None,
    "v2v-established": "v2v-established",
    "v2v-peer-established": "v2v-established",
    "v2v-record": None,
    "v2v-rekey": "v2v-rekey",
    "v2v-done": "v2v-done",
    "v2v-peer-done": "v2v-done",
    "injection": None,
    "partition-finished": None,
    "run-finished": None,
}


@dataclass
class Vehicle:
    """One fleet member's mutable orchestration state.

    ``shard`` tracks the gateway shard currently serving the vehicle; it
    changes on failover handover and on live migration.  The ``v2v_*``
    fields exist when the topology paired this vehicle with another fleet
    member for direct (non-hub) sessions.  ``migrations`` counts live
    cross-shard moves, ``re_enrollments`` the fresh certificates the
    vehicle pulled after a migration or a chain-epoch roll.
    """

    name: str
    index: int
    device_id: bytes
    arrival_ms: float
    events: list[TimelineEvent] = field(default_factory=list)
    credential: EcqvCredential | None = None
    manager: SessionManager | None = None
    pool: EphemeralPool | None = None
    enrolled_at: float | None = None
    records_sent: int = 0
    sessions: int = 0
    rekeys: int = 0
    generation: int = 0
    done_at: float | None = None
    session_counter: int = 0
    shard: int = 0
    handovers: int = 0
    migrations: int = 0
    re_enrollments: int = 0
    migrating: bool = False
    re_enrolling: bool = False
    v2v_peer_index: int | None = None
    v2v_sessions: int = 0
    v2v_records_sent: int = 0
    v2v_done_at: float | None = None
    # -- scenario extensions (defaults = config-driven behavior) -------------
    #: Behavior-profile name assigned by the compiled scenario ("" = none).
    profile: str = ""
    #: Shard this vehicle is pinned to (platoon convoys); ``None`` lets the
    #: topology's assignment policy place it.
    pinned_shard: int | None = None
    #: Record count at the last roamer-triggered migration (guards against
    #: re-triggering on the same record after the post-migrate establish).
    last_roam_records: int = -1
    #: Roamer-profile migrations this vehicle initiated.
    roams: int = 0

    def log(self, time_ms: float, kind: str, detail: str = "") -> None:
        """Append one timeline event."""
        self.events.append(TimelineEvent(time_ms, kind, detail))

    @property
    def enrolled(self) -> bool:
        """True once the ECQV credential is held and key-confirmed."""
        return self.credential is not None

    def timeline(self) -> str:
        """Human-readable per-vehicle lifecycle rendering."""
        rows = [
            f"{event.time_ms:12.3f} ms  {event.kind:<12s} {event.detail}"
            for event in self.events
        ]
        return "\n".join([f"vehicle {self.name}:"] + rows)
