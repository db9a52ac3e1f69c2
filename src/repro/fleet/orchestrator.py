"""Fleet-scale session orchestration on the discrete-event simulator.

The paper's evaluation establishes one session between two stations; the
:class:`FleetOrchestrator` scales that scenario to a whole fleet: ``N``
vehicles concurrently work through ECQV enrollment at a contended central
CA, dynamic key derivation with the gateway, and managed application
traffic whose session keys expire and re-key under a
:class:`~repro.protocols.SessionPolicy` — the enforced-lifetime story the
paper motivates, at production scale.

Since the topology subsystem (:mod:`repro.fleet.topology`) the deployment
is explicit rather than implied:

* the fleet runs on ``M`` **gateway shards**, each its own
  :class:`~repro.sim.engine.Resource` on its own central device, each
  issuing through a CA chained to one fleet root; vehicles are placed by
  a pluggable shard-assignment policy;
* a configurable fraction of vehicles additionally establishes **V2V
  pairwise sessions** — STS directly between two enrolled vehicles, no
  gateway in the data path, cross-shard pairs validating each other's
  certificate chain through the shared :class:`~repro.ecqv.TrustStore`;
* a shard can **fail mid-run**: its queued requests are re-queued and its
  vehicles re-key at surviving shards (their chained credentials stay
  valid), with the disruption visible in the latency statistics;
* vehicles **live-migrate** between healthy shards — either through the
  explicit :meth:`FleetOrchestrator.migrate` API or the
  ``migrate_threshold`` re-balancing policy — draining their gateway
  sessions and re-enrolling through the target sub-CA;
* a failed shard can **rejoin** at a scheduled time with a fresh sub-CA
  chained to the same root at the next *chain epoch*; the trust store
  retires the dead epoch, stale credentials re-enroll before their next
  establishment, and the re-balancer migrates vehicles back.

``shards=1, v2v_fraction=0`` is the degenerate case and reproduces the
original single-gateway fleet *bit-for-bit* — same DRBG streams, same
event schedule, same :class:`~repro.fleet.stats.FleetStats` digest.

Every computation runs the real cryptography once, is priced once on
the hardware cost model (its energy follows from that time), and is
laid onto the :class:`~repro.sim.engine.Simulator` timeline:

* each vehicle computes on its own (slow, constrained) device model;
* a shard's CA/gateway computation contends that shard's
  :class:`~repro.sim.engine.Resource` on the (fast) central device —
  issuance requests queue up and are served in **batches** through
  :meth:`~repro.ecqv.ca.CertificateAuthority.issue_batch`, so a deeper
  queue amortizes into one shared Jacobian normalization (a host
  wall-clock saving; the priced cost model folds normalization into
  the per-multiplication events);
* ephemeral pools (:class:`~repro.protocols.pool.EphemeralPool`) built
  with :func:`~repro.ec.mul_base_batch` amortize Op1 across sessions;
* V2V traffic prices both endpoints on the vehicle device model and
  touches no central resource at all.  Otherwise the two link kinds
  share one handshake and one record delivery.

Determinism: all randomness flows from seeded DRBGs and one seeded
``random.Random`` for arrival jitter, so two runs with equal
:class:`FleetConfig` produce bit-identical :class:`~repro.fleet.stats.FleetStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import trace
from ..backend import available_backends, use_backend
from ..ec import mul_base
from ..ecdsa import sign, verify_batch
from ..ecqv import CertificateRequest, CertificateRequester
from ..errors import (
    AuthenticationError,
    CertificateError,
    ConfigError,
    PolicyError,
    ScenarioError,
    SimulationError,
)
from ..primitives import HmacDrbg
from ..protocols import (
    SessionContext,
    SessionExpired,
    SessionManager,
    SessionPolicy,
    install_pairwise_key,
    run_protocol,
)
from ..protocols.pool import EphemeralPool
from ..protocols.registry import get_protocol
from ..sim.engine import Simulator
from ..testbed import DEFAULT_NOW, device_id
from .parallel import (
    WorkerSnapshot,
    _COUNTER_FIELDS,
    _LATENCY_FIELDS,
    _merge,
    partition_plan,
)
from .policy import (
    CheckedSpec,
    FleetState,
    PolicyEngine,
    ShardView,
    VehicleView,
    bound,
    resolve_policies,
    static_hash_index,
)
from .scenario import (
    CaQueueFlood,
    ReplayStorm,
    Scenario,
    ScenarioSchedule,
    StaleCertFlood,
    compile_scenario,
)
from .stats import ExactSum, FleetStats, ShardStats, StreamingLatency
from .topology import (
    BUS_MS_PER_BYTE,
    CA_BATCH_LIMIT,
    CURVE,
    FleetTopology,
    GATEWAY_NAME,
    GatewayShard,
    RECORD_BYTES,
    SHARD_DEVICE,
    VEHICLE_DEVICE,
    plan_v2v_pairs,
)
from .vehicle import LIFECYCLE_STEPS, Vehicle

__all__ = [
    "FleetConfig",
    "FleetOrchestrator",
    "FleetResult",
    "GATEWAY_NAME",
    "run_fleet",
]


@dataclass(frozen=True)
class FleetConfig(CheckedSpec):
    """Parameters of one fleet orchestration run.

    The curve, device models, bus cost, record size and CA batch limit
    are fixed: the platform block of :mod:`repro.fleet.topology`.

    Attributes:
        n_vehicles: fleet size (one initiator per vehicle).
        seed: master seed; every DRBG stream and the arrival jitter
            derive from it, making runs bit-reproducible.
        protocol: registry name of the KD protocol vehicles run against
            the gateway (dynamic protocols re-key with fresh ephemerals).
        max_age_ms: session-key wall-clock budget (policy, sim ms).
        max_records: session-key record budget (policy).
        records_per_vehicle: application records each vehicle must
            deliver before it is done.
        send_interval_ms: spacing between a vehicle's records.
        arrival_spread_ms: enrollment arrivals are jittered uniformly
            over ``[0, arrival_spread_ms)``.
        pool_size: ephemeral pool entries per vehicle (0 disables).
        shards: number of gateway shards.  ``1`` reproduces the
            single-gateway fleet bit-for-bit; ``>1`` chains every shard
            CA to a fleet root and shares a trust store fleet-wide.
        shard_policy: shard-assignment policy, one of
            :data:`~repro.fleet.policy.SHARD_POLICIES`.
        v2v_fraction: fraction of the fleet paired into direct
            vehicle↔vehicle sessions (0 disables; pairs are planned
            deterministically from the seed).
        v2v_records: records the initiator of each V2V pair delivers to
            its partner.
        shard_fail_at_ms: simulated time at which shard ``fail_shard``
            goes down (``None`` disables; requires ``shards >= 2``).
        fail_shard: index of the shard the failure scenario kills.
        shard_rejoin_at_ms: simulated time at which the failed shard
            comes back (``None`` disables; requires ``shard_fail_at_ms``
            and must be later than it).  The rejoined shard is
            re-provisioned with a fresh sub-CA chained to the same fleet
            root at the next **chain epoch**; the trust store retires the
            dead epoch, so credentials it issued must re-enroll before
            their next establishment.
        migrate_threshold: live re-balancing policy (``None`` disables;
            requires ``shards >= 2``).  Checked at every application
            send: when the sending vehicle's shard holds more than
            ``migrate_threshold`` active vehicles above the least-loaded
            alive shard, the vehicle live-migrates there — its gateway
            sessions are dropped on both halves (the dead half can only
            see ``SessionExpired``), it re-enrolls through the target
            sub-CA and re-establishes before resuming traffic.
        authenticate_requests: vehicles sign their enrollment requests
            (proof of possession) and CAs batch-verify whole queues of
            them via :func:`~repro.ecdsa.verify_batch` before issuing.
        backend: crypto backend the run executes under (``None`` keeps
            the ambient :func:`repro.backend.get_backend` selection).
            Backends are bit-parity by contract — same DRBG streams,
            same trace events, same :class:`~repro.fleet.FleetStats`
            digest — so this knob only changes host wall-clock;
            ``"accelerated"`` routes SHA-2/HMAC/AES **and every EC
            scalar multiplication** through ``hashlib``/OpenSSL for
            fleet-scale sweeps (EC being ~90 % of accelerated
            wall-clock before the EC seam landed).
        workers: worker *processes* the run executes on.  ``1`` (the
            default) runs every shard in-process, as one partition.
            ``workers > 1`` partitions the gateway shards round-robin
            across worker processes when the configuration is provably
            shard-independent (``shards >= 2``, no V2V, no
            failover/rejoin, every resolved policy rule shard-local —
            see :func:`repro.fleet.parallel.partition_plan`); each
            worker simulates only its shards' event streams and the
            barrier merge reproduces the single-worker
            :class:`~repro.fleet.stats.FleetStats` digest **bit-for-bit**
            via the proven merge laws.  Configurations whose shards are
            dynamically coupled run as one in-process partition (same
            digest trivially).  Workers are capped at the shard count.
        stream: constant-memory streaming mode.  Releases a vehicle's
            timeline events, ephemeral pool and session manager once its
            gateway traffic and V2V pairing (if any) both ended, and
            stops :class:`~repro.sim.engine.Resource` interval recording
            — the O(events) allocations that bound fleet size.
            Digest-neutral: nothing touches the dropped state again.
            Off by default: :attr:`FleetResult.vehicles` timelines and
            resource intervals are debugging API.  Workers, whose
            vehicles never reach the caller, always stream.
        policy: named policy bundle from
            :data:`repro.fleet.policy.POLICY_BUNDLES` supplying the
            rules the :class:`~repro.fleet.policy.PolicyEngine`
            evaluates at the run's decision points (shard assignment,
            migration, re-key cadence, failover adoption).  ``None``
            selects the ``default`` bundle — the extracted legacy
            strategies, bit-identical to every historical digest.  The
            config resolves the bundle's rules once, so anything they
            reject — an unknown bundle or shard policy, a threshold
            below 1, or a knob the bundle would silently drop (e.g.
            ``utilisation-rebalance`` with ``migrate_threshold``) — is
            a :class:`~repro.errors.ConfigError` here.

    Examples:
        Configs are validated eagerly with actionable errors.  Each
        field's annotation and :func:`~repro.fleet.policy.bound` declare
        what it accepts; anything else is rejected, never coerced::

            >>> FleetConfig(n_vehicles=0)
            Traceback (most recent call last):
                ...
            repro.errors.ConfigError: FleetConfig: n_vehicles must be an int >= 1, got 0
            >>> FleetConfig(backend="turbo")
            Traceback (most recent call last):
                ...
            repro.errors.ConfigError: unknown crypto backend 'turbo'; have ['accelerated', 'reference']

        The backend knob never changes simulated results, only host
        wall-clock::

            >>> config = FleetConfig(n_vehicles=2, seed=b"doc", backend="accelerated")
            >>> config.backend
            'accelerated'
    """

    n_vehicles: int = bound(16, ge=1)
    seed: bytes = b"fleet-storm"
    protocol: str = "sts"
    max_age_ms: float = bound(600_000.0, gt=0)
    max_records: int = bound(25, ge=1)
    records_per_vehicle: int = bound(50, ge=1)
    send_interval_ms: float = bound(25.0, gt=0)
    arrival_spread_ms: float = bound(1_000.0, ge=0)
    pool_size: int = bound(4, ge=0)
    shards: int = bound(1, ge=1)
    shard_policy: str = "static-hash"
    v2v_fraction: float = bound(0.0, ge=0, le=1)
    v2v_records: int = bound(10, ge=1)
    shard_fail_at_ms: float | None = bound(None, gt=0)
    fail_shard: int = bound(0, ge=0)
    shard_rejoin_at_ms: float | None = None
    migrate_threshold: int | None = None
    authenticate_requests: bool = False
    backend: str | None = None
    workers: int = bound(1, ge=1)
    stream: bool = False
    policy: str | None = None

    error = ConfigError

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.shard_fail_at_ms is not None and self.shards < 2:
            raise ConfigError("failover scenarios need at least two shards")
        if self.fail_shard >= self.shards:
            raise ConfigError(
                f"fail_shard {self.fail_shard} out of range for"
                f" {self.shards} shard(s)"
            )
        if self.shard_rejoin_at_ms is not None:
            if self.shard_fail_at_ms is None:
                raise ConfigError(
                    "a rejoin schedule needs a failure schedule: set"
                    " shard_fail_at_ms as well"
                )
            if self.shard_rejoin_at_ms <= self.shard_fail_at_ms:
                raise ConfigError(
                    f"shard_rejoin_at_ms ({self.shard_rejoin_at_ms}) must be"
                    f" after shard_fail_at_ms ({self.shard_fail_at_ms})"
                )
        if self.migrate_threshold is not None and self.shards < 2:
            raise ConfigError("live migration needs at least two shards")
        if self.backend is not None and self.backend not in available_backends():
            raise ConfigError(
                f"unknown crypto backend {self.backend!r};"
                f" have {sorted(available_backends())}"
            )
        try:
            # The bundle's rules validate the strategy knobs they read.
            resolve_policies(self)
        except PolicyError as exc:
            raise ConfigError(str(exc)) from exc
        # Fail fast on an unknown protocol name.
        get_protocol(self.protocol)


#: Events a partition may process per record (each costs a handful).
EVENTS_PER_RECORD = 100


def event_cap(
    config: FleetConfig, schedule: ScenarioSchedule, vehicles
) -> int:
    """The runaway guard of a partition that owns ``vehicles`` (indices).

    :data:`EVENTS_PER_RECORD` per record those vehicles and the V2V pairs
    they initiate must deliver; pure, so it is known before a fleet is built.
    """
    owned = set(vehicles)
    records = sum(schedule.profile_for(i).records_per_vehicle for i in owned)
    pairs = sum(a in owned for a, _ in plan_v2v_pairs(config))
    return EVENTS_PER_RECORD * (records + pairs * config.v2v_records)


@dataclass
class _QueueEntry:
    """One request waiting in a shard CA's issuance queue.

    ``then`` is ``None`` for first enrollments (the standard
    enrolled→establish continuation) and a callback for churn
    re-enrollments (migration, chain-epoch roll).  ``adversarial`` is
    ``None`` for legitimate requests and the *injection index* for
    forged requests enqueued by a CA-flood injection (``vehicle`` and
    ``requester`` are then ``None`` — no fleet member stands behind the
    request).
    """

    vehicle: "Vehicle | None"
    requester: "CertificateRequester | None"
    request: CertificateRequest
    queued_at: float
    then: object = None
    adversarial: int | None = None


@dataclass
class FleetResult:
    """Everything a fleet run produces.

    ``obs`` carries the :class:`repro.obs.Observer` that watched the
    run when one was attached, ``None`` otherwise.
    """

    stats: FleetStats
    vehicles: list[Vehicle] = field(default_factory=list)
    obs: "object | None" = None


class FleetOrchestrator:
    """Drives a whole fleet through enrollment, sessions and re-keys.

    Every run executes one compiled
    :class:`~repro.fleet.scenario.ScenarioSchedule`: per-vehicle arrival
    times, behavior profiles (record budgets, send intervals, re-key
    budgets, roaming), convoy shard pins and adversarial injections
    executed against the live fleet.  A run given no
    :class:`~repro.fleet.scenario.Scenario` executes the compiled
    ``legacy-uniform`` schedule; its stats and observer meta still name
    no scenario.
    """

    def __init__(
        self,
        config: FleetConfig,
        scenario: "Scenario | None" = None,
        obs=None,
    ) -> None:
        self.obs = obs
        if obs is not None:
            from ..obs.fleet import FleetInstrumentation

            self._hooks = FleetInstrumentation(obs)
        else:
            self._hooks = None
        self.config = config
        self.scenario = scenario
        self.schedule = compile_scenario(scenario, config)
        self._plan = partition_plan(config, self.schedule)
        if self._plan is not None:
            # Parallel run: provisioning happens inside each worker
            # process (every worker builds the full deterministic
            # topology); building it here too would double the setup
            # cost for nothing.  run() dispatches to the worker pool.
            return
        with use_backend(config.backend):
            self._build(config)

    def _build(self, config: FleetConfig) -> None:
        """Provision topology, shards and vehicles (backend-scoped)."""
        self.sim = Simulator()
        self.topology = FleetTopology(config)
        self.shards: list[GatewayShard] = self.topology.shards
        policy = SessionPolicy(
            max_age_seconds=config.max_age_ms / 1000.0,
            max_records=config.max_records,
        )
        clock = lambda: self.sim.now / 1000.0  # noqa: E731
        self._policy = policy
        self._clock = clock
        for shard in self.shards:
            shard.manager = SessionManager(
                self._gateway_context_factory(shard),
                "B",
                protocol=config.protocol,
                policy=policy,
                clock=clock,
            )
        schedule = self.schedule
        self.vehicles: list[Vehicle] = []
        for index in range(config.n_vehicles):
            name = f"veh{index:04d}"
            vehicle = Vehicle(
                name=name,
                index=index,
                device_id=device_id(name),
                arrival_ms=schedule.arrival_ms[index],
            )
            vehicle_policy = policy
            max_records = schedule.profile_for(index).max_records
            if max_records is not None:
                # A commuter re-key cadence: the vehicle-side manager
                # enforces the tighter record budget (the gateway side
                # keeps the fleet policy; whichever expires first
                # forces the re-key).
                vehicle_policy = SessionPolicy(
                    max_age_seconds=config.max_age_ms / 1000.0,
                    max_records=max_records,
                )
            vehicle.manager = SessionManager(
                self._vehicle_context_factory(vehicle),
                "A",
                protocol=config.protocol,
                policy=vehicle_policy,
                clock=clock,
            )
            self.vehicles.append(vehicle)
        self.v2v_pairs: list[tuple[int, int]] = plan_v2v_pairs(config)
        for a, b in self.v2v_pairs:
            self.vehicles[a].v2v_peer_index = b
            self.vehicles[b].v2v_peer_index = a
        self._v2v_ready: set[int] = set()
        self._v2v_started: set[tuple[int, int]] = set()
        # Run counters and latency tables, keyed by FleetStats field name.
        # A table holds constant state per distinct sample value instead
        # of one Python float object per sample, and .summary()
        # reproduces LatencySummary.from_samples bit-for-bit (the digest
        # contract), so these are always-on.
        self._counters = dict.fromkeys(_COUNTER_FIELDS, 0)
        self._latencies = {
            name: StreamingLatency() for name in _LATENCY_FIELDS
        }
        # Exact (order-independent) streaming sum: the one digest float
        # accumulated across shard boundaries in interleaved event
        # order, so per-worker partials must fold into the same bits.
        self._vehicle_energy = ExactSum()
        #: Continuations coalesced onto a vehicle's in-flight
        #: re-enrollment (keyed by vehicle index).
        self._re_enroll_followups: dict[int, list] = {}
        # -- scenario injection state -----------------------------------------
        injections = schedule.injections
        #: Per-injection accounting, index-aligned with the schedule.
        self._injection_log: list[dict] = [
            {"kind": spec.kind, "at_ms": spec.at_ms, "attempts": 0,
             "rejected": 0, "succeeded": 0}
            for spec in injections
        ]
        #: Replay storms need a wire capture: latest vehicle→gateway
        #: record per vehicle index (populated only when needed).
        self._capture_wire = any(
            isinstance(spec, ReplayStorm) for spec in injections
        )
        self._captured_records: dict[int, bytes] = {}
        #: Stale-cert floods need the failing shard's epoch-1 leaf
        #: certificates, snapshotted at failure time.
        self._capture_stale = any(
            isinstance(spec, StaleCertFlood) for spec in injections
        )
        self._stale_certs: list = []
        # -- policy engine -----------------------------------------------------
        #: Sim-time of the latest replay-storm dispatch: the activity
        #: signal the storm-hardened re-key strategy windows on.  Plain
        #: metadata — recording it never touches the event heap, so it
        #: is digest-neutral for every other bundle.
        self._last_storm_ms: float | None = None
        self.policy = PolicyEngine(
            resolve_policies(config, schedule), note=self._note
        )

    # -- deterministic context factories --------------------------------------

    def _session_context(
        self, credential, personalization: bytes, pool: EphemeralPool | None
    ) -> SessionContext:
        return SessionContext(
            credential=credential,
            ca_public=self.topology.anchor_public,
            rng=HmacDrbg(self.config.seed, personalization=personalization),
            now=DEFAULT_NOW,
            ephemeral_pool=pool,
            trust_store=self.topology.trust_store,
            key_cache=self.topology.key_cache,
        )

    def _gateway_context_factory(self, shard: GatewayShard):
        single = self.config.shards == 1

        def factory() -> SessionContext:
            shard.session_counter += 1
            if single:
                personalization = (
                    b"fleet|gateway|sess|%d" % shard.session_counter
                )
            else:
                personalization = b"fleet|gw%d|sess|%d" % (
                    shard.index,
                    shard.session_counter,
                )
            return self._session_context(
                shard.gateway_credential, personalization, shard.pool
            )

        return factory

    def _vehicle_context_factory(self, vehicle: Vehicle):
        def factory() -> SessionContext:
            vehicle.session_counter += 1
            return self._session_context(
                vehicle.credential,
                b"fleet|%s|sess|%d"
                % (vehicle.name.encode(), vehicle.session_counter),
                vehicle.pool,
            )

        return factory

    # -- narration -------------------------------------------------------------

    def _note(self, step: str, vehicle=None, detail: str = "", **data) -> None:
        """Narrate one step of :data:`~repro.fleet.vehicle.LIFECYCLE_STEPS`.

        Nothing else writes a timeline or calls the observer: a step with
        a timeline kind appends it, with ``detail``, to ``vehicle``'s
        timeline, and an attached observer receives every step with
        ``data``.  An unknown step raises ``KeyError``.
        """
        kind = LIFECYCLE_STEPS[step]
        if kind is not None:
            vehicle.log(self.sim.now, kind, detail)
        if self._hooks is not None:
            self._hooks.on(step, self, vehicle, data)

    # -- pricing ---------------------------------------------------------------

    def _book_vehicle(self, cost) -> float:
        """Price ``cost`` once on the vehicle device and book its energy.

        Returns the time in ms; a vehicle's own device never contends.
        """
        ms = VEHICLE_DEVICE.time_ms(cost)
        self._vehicle_energy.add(VEHICLE_DEVICE.energy_of_ms(ms))
        return ms

    def _book_shard(self, shard: GatewayShard, cost, earliest: float):
        """Price ``cost`` once on ``shard``'s device and book its energy.

        The work occupies the shard resource from ``earliest`` on;
        returns the granted ``(start, end)``.
        """
        ms = SHARD_DEVICE.time_ms(cost)
        shard.energy_mj += SHARD_DEVICE.energy_of_ms(ms)
        return shard.resource.reserve(earliest, ms)

    # -- enrollment ------------------------------------------------------------

    def _arrive(self, vehicle: Vehicle) -> None:
        self._note("arrive", vehicle)

        def place() -> GatewayShard:
            shard = self._assign(vehicle)
            vehicle.shard = shard.index
            shard.vehicles_assigned += 1
            shard.active_vehicles += 1
            return shard

        self._request_certificate(
            vehicle, b"fleet|%s|enroll" % vehicle.name.encode(), place
        )

    def _request_certificate(
        self, vehicle: Vehicle, personalization: bytes, place, then=None
    ) -> None:
        """The request pipeline of first enrollment and re-enrollment.

        Once the priced request is computed, ``place()`` picks the shard
        whose CA queue takes it; ``then`` rides the :class:`_QueueEntry`.
        """
        requester = CertificateRequester(
            CURVE,
            vehicle.device_id,
            HmacDrbg(self.config.seed, personalization=personalization),
            key_cache=self.topology.key_cache,
        )
        with trace.trace(f"{vehicle.name}:request") as cost:
            request = requester.create_request(
                authenticate=self.config.authenticate_requests
            )
        duration = self._book_vehicle(cost)

        def submit() -> None:
            shard = place()
            where = "CA" if self.config.shards == 1 else f"shard {shard.index}"
            prefix = "" if then is None else "re-enroll "
            self._note("request", vehicle, f"{prefix}queued at {where}")
            shard.queue.append(
                _QueueEntry(vehicle, requester, request, self.sim.now, then)
            )
            self._pump_ca(shard)

        self.sim.schedule_after(duration, submit)

    def _pump_ca(self, shard: GatewayShard) -> None:
        """Serve one shard's CA queue: one batched issuance at a time.

        A batch may interleave legitimate enrollments with forged
        CA-flood requests; the CA screens the forged ones with a real
        batched proof-of-possession verification inside the same priced
        service window (the DoS cost legitimate requests queue behind),
        rejects them, and issues certificates only for the survivors.
        """
        if shard.failed or shard.issuing or not shard.queue:
            return
        batch_size = min(len(shard.queue), CA_BATCH_LIMIT)
        batch = [shard.queue.popleft() for _ in range(batch_size)]
        legit = [entry for entry in batch if entry.adversarial is None]
        attacks = [entry for entry in batch if entry.adversarial is not None]
        with trace.trace("ca:issue") as cost:
            if attacks:
                # Screen the flood: one batched ECDSA pass over every
                # forged proof of possession.  A verifying forgery would
                # be a successful attack (asserted zero downstream).
                outcomes = verify_batch(
                    [
                        (
                            entry.request.request_point,
                            entry.request.signed_payload(),
                            entry.request.signature,
                        )
                        for entry in attacks
                    ]
                )
                for entry, ok in zip(attacks, outcomes):
                    log = self._injection_log[entry.adversarial]
                    if ok:
                        log["succeeded"] += 1
                    else:
                        log["rejected"] += 1
            requests = [entry.request for entry in legit]
            issued = shard.ca.issue_batch(requests) if requests else []
        # Bind the issuing key now: a rejoin may roll shard.ca to a new
        # epoch before this batch's delivery event fires.
        issuer_public = shard.ca.public_key
        start, end = self._book_shard(shard, cost, self.sim.now)
        for entry in legit:
            wait = start - entry.queued_at
            shard.queue_latency.add(wait)
            self._latencies["ca_queue_latency"].add(wait)
            self._note("queue-wait", shard=shard, wait_ms=wait)
        self._note(
            "ca-batch", shard=shard, batch=batch_size, attacks=len(attacks),
            start_ms=start, end_ms=end,
        )
        shard.issuing = True
        shard.batches += 1
        shard.max_batch = max(shard.max_batch, batch_size)

        def deliver() -> None:
            shard.issuing = False
            for entry, certificate in zip(legit, issued):
                self._receive_certificate(
                    entry.vehicle,
                    entry.requester,
                    certificate,
                    issuer_public,
                    entry.then,
                )
            self._pump_ca(shard)

        self.sim.schedule_at(end, deliver)

    def _receive_certificate(
        self, vehicle, requester, issued, issuer_public, then=None
    ) -> None:
        shard = self.shards[vehicle.shard]
        self._note("certified", vehicle, f"serial {issued.certificate.serial}")
        with trace.trace(f"{vehicle.name}:reception") as cost:
            vehicle.credential = requester.process_response(
                issued, issuer_public
            )
            if self.config.pool_size > 0 and vehicle.pool is None:
                # Re-enrollments keep the existing pool: its DRBG stream
                # must never be replayed from the start.
                vehicle.pool = EphemeralPool(
                    CURVE,
                    HmacDrbg(
                        self.config.seed,
                        personalization=b"fleet|%s|pool"
                        % vehicle.name.encode(),
                    ),
                    self.config.pool_size,
                )
        duration = self._book_vehicle(cost)

        def enrolled() -> None:
            shard.enrollments += 1
            if then is not None:
                then()
                return
            vehicle.enrolled_at = self.sim.now
            self._counters["enrollments"] += 1
            latency = self.sim.now - vehicle.arrival_ms
            self._latencies["enrollment_latency"].add(latency)
            self._note("enrolled", vehicle, latency_ms=latency)
            self._establish(vehicle)

        self.sim.schedule_after(duration, enrolled)

    # -- failover ---------------------------------------------------------------

    def _fail_shard(self) -> None:
        """Deterministic failure scenario: one shard goes dark.

        Queued (not yet served) requests move to surviving shards with
        their original queue timestamps, so the extra wait shows up in
        the CA-queue latency distribution; vehicles holding sessions to
        the dead gateway discover the failure at their next send and
        re-key at an adopting shard (their chained credentials stay
        valid — a device died, no key was revoked).
        """
        shard = self.shards[self.config.fail_shard]
        if shard.failed:
            return
        if len(self.topology.alive_shards()) < 2:
            raise SimulationError("failover requires a surviving shard")
        shard.failed = True
        if self._capture_stale:
            # Snapshot the epoch-1 leaf certificates this CA issued: the
            # stale-cert flood presents exactly these after the rejoin
            # rolls the chain epoch.
            stale_akid = shard.ca.authority_key_id
            self._stale_certs = [
                v.credential.certificate
                for v in self.vehicles
                if v.credential is not None
                and v.credential.certificate.authority_key_id == stale_akid
            ]
        pending = list(shard.queue)
        shard.queue.clear()
        touched: list[GatewayShard] = []
        for entry in pending:
            if entry.adversarial is not None:
                # The flood died with its target: requests queued at a
                # gateway that failed before serving them are dropped.
                log = self._injection_log[entry.adversarial]
                log["rejected"] += 1
                continue
            vehicle = entry.vehicle
            shard.active_vehicles -= 1
            adopter = self._adopt_target(vehicle)
            self._book_handover(vehicle, shard, adopter, "requeue")
            adopter.queue.append(entry)
            touched.append(adopter)
        self._note("shard-failed", shard=shard, requeued=len(touched))
        for adopter in touched:
            self._pump_ca(adopter)

    def _handover(self, vehicle: Vehicle) -> GatewayShard:
        """Move a vehicle from its failed shard to a surviving one."""
        old = self.shards[vehicle.shard]
        adopter = self._adopt_target(vehicle)
        vehicle.manager.drop(old.gateway_id)
        old.manager.drop(vehicle.device_id)
        old.active_vehicles -= 1
        self._book_handover(vehicle, old, adopter, "handover")
        return adopter

    def _book_handover(self, vehicle, old, adopter, step) -> None:
        """Book one move of ``vehicle`` off the dead shard ``old``.

        Each caller decrements ``old.active_vehicles`` itself, before or
        after it picks the adopter: the adoption policy sees that count.
        """
        adopter.adopt(vehicle)
        vehicle.handovers += 1
        self._counters["handovers"] += 1
        detail = f"shard {old.index} -> shard {adopter.index}"
        self._note(step, vehicle, detail, old=old, adopter=adopter)

    # -- policy decision points --------------------------------------------------

    def _shard_views(self) -> tuple:
        """Frozen per-shard snapshots for one policy decision."""
        total_active = sum(
            shard.active_vehicles for shard in self.shards if not shard.failed
        )
        return tuple(
            ShardView(
                index=shard.index,
                failed=shard.failed,
                active_vehicles=shard.active_vehicles,
                queue_depth=len(shard.queue),
                epoch=shard.epoch,
                utilisation=(
                    shard.active_vehicles / total_active
                    if not shard.failed and total_active > 0
                    else 0.0
                ),
            )
            for shard in self.shards
        )

    def _vehicle_view(self, vehicle: Vehicle) -> VehicleView:
        return VehicleView(
            index=vehicle.index,
            name=vehicle.name,
            device_id=vehicle.device_id,
            shard=vehicle.shard,
            records_sent=vehicle.records_sent,
            rekeys=vehicle.rekeys,
            migrations=vehicle.migrations,
            migrating=vehicle.migrating,
            re_enrolling=vehicle.re_enrolling,
            pinned_shard=self.schedule.pinned_shard[vehicle.index],
            roam_every=self.schedule.profile_for(vehicle.index).roam_every,
            last_roam_records=vehicle.last_roam_records,
        )

    def _policy_state(
        self,
        point: str,
        vehicle: Vehicle,
        rekey_due: bool = False,
        session_records: int = 0,
    ) -> FleetState:
        return FleetState(
            point=point,
            now_ms=self.sim.now,
            vehicle=self._vehicle_view(vehicle),
            shards=self._shard_views(),
            rekey_due=rekey_due,
            session_records=session_records,
            last_storm_ms=self._last_storm_ms,
        )

    def _assign(self, vehicle: Vehicle) -> GatewayShard:
        """Placement: the alive convoy pin, else the assign decision point.

        Every placement — enrollment, failover requeue, handover — routes
        through here.  A convoy pin wins while its shard is alive and
        falls back to the policy (failover adoption) while it is down.
        """
        pin = self.schedule.pinned_shard[vehicle.index]
        if pin is not None:
            pinned = self.shards[pin]
            if not pinned.failed:
                return pinned
        decision = self.policy.decide(
            "assign", self._policy_state("assign", vehicle)
        )
        if decision is None:
            raise SimulationError("no alive gateway shard to assign to")
        return self.shards[decision.target_shard]

    def _adopt_target(self, vehicle: Vehicle) -> GatewayShard:
        """Failover adoption: the failover decision point.

        A failover rule picks the adopting shard; with none installed
        (the ``default`` bundle) adoption falls through to
        :meth:`_assign`.
        """
        if self.policy.has_rules("failover"):
            decision = self.policy.decide(
                "failover", self._policy_state("failover", vehicle)
            )
            if decision is not None:
                return self.shards[decision.target_shard]
        return self._assign(vehicle)

    # -- churn: rejoin, migration, re-enrollment --------------------------------

    def _rejoin_shard(self) -> None:
        """Scheduled recovery: the failed shard comes back, next epoch.

        Provisioning (fresh chained sub-CA, gateway credential, pool) is
        delegated to :meth:`~repro.fleet.topology.FleetTopology.rejoin_shard`;
        here the shard gets a *fresh* session manager, so any vehicle still
        holding a pre-failure session re-keys at its next send (the new
        gateway knows no old keys — the stale half can only ever miss,
        never MAC-fail), re-enrolling first because the trust store
        retired its certificate's chain epoch.  Vehicles migrate back
        under the re-balancing policy as they send.
        """
        shard = self.shards[self.config.fail_shard]
        if not shard.failed:
            return
        self.topology.rejoin_shard(shard.index)
        shard.manager = SessionManager(
            self._gateway_context_factory(shard),
            "B",
            protocol=self.config.protocol,
            policy=self._policy,
            clock=self._clock,
        )
        self._counters["rejoins"] += 1
        self._note("rejoin", shard=shard)

    def migrate(
        self,
        vehicle: Vehicle,
        shard: "GatewayShard | int",
        rule: str | None = None,
    ) -> None:
        """Live-migrate a vehicle to another healthy shard.

        Both halves of the vehicle↔gateway session are dropped through
        the managers (the drained half can only raise ``SessionExpired``
        afterwards), the vehicle re-enrolls through the target shard's
        sub-CA — a fresh certificate under the target's chain epoch — and
        re-establishes there before resuming its record stream.  This is
        the explicit API; migration policy rules call it at
        deterministic points (application sends), passing the deciding
        rule's kind via ``rule`` so the decision is attributed once —
        direct API calls are attributed to the pseudo-rule ``"api"``.
        Only a live vehicle migrates: one that has enrolled and is not
        done.
        """
        done = vehicle.done_at is not None
        if done or vehicle.enrolled_at is None:
            state = "is done" if done else "has not enrolled"
            raise SimulationError(
                f"{vehicle.name} {state}; only a live vehicle migrates"
            )
        target = self.shards[shard] if isinstance(shard, int) else shard
        old = self.shards[vehicle.shard]
        if target.index == old.index:
            raise SimulationError(
                f"{vehicle.name} already lives on shard {target.index}"
            )
        if old.failed or target.failed:
            raise SimulationError(
                "live migration runs between two healthy shards"
                " (failover handles dead ones)"
            )
        if vehicle.migrating:
            raise SimulationError(f"{vehicle.name} is already migrating")
        if vehicle.re_enrolling:
            raise SimulationError(
                f"{vehicle.name} is mid re-enrollment; migrate after it"
                " completes"
            )
        vehicle.migrating = True
        started = self.sim.now
        vehicle.manager.drop(old.gateway_id)
        old.manager.drop(vehicle.device_id)
        old.active_vehicles -= 1
        old.migrations_out += 1
        target.receive_migration(vehicle)
        vehicle.migrations += 1
        self._counters["migrations"] += 1
        if rule is None:
            # Engine-decided migrations were already attributed by
            # PolicyEngine.decide; direct API calls are attributed here
            # so the policy.migrate counter balances the per-shard
            # migration flow (tracelint policy-balance).
            self._note(
                "policy", vehicle, point="migrate", rule="api",
                target_shard=target.index,
            )
        detail = f"shard {old.index} -> shard {target.index}"
        self._note("migrate", vehicle, detail, old=old, target=target)

        def established() -> None:
            vehicle.migrating = False
            latency = self.sim.now - started
            self._latencies["migration_latency"].add(latency)
            self._note("migrated", vehicle, latency_ms=latency)

        self._re_enroll(
            vehicle,
            target,
            reason=f"migration from shard {old.index}",
            then=lambda: self._establish(vehicle, then=established),
        )

    def _policy_migrate(self, vehicle: Vehicle, shard: GatewayShard) -> bool:
        """The migration decision point, checked at every application send.

        The ``default`` bundle installs the extracted legacy rules —
        roam cadence (profile-driven) ahead of threshold re-balancing —
        so first-match order reproduces the historical check order
        bit-for-bit.  A winning rule names the target shard; ``roam``
        decisions additionally get the roamer bookkeeping the legacy
        path applied (the ``last_roam_records`` marker keeps one record
        count from triggering twice — the post-migration establish
        resumes sending at the same count).
        """
        if not self.policy.has_rules("migrate"):
            return False
        decision = self.policy.decide(
            "migrate", self._policy_state("migrate", vehicle)
        )
        if decision is None:
            return False
        if decision.roam:
            vehicle.last_roam_records = vehicle.records_sent
            vehicle.roams += 1
        self.migrate(
            vehicle, self.shards[decision.target_shard], rule=decision.rule
        )
        return True

    def _re_enroll(self, vehicle, shard, reason, then) -> None:
        """Pull a fresh certificate from ``shard``'s CA, then ``then()``.

        Runs the full priced enrollment pipeline — request on the vehicle
        device, the shard CA's batched issuance queue, reception — but
        keeps the vehicle's pool and routes completion into ``then``
        instead of the first-enrollment bookkeeping.

        One chain-epoch roll can trigger re-enrollment from two paths at
        once (the gateway re-key in :meth:`_establish` and a V2V re-key
        in :meth:`_establish_v2v`); a second request while one is in
        flight is *coalesced* — its continuation just waits for the
        fresh certificate instead of running the pipeline twice.
        """
        if vehicle.re_enrolling:
            self._re_enroll_followups[vehicle.index].append(then)
            self._note("re-enroll-coalesced", vehicle, f"coalesced ({reason})")
            return
        vehicle.re_enrolling = True
        self._re_enroll_followups[vehicle.index] = []

        def complete() -> None:
            vehicle.re_enrolling = False
            followups = self._re_enroll_followups.pop(vehicle.index, [])
            self._note("re-enrolled", vehicle)
            then()
            for followup in followups:
                followup()

        def place() -> GatewayShard:
            if not shard.failed:
                return shard
            # The shard died while the request was computed: requeue the
            # request at a survivor rather than strand it in a dead queue.
            shard.active_vehicles -= 1
            adopter = self._adopt_target(vehicle)
            self._book_handover(vehicle, shard, adopter, "requeue")
            return adopter

        vehicle.re_enrollments += 1
        self._counters["re_enrollments"] += 1
        detail = f"at shard {shard.index} ({reason})"
        self._note("re-enroll", vehicle, detail, shard=shard, reason=reason)
        self._request_certificate(
            vehicle,
            b"fleet|%s|enroll|%d"
            % (vehicle.name.encode(), vehicle.re_enrollments),
            place,
            complete,
        )

    # -- session establishment -------------------------------------------------

    def _re_enroll_stale(self, vehicle: Vehicle, reason: str, retry) -> bool:
        """Re-enroll ``vehicle`` first if its chain epoch was retired.

        A gateway rejoin rolls the chain epoch and the trust store then
        rejects the old chain, so the vehicle pulls a fresh certificate
        at its shard (failing over first if that shard is down) and
        ``retry()`` runs once it is in.  Returns whether this took over.
        """
        store = self.topology.trust_store
        credential = vehicle.credential
        if (
            store is None
            or credential is None
            or not store.is_retired(credential.certificate.authority_key_id)
        ):
            return False
        shard = self.shards[vehicle.shard]
        if shard.failed:
            shard = self._handover(vehicle)
        self._re_enroll(vehicle, shard, reason=reason, then=retry)
        return True

    def _handshake(self, manager_a, manager_b, psk_personalization: bytes):
        """Run the configured protocol between two session managers.

        Opens a context on each side, ``manager_a`` first (a context's
        DRBG is seeded from its owner's next session number), installs a
        pairwise PSK drawn from ``psk_personalization`` when the protocol
        needs one, and returns both parties and the handshake's bus ms.
        """
        ctx_a = manager_a.context_factory()
        ctx_b = manager_b.context_factory()
        info = get_protocol(self.config.protocol)
        if info.needs_pairwise_psk:
            rng = HmacDrbg(self.config.seed, personalization=psk_personalization)
            install_pairwise_key(ctx_a, ctx_b, rng.generate(32))
        party_a, party_b = info.factory(ctx_a, ctx_b)
        transcript = run_protocol(party_a, party_b)
        bus_ms = transcript.total_bytes * BUS_MS_PER_BYTE
        return party_a, party_b, bus_ms

    def _establish(self, vehicle: Vehicle, then=None) -> None:
        shard = self.shards[vehicle.shard]
        if shard.failed:
            shard = self._handover(vehicle)
        if self._re_enroll_stale(
            vehicle,
            "chain epoch rolled",
            lambda: self._establish(vehicle, then=then),
        ):
            return
        started = self.sim.now
        self._note("establish", vehicle)
        party_v, party_g, bus_ms = self._handshake(
            vehicle.manager,
            shard.manager,
            b"fleet|psk|%s" % vehicle.name.encode(),
        )
        vehicle_ms = self._book_vehicle(party_v.total_cost())
        # The vehicle computes locally first; the gateway's share contends
        # the shard's central device with every other establishment and
        # certificate issuance that shard serves.
        _, gateway_end = self._book_shard(
            shard, party_g.total_cost(), started + vehicle_ms
        )
        done = gateway_end + bus_ms

        def finish() -> None:
            vehicle.manager.install(shard.gateway_id, party_v.session_key)
            shard.manager.install(vehicle.device_id, party_g.session_key)
            session = vehicle.manager.session_for(shard.gateway_id)
            vehicle.generation = session.generation
            vehicle.sessions += 1
            shard.sessions_established += 1
            self._counters["sessions_established"] += 1
            latency = self.sim.now - started
            self._latencies["establishment_latency"].add(latency)
            self._note(
                "established", vehicle, f"generation {session.generation}",
                shard=shard, latency_ms=latency,
            )
            if vehicle.sessions == 1 and vehicle.v2v_peer_index is not None:
                self._v2v_mark_ready(vehicle)
            if then is not None:
                then()
            self.sim.schedule_after(
                self.schedule.profile_for(vehicle.index).send_interval_ms,
                lambda: self._send(vehicle),
            )

        self.sim.schedule_at(done, finish)

    # -- managed traffic ---------------------------------------------------------

    def _release_vehicle(self, vehicle: Vehicle) -> None:
        """Streaming mode: drop a vehicle's state once its last link ends.

        Called as each link ends.  Once the gateway traffic and the V2V
        pairing (if any) are both done, nothing touches the timeline,
        pool or manager again.  The gateway side of the session stays
        installed (replay-storm injections verify against it).
        """
        if not self.config.stream or vehicle.done_at is None:
            return
        if vehicle.v2v_peer_index is not None and vehicle.v2v_done_at is None:
            return
        vehicle.events.clear()
        vehicle.pool = None
        vehicle.manager = None

    def _deliver(self, text: bytes, sender, receiver):
        """Carry one application record over an established session.

        ``sender`` and ``receiver`` are ``(manager, device id, name)``.
        The payload is ``text`` padded with dots or cut to
        ``RECORD_BYTES``, sealed and opened under one trace scope each.
        Returns the wire record and both (unpriced) traces; a receiver
        that opens anything but the payload raises ``SimulationError``.
        """
        send_manager, send_id, send_name = sender
        recv_manager, recv_id, recv_name = receiver
        payload = text.ljust(RECORD_BYTES, b".")[:RECORD_BYTES]
        with trace.trace(f"{send_name}:send") as send_cost:
            record = send_manager.send(recv_id, payload)
        with trace.trace(f"{recv_name}:receive") as recv_cost:
            received = recv_manager.receive(send_id, record)
        if received != payload:
            raise SimulationError(
                f"{recv_name} decrypted a wrong payload from {send_name}"
            )
        return record, send_cost, recv_cost

    def _send(self, vehicle: Vehicle) -> None:
        if vehicle.migrating:
            # A send scheduled before an explicit migrate() call: the
            # post-migration establishment starts the next send.
            return
        profile = self.schedule.profile_for(vehicle.index)
        if vehicle.records_sent >= profile.records_per_vehicle:
            vehicle.done_at = self.sim.now
            self.shards[vehicle.shard].active_vehicles -= 1
            self._note("done", vehicle, f"{vehicle.records_sent} records")
            self._release_vehicle(vehicle)
            return
        shard = self.shards[vehicle.shard]
        if shard.failed:
            # The gateway died under an open session: fail over and
            # re-key at a surviving shard (handled inside _establish).
            self._establish(vehicle)
            return
        if self._policy_migrate(vehicle, shard):
            # A migration rule moved the vehicle (roam cadence,
            # threshold re-balance, ...): it resumes sending once
            # re-enrolled and re-established at the target shard.
            return
        # The managers' budget verdict has session side effects (an
        # expired half is dropped by the check), so it is computed
        # exactly once — here, at the legacy call site — and handed to
        # the re-key rules as FleetState.rekey_due.
        rekey_due = vehicle.manager.needs_rekey(
            shard.gateway_id
        ) or shard.manager.needs_rekey(vehicle.device_id)
        decision = None
        if rekey_due or not self.policy.only_default_rekey:
            session_records = 0
            if not self.policy.only_default_rekey:
                # Raw snapshot for budget-tightening rules; .get() is
                # side-effect free, unlike the manager's budget check.
                session = vehicle.manager.sessions.get(shard.gateway_id)
                session_records = (
                    session.records_used if session is not None else 0
                )
            decision = self.policy.decide(
                "rekey",
                self._policy_state(
                    "rekey",
                    vehicle,
                    rekey_due=rekey_due,
                    session_records=session_records,
                ),
            )
        if decision is not None:
            # Policy expired the key on either side — or a rejoined
            # gateway came back with a fresh manager that knows no old
            # keys, or a re-key rule tightened the budget: drop both
            # halves and run a fresh establishment (fresh ephemerals,
            # next generation).
            vehicle.manager.drop(shard.gateway_id)
            shard.manager.drop(vehicle.device_id)
            vehicle.rekeys += 1
            shard.rekeys += 1
            self._counters["rekeys"] += 1
            detail = f"after {vehicle.records_sent} records"
            self._note("rekey", vehicle, detail)
            self._establish(vehicle)
            return
        record, send_cost, recv_cost = self._deliver(
            b"%s|%06d" % (vehicle.name.encode(), vehicle.records_sent),
            (vehicle.manager, vehicle.device_id, vehicle.name),
            (shard.manager, shard.gateway_id, "gateway"),
        )
        send_ms = self._book_vehicle(send_cost)
        self._book_shard(shard, recv_cost, self.sim.now)
        if self._capture_wire:
            # The replay-storm adversary records the wire verbatim.
            self._captured_records[vehicle.index] = record
        vehicle.records_sent += 1
        self._counters["records_sent"] += 1
        self._note("record", vehicle, wire_bytes=len(record))
        bus_ms = len(record) * BUS_MS_PER_BYTE
        self.sim.schedule_after(
            profile.send_interval_ms + send_ms + bus_ms,
            lambda: self._send(vehicle),
        )

    # -- V2V sessions ------------------------------------------------------------

    def _v2v_mark_ready(self, vehicle: Vehicle) -> None:
        """A paired vehicle finished its first gateway establishment."""
        self._v2v_ready.add(vehicle.index)
        peer = self.vehicles[vehicle.v2v_peer_index]
        if peer.index not in self._v2v_ready:
            return
        pair = (min(vehicle.index, peer.index), max(vehicle.index, peer.index))
        if pair in self._v2v_started:
            return
        self._v2v_started.add(pair)
        self._establish_v2v(
            self.vehicles[pair[0]], self.vehicles[pair[1]], rekey=False
        )

    def _establish_v2v(
        self, initiator: Vehicle, responder: Vehicle, rekey: bool
    ) -> None:
        """Direct pairwise establishment — no gateway in the data path.

        Both endpoints run the full protocol on the (slow) vehicle device
        model; the messages alternate strictly, so the simulated duration
        is the sum of both computation shares plus the bus transfer.  A
        cross-shard pair carries certificates from two different shard
        CAs, which the trust store resolves to the fleet root on both
        sides — the chained-validation path this topology exists for.
        """
        for vehicle in (initiator, responder):
            if self._re_enroll_stale(
                vehicle,
                "chain epoch rolled (v2v)",
                lambda: self._establish_v2v(initiator, responder, rekey),
            ):
                return
        started = self.sim.now
        self._note("v2v-establish", initiator, responder=responder, rekey=rekey)
        party_i, party_r, bus_ms = self._handshake(
            initiator.manager,
            responder.manager,
            b"fleet|v2v-psk|%s|%s"
            % (initiator.name.encode(), responder.name.encode()),
        )
        initiator_ms = self._book_vehicle(party_i.total_cost())
        responder_ms = self._book_vehicle(party_r.total_cost())
        done = started + initiator_ms + responder_ms + bus_ms

        def finish() -> None:
            initiator.manager.install(responder.device_id, party_i.session_key)
            # Both vehicles run initiator-role managers; the responding
            # half of a V2V pair takes the "B" direction on the wire.
            responder.manager.install(
                initiator.device_id, party_r.session_key, role="B"
            )
            initiator.v2v_sessions += 1
            responder.v2v_sessions += 1
            self._counters["v2v_sessions"] += 1
            if rekey:
                self._counters["v2v_rekeys"] += 1
            cross_shard = initiator.shard != responder.shard
            if cross_shard:
                self._counters["v2v_cross_shard"] += 1
            latency = self.sim.now - started
            self._latencies["v2v_latency"].add(latency)
            detail = f"with {responder.name}" + (
                " (cross-shard)" if cross_shard else ""
            )
            self._note(
                "v2v-established", initiator, detail, responder=responder,
                latency_ms=latency, cross_shard=cross_shard,
            )
            self._note(
                "v2v-peer-established", responder, f"with {initiator.name}"
            )
            self.sim.schedule_after(
                self.config.send_interval_ms,
                lambda: self._send_v2v(initiator, responder),
            )

        self.sim.schedule_at(done, finish)

    def _send_v2v(self, initiator: Vehicle, responder: Vehicle) -> None:
        if initiator.v2v_records_sent >= self.config.v2v_records:
            initiator.v2v_done_at = self.sim.now
            responder.v2v_done_at = self.sim.now
            self._note(
                "v2v-done",
                initiator,
                f"{initiator.v2v_records_sent} records to {responder.name}",
            )
            self._note("v2v-peer-done", responder, f"from {initiator.name}")
            self._release_vehicle(initiator)
            self._release_vehicle(responder)
            return
        if initiator.manager.needs_rekey(
            responder.device_id
        ) or responder.manager.needs_rekey(initiator.device_id):
            initiator.manager.drop(responder.device_id)
            responder.manager.drop(initiator.device_id)
            detail = f"after {initiator.v2v_records_sent} records"
            self._note("v2v-rekey", initiator, detail)
            self._establish_v2v(initiator, responder, rekey=True)
            return
        record, send_cost, recv_cost = self._deliver(
            b"%s>%s|%06d"
            % (
                initiator.name.encode(),
                responder.name.encode(),
                initiator.v2v_records_sent,
            ),
            (initiator.manager, initiator.device_id, initiator.name),
            (responder.manager, responder.device_id, responder.name),
        )
        send_ms = self._book_vehicle(send_cost)
        recv_ms = self._book_vehicle(recv_cost)
        initiator.v2v_records_sent += 1
        self._counters["v2v_records_sent"] += 1
        self._note("v2v-record", initiator)
        bus_ms = len(record) * BUS_MS_PER_BYTE
        self.sim.schedule_after(
            self.config.send_interval_ms + send_ms + bus_ms + recv_ms,
            lambda: self._send_v2v(initiator, responder),
        )

    # -- adversarial injections --------------------------------------------------
    # The adversary computes on its own hardware, for free; the gateway's
    # work to reject an attack is booked on its shard and contends the
    # shard resource: the DoS pressure legitimate traffic feels.

    def _inject_replay_storm(self, spec: ReplayStorm, log: dict) -> None:
        """Replay captured vehicle→gateway records at the target shard.

        Victims are the vehicles currently served by the target shard
        whose traffic the adversary captured, cycled in index order.
        Every replay runs the real record channel on the gateway: a
        verbatim replay dies on the sequence window, a replay across a
        re-key dies on the MAC.  An accepted record would count as a
        success (and is asserted zero by the benchmarks).
        """
        self._last_storm_ms = self.sim.now
        shard = self.shards[spec.target_shard]
        if shard.failed:
            # Nothing listens: the storm hits a dead gateway.
            log["attempts"] += spec.replays
            log["rejected"] += spec.replays
            return
        victims = [
            vehicle
            for vehicle in self.vehicles
            if vehicle.shard == shard.index
            and vehicle.index in self._captured_records
        ]
        if not victims:
            # A storm with nothing to replay would report a vacuous
            # defense success (0/0 rejected); fail loudly instead so the
            # misconfigured timing is fixed rather than misread.
            raise ScenarioError(
                f"replay-storm at {spec.at_ms} ms fired before any"
                f" application record was captured at shard"
                f" {shard.index}; schedule it after traffic starts"
            )
        for attempt in range(spec.replays):
            victim = victims[attempt % len(victims)]
            record = self._captured_records[victim.index]
            log["attempts"] += 1
            with trace.trace("gateway:replay-verify") as cost:
                try:
                    shard.manager.receive(victim.device_id, record)
                except (AuthenticationError, SessionExpired):
                    log["rejected"] += 1
                else:
                    log["succeeded"] += 1
            self._book_shard(shard, cost, self.sim.now)

    def _inject_stale_cert_flood(self, spec: StaleCertFlood, log: dict) -> None:
        """Present retired chain-epoch certificates for validation.

        Each attempt runs the full trust-chain resolution against the
        fleet store on the rejoined gateway; the retired epoch must
        raise the chain-epoch :class:`~repro.errors.CertificateError`.
        A validation that *passes* is a successful stale-credential
        acceptance (asserted zero downstream).
        """
        store = self.topology.trust_store
        certs = self._stale_certs
        if store is None or not certs:
            # compile_scenario guarantees a rejoin is scheduled, so an
            # empty capture means the shard failed before issuing any
            # leaf certificate — a vacuous 0/0 "defense" if we returned.
            raise ScenarioError(
                f"stale-cert-flood at {spec.at_ms} ms has no retired"
                " certificates to present: the failed shard issued"
                " nothing before it died; move the failure later or the"
                " arrivals earlier"
            )
        shard = self.shards[self.config.fail_shard]
        for attempt in range(spec.attempts):
            certificate = certs[attempt % len(certs)]
            log["attempts"] += 1
            with trace.trace("gateway:chain-validate") as cost:
                try:
                    store.resolve_and_validate(certificate, DEFAULT_NOW)
                except CertificateError:
                    log["rejected"] += 1
                else:
                    log["succeeded"] += 1
            self._book_shard(shard, cost, self.sim.now)

    def _inject_ca_flood(
        self, index: int, spec: CaQueueFlood, log: dict
    ) -> None:
        """Enqueue forged enrollment requests at the target shard CA.

        Each request carries a real (but forged) proof-of-possession
        signature — made with a scalar unrelated to the request point —
        so the CA's batched screening pass must reject it.  The requests
        take real slots in the issuance queue and real verification time
        in the service window: the DoS legitimate enrollments feel.
        """
        shard = self.shards[spec.target_shard]
        if shard.failed:
            log["attempts"] += spec.requests
            log["rejected"] += spec.requests
            return
        rng = HmacDrbg(
            self.config.seed,
            personalization=b"scenario|ca-flood|%d" % index,
        )
        for j in range(spec.requests):
            scalar = rng.random_scalar(CURVE.n)
            point = mul_base(scalar, CURVE)
            subject = device_id(f"attacker{index:02d}-{j:04d}")
            unsigned = CertificateRequest(subject, point)
            forged = sign(
                CURVE, rng.random_scalar(CURVE.n), unsigned.signed_payload()
            )
            log["attempts"] += 1
            shard.queue.append(
                _QueueEntry(
                    vehicle=None,
                    requester=None,
                    request=CertificateRequest(
                        subject, point, signature=forged
                    ),
                    queued_at=self.sim.now,
                    adversarial=index,
                )
            )
        self._pump_ca(shard)

    def _run_injection(self, index: int, spec) -> None:
        """Dispatch one scheduled injection to its executor."""
        log = self._injection_log[index]
        if isinstance(spec, ReplayStorm):
            self._inject_replay_storm(spec, log)
        elif isinstance(spec, StaleCertFlood):
            self._inject_stale_cert_flood(spec, log)
        elif isinstance(spec, CaQueueFlood):
            self._inject_ca_flood(index, spec, log)
        else:  # pragma: no cover - compile_scenario validates kinds
            raise SimulationError(f"unknown injection {spec!r}")
        self._note("injection", index=index, log=log)

    # -- driving -----------------------------------------------------------------

    def run(self) -> FleetResult:
        """Run the full storm to quiescence and aggregate the stats.

        Executes under the :class:`FleetConfig`'s ``backend`` (scoped
        via :func:`repro.backend.use_backend`; ``None`` keeps the
        ambient backend).  Backends are bit-parity, so the resulting
        :class:`~repro.fleet.stats.FleetStats` digest is independent of
        the selection.

        With ``workers > 1`` and a provably shard-independent
        configuration the shards execute in worker processes
        (:mod:`repro.fleet.parallel`).  Otherwise the run is one
        partition that owns every shard.  Either way the partition
        snapshots fold into the stats through the same merge, so the
        digest does not depend on the worker count.
        """
        if self._plan is not None:
            # Looked up at call time, so a wrapper installed on the
            # module (the per-layer profiler's) sees the call.
            from .parallel import run_parallel

            return run_parallel(
                self.config,
                self.scenario,
                self.schedule,
                self._plan,
                obs=self.obs,
            )
        with use_backend(self.config.backend):
            owned = frozenset(range(self.config.shards))
            snapshot = self._run_partition(owned)
            stats = _merge(
                self.config, self.scenario, self.schedule, [snapshot]
            )
            self._note("run-finished", stats=stats)
        return FleetResult(stats=stats, vehicles=self.vehicles, obs=self.obs)

    def _predicted_shard(self, vehicle: Vehicle) -> int:
        """The shard a vehicle will be assigned to, computed statically.

        Only valid under the parallel-execution preconditions
        (:func:`repro.fleet.parallel.partition_plan`): static-hash
        placement with every shard alive, where :meth:`_assign` returns
        the vehicle's scenario shard pin or its :func:`static_hash_index`.
        """
        pin = self.schedule.pinned_shard[vehicle.index]
        if pin is not None:
            return pin
        return static_hash_index(vehicle.device_id, self.config.shards)

    def _run_partition(self, owned: frozenset) -> WorkerSnapshot:
        """Drive only the event streams of the ``owned`` shards.

        Schedules arrivals for vehicles statically assigned to an owned
        shard, the fail/rejoin events and injections of an owned shard
        (a stale-cert flood targets ``fail_shard``), in the order a run
        owning every shard schedules them — so by induction every owned
        shard sees a bit-identical event stream (shard streams are
        independent under the partition-plan preconditions, and co-timed
        events keep their scheduling order because omitted foreign
        events never interleave *within* a shard's stream).  Runs under
        the caller's backend scope, for at most :func:`event_cap` events,
        and returns the merge-ready snapshot.
        """
        self._note("run-started")
        everything = len(owned) == self.config.shards
        mine = [
            vehicle
            for vehicle in self.vehicles
            if everything or self._predicted_shard(vehicle) in owned
        ]
        for vehicle in mine:
            self.sim.schedule_at(
                vehicle.arrival_ms, (lambda v: lambda: self._arrive(v))(vehicle)
            )
        if self.config.fail_shard in owned:
            if self.config.shard_fail_at_ms is not None:
                self.sim.schedule_at(
                    self.config.shard_fail_at_ms, self._fail_shard
                )
            if self.config.shard_rejoin_at_ms is not None:
                self.sim.schedule_at(
                    self.config.shard_rejoin_at_ms, self._rejoin_shard
                )
        for index, spec in enumerate(self.schedule.injections):
            target = getattr(spec, "target_shard", self.config.fail_shard)
            if target in owned:
                self.sim.schedule_at(
                    spec.at_ms,
                    (
                        lambda i, s: lambda: self._run_injection(i, s)
                    )(index, spec),
                )
        cap = event_cap(self.config, self.schedule, (v.index for v in mine))
        self.sim.run(max_events=cap)
        unfinished = [v.name for v in mine if v.done_at is None]
        if unfinished:
            raise SimulationError(
                f"fleet run ended with unfinished vehicles: {unfinished[:5]}"
            )
        unfinished_pairs = [
            pair
            for pair in self.v2v_pairs
            if self.vehicles[pair[0]].v2v_done_at is None
        ]
        if unfinished_pairs:
            raise SimulationError(
                f"fleet run ended with unfinished V2V pairs:"
                f" {unfinished_pairs[:5]}"
            )
        strays = [v.name for v in mine if v.shard not in owned]
        if strays:
            # Only a rule that declares shard_local wrongly gets here.
            raise SimulationError(
                f"vehicles left partition {sorted(owned)}: {strays[:5]};"
                " a shard_local rule must keep each vehicle on its"
                " static_hash_index shard"
            )
        return WorkerSnapshot(
            owned=tuple(sorted(owned)),
            now=self.sim.now,
            events_processed=self.sim.events_processed,
            shard_rows=tuple(
                ShardStats(
                    index=shard.index,
                    name=shard.ca_name,
                    vehicles_assigned=shard.vehicles_assigned,
                    enrollments=shard.enrollments,
                    sessions_established=shard.sessions_established,
                    rekeys=shard.rekeys,
                    handovers_in=shard.handovers_in,
                    failed=shard.failed,
                    ca_busy_ms=shard.resource.busy_ms,
                    # Needs the merged clock: the merge fills it in.
                    ca_utilisation=0.0,
                    ca_batches=shard.batches,
                    ca_max_batch=shard.max_batch,
                    queue_latency=shard.queue_latency.summary(),
                    ca_energy_mj=shard.energy_mj,
                    epoch=shard.epoch,
                    migrations_in=shard.migrations_in,
                    migrations_out=shard.migrations_out,
                )
                for shard in self.shards
                if shard.index in owned
            ),
            counters=self._counters,
            latencies=self._latencies,
            vehicle_energy=self._vehicle_energy,
            injection_rows=tuple(
                (log["attempts"], log["rejected"], log["succeeded"])
                for log in self._injection_log
            ),
        )


def run_fleet(
    config: FleetConfig | None = None,
    scenario: "Scenario | None" = None,
    obs=None,
) -> FleetResult:
    """Convenience one-shot: build an orchestrator and run it.

    Args:
        config: fleet shape and policies (defaults to ``FleetConfig()``);
            ``config.backend`` picks the crypto backend of the run.
        scenario: optional declarative workload
            (:class:`~repro.fleet.scenario.Scenario`); ``None`` runs the
            compiled ``legacy-uniform`` schedule, the uniform arrival
            storm.
        obs: optional :class:`repro.obs.Observer` collecting spans,
            metrics and heartbeats for this run (also returned on
            ``FleetResult.obs``).  Observability is digest-neutral:
            attaching an observer never changes simulated results.

    Examples:
        A tiny deterministic storm (every number below is a pure
        function of the seed)::

            >>> from repro.fleet import FleetConfig, run_fleet
            >>> stats = run_fleet(FleetConfig(
            ...     n_vehicles=2, seed=b"docs-fleet", records_per_vehicle=2,
            ...     max_records=2, arrival_spread_ms=5.0)).stats
            >>> stats.vehicles, stats.enrollments, stats.sessions_established
            (2, 2, 2)
            >>> stats.records_sent
            4

        The same workload under the accelerated backend digests
        bit-identically::

            >>> fast = run_fleet(FleetConfig(
            ...     n_vehicles=2, seed=b"docs-fleet", records_per_vehicle=2,
            ...     max_records=2, arrival_spread_ms=5.0,
            ...     backend="accelerated")).stats
            >>> fast.digest() == stats.digest()
            True
    """
    if config is None:
        config = FleetConfig()
    return FleetOrchestrator(config, scenario=scenario, obs=obs).run()
