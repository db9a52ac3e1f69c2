"""Fleet deployment topology: gateway shards, trust chain, V2V pairing.

The single-gateway fleet of PR 1 put every CA and gateway duty on one
central device — the bottleneck *and* the single point of failure of every
run.  This module generalizes the deployment to an explicit topology:

* **Gateway shards** — ``M`` central devices, each with its own
  :class:`~repro.sim.engine.Resource`, its own issuing CA and its own
  gateway credential.  With ``M > 1`` the shard CAs are *subordinates*
  chained to one fleet root (:func:`~repro.ecqv.chain.make_sub_ca`), and a
  shared :class:`~repro.ecqv.TrustStore` lets any fleet member validate
  any other member's certificate up to the root.
* **V2V pairing** — a deterministic plan of vehicle↔vehicle sessions
  established directly between two enrolled vehicles, no gateway in the
  data path; cross-shard pairs exercise the trust chain.
* **Failover** — a shard can be marked failed mid-run; its vehicles are
  adopted by surviving shards (policy-driven), re-keying there with their
  existing chained credentials.
* **Churn lifecycle** — vehicles *migrate* between healthy shards
  (re-enrolling at the target sub-CA), and a failed shard can *rejoin*:
  :meth:`FleetTopology.rejoin_shard` re-provisions it with a fresh sub-CA
  key pair chained to the same root at the next **chain epoch**, retiring
  the old epoch's intermediate in the trust store so stale credentials
  are rejected instead of silently validating.

The degenerate topology (``shards=1``) reproduces the PR 1 deployment
byte-for-byte: same device names, same DRBG personalizations, no root CA
above the single gateway CA and no trust store, so every digest of the
single-gateway fleet is preserved.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from ..ec import SECP256R1, precompute_point
from ..ecqv import (
    Certificate,
    CertificateAuthority,
    CertificateRequester,
    EcqvCredential,
    KeyCache,
    TrustStore,
    make_sub_ca,
)
from ..errors import SimulationError
from ..hardware import RASPBERRY_PI4, STM32F767
from ..primitives import HmacDrbg, sha256
from ..protocols import SessionManager
from ..protocols.pool import EphemeralPool
from ..sim.engine import Resource
from ..testbed import DEFAULT_NOW, device_id
from .stats import StreamingLatency
from .vehicle import Vehicle

# The one platform, read by the orchestrator too: the paper's boards
# (Fig. 1) price P-256, the bus cost per wire byte stands in for CAN-FD,
# and certificates carry the CA's own DEFAULT_VALIDITY_SECONDS (24 h),
# issued off the simulated timeline at DEFAULT_NOW.
CURVE = SECP256R1
VEHICLE_DEVICE = STM32F767
SHARD_DEVICE = RASPBERRY_PI4
BUS_MS_PER_BYTE = 0.002
RECORD_BYTES = 32  # application payload bytes per record
CA_BATCH_LIMIT = 64  # most requests one issuance batch folds
_PROVISIONING_CLOCK = lambda: DEFAULT_NOW  # noqa: E731

#: Identity of the central CA/gateway device (paper Fig. 1's RPi 4) in the
#: degenerate single-shard deployment.
GATEWAY_NAME = "fleet-gateway"

#: Identity of the fleet root CA anchoring every shard CA (sharded runs).
ROOT_CA_NAME = "fleet-root-ca"


def shard_ca_name(index: int, total: int) -> str:
    """CA/resource identity of shard ``index`` in a ``total``-shard fleet."""
    return "central-ca" if total == 1 else f"central-ca-{index}"


def shard_gateway_name(index: int, total: int) -> str:
    """Gateway identity of shard ``index`` in a ``total``-shard fleet."""
    return GATEWAY_NAME if total == 1 else f"fleet-gw{index}"


@dataclass
class GatewayShard:
    """One gateway shard: CA + gateway endpoint + contended resource.

    Mutable orchestration state (queue, accounting) lives here so the
    orchestrator's enrollment and establishment paths are uniform across
    any shard count.
    """

    index: int
    ca_name: str
    gateway_name: str
    ca: CertificateAuthority
    #: The shard CA's own certificate chained to the fleet root
    #: (``None`` in the degenerate deployment where the shard CA *is*
    #: the trust anchor).
    ca_certificate: Certificate | None
    gateway_credential: EcqvCredential
    resource: Resource
    pool: EphemeralPool | None
    manager: SessionManager | None = None
    failed: bool = False
    #: Chain epoch of the shard's CA: 1 at provisioning, bumped by every
    #: post-failure rejoin (the trust store retires the old epoch's cert).
    epoch: int = 1
    # -- orchestration accounting --------------------------------------------
    queue: deque = field(default_factory=deque)
    issuing: bool = False
    batches: int = 0
    max_batch: int = 0
    vehicles_assigned: int = 0
    active_vehicles: int = 0
    enrollments: int = 0
    sessions_established: int = 0
    rekeys: int = 0
    handovers_in: int = 0
    migrations_in: int = 0
    migrations_out: int = 0
    queue_latency: StreamingLatency = field(default_factory=StreamingLatency)
    energy_mj: float = 0.0
    session_counter: int = 0

    @property
    def gateway_id(self) -> bytes:
        """The shard gateway's 16-byte identity."""
        return self.gateway_credential.subject_id

    def adopt(self, vehicle: Vehicle) -> None:
        """Take over a vehicle from a failed shard."""
        self.vehicles_assigned += 1
        self.active_vehicles += 1
        self.handovers_in += 1
        vehicle.shard = self.index

    def receive_migration(self, vehicle: Vehicle) -> None:
        """Take over a vehicle migrating in from a *healthy* shard."""
        self.vehicles_assigned += 1
        self.active_vehicles += 1
        self.migrations_in += 1
        vehicle.shard = self.index


class FleetTopology:
    """The provisioned deployment a fleet run executes on.

    Builds the root CA (sharded runs), every gateway shard with its
    chained CA, gateway credential and ephemeral pool, the run's
    :class:`~repro.ecqv.KeyCache`, the fleet-wide
    :class:`~repro.ecqv.TrustStore`, and registers the long-lived public
    points (root key, shard CA keys, gateway keys, shard reconstruction
    points) with :func:`~repro.ec.precompute_point` so the whole run's
    repeated multiplications of those keys share one wNAF table each.

    All of this happens before the storm begins (gateways are provisioned
    ahead of time, exactly as PR 1 treated its single gateway), so none of
    it lands on the simulated timeline.
    """

    def __init__(self, config) -> None:
        self.config = config
        total = config.shards
        #: One key cache per fleet run: the trust store, every session
        #: context and every certificate requester of the run decode and
        #: rebuild keys through it.
        self.key_cache = KeyCache()
        if total == 1:
            self.root_ca: CertificateAuthority | None = None
            self.trust_store: TrustStore | None = None
        else:
            self.root_ca = CertificateAuthority(
                CURVE,
                device_id(ROOT_CA_NAME),
                HmacDrbg(config.seed, personalization=b"fleet|root|ca"),
                clock=_PROVISIONING_CLOCK,
                require_signed_requests=config.authenticate_requests,
            )
            self.trust_store = TrustStore(
                self.root_ca.public_key, key_cache=self.key_cache
            )
            precompute_point(self.root_ca.public_key)
        self.shards: list[GatewayShard] = [
            self._build_shard(index, total) for index in range(total)
        ]
        if self.trust_store is not None:
            for shard in self.shards:
                self.trust_store.add_intermediate(shard.ca_certificate)
        #: The trust anchor every session context validates against: the
        #: root key when sharded, the single CA key otherwise.
        self.anchor_public = (
            self.root_ca.public_key
            if self.root_ca is not None
            else self.shards[0].ca.public_key
        )

    # -- construction ---------------------------------------------------------

    def _enroll_gateway(
        self,
        ca: CertificateAuthority,
        gateway_name: str,
        enroll_pers: bytes,
        pool_pers: bytes,
        pool_entries: int,
    ):
        """Enroll a gateway at its shard CA and build its ephemeral pool.

        Shared by every provisioning path (degenerate, chained, rejoin);
        the personalization strings are passed in verbatim so each path
        keeps its historical DRBG streams bit-for-bit.
        """
        config = self.config
        gw_requester = CertificateRequester(
            CURVE,
            device_id(gateway_name),
            HmacDrbg(config.seed, personalization=enroll_pers),
            key_cache=self.key_cache,
        )
        gw_issued = ca.issue(
            gw_requester.create_request(
                authenticate=config.authenticate_requests
            )
        )
        gateway_credential = gw_requester.process_response(
            gw_issued, ca.public_key
        )
        pool: EphemeralPool | None = None
        if config.pool_size > 0:
            pool = EphemeralPool(
                CURVE,
                HmacDrbg(config.seed, personalization=pool_pers),
                pool_entries,
            )
        precompute_point(ca.public_key)
        precompute_point(gateway_credential.public_key)
        return gateway_credential, pool

    def _provision_chained_shard(
        self,
        index: int,
        total: int,
        ca_name: str,
        gateway_name: str,
        epoch: int,
    ):
        """Provision one sharded deployment's CA, gateway and pool.

        The single recipe behind both initial provisioning (``epoch=1``,
        bare personalizations — PR 2 bit-parity) and a post-failure
        rejoin (``epoch>=2``, every DRBG stream suffixed with the epoch
        so the reborn shard's key material is fresh but deterministic).
        """
        config = self.config
        suffix = b"" if epoch == 1 else b"|epoch%d" % epoch
        ca, ca_certificate = make_sub_ca(
            self.root_ca,
            device_id(ca_name),
            HmacDrbg(
                config.seed,
                personalization=b"fleet|shard%d|ca" % index + suffix,
            ),
            clock=_PROVISIONING_CLOCK,
            authenticate_request=config.authenticate_requests,
            key_cache=self.key_cache,
        )
        ca.require_signed_requests = config.authenticate_requests
        # A shard serves ~n/M vehicles, so its pool is sized for its
        # share (2 sessions' worth each).  Handover/migration surges
        # past the pool degrade gracefully to on-demand Op1.
        gateway_credential, pool = self._enroll_gateway(
            ca,
            gateway_name,
            enroll_pers=b"fleet|gw%d|enroll" % index + suffix,
            pool_pers=b"fleet|gw%d|pool" % index + suffix,
            pool_entries=2 * -(-config.n_vehicles // total),
        )
        precompute_point(ca_certificate.reconstruction_point)
        return ca, ca_certificate, gateway_credential, pool

    def _build_shard(self, index: int, total: int) -> GatewayShard:
        config = self.config
        ca_name = shard_ca_name(index, total)
        gateway_name = shard_gateway_name(index, total)
        if total == 1:
            # Degenerate deployment: byte-identical to the PR 1 fleet
            # (single anchor CA, 2*n pool, legacy personalizations).
            ca = CertificateAuthority(
                CURVE,
                device_id(ca_name),
                HmacDrbg(config.seed, personalization=b"fleet|ca"),
                clock=_PROVISIONING_CLOCK,
                require_signed_requests=config.authenticate_requests,
            )
            ca_certificate = None
            gateway_credential, pool = self._enroll_gateway(
                ca,
                gateway_name,
                enroll_pers=b"fleet|gateway|enroll",
                pool_pers=b"fleet|gateway|pool",
                pool_entries=2 * config.n_vehicles,
            )
        else:
            ca, ca_certificate, gateway_credential, pool = (
                self._provision_chained_shard(
                    index, total, ca_name, gateway_name, epoch=1
                )
            )
        return GatewayShard(
            index=index,
            ca_name=ca_name,
            gateway_name=gateway_name,
            ca=ca,
            ca_certificate=ca_certificate,
            gateway_credential=gateway_credential,
            resource=Resource(
                ca_name,
                record_intervals=not getattr(config, "stream", False),
            ),
            pool=pool,
        )

    # -- churn: gateway rejoin -------------------------------------------------

    def rejoin_shard(self, index: int) -> GatewayShard:
        """Re-provision a failed shard at the next chain epoch.

        The shard comes back with a *fresh* CA key pair — enrolled at the
        same fleet root, so every peer still validates it through the one
        anchor — and a fresh gateway credential and ephemeral pool keyed
        by the new epoch's DRBG personalizations.  The trust store rolls
        the shard's intermediate (:meth:`~repro.ecqv.TrustStore.replace_intermediate`),
        which *retires* the pre-failure epoch: certificates issued by the
        dead CA stop resolving, so holders must re-enroll rather than keep
        presenting credentials whose issuing key died with the gateway.

        Like initial provisioning this happens off the simulated timeline
        (the gateway is assumed re-imaged out of band); the orchestrator
        schedules *when* it happens and rebuilds the session manager.
        """
        if self.root_ca is None or self.trust_store is None:
            raise SimulationError(
                "gateway rejoin requires a sharded (rooted) topology"
            )
        shard = self.shards[index]
        if not shard.failed:
            raise SimulationError(
                f"shard {index} is alive; only failed shards can rejoin"
            )
        epoch = shard.epoch + 1
        ca, ca_certificate, gateway_credential, pool = (
            self._provision_chained_shard(
                index,
                len(self.shards),
                shard.ca_name,
                shard.gateway_name,
                epoch=epoch,
            )
        )
        self.trust_store.replace_intermediate(ca_certificate)
        shard.ca = ca
        shard.ca_certificate = ca_certificate
        shard.gateway_credential = gateway_credential
        shard.pool = pool
        shard.failed = False
        shard.epoch = epoch
        return shard

    def alive_shards(self) -> list[GatewayShard]:
        """Shards currently accepting work, in index order."""
        return [shard for shard in self.shards if not shard.failed]


def plan_v2v_pairs(config) -> list[tuple[int, int]]:
    """Deterministic V2V pairing plan for a fleet configuration.

    Shuffles the vehicle indices with a seed-derived PRNG and pairs them
    off until ``v2v_fraction`` of the fleet participates.  Each pair is
    ``(initiator_index, responder_index)`` with the initiator the lower
    index; a vehicle joins at most one pair.  Whether a pair straddles
    shards falls out of the assignment policy at run time — with
    ``static-hash`` placement and several shards, a healthy fraction does,
    which is exactly the cross-shard validation the trust chain exists for.
    """
    if config.v2v_fraction <= 0.0 or config.n_vehicles < 2:
        return []
    rng = random.Random(
        int.from_bytes(sha256(config.seed + b"|v2v-pairs"), "big")
    )
    indices = list(range(config.n_vehicles))
    rng.shuffle(indices)
    participants = int(round(config.v2v_fraction * config.n_vehicles))
    n_pairs = min(participants // 2, config.n_vehicles // 2)
    pairs = []
    for i in range(n_pairs):
        a, b = indices[2 * i], indices[2 * i + 1]
        pairs.append((min(a, b), max(a, b)))
    return sorted(pairs)
