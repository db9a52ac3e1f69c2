"""Fleet-scale session orchestration (enrollment → KD → expiry → re-key).

Scales the paper's two-station scenario to ``N`` concurrent vehicles on
the deterministic discrete-event simulator — now on an explicit
deployment topology (:mod:`repro.fleet.topology`): ``M`` gateway shards
whose CAs chain to one fleet root, pluggable shard-assignment policies,
direct vehicle↔vehicle sessions with cross-shard trust-chain validation,
and deterministic gateway-failure/handover scenarios.  Batched ECQV
issuance, ephemeral pooling, enforced session-key lifetimes and aggregate
throughput/latency/energy statistics (with per-shard breakdowns) are
priced on the hardware cost model; ``shards=1, v2v_fraction=0`` is the
original single-gateway fleet, bit-for-bit.

The workload itself is declarative (:mod:`repro.fleet.scenario`): a
JSON-round-trippable :class:`Scenario` composes arrival processes,
vehicle behavior profiles and adversarial injections (replay storms,
stale-cert floods, CA-queue floods — all rejected, all accounted), and
compiles deterministically to the event schedule the orchestrator runs.

Run behavior is governed by declarative **policies**
(:mod:`repro.fleet.policy`): condition → action rules evaluated against
a read-only fleet snapshot at the orchestrator's decision points (shard
assignment, migration, re-key cadence, failover adoption).  The
``default`` bundle is the extracted legacy strategies — bit-identical
to every historical digest — and alternative bundles (utilisation
re-balancing, storm-hardened re-keying, failover spreading) swap
strategies without touching the orchestrator.
"""

from .orchestrator import (
    FleetConfig,
    FleetOrchestrator,
    FleetResult,
    GATEWAY_NAME,
    run_fleet,
)
from .scenario import (
    BehaviorProfile,
    BurstArrivals,
    CaQueueFlood,
    CompiledProfile,
    DiurnalArrivals,
    NAMED_SCENARIOS,
    PoissonArrivals,
    ReplayStorm,
    Scenario,
    ScenarioSchedule,
    StaleCertFlood,
    UniformArrivals,
    compile_scenario,
    get_scenario,
    load_scenario,
)
from .parallel import PartitionPlan, partition_plan
from .policy import (
    BUNDLE_OVERRIDES,
    DECISION_POINTS,
    Decision,
    FailoverSpread,
    FleetState,
    POLICY_BUNDLES,
    POLICY_LEAST_LOADED,
    POLICY_ROUND_ROBIN,
    POLICY_RULES,
    POLICY_STATIC_HASH,
    PolicyEngine,
    RoamCadence,
    SHARD_POLICIES,
    SessionExpiryRekey,
    ShardPolicyAssign,
    ShardView,
    StormRekey,
    ThresholdRebalance,
    UtilisationRebalance,
    VehicleView,
    bundle_conflict,
    load_policy,
    policy_dict,
    policy_json,
    register_policy,
    resolve_policies,
)
from .stats import (
    ExactSum,
    FleetStats,
    InjectionStats,
    LatencySummary,
    ShardStats,
    StreamingLatency,
    merge_shard_stats,
)
from .topology import (
    FleetTopology,
    GatewayShard,
    ROOT_CA_NAME,
    plan_v2v_pairs,
    shard_ca_name,
    shard_gateway_name,
)
from .vehicle import TimelineEvent, Vehicle

__all__ = [
    "BUNDLE_OVERRIDES",
    "BehaviorProfile",
    "BurstArrivals",
    "CaQueueFlood",
    "CompiledProfile",
    "DECISION_POINTS",
    "Decision",
    "DiurnalArrivals",
    "ExactSum",
    "FailoverSpread",
    "FleetConfig",
    "FleetOrchestrator",
    "FleetResult",
    "FleetState",
    "FleetStats",
    "FleetTopology",
    "GATEWAY_NAME",
    "GatewayShard",
    "InjectionStats",
    "LatencySummary",
    "NAMED_SCENARIOS",
    "POLICY_BUNDLES",
    "POLICY_LEAST_LOADED",
    "POLICY_ROUND_ROBIN",
    "POLICY_RULES",
    "POLICY_STATIC_HASH",
    "PartitionPlan",
    "PoissonArrivals",
    "PolicyEngine",
    "ROOT_CA_NAME",
    "ReplayStorm",
    "RoamCadence",
    "SHARD_POLICIES",
    "Scenario",
    "ScenarioSchedule",
    "SessionExpiryRekey",
    "ShardPolicyAssign",
    "ShardStats",
    "ShardView",
    "StaleCertFlood",
    "StormRekey",
    "StreamingLatency",
    "ThresholdRebalance",
    "TimelineEvent",
    "UniformArrivals",
    "UtilisationRebalance",
    "Vehicle",
    "VehicleView",
    "bundle_conflict",
    "compile_scenario",
    "get_scenario",
    "load_policy",
    "load_scenario",
    "merge_shard_stats",
    "partition_plan",
    "plan_v2v_pairs",
    "policy_dict",
    "policy_json",
    "register_policy",
    "resolve_policies",
    "run_fleet",
    "shard_ca_name",
    "shard_gateway_name",
]
