"""Lifecycle hooks connecting the fleet orchestrator to an Observer.

The orchestrator calls one hook per lifecycle event, always guarded by
``if self._hooks is not None`` — when no observer is attached not a
single instruction beyond that check runs (the ``CostTrace``
zero-overhead contract).

Digest-neutrality rules every hook obeys:

* **read-only** — hooks never mutate orchestrator, shard or vehicle
  state, never draw from any DRBG, and never schedule simulator events
  (an extra event would renumber the heap's tie-breaking sequence and
  change the ordering of simultaneous events);
* **sim-time only** — every span timestamp is ``sim.now`` or a value
  the orchestrator already computed (batch service windows); wall-clock
  only ever appears inside the clearly-marked ``wall`` annotations the
  deterministic views strip;
* **synchronous heartbeats** — progress beats are emitted from inside
  record/done hooks when sim-time crosses the next boundary, *not* from
  scheduled timers, for the same heap-sequence reason.
"""

from __future__ import annotations

__all__ = ["FleetInstrumentation", "count_injections"]


def count_injections(metrics, injection_stats) -> None:
    """Per-kind injection counters from a run's final ``InjectionStats``."""
    for inj in injection_stats:
        for outcome in ("attempts", "rejected", "succeeded"):
            metrics.counter(f"fleet.injection_{outcome}", kind=inj.kind).inc(
                getattr(inj, outcome)
            )


class FleetInstrumentation:
    """Tracks span ids per fleet entity and feeds the observer.

    One instance per orchestrator run.  Span bookkeeping is keyed by
    vehicle index / shard index / V2V pair, mirroring the orchestrator's
    own single-flight invariants (one establishment, one migration, one
    re-enrollment in flight per vehicle at a time).
    """

    def __init__(self, observer) -> None:
        self.obs = observer
        self._run_span: int | None = None
        self._shard_spans: dict = {}
        self._vehicle_spans: dict = {}
        self._enroll_spans: dict = {}
        self._establish_spans: dict = {}
        self._migrate_spans: dict = {}
        self._re_enroll_spans: dict = {}
        self._v2v_spans: dict = {}
        self._vehicles_done = 0
        self._records = 0
        self._next_beat_ms = 0.0

    # -- run lifecycle ------------------------------------------------------

    def run_started(self, orch) -> None:
        """Open the run span and one span per gateway shard."""
        spans = self.obs.spans
        self._run_span = spans.begin(
            "fleet",
            "run",
            orch.sim.now,
            n_vehicles=orch.config.n_vehicles,
            shards=orch.config.shards,
            scenario=(
                orch.scenario.name if orch.scenario is not None else ""
            ),
        )
        for shard in orch.shards:
            self._shard_spans[shard.index] = spans.begin(
                f"shard{shard.index}",
                "shard",
                orch.sim.now,
                parent=self._run_span,
                shard=shard.index,
            )

    def run_finished(self, orch, stats) -> None:
        """End a run without workers: its one partition, tallies, meta."""
        self.partition_finished(orch)
        count_injections(self.obs.metrics, stats.injection_stats)
        self.obs.meta.update(
            {
                "run": (
                    orch.scenario.name
                    if orch.scenario is not None
                    else "fleet"
                ),
                "sim_end_ms": orch.sim.now,
                "backend": orch.config.backend,
                "n_vehicles": orch.config.n_vehicles,
                "shards": orch.config.shards,
                "digest": stats.digest(),
            }
        )

    def partition_finished(self, orch) -> None:
        """Close shard + run spans and emit the final heartbeat.

        A worker partition (:mod:`repro.fleet.parallel`) ends its
        telemetry here: it has no merged
        :class:`~repro.fleet.stats.FleetStats`, so injection counters and
        the run meta are emitted by the *parent* from the merged result.
        Spans stay worker-local.
        """
        spans = self.obs.spans
        now = orch.sim.now
        for shard in orch.shards:
            spans.end(
                self._shard_spans.pop(shard.index),
                now,
                enrollments=shard.enrollments,
                sessions=shard.sessions_established,
                batches=shard.batches,
            )
        spans.end(self._run_span, now)
        self._run_span = None
        self._heartbeat(orch)  # final beat, always emitted

    # -- enrollment ---------------------------------------------------------

    def vehicle_arrived(self, orch, vehicle) -> None:
        """Open the vehicle lifecycle + enrollment spans."""
        spans = self.obs.spans
        parent = spans.begin(
            vehicle.name,
            "vehicle",
            orch.sim.now,
            parent=self._run_span,
            vehicle=vehicle.index,
        )
        self._vehicle_spans[vehicle.index] = parent
        self._enroll_spans[vehicle.index] = spans.begin(
            f"{vehicle.name}:enroll",
            "enroll",
            orch.sim.now,
            parent=parent,
            vehicle=vehicle.index,
        )
        self.obs.metrics.counter("fleet.arrivals").inc()

    def vehicle_enrolled(self, orch, vehicle, latency_ms) -> None:
        """Close the enrollment span; count + time the enrollment."""
        self.obs.spans.end(
            self._enroll_spans.pop(vehicle.index),
            orch.sim.now,
            shard=vehicle.shard,
        )
        self.obs.metrics.counter(
            "fleet.enrollments", shard=vehicle.shard
        ).inc()
        self.obs.metrics.histogram(
            "fleet.enrollment_latency_ms", shard=vehicle.shard
        ).observe(latency_ms)

    def ca_batch(
        self, orch, shard, batch_size, attacks, start_ms, end_ms
    ) -> None:
        """Record one CA issuance batch span + its counters."""
        spans = self.obs.spans
        span_id = spans.begin(
            f"shard{shard.index}:issue",
            "ca-batch",
            start_ms,
            parent=self._shard_spans.get(shard.index),
            shard=shard.index,
            batch=batch_size,
            attacks=attacks,
        )
        spans.end(span_id, end_ms)
        metrics = self.obs.metrics
        metrics.counter("fleet.ca_batches", shard=shard.index).inc()
        metrics.counter(
            "fleet.ca_batched_requests", shard=shard.index
        ).inc(batch_size)
        metrics.gauge("fleet.ca_max_batch", shard=shard.index).record(
            batch_size
        )
        metrics.histogram(
            "fleet.ca_batch_service_ms", shard=shard.index
        ).observe(end_ms - start_ms)

    def queue_wait(self, orch, shard, wait_ms) -> None:
        """Record one legit request's CA queue wait."""
        self.obs.metrics.histogram(
            "fleet.ca_queue_wait_ms", shard=shard.index
        ).observe(wait_ms)

    # -- sessions -----------------------------------------------------------

    def establish_started(self, orch, vehicle, shard) -> None:
        """Open the session-establishment span."""
        self._establish_spans[vehicle.index] = self.obs.spans.begin(
            f"{vehicle.name}:establish",
            "establish",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            shard=shard.index,
        )

    def establish_finished(
        self, orch, vehicle, shard, latency_ms, generation
    ) -> None:
        """Close the establishment span; count + time the session."""
        self.obs.spans.end(
            self._establish_spans.pop(vehicle.index),
            orch.sim.now,
            generation=generation,
        )
        metrics = self.obs.metrics
        metrics.counter("fleet.sessions", shard=shard.index).inc()
        metrics.histogram(
            "fleet.establishment_latency_ms", shard=shard.index
        ).observe(latency_ms)

    def rekey(self, orch, vehicle, shard) -> None:
        """Mark a re-key event and count it."""
        self.obs.spans.event(
            f"{vehicle.name}:rekey",
            "rekey",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            shard=shard.index,
            records=vehicle.records_sent,
        )
        self.obs.metrics.counter("fleet.rekeys", shard=shard.index).inc()

    def record_sent(self, orch, vehicle, shard, record_bytes) -> None:
        """Count one application record (and maybe heartbeat)."""
        metrics = self.obs.metrics
        metrics.counter("fleet.records_sent", shard=shard.index).inc()
        metrics.counter("fleet.record_bytes", shard=shard.index).inc(
            record_bytes
        )
        self._records += 1
        self._maybe_heartbeat(orch)

    def vehicle_done(self, orch, vehicle) -> None:
        """Close the vehicle lifecycle span; heartbeat."""
        self.obs.spans.end(
            self._vehicle_spans[vehicle.index],
            orch.sim.now,
            records=vehicle.records_sent,
        )
        self.obs.metrics.counter("fleet.vehicles_done").inc()
        self._vehicles_done += 1
        self._maybe_heartbeat(orch)

    # -- failover / churn ---------------------------------------------------

    def shard_failed(self, orch, shard, requeued) -> None:
        """Mark the failover event and count requeued vehicles."""
        self.obs.spans.event(
            f"shard{shard.index}:failed",
            "failover",
            orch.sim.now,
            parent=self._shard_spans.get(shard.index),
            shard=shard.index,
            requeued=requeued,
        )
        self.obs.metrics.counter(
            "fleet.shard_failures", shard=shard.index
        ).inc()

    def handover(self, orch, vehicle, old_shard, new_shard) -> None:
        """Count one failover handover."""
        self.obs.spans.event(
            f"{vehicle.name}:handover",
            "failover",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            from_shard=old_shard.index,
            to_shard=new_shard.index,
        )
        self.obs.metrics.counter("fleet.handovers").inc()

    def rejoin(self, orch, shard) -> None:
        """Mark the shard-rejoin event and count it."""
        self.obs.spans.event(
            f"shard{shard.index}:rejoin",
            "rejoin",
            orch.sim.now,
            parent=self._shard_spans.get(shard.index),
            shard=shard.index,
        )
        self.obs.metrics.counter(
            "fleet.rejoins", shard=shard.index
        ).inc()

    def migrate_started(self, orch, vehicle, old_shard, target) -> None:
        """Open the live-migration span; tally the per-shard flow."""
        self._migrate_spans[vehicle.index] = self.obs.spans.begin(
            f"{vehicle.name}:migrate",
            "migrate",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            from_shard=old_shard.index,
            to_shard=target.index,
        )
        # Per-shard flow accounting: tracelint's shard-conservation
        # rule checks Σ migrations_in == Σ migrations_out (== the
        # run-level fleet.migrations counter).
        metrics = self.obs.metrics
        metrics.counter(
            "fleet.migrations_out", shard=old_shard.index
        ).inc()
        metrics.counter(
            "fleet.migrations_in", shard=target.index
        ).inc()

    def migrate_finished(self, orch, vehicle, latency_ms) -> None:
        """Close the migration span; count + time it."""
        self.obs.spans.end(
            self._migrate_spans.pop(vehicle.index), orch.sim.now
        )
        metrics = self.obs.metrics
        metrics.counter("fleet.migrations").inc()
        metrics.histogram("fleet.migration_latency_ms").observe(latency_ms)

    def re_enroll_started(self, orch, vehicle, shard, reason) -> None:
        """Open the re-enrollment span."""
        self._re_enroll_spans[vehicle.index] = self.obs.spans.begin(
            f"{vehicle.name}:re-enroll",
            "re-enroll",
            orch.sim.now,
            parent=self._vehicle_spans.get(vehicle.index),
            vehicle=vehicle.index,
            shard=shard.index,
            reason=reason,
        )

    def re_enroll_finished(self, orch, vehicle) -> None:
        """Close the re-enrollment span and count it."""
        self.obs.spans.end(
            self._re_enroll_spans.pop(vehicle.index), orch.sim.now
        )
        self.obs.metrics.counter("fleet.re_enrollments").inc()

    def re_enroll_coalesced(self, orch, vehicle) -> None:
        """Count a re-enrollment coalesced into one in flight."""
        self.obs.metrics.counter("fleet.re_enrollments_coalesced").inc()

    # -- policy decisions ----------------------------------------------------

    def policy_decision(
        self, now_ms, point, rule, vehicle_index, target_shard
    ) -> None:
        """Mark one policy-engine decision and count it per rule.

        Called from inside :meth:`repro.fleet.policy.PolicyEngine.decide`
        (and from the manual :meth:`~repro.fleet.orchestrator
        .FleetOrchestrator.migrate` API path, attributed to the pseudo
        rule ``"api"``), so the signature carries the already-snapshotted
        values rather than an orchestrator reference.  Tracelint's
        policy-balance rule checks these counters against the action
        counters they must equal (``policy.migrate`` decisions ==
        migrations in, ``policy.rekey`` decisions == re-keys).
        """
        attrs = {"vehicle": vehicle_index, "rule": rule}
        if target_shard is not None:
            attrs["to_shard"] = target_shard
        self.obs.spans.event(
            f"veh{vehicle_index:04d}:policy:{point}",
            "policy",
            now_ms,
            parent=self._vehicle_spans.get(vehicle_index),
            **attrs,
        )
        self.obs.metrics.counter(f"policy.{point}", rule=rule).inc()

    # -- V2V ----------------------------------------------------------------

    def v2v_started(self, orch, initiator, responder, rekey) -> None:
        """Open a V2V establishment span (parented to the run)."""
        pair = (initiator.index, responder.index)
        # Parented to the run, not a vehicle: a V2V session outlives the
        # gateway lifecycle span of either endpoint.
        self._v2v_spans[pair] = self.obs.spans.begin(
            f"{initiator.name}<->{responder.name}:v2v",
            "v2v",
            orch.sim.now,
            parent=self._run_span,
            initiator=initiator.index,
            responder=responder.index,
            rekey=rekey,
        )

    def v2v_finished(
        self, orch, initiator, responder, latency_ms, cross_shard
    ) -> None:
        """Close the V2V span; count + time the session."""
        pair = (initiator.index, responder.index)
        self.obs.spans.end(
            self._v2v_spans.pop(pair),
            orch.sim.now,
            cross_shard=cross_shard,
        )
        metrics = self.obs.metrics
        metrics.counter("fleet.v2v_sessions").inc()
        metrics.histogram("fleet.v2v_latency_ms").observe(latency_ms)
        if cross_shard:
            metrics.counter("fleet.v2v_cross_shard").inc()

    def v2v_record(self, orch, initiator, responder) -> None:
        """Count one V2V application record."""
        self.obs.metrics.counter("fleet.v2v_records_sent").inc()

    # -- adversarial injections ---------------------------------------------

    def injection_ran(self, orch, index, kind, log) -> None:
        # Span event only: CA-flood rejections are tallied later, when
        # the flooded queue drains through _pump_ca, so the final
        # per-kind counters come from the final InjectionStats
        # (count_injections).
        """Mark an adversarial injection dispatch event."""
        self.obs.spans.event(
            f"injection{index}:{kind}",
            "injection",
            orch.sim.now,
            parent=self._run_span,
            kind=kind,
            attempts=log["attempts"],
            rejected=log["rejected"],
            succeeded=log["succeeded"],
        )

    # -- heartbeats ---------------------------------------------------------

    def _maybe_heartbeat(self, orch) -> None:
        """Emit a beat when sim-time crossed the next boundary.

        Called synchronously from record/done hooks — never scheduled —
        so the simulator's event-sequence numbering (and with it every
        golden digest) is untouched.
        """
        if orch.sim.now < self._next_beat_ms:
            return
        self._heartbeat(orch)
        self._next_beat_ms = orch.sim.now + self.obs.heartbeat_interval_ms

    def _heartbeat(self, orch) -> None:
        self.obs.heartbeat(
            sim_ms=orch.sim.now,
            vehicles_done=self._vehicles_done,
            vehicles_total=orch.config.n_vehicles,
            records_sent=self._records,
        )
