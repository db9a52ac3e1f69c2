"""Step handlers connecting the fleet orchestrator to an Observer.

The orchestrator narrates each lifecycle step once, through its
narrator ``FleetOrchestrator._note``, from the closed vocabulary
:data:`repro.fleet.vehicle.LIFECYCLE_STEPS`.  With an observer attached
the narrator hands every step to :meth:`FleetInstrumentation.on`, which
runs the step's handler: the method named ``_on_<step>`` (dashes become
underscores; :data:`HANDLERS` lists them).  A step without one only
writes the vehicle timeline.  Without an observer the narrator's one
``is not None`` check is all that runs, and nothing in :mod:`repro.obs`
is imported (the ``CostTrace`` zero-overhead contract).

Digest-neutrality rules every handler obeys:

* **read-only** — handlers never mutate orchestrator, shard or vehicle
  state, never draw from any DRBG, and never schedule simulator events
  (an extra event would renumber the heap's tie-breaking sequence and
  change the ordering of simultaneous events);
* **sim-time only** — every span timestamp is ``sim.now`` or a value
  the orchestrator already computed (batch service windows); wall-clock
  only ever appears inside the clearly-marked ``wall`` annotations the
  deterministic views strip;
* **synchronous heartbeats** — progress beats are emitted from inside
  the record/done handlers when sim-time crosses the next boundary,
  *not* from scheduled timers, for the same heap-sequence reason.
"""

from __future__ import annotations

__all__ = ["FleetInstrumentation", "HANDLERS", "count_injections"]

_RUN = ("run", None)


def count_injections(metrics, injection_stats) -> None:
    """Per-kind injection counters from a run's final ``InjectionStats``."""
    for inj in injection_stats:
        for outcome in ("attempts", "rejected", "succeeded"):
            metrics.counter(f"fleet.injection_{outcome}", kind=inj.kind).inc(
                getattr(inj, outcome)
            )


class FleetInstrumentation:
    """Observes one orchestrator run's lifecycle steps.

    Open span ids are keyed by ``(category, entity)``: the run (entity
    ``None``), a shard index, a vehicle index or a V2V pair.  One key per
    category and entity mirrors the orchestrator's own single-flight
    invariants (one establishment, one migration, one re-enrollment in
    flight per vehicle at a time).
    """

    def __init__(self, observer) -> None:
        self.obs = observer
        self.metrics = observer.metrics
        self._spans: dict = {}
        self._vehicles_done = 0
        self._records = 0
        self._next_beat_ms = 0.0

    def on(self, step, orch, vehicle, data) -> None:
        """Observe one narrated lifecycle step."""
        handler = HANDLERS.get(step)
        if handler is not None:
            handler(self, orch, vehicle, **data)

    # -- span bookkeeping ---------------------------------------------------

    def _begin(self, orch, key, name, parent, **attrs) -> None:
        """Open the span of ``key`` (category, entity) at sim-time now."""
        self._spans[key] = self.obs.spans.begin(
            name, key[0], orch.sim.now, parent=parent, **attrs
        )

    def _child(self, orch, vehicle, category, **attrs) -> None:
        """Open ``vehicle``'s ``category`` span under its lifecycle span."""
        self._begin(
            orch, (category, vehicle.index), f"{vehicle.name}:{category}",
            self._spans.get(("vehicle", vehicle.index)),
            vehicle=vehicle.index, **attrs,
        )

    def _end(self, orch, key, **attrs) -> None:
        """Close the open span of ``key`` at sim-time now."""
        self.obs.spans.end(self._spans.pop(key), orch.sim.now, **attrs)

    def _mark(self, orch, name, category, parent_key, **attrs) -> None:
        """Record a zero-duration event under the span of ``parent_key``."""
        self.obs.spans.event(
            name, category, orch.sim.now,
            parent=self._spans.get(parent_key), **attrs,
        )

    def _mark_vehicle(self, orch, vehicle, what, category, **attrs) -> None:
        self._mark(
            orch, f"{vehicle.name}:{what}", category,
            ("vehicle", vehicle.index), vehicle=vehicle.index, **attrs,
        )

    def _mark_shard(self, orch, shard, what, category, **attrs) -> None:
        self._mark(
            orch, f"shard{shard.index}:{what}", category,
            ("shard", shard.index), shard=shard.index, **attrs,
        )

    # -- run lifecycle ------------------------------------------------------

    def _on_run_started(self, orch, vehicle) -> None:
        """Open the run span and one span per gateway shard."""
        config = orch.config
        self._begin(
            orch, _RUN, "fleet", None, n_vehicles=config.n_vehicles,
            shards=config.shards,
            scenario=orch.scenario.name if orch.scenario is not None else "",
        )
        for shard in orch.shards:
            self._begin(
                orch, ("shard", shard.index), f"shard{shard.index}",
                self._spans[_RUN], shard=shard.index,
            )

    def _on_run_finished(self, orch, vehicle, stats) -> None:
        """End a run without workers: its one partition, tallies, meta."""
        self._on_partition_finished(orch, vehicle)
        count_injections(self.metrics, stats.injection_stats)
        config = orch.config
        self.obs.meta.update(
            {
                "run": (
                    orch.scenario.name
                    if orch.scenario is not None
                    else "fleet"
                ),
                "sim_end_ms": orch.sim.now,
                "backend": config.backend,
                "n_vehicles": config.n_vehicles,
                "shards": config.shards,
                "digest": stats.digest(),
            }
        )

    def _on_partition_finished(self, orch, vehicle) -> None:
        """Close shard + run spans and emit the final heartbeat.

        A worker partition (:mod:`repro.fleet.parallel`) ends its
        telemetry here: it has no merged
        :class:`~repro.fleet.stats.FleetStats`, so injection counters and
        the run meta are emitted by the *parent* from the merged result.
        Spans stay worker-local.
        """
        for shard in orch.shards:
            self._end(
                orch, ("shard", shard.index), enrollments=shard.enrollments,
                sessions=shard.sessions_established, batches=shard.batches,
            )
        self._end(orch, _RUN)
        self._heartbeat(orch)  # final beat, always emitted

    # -- enrollment ---------------------------------------------------------

    def _on_arrive(self, orch, vehicle) -> None:
        """Open the vehicle lifecycle + enrollment spans."""
        self._begin(
            orch, ("vehicle", vehicle.index), vehicle.name,
            self._spans.get(_RUN), vehicle=vehicle.index,
        )
        self._child(orch, vehicle, "enroll")
        self.metrics.counter("fleet.arrivals").inc()

    def _on_enrolled(self, orch, vehicle, latency_ms) -> None:
        """Close the enrollment span; count + time the enrollment."""
        shard = vehicle.shard
        self._end(orch, ("enroll", vehicle.index), shard=shard)
        self.metrics.counter("fleet.enrollments", shard=shard).inc()
        self.metrics.histogram(
            "fleet.enrollment_latency_ms", shard=shard
        ).observe(latency_ms)

    def _on_ca_batch(
        self, orch, vehicle, shard, batch, attacks, start_ms, end_ms
    ) -> None:
        """Record one CA issuance batch span + its counters."""
        index = shard.index
        span_id = self.obs.spans.begin(
            f"shard{index}:issue", "ca-batch", start_ms,
            parent=self._spans.get(("shard", index)), shard=index,
            batch=batch, attacks=attacks,
        )
        self.obs.spans.end(span_id, end_ms)
        metrics = self.metrics
        metrics.counter("fleet.ca_batches", shard=index).inc()
        metrics.counter("fleet.ca_batched_requests", shard=index).inc(batch)
        metrics.gauge("fleet.ca_max_batch", shard=index).record(batch)
        metrics.histogram("fleet.ca_batch_service_ms", shard=index).observe(
            end_ms - start_ms
        )

    def _on_queue_wait(self, orch, vehicle, shard, wait_ms) -> None:
        """Record one legit request's CA queue wait."""
        self.metrics.histogram(
            "fleet.ca_queue_wait_ms", shard=shard.index
        ).observe(wait_ms)

    # -- sessions -----------------------------------------------------------

    def _on_establish(self, orch, vehicle) -> None:
        """Open the session-establishment span."""
        self._child(orch, vehicle, "establish", shard=vehicle.shard)

    def _on_established(self, orch, vehicle, shard, latency_ms) -> None:
        """Close the establishment span; count + time the session."""
        self._end(
            orch, ("establish", vehicle.index), generation=vehicle.generation
        )
        self.metrics.counter("fleet.sessions", shard=shard.index).inc()
        self.metrics.histogram(
            "fleet.establishment_latency_ms", shard=shard.index
        ).observe(latency_ms)

    def _on_rekey(self, orch, vehicle) -> None:
        """Mark a re-key event and count it."""
        shard = vehicle.shard
        records = vehicle.records_sent
        self._mark_vehicle(
            orch, vehicle, "rekey", "rekey", shard=shard, records=records
        )
        self.metrics.counter("fleet.rekeys", shard=shard).inc()

    def _on_record(self, orch, vehicle, wire_bytes) -> None:
        """Count one application record (and maybe heartbeat)."""
        shard = vehicle.shard
        self.metrics.counter("fleet.records_sent", shard=shard).inc()
        self.metrics.counter("fleet.record_bytes", shard=shard).inc(
            wire_bytes
        )
        self._records += 1
        self._maybe_heartbeat(orch)

    def _on_done(self, orch, vehicle) -> None:
        """Close the vehicle lifecycle span; heartbeat."""
        # The id stays in _spans as a parent: the vehicle's V2V pair can
        # still hand it over or re-enroll it after its gateway traffic.
        self.obs.spans.end(
            self._spans[("vehicle", vehicle.index)], orch.sim.now,
            records=vehicle.records_sent,
        )
        self.metrics.counter("fleet.vehicles_done").inc()
        self._vehicles_done += 1
        self._maybe_heartbeat(orch)

    # -- failover / churn ---------------------------------------------------

    def _on_shard_failed(self, orch, vehicle, shard, requeued) -> None:
        """Mark the failover event and count requeued vehicles."""
        self._mark_shard(orch, shard, "failed", "failover", requeued=requeued)
        self.metrics.counter("fleet.shard_failures", shard=shard.index).inc()

    def _on_handover(self, orch, vehicle, old, adopter) -> None:
        """Mark and count one move of a vehicle off a dead shard."""
        self._mark_vehicle(
            orch, vehicle, "handover", "failover", from_shard=old.index,
            to_shard=adopter.index,
        )
        self.metrics.counter("fleet.handovers").inc()

    _on_requeue = _on_handover

    def _on_rejoin(self, orch, vehicle, shard) -> None:
        """Mark the shard-rejoin event and count it."""
        self._mark_shard(orch, shard, "rejoin", "rejoin")
        self.metrics.counter("fleet.rejoins", shard=shard.index).inc()

    def _on_migrate(self, orch, vehicle, old, target) -> None:
        """Open the live-migration span; tally the per-shard flow."""
        self._child(
            orch, vehicle, "migrate", from_shard=old.index,
            to_shard=target.index,
        )
        # Per-shard flow accounting: tracelint's shard-conservation
        # rule checks Σ migrations_in == Σ migrations_out (== the
        # run-level fleet.migrations counter).
        self.metrics.counter("fleet.migrations_out", shard=old.index).inc()
        self.metrics.counter("fleet.migrations_in", shard=target.index).inc()

    def _on_migrated(self, orch, vehicle, latency_ms) -> None:
        """Close the migration span; count + time it."""
        self._end(orch, ("migrate", vehicle.index))
        self.metrics.counter("fleet.migrations").inc()
        self.metrics.histogram("fleet.migration_latency_ms").observe(
            latency_ms
        )

    def _on_re_enroll(self, orch, vehicle, shard, reason) -> None:
        """Open the re-enrollment span."""
        self._child(
            orch, vehicle, "re-enroll", shard=shard.index, reason=reason
        )

    def _on_re_enrolled(self, orch, vehicle) -> None:
        """Close the re-enrollment span and count it."""
        self._end(orch, ("re-enroll", vehicle.index))
        self.metrics.counter("fleet.re_enrollments").inc()

    def _on_re_enroll_coalesced(self, orch, vehicle) -> None:
        """Count a re-enrollment coalesced into one in flight."""
        self.metrics.counter("fleet.re_enrollments_coalesced").inc()

    def _on_policy(self, orch, vehicle, point, rule, target_shard) -> None:
        """Mark one policy decision and count it per rule.

        Narrated by :meth:`repro.fleet.policy.PolicyEngine.decide`, whose
        ``vehicle`` is the decision's ``VehicleView``, and by the manual
        :meth:`~repro.fleet.orchestrator.FleetOrchestrator.migrate` API
        path, attributed to the pseudo rule ``"api"``.  Tracelint's
        policy-balance rule checks these counters against the action
        counters they must equal (``policy.migrate`` decisions ==
        migrations in, ``policy.rekey`` decisions == re-keys).
        """
        attrs = {"rule": rule}
        if target_shard is not None:
            attrs["to_shard"] = target_shard
        self._mark_vehicle(orch, vehicle, f"policy:{point}", "policy", **attrs)
        self.metrics.counter(f"policy.{point}", rule=rule).inc()

    # -- V2V ----------------------------------------------------------------

    def _on_v2v_establish(self, orch, initiator, responder, rekey) -> None:
        """Open a V2V establishment span (parented to the run)."""
        # Parented to the run, not a vehicle: a V2V session outlives the
        # gateway lifecycle span of either endpoint.
        self._begin(
            orch, ("v2v", (initiator.index, responder.index)),
            f"{initiator.name}<->{responder.name}:v2v", self._spans.get(_RUN),
            initiator=initiator.index, responder=responder.index, rekey=rekey,
        )

    def _on_v2v_established(
        self, orch, initiator, responder, latency_ms, cross_shard
    ) -> None:
        """Close the V2V span; count + time the session."""
        self._end(
            orch, ("v2v", (initiator.index, responder.index)),
            cross_shard=cross_shard,
        )
        self.metrics.counter("fleet.v2v_sessions").inc()
        self.metrics.histogram("fleet.v2v_latency_ms").observe(latency_ms)
        if cross_shard:
            self.metrics.counter("fleet.v2v_cross_shard").inc()

    def _on_v2v_record(self, orch, initiator) -> None:
        """Count one V2V application record."""
        self.metrics.counter("fleet.v2v_records_sent").inc()

    # -- adversarial injections ---------------------------------------------

    def _on_injection(self, orch, vehicle, index, log) -> None:
        """Mark an adversarial injection dispatch event.

        Span event only: CA-flood rejections are tallied later, when the
        flooded queue drains through ``_pump_ca``, so the final per-kind
        counters come from the final ``InjectionStats``
        (:func:`count_injections`).
        """
        self._mark(
            orch, f"injection{index}:{log['kind']}", "injection", _RUN,
            kind=log["kind"], attempts=log["attempts"],
            rejected=log["rejected"], succeeded=log["succeeded"],
        )

    # -- heartbeats ---------------------------------------------------------

    def _maybe_heartbeat(self, orch) -> None:
        """Emit a beat when sim-time crossed the next boundary.

        Called synchronously from the record/done handlers — never
        scheduled — so the simulator's event-sequence numbering (and
        with it every golden digest) is untouched.
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


#: Lifecycle step -> its :class:`FleetInstrumentation` handler, called as
#: ``handler(instrumentation, orch, vehicle, **data)``.
HANDLERS = {
    name[len("_on_"):].replace("_", "-"): method
    for name, method in vars(FleetInstrumentation).items()
    if name.startswith("_on_")
}
