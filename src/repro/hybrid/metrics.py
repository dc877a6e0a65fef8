"""Measurement collection for hybrid-system simulations.

The collector honours a warm-up period: observations before
``warmup_time`` are discarded so the steady-state estimates are not
biased by the empty-and-idle initial state.  Everything the paper's
figures need is gathered here:

* mean response time over **all** transactions (class A and B -- the
  y-axis of Figures 4.1/4.2/4.4/4.5/4.7), split by the six transaction
  kinds and by class;
* a per-phase *decomposition* of the mean response time (communication,
  CPU queueing, CPU service, I/O, lock waits, authentication, residue)
  computed from each transaction's lifecycle spans, so every figure can
  be attributed to a cause rather than just plotted;
* throughput (committed transactions per second of measured time);
* the fraction of class A transactions shipped (Figures 4.3/4.6);
* abort statistics split by cause (deadlock, invalidation of local
  transactions by authentication, invalidation of central transactions by
  asynchronous updates, negative acknowledgements);
* message counts and mean CPU utilisations;
* windowed time-series telemetry and engine profiling, attached by the
  system at freeze time (see :mod:`repro.hybrid.telemetry`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any, NamedTuple

from ..db.transaction import (
    Placement,
    Transaction,
    TransactionClass,
    TransactionKind,
)
from ..obs.registry import Family, MetricsRegistry
from ..sim.quantiles import QuantileSet
from ..sim.spans import PHASE_OTHER, PHASES
from ..sim.stats import RunningStat, TimeWeightedStat

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.audit import RoutingAudit
    from ..sim.engine import Environment
    from .telemetry import TelemetryWindow

__all__ = ["COUNTERS", "CounterSpec", "MetricsCollector",
           "SimulationResult", "counter"]


class CounterSpec(NamedTuple):
    """Where a counter field of :class:`SimulationResult` is counted."""

    family: str
    help: str
    label_names: tuple[str, ...]
    #: The child's label values; ``None`` makes the field the family total.
    label_values: tuple[str, ...] | None


def counter(family: str, help: str, **labels: str) -> Any:
    """Declare a counter field of :class:`SimulationResult`.

    The field reads registry counter ``family`` (described by ``help``).
    ``labels`` (``name=value``) select one child of a labelled family;
    ``"*"`` on every label makes the field the total over the children
    its hook creates.  :class:`MetricsCollector` binds the child from
    this declaration and :meth:`MetricsCollector.freeze` reads it back.
    """
    values = tuple(labels.values())
    spec = CounterSpec(family, help, tuple(labels),
                       None if "*" in values else values)
    return field(default=0, kw_only=True, metadata={"counter": spec})


@dataclass(frozen=True)
class SimulationResult:
    """Immutable summary of one simulation run (one curve point)."""

    total_rate: float
    comm_delay: float
    strategy: str
    seed: int

    mean_response_time: float
    response_time_by_class: dict[TransactionClass, float]
    response_time_by_kind: dict[TransactionKind, float]
    #: Streaming P^2 estimates: keys p50/p90/p95/p99/min/max.
    response_time_percentiles: dict[str, float]
    throughput: float
    completed: int = counter(
        "txn_completed", "transactions committed in the measurement window")

    class_a_arrivals: int = counter(
        "txn_arrivals", "measured class A arrivals", txn_class="A")
    class_a_shipped: int = counter(
        "txn_shipped", "class A arrivals routed to the central complex")

    aborts_total: int = counter("txn_aborts", "aborts of any cause",
                                cause="*")
    aborts_deadlock: int = counter(
        "txn_aborts", "aborts of deadlock victims", cause="deadlock")
    aborts_local_invalidated: int = counter(
        "txn_aborts", "local transactions invalidated by authentication",
        cause="local-invalidated")
    aborts_central_invalidated: int = counter(
        "txn_aborts", "central transactions invalidated by asynchronous "
        "updates", cause="central-invalidated")
    auth_negative_acks: int = counter(
        "auth_negative_acks", "authentication rounds answered NAK")

    mean_local_utilization: float
    mean_central_utilization: float
    mean_local_queue_length: float
    mean_central_queue_length: float
    messages_to_central: int = counter(
        "messages_sent", "protocol messages sent to the central site",
        direction="to-central")
    messages_to_sites: int = counter(
        "messages_sent", "protocol messages sent to the local sites",
        direction="to-sites")

    # -- observability ------------------------------------------------------

    #: Mean seconds per lifecycle phase over all completed transactions.
    #: The values sum to :attr:`mean_response_time` (exactly, up to
    #: floating-point error) because the span recorder attributes every
    #: instant of a transaction's lifetime to exactly one phase.
    response_time_decomposition: dict[str, float] = \
        field(default_factory=dict)
    #: The same decomposition split by transaction class.
    decomposition_by_class: dict[TransactionClass, dict[str, float]] = \
        field(default_factory=dict)
    #: The same decomposition split by placement (local/shipped/...).
    decomposition_by_placement: dict[Placement, dict[str, float]] = \
        field(default_factory=dict)

    #: Windowed time-series telemetry (ring-buffered; oldest windows may
    #: have been evicted -- see ``telemetry_windows_dropped``).
    telemetry: tuple["TelemetryWindow", ...] = ()
    telemetry_interval: float = 0.0
    telemetry_windows_dropped: int = 0
    #: ``None`` when too few post-warm-up windows exist to judge;
    #: otherwise whether the post-warm-up series looks trend-free.
    warmup_adequate: bool | None = None
    #: Relative first-half vs second-half drift per monitored metric.
    warmup_trend: dict[str, float] = field(default_factory=dict)

    #: Engine profile: events processed, wall-clock rate, calendar peak.
    engine_events: int = 0
    engine_events_per_sec: float = 0.0
    engine_heap_peak: int = 0
    wall_clock_seconds: float = 0.0

    # -- robustness and availability (all zero without a fault plan) --------

    txns_timed_out: int = counter(
        "txn_timeouts", "shipped transactions whose response retry budget "
        "was exhausted")
    txns_failed_over: int = counter(
        "txn_failovers", "class A transactions re-run locally after a "
        "shipment was cancelled")
    txns_failed: int = counter(
        "txn_failures", "transactions abandoned outright (cancelled class B "
        "shipments)")
    txns_cancelled_central: int = counter(
        "txn_cancelled_central", "central-side executions killed by a "
        "ShipmentCancel")
    fallback_routings: int = counter(
        "fallback_routings", "class A arrivals routed locally by failure "
        "awareness (central suspected or snapshot stale) without "
        "consulting the strategy")
    arrivals_rejected: int = counter(
        "arrivals_rejected", "arrivals rejected because their home site was "
        "crashed")
    messages_dropped: int = counter(
        "messages_dropped", "messages lost on degraded links")
    messages_retransmitted: int = counter(
        "messages_retransmitted", "messages resent by the reliable channels")
    duplicate_messages: int = counter(
        "messages_duplicate", "duplicate deliveries discarded by the "
        "receivers")
    fault_events: int = counter(
        "fault_events", "fault-episode transitions (applies + reverts) over "
        "the whole run")
    #: Per-episode availability summaries
    #: (:class:`~repro.sim.faults.EpisodeReport`).
    fault_episodes: tuple = ()

    # -- survivability (all zero/None without a recovery policy) ------------

    arrivals_shed: int = counter(
        "arrivals_shed", "arrivals shed by bounded admission control (site "
        "or central)", node="*")
    txns_lost_in_crash: int = counter(
        "txns_lost_in_crash", "transactions destroyed with a site's "
        "volatile state by a crash")
    txns_deadline_cancelled: int = counter(
        "txn_deadline_cancels", "shipments cancelled because their "
        "end-to-end deadline passed")
    txns_reshipped: int = counter(
        "txn_reshipped", "class B shipments re-shipped to the standby after "
        "a failover")
    breaker_transitions: int = counter(
        "breaker_transitions", "circuit-breaker state transitions "
        "(open/half-open/closed)", site="*", state="*")
    #: Hot-standby takeovers (0 or 1 per run -- failover is sticky).
    failover_takeovers: int = 0
    #: Completed site rejoin (catch-up) protocols.
    site_rejoins: int = 0
    #: Per-recovery protocol timings
    #: (:class:`~repro.sim.faults.RecoveryRecord`).
    recoveries: tuple = ()
    #: Mean protocol-level repair time over all recoveries (seconds;
    #: ``None`` when no recovery ran).
    mttr: float | None = None
    #: Mean sim-time between failure episodes: uptime divided by the
    #: number of fault episodes (``None`` without any episode).
    mtbf: float | None = None

    #: Flattened metrics-registry snapshot (``name{labels} -> value``):
    #: every instrument the subsystems published during the run.  All
    #: values are simulation-deterministic (no wall-clock quantities are
    #: ever published), so the snapshot participates in bit-identity
    #: checks; the ``engine_*`` gauges mirror the profile fields and are
    #: filtered alongside them by ``identity_dict(include_profile=False)``.
    metrics: dict[str, float] = field(default_factory=dict)

    # -- control variates ---------------------------------------------------

    #: Covariate observations with analytically known expectations,
    #: emitted on every run (pure counter bookkeeping -- no extra RNG
    #: draws, no trace events, so sample paths and golden traces are
    #: untouched).  Keys: ``arrivals_a`` / ``arrivals_b`` (measured
    #: thinned-Poisson arrival counts) and ``demand_seconds`` (summed
    #: local service demand).  See :mod:`repro.analysis.variance`.
    covariates: dict[str, float] = field(default_factory=dict)
    #: The matching analytic expectations (``p_local * rate * T`` etc.),
    #: computed from the configuration alone.
    covariate_means: dict[str, float] = field(default_factory=dict)

    # -- commit protocol ----------------------------------------------------

    #: The commit protocol that produced this run (a name from
    #: :mod:`repro.hybrid.protocols`).
    protocol: str = "optimistic"
    #: Protocol-specific event counts, read from the registry's
    #: ``protocol_events`` family (prepare rounds, epoch flushes,
    #: blocked-transaction resolutions, ...).  Empty under the default
    #: protocol, which never fires them.
    protocol_counters: dict[str, int] = field(default_factory=dict)

    @property
    def shipped_fraction(self) -> float:
        """Fraction of measured class A arrivals routed to the central site."""
        if self.class_a_arrivals == 0:
            return 0.0
        return self.class_a_shipped / self.class_a_arrivals

    @property
    def abort_rate(self) -> float:
        """Aborts per committed transaction."""
        if self.completed == 0:
            return 0.0
        return self.aborts_total / self.completed

    @property
    def availability(self) -> float:
        """Fraction of measured work requests eventually served.

        Committed transactions over committed plus permanently failed
        plus rejected-at-arrival plus shed-by-admission plus
        lost-in-crash.  1.0 for any run without faults.
        """
        denominator = (self.completed + self.txns_failed +
                       self.arrivals_rejected + self.arrivals_shed +
                       self.txns_lost_in_crash)
        if denominator == 0:
            return 1.0
        return self.completed / denominator

    #: Fields that legitimately differ between two otherwise identical
    #: runs (wall-clock timing) -- always excluded from identity
    #: comparisons.
    TIMING_FIELDS = ("wall_clock_seconds", "engine_events_per_sec")
    #: Engine-profile fields: identical for byte-for-byte duplicate runs,
    #: but different when a run carries extra *observer* processes (the
    #: invariant checker's audit loop schedules its own timeouts).
    PROFILE_FIELDS = ("engine_events", "engine_heap_peak")

    def identity_dict(self, *, include_profile: bool = True,
                      include_strategy: bool = True) -> dict:
        """Deep dict of every deterministic field, for bit-identity checks.

        Two runs that followed the same sample path produce equal
        ``identity_dict()`` values; wall-clock-dependent fields are always
        dropped.  ``include_profile=False`` additionally drops the engine
        event/heap counters (use when one run carries read-only observer
        processes); ``include_strategy=False`` drops the strategy label
        (use when comparing differently-named but semantically forced
        routings, e.g. ``static(p=0)`` against ``no-load-sharing``).
        Used by :mod:`repro.verify.differential` and
        :mod:`repro.verify.metamorphic`.
        """
        data = asdict(self)
        for name in self.TIMING_FIELDS:
            data.pop(name, None)
        if not include_profile:
            for name in self.PROFILE_FIELDS:
                data.pop(name, None)
            # The registry mirrors the engine profile as gauges; an
            # observer that schedules its own (read-only) events shifts
            # them exactly like the profile fields, so they are filtered
            # together.
            data["metrics"] = {key: value
                               for key, value in data["metrics"].items()
                               if not key.startswith("engine_")}
        if not include_strategy:
            data.pop("strategy", None)
        return data

    @property
    def decomposition_residual(self) -> float:
        """Relative gap between the phase-mean sum and the mean RT.

        Near zero by construction; a large value indicates an
        instrumentation bug (a phase left open or double-counted).
        """
        if not self.response_time_decomposition or \
                self.mean_response_time == 0:
            return 0.0
        total = sum(self.response_time_decomposition.values())
        return abs(total - self.mean_response_time) / \
            self.mean_response_time


#: ``field name -> CounterSpec`` for every counter field of
#: :class:`SimulationResult`, in declaration order.
COUNTERS: dict[str, CounterSpec] = {
    item.name: item.metadata["counter"] for item in fields(SimulationResult)
    if "counter" in item.metadata}


def _phase_stats() -> dict[str, RunningStat]:
    return {phase: RunningStat() for phase in PHASES}


def _phase_means(stats: dict[str, RunningStat]) -> dict[str, float]:
    return {phase: stat.mean for phase, stat in stats.items() if stat.count}


class MetricsCollector:
    """Accumulates statistics during a run and freezes them into a result.

    Every protocol-visible transition flows through this collector, so it
    doubles as the system's trace point: pass a
    :class:`~repro.sim.trace.Tracer` to record a structured event log
    (kinds: ``route``, ``commit``, ``spans``, ``abort``, ``negative-ack``,
    ``message``).  Trace emission is unconditional (not gated on the
    warm-up window) so debugging runs see the start-up transient too.

    The scalar counters live in a
    :class:`~repro.obs.registry.MetricsRegistry` (one is created when
    none is passed).  Each counter field of :class:`SimulationResult` is
    declared once, with :func:`counter`; the collector binds its registry
    child as ``self._<field>`` (the family itself for a total), the
    ``record_*`` hooks increment it, :meth:`count` reads it and
    :meth:`freeze` copies every one into the result.
    An optional :class:`~repro.obs.audit.RoutingAudit` receives every
    placement decision together with the observation that drove it.
    Both are strictly observational and deterministic.
    """

    def __init__(self, env: "Environment", warmup_time: float,
                 tracer=None, registry: MetricsRegistry | None = None,
                 audit: "RoutingAudit | None" = None):
        self.env = env
        self.warmup_time = warmup_time
        from ..sim.trace import NullTracer

        self.tracer = tracer if tracer is not None else NullTracer()
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.audit = audit

        self.response_all = RunningStat()
        self.response_quantiles = QuantileSet()
        self.response_by_class: dict[TransactionClass, RunningStat] = {
            cls: RunningStat() for cls in TransactionClass}
        self.response_by_kind: dict[TransactionKind, RunningStat] = {
            kind: RunningStat() for kind in TransactionKind}

        # Per-phase response-time decomposition (seconds per txn).
        self.phase_stats = _phase_stats()
        self.phase_by_class: dict[TransactionClass,
                                  dict[str, RunningStat]] = {
            cls: _phase_stats() for cls in TransactionClass}
        self.phase_by_placement: dict[Placement,
                                      dict[str, RunningStat]] = {
            placement: _phase_stats() for placement in Placement}

        self.n_central = TimeWeightedStat()
        self.n_local = TimeWeightedStat()

        # -- registry instruments (children bound once; hooks do one
        # -- attribute add per event).  Counter fields are gated on the
        # -- measurement window by their hooks, not here.
        reg = self.registry
        for name, spec in COUNTERS.items():
            family = reg.counter(spec.family, spec.help,
                                 labels=spec.label_names)
            setattr(self, f"_{name}", family if spec.label_values is None
                    else family.labels(*spec.label_values))
        # Registry-only instruments.
        self._class_b_arrivals = reg.get("txn_arrivals").labels("B")
        auth_rounds = reg.counter(
            "auth_rounds", "completed authentication rounds by verdict",
            labels=("verdict",))
        self._auth_granted = auth_rounds.labels("granted")
        self._auth_refused = auth_rounds.labels("refused")
        self._routing = reg.counter(
            "routing_decisions", "placement decisions by placement "
            "and reason (counted from simulation start)",
            labels=("placement", "reason"))
        self._response_hist_family = reg.histogram(
            "response_time_seconds", "measured response times by class",
            labels=("txn_class",))
        self._response_hist = {
            cls: self._response_hist_family.labels(cls.value)
            for cls in TransactionClass}
        self._takeovers = reg.counter(
            "takeover_events", "standby takeover protocol events",
            labels=("event",))
        self._recovery_counter = reg.counter(
            "recoveries", "completed recovery protocols by kind",
            labels=("kind",))
        self._fenced = reg.counter(
            "fenced_frames", "frames discarded from a deposed primary",
            labels=("site",))
        self._auth_deadline = reg.counter(
            "auth_deadline_refusals", "authentication rounds refused "
            "for an expired deadline", labels=("site",))
        # Commit-protocol event counters (prepare rounds, epoch flushes,
        # ...).  The default protocol never fires these, so the registry
        # snapshot -- and with it every golden fingerprint -- is
        # unchanged for pre-existing runs.
        self._protocol_events = reg.counter(
            "protocol_events", "commit-protocol events by kind",
            labels=("event",))
        #: Protocol-level recovery timings
        #: (:class:`~repro.sim.faults.RecoveryRecord`).
        self.recoveries: list = []

    # -- recording hooks (called by the sites) ------------------------------

    @property
    def measuring(self) -> bool:
        return self.env.now >= self.warmup_time

    def record_routing(self, txn: Transaction, observation=None,
                       reason: str = "strategy") -> None:
        """The placement decision for ``txn`` was made.

        ``observation`` is the :class:`RoutingObservation` the router
        consulted (``None`` for forced placements) and ``reason`` the
        decision category -- both feed the routing audit and the
        ``routing_decisions`` counter; the trace payload is unchanged.
        """
        # Anchor the lifecycle timeline at the routing decision (which
        # coincides with arrival); time until the first attributed phase
        # falls into the catch-all ``other`` bucket.
        txn.spans.enter(PHASE_OTHER, self.env.now)
        self.tracer.emit(self.env.now, "route", txn=txn.txn_id,
                         site=txn.home_site,
                         txn_class=txn.txn_class.value,
                         placement=txn.placement.value)
        self._routing.labels(txn.placement.value, reason).inc()
        if self.audit is not None:
            self.audit.record(txn, placement=txn.placement.value,
                              reason=reason, observation=observation,
                              now=self.env.now)
        if not self.measuring:
            return
        if txn.txn_class is TransactionClass.A:
            self._class_a_arrivals.inc()
            if txn.placement is Placement.SHIPPED:
                self._class_a_shipped.inc()
        else:
            self._class_b_arrivals.inc()

    def record_completion(self, txn: Transaction) -> None:
        self.tracer.emit(self.env.now, "commit", txn=txn.txn_id,
                         site=txn.home_site, txn_kind=txn.kind().value,
                         response=round(txn.response_time, 6),
                         runs=txn.run_count)
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now, "spans", txn=txn.txn_id,
                site=txn.home_site, txn_kind=txn.kind().value,
                response=round(txn.response_time, 6),
                phases={phase: round(seconds, 6) for phase, seconds
                        in txn.spans.as_dict().items()})
        if not self.measuring:
            return
        self._completed.inc()
        response = txn.response_time
        self._response_hist[txn.txn_class].observe(response)
        self.response_all.add(response)
        self.response_quantiles.add(response)
        self.response_by_class[txn.txn_class].add(response)
        self.response_by_kind[txn.kind()].add(response)
        phase_totals = txn.spans.as_dict()
        by_class = self.phase_by_class[txn.txn_class]
        by_placement = self.phase_by_placement[txn.placement]
        for phase, seconds in phase_totals.items():
            self.phase_stats[phase].add(seconds)
            by_class[phase].add(seconds)
            by_placement[phase].add(seconds)

    def record_abort(self, txn: Transaction, cause: str) -> None:
        self.tracer.emit(self.env.now, "abort", txn=txn.txn_id,
                         site=txn.home_site, cause=cause,
                         run=txn.run_count)
        if not self.measuring:
            return
        if cause == "deadlock":
            self._aborts_deadlock.inc()
        elif cause == "local-invalidated":
            self._aborts_local_invalidated.inc()
        elif cause == "central-invalidated":
            self._aborts_central_invalidated.inc()
        else:
            raise ValueError(f"unknown abort cause: {cause}")

    def record_negative_ack(self, txn: Transaction | None = None,
                            sites: tuple[int, ...] = ()) -> None:
        """One authentication round answered NAK.

        ``txn`` is the authenticating transaction and ``sites`` the
        master sites that refused, so the event log can attribute the
        rerun (the counters never needed them, the trace does).
        """
        self.tracer.emit(self.env.now, "negative-ack",
                         txn=None if txn is None else txn.txn_id,
                         sites=sites)
        if self.measuring:
            self._auth_negative_acks.inc()

    def record_auth_round(self, granted: bool) -> None:
        """One authentication round concluded (registry-only hook).

        Deliberately emits no trace event: the committed golden traces
        hash the exact event stream, so new observability lands in the
        registry, never in the tracer vocabulary.
        """
        if self.measuring:
            (self._auth_granted if granted else self._auth_refused).inc()

    def record_protocol_event(self, event: str) -> None:
        """One commit-protocol event (registry-only hook).

        Like :meth:`record_auth_round` this deliberately emits no trace
        event -- golden traces hash the exact event stream, so
        per-protocol observability (prepare rounds, votes, epoch
        flushes, blocked-transaction resolutions) lands in the registry
        and the result's ``protocol_counters``, never in the tracer
        vocabulary.  Counted unconditionally: protocol rounds are
        structural behaviour, not a warmup-sensitive measurement.
        """
        self._protocol_events.labels(event).inc()

    def record_message(self, to_central: bool, kind: str | None = None,
                       site: int | None = None) -> None:
        """One protocol message sent (``kind``/``site`` enrich the trace)."""
        if self.tracer.enabled:
            self.tracer.emit(
                self.env.now, "message",
                direction="to-central" if to_central else "to-site",
                message=kind, site=site)
        if not self.measuring:
            return
        if to_central:
            self._messages_to_central.inc()
        else:
            self._messages_to_sites.inc()

    # -- robustness hooks (active only under a fault plan) -------------------

    def record_fault(self, kind: str, phase: str,
                     site: int | None = None) -> None:
        """A fault episode was applied or reverted (``phase``).

        Counted unconditionally -- the fault schedule is part of the
        experiment design, not a measured quantity.
        """
        self.tracer.emit(self.env.now, "fault", fault=kind, phase=phase,
                         site=site)
        self._fault_events.inc()

    def record_timeout(self, txn: Transaction) -> None:
        """A shipped transaction's response retry budget was exhausted."""
        self.tracer.emit(self.env.now, "timeout", txn=txn.txn_id,
                         site=txn.home_site,
                         txn_class=txn.txn_class.value)
        if self.measuring:
            self._txns_timed_out.inc()

    def record_failover(self, txn: Transaction) -> None:
        """A timed-out class A shipment re-runs at its home site."""
        self.tracer.emit(self.env.now, "failover", txn=txn.txn_id,
                         site=txn.home_site)
        if self.audit is not None:
            self.audit.record(txn, placement=Placement.LOCAL.value,
                              reason="failover", now=self.env.now)
        if self.measuring:
            self._txns_failed_over.inc()

    def record_failure(self, txn: Transaction, cause: str) -> None:
        """A transaction was abandoned permanently (never commits)."""
        self.tracer.emit(self.env.now, "txn-failed", txn=txn.txn_id,
                         site=txn.home_site, cause=cause)
        if self.measuring:
            self._txns_failed.inc()

    def record_cancelled(self, txn: Transaction) -> None:
        """Central killed an execution on a ShipmentCancel."""
        self.tracer.emit(self.env.now, "cancel", txn=txn.txn_id,
                         site=txn.home_site)
        if self.measuring:
            self._txns_cancelled_central.inc()

    def record_fallback_routing(self, txn: Transaction,
                                reason: str) -> None:
        """Failure-aware routing kept a class A arrival local."""
        self.tracer.emit(self.env.now, "fallback", txn=txn.txn_id,
                         site=txn.home_site, reason=reason)
        if self.measuring:
            self._fallback_routings.inc()

    def record_rejected_arrival(self, txn: Transaction) -> None:
        """An arrival hit a crashed site and was turned away."""
        self.tracer.emit(self.env.now, "rejected", txn=txn.txn_id,
                         site=txn.home_site)
        if self.measuring:
            self._arrivals_rejected.inc()

    def record_drop(self, message) -> None:
        """A degraded link lost a message."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "drop", message=message.kind)
        if self.measuring:
            self._messages_dropped.inc()

    def record_retransmit(self, message) -> None:
        """A reliable channel resent an unacknowledged message."""
        if self.tracer.enabled:
            self.tracer.emit(self.env.now, "retransmit",
                             message=message.kind)
        if self.measuring:
            self._messages_retransmitted.inc()

    def record_duplicate(self, message) -> None:
        """A reliable channel discarded a duplicate delivery."""
        if self.measuring:
            self._duplicate_messages.inc()

    # -- survivability hooks (active only under a recovery policy) ----------

    def record_shed(self, txn: Transaction, node: str) -> None:
        """Bounded admission shed an arrival at ``node``."""
        self.tracer.emit(self.env.now, "shed", txn=txn.txn_id,
                         site=txn.home_site, node=node)
        if self.measuring:
            self._arrivals_shed.labels(node).inc()

    def record_lost_in_crash(self, txn: Transaction) -> None:
        """A site crash destroyed this in-flight transaction."""
        self.tracer.emit(self.env.now, "txn-lost", txn=txn.txn_id,
                         site=txn.home_site)
        if self.measuring:
            self._txns_lost_in_crash.inc()

    def record_deadline_cancel(self, txn: Transaction) -> None:
        """A shipment was cancelled because its deadline passed."""
        self.tracer.emit(self.env.now, "deadline-cancel",
                         txn=txn.txn_id, site=txn.home_site)
        if self.measuring:
            self._txns_deadline_cancelled.inc()

    def record_reship(self, txn: Transaction) -> None:
        """A class B shipment was re-shipped to the standby."""
        self.tracer.emit(self.env.now, "reship", txn=txn.txn_id,
                         site=txn.home_site)
        if self.measuring:
            self._txns_reshipped.inc()

    def record_breaker(self, site: int, state: str) -> None:
        """A site's circuit breaker changed state.

        Counted unconditionally: breaker state is part of the failure
        timeline, like fault-episode transitions.
        """
        self.tracer.emit(self.env.now, "breaker", site=site, state=state)
        self._breaker_transitions.labels(f"site-{site}", state).inc()

    def record_takeover(self, event: str) -> None:
        """A takeover protocol event (``takeover``/``primary-deposed``/
        ``repoint-...``) occurred.  Counted unconditionally."""
        self.tracer.emit(self.env.now, "takeover", event=event)
        self._takeovers.labels(event).inc()

    def record_repoint(self, site: int) -> None:
        """A site re-pointed its central routing at the standby."""
        self.record_takeover(f"repoint-site-{site}")

    def record_recovery(self, kind: str, site: int | None,
                        started: float, completed: float) -> None:
        """One recovery protocol (failover or rejoin) completed.

        Recorded unconditionally -- recovery timing is part of the
        experiment design, like the fault schedule itself.
        """
        from ..sim.faults import RecoveryRecord
        self.tracer.emit(self.env.now, "recovery", recovery=kind,
                         site=site, started=round(started, 6),
                         completed=round(completed, 6))
        self._recovery_counter.labels(kind).inc()
        self.recoveries.append(RecoveryRecord(
            kind=kind, site=site, started=started, completed=completed))

    def record_fenced(self, site: int) -> None:
        """A frame from the deposed primary was discarded (registry-only
        hook: fencing is too frequent for the trace)."""
        self._fenced.labels(f"site-{site}").inc()

    def record_auth_deadline_refusal(self, site: int) -> None:
        """A master refused authentication for an expired deadline
        (registry-only hook)."""
        if self.measuring:
            self._auth_deadline.labels(f"site-{site}").inc()

    def record_population(self, n_local_total: int, n_central: int) -> None:
        """Sample the per-site population time series (called on changes)."""
        self.n_local.record(self.env.now, n_local_total)
        self.n_central.record(self.env.now, n_central)

    # -- summary -------------------------------------------------------------

    def count(self, name: str) -> int:
        """Current value of counter ``name``: a counter field of
        :class:`SimulationResult`, or ``class_b_arrivals``."""
        source = getattr(self, f"_{name}")
        return int(source.total() if isinstance(source, Family)
                   else source.value)

    def freeze(self, *, local_utilizations: list[float],
               fault_episodes: tuple = (), **run_fields) -> SimulationResult:
        """Produce the immutable result for this run.

        ``run_fields`` are the :class:`SimulationResult` fields the system
        measures itself (rate, strategy, seed, central utilisation, queue
        means, telemetry, engine profile, covariates, protocol); they pass
        through unchanged.  Every counter field is read from the registry.
        """
        measured_time = max(self.env.now - self.warmup_time, 1e-12)
        mean_local_util = (sum(local_utilizations) /
                           len(local_utilizations)
                           if local_utilizations else 0.0)
        by_class = {cls: stat.mean
                    for cls, stat in self.response_by_class.items()
                    if stat.count}
        by_kind = {kind: stat.mean
                   for kind, stat in self.response_by_kind.items()
                   if stat.count}
        decomposition = _phase_means(self.phase_stats)
        decomposition_by_class = {
            cls: _phase_means(stats)
            for cls, stats in self.phase_by_class.items()
            if any(stat.count for stat in stats.values())}
        decomposition_by_placement = {
            placement: _phase_means(stats)
            for placement, stats in self.phase_by_placement.items()
            if any(stat.count for stat in stats.values())}
        recoveries = tuple(self.recoveries)
        durations = [record.duration for record in recoveries]
        mttr = sum(durations) / len(durations) if durations else None
        episodes = tuple(fault_episodes)
        mtbf = None
        if episodes:
            downtime = sum(max(episode.end - episode.start, 0.0)
                           for episode in episodes)
            uptime = max(self.env.now - downtime, 0.0)
            mtbf = uptime / len(episodes)
        return SimulationResult(
            mean_response_time=self.response_all.mean,
            response_time_by_class=by_class,
            response_time_by_kind=by_kind,
            response_time_percentiles=self.response_quantiles.summary(),
            throughput=self.count("completed") / measured_time,
            mean_local_utilization=mean_local_util,
            response_time_decomposition=decomposition,
            decomposition_by_class=decomposition_by_class,
            decomposition_by_placement=decomposition_by_placement,
            fault_episodes=episodes,
            failover_takeovers=sum(1 for record in recoveries
                                   if record.kind == "failover"),
            site_rejoins=sum(1 for record in recoveries
                             if record.kind == "rejoin"),
            recoveries=recoveries,
            mttr=mttr,
            mtbf=mtbf,
            metrics=self.registry.snapshot(),
            protocol_counters={
                event: int(child.value) for (event,), child
                in self._protocol_events.children.items()},
            **{name: self.count(name) for name in COUNTERS},
            **run_fields,
        )
