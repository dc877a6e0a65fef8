"""Workload definitions and the per-simulation observer.

Every workload drives the simulator only through its public entry
points (``run_single``, ``figure_4_1``).  A workload is repeated in
*units*; one unit is the smallest batch that covers the workload once:

* ``paper-hot``: the paper's base configuration at 30 txn/s, 0.2 s
  delay, best dynamic scheme, once under each commit protocol;
* ``figure-4.1``: one serial, uncached Figure 4.1 sweep at scale 0.1
  with 2 fixed replications per point (40 simulations);
* ``failover-2pc``: ``2pc`` at 30 txn/s under the canned
  ``central-outage-failover`` plan.

:class:`Probe` observes every simulation those entry points run: it
counts committed transactions, times router construction and the run,
and afterwards (untimed) computes the output digest and -- for timed
simulations -- drains the system and checks liveness and replica
convergence.
"""

from __future__ import annotations

import hashlib
import time
import traceback
import types
from dataclasses import dataclass, field
from typing import Any, Callable

#: The best dynamic scheme of the paper (Figure 4.1's best-dynamic curve).
BEST_DYNAMIC = "min-average-population"
HOT_RATE = 30.0
COMM_DELAY = 0.2
#: Horizon scale of one ``paper-hot`` simulation (1.0 = the paper's
#: 30 s warm-up plus 90 s measurement).
HOT_SCALE = 0.25
FIGURE_SCALE = 0.1
FIGURE_REPLICATIONS = 2
FAILOVER_SCALE = 1.0
FAILOVER_PLAN = "central-outage-failover"
#: The protocols ``paper-hot`` runs; each has its own per-layer metric.
PROTOCOLS = ("optimistic", "2pc", "epoch")
#: Simulated seconds a drained system runs after its arrivals stop.
DRAIN_SECONDS = 120.0

_clock = time.perf_counter_ns


@dataclass
class SimRecord:
    """What one simulation produced (host times in nanoseconds)."""

    label: str
    protocol: str
    wall_ns: int = 0
    run_ns: int = 0
    router_build_ns: int = 0
    commits: int = 0
    completed: int = 0
    aborts: int = 0
    auth_naks: int = 0
    events: int = 0
    lock_grants: int = 0
    lock_waits: int = 0
    deadlocks: int = 0
    digest: str = ""
    live: bool | None = None
    divergent: int | None = None
    #: Whether the invariant checker watched the whole run.
    checked: bool = False
    error: str | None = None

    @property
    def build_ns(self) -> int:
        return self.wall_ns - self.run_ns

    @property
    def fingerprint(self) -> tuple:
        """Host-independent outputs that must repeat exactly."""
        return (self.digest, self.commits, self.events, self.lock_grants,
                self.lock_waits, self.deadlocks, self.divergent)


def result_digest(result) -> str:
    """SHA-256 of the flattened deterministic simulated statistics."""
    from repro.verify.compare import flatten

    flat = flatten(result.identity_dict(include_profile=False))
    text = "\n".join(f"{key}={flat[key]!r}" for key in sorted(flat))
    return hashlib.sha256(text.encode()).hexdigest()


def _lock_managers(system) -> list:
    managers = [site.locks for site in system.sites]
    managers.append(system.central.locks)
    if system.standby is not None:
        managers.append(system.standby.locks)
    return managers


def drain(system) -> tuple[bool, int]:
    """Stop arrivals, run the system dry and check the outputs.

    Returns ``(live, divergent)``: whether no transaction and no
    buffered or unacknowledged update is left anywhere, and how many
    entities' master counters disagree with the *acting* central's
    counter (the standby after a failover).
    """
    from repro.db.replica import replica_divergence

    for arrival in system.arrivals:
        if arrival.process.is_alive:
            arrival.process.interrupt("stop")
    system.env.run(until=system.env.now + DRAIN_SECONDS)
    acting = system.acting_central
    live = not acting.active and all(
        not site.active and not site._update_buffer
        and not site._unacked_updates for site in system.sites)
    view = types.SimpleNamespace(central=acting, sites=system.sites,
                                 partition=system.partition)
    return live, len(replica_divergence(view))


class Probe:
    """Observes the simulations the public entry points run.

    ``install`` wraps ``HybridSystem.run`` (commit counting, optional
    invariant checker, run timing), the strategy builders (router
    construction time) and the figure harness's ``execute_job`` (build
    plus run time per simulation).  ``finish`` closes one simulation:
    untimed, it digests the result and, when ``drain_systems`` is set,
    drains the system and checks liveness and replica convergence.
    """

    def __init__(self, tracer=None) -> None:
        self.records: list[SimRecord] = []
        self.check_ns = 0
        self.attach_checker = False
        self.drain_systems = True
        #: ``(label, message)`` of every run the invariant checker stopped.
        self.violations: list[tuple[str, str]] = []
        #: Host time of attempts discarded after a checker stop.
        self.discarded_ns = 0
        self.tracer = tracer
        self._pending: tuple | None = None
        self._router_ns = 0
        self._installed: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        from repro.core import STRATEGIES
        from repro.experiments import parallel
        from repro.hybrid.checker import attach_checker
        from repro.hybrid.system import HybridSystem

        probe = self
        original_run = HybridSystem.run

        def observed_run(system):
            commits = [0]
            record = system.metrics.record_completion

            def counted(txn, _record=record):
                commits[0] += 1
                return _record(txn)

            system.metrics.record_completion = counted
            if probe.attach_checker:
                attach_checker(system)
            start = _clock()
            result = original_run(system)
            run_ns = _clock() - start
            probe._pending = (system, result, commits[0], run_ns,
                              system.env.events_processed)
            return result

        def timed_builder(builder: Callable) -> Callable:
            def build(config):
                start = _clock()
                try:
                    return builder(config)
                finally:
                    probe._router_ns += _clock() - start
            build.__wrapped__ = builder
            return build

        original_job = parallel.execute_job

        def observed_job(spec):
            start = _clock()
            result = original_job(spec)
            probe.finish(_clock() - start)
            return result

        self._installed = [(HybridSystem, "run", original_run),
                           (parallel, "execute_job", original_job)]
        HybridSystem.run = observed_run
        parallel.execute_job = observed_job
        for name, builder in list(STRATEGIES.items()):
            self._installed.append((STRATEGIES, name, builder))
            STRATEGIES[name] = timed_builder(builder)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed = []

    def finish(self, wall_ns: int) -> SimRecord:
        """Record the simulation that just returned (checks untimed)."""
        start = _clock()
        system, result, commits, run_ns, events = self._pending
        self._pending = None
        config = system.config
        rate = config.workload.total_arrival_rate
        managers = _lock_managers(system)
        record = SimRecord(
            label=(f"{system.strategy_name}@{rate:g}/{config.protocol}"
                   f"/seed{system.seed}"),
            protocol=config.protocol, wall_ns=wall_ns, run_ns=run_ns,
            router_build_ns=self._router_ns, commits=commits,
            completed=result.completed, aborts=result.aborts_total,
            auth_naks=result.auth_negative_acks, events=events,
            lock_grants=sum(m.locks_granted for m in managers),
            lock_waits=sum(m.lock_waits for m in managers),
            deadlocks=sum(m.deadlocks for m in managers),
            digest=result_digest(result), checked=self.attach_checker)
        self._router_ns = 0
        if self.drain_systems:
            record.live, record.divergent = drain(system)
        self.records.append(record)
        self.check_ns += _clock() - start
        return record

    def snapshot(self):
        return self.tracer.snapshot() if self.tracer is not None else None

    def discard(self, state, elapsed_ns: int) -> None:
        """Forget an attempt: its spans and its host time."""
        if self.tracer is not None:
            self.tracer.restore(state)
        self.discarded_ns += elapsed_ns
        self._pending = None
        self._router_ns = 0

    def fail(self, label: str, protocol: str, error: BaseException) -> None:
        """Record a simulation that raised."""
        self._pending = None
        self._router_ns = 0
        self.records.append(SimRecord(
            label=label, protocol=protocol,
            error="".join(traceback.format_exception_only(
                type(error), error)).strip()))


@dataclass
class Workload:
    """A named benchmark workload."""

    name: str
    #: ``run_unit(probe, seed)`` runs one unit through the public API.
    run_unit: Callable[["Probe", int], None]
    #: ``setup_simulation(seed)`` -> ``(strategy, rate, settings,
    #: fault_plan)``: the simulation the set-up probe builds.
    setup_simulation: Callable[[int], tuple]
    #: False where replica divergence after drain is a known defect
    #: that is reported, not treated as a failed output check.
    expect_converged: bool = True
    #: ``(protocol, message fragment)`` of invariant-checker violations
    #: that are known defects: reported, not treated as failed checks.
    known_violations: tuple[tuple[str, str], ...] = ()
    notes: tuple[str, ...] = field(default_factory=tuple)


def _single(probe: Probe, strategy: str, settings, fault_plan=None) -> None:
    """One ``run_single`` simulation.  When the invariant checker stops
    it, the violation is recorded, the attempt discarded and the
    simulation rerun without the checker, so the traced metrics always
    cover complete runs."""
    from repro.experiments import run_single
    from repro.hybrid.checker import InvariantViolation

    label = (f"{strategy}@{HOT_RATE:g}/{settings.protocol}"
             f"/seed{settings.base_seed}")
    state = probe.snapshot()
    start = _clock()
    try:
        run_single(strategy, HOT_RATE, COMM_DELAY, settings=settings,
                   fault_plan=fault_plan)
    except InvariantViolation as violation:
        if not probe.attach_checker:
            raise
        probe.violations.append((label, str(violation)))
        probe.discard(state, _clock() - start)
        probe.attach_checker = False
        try:
            _single(probe, strategy, settings, fault_plan)
        finally:
            probe.attach_checker = True
        return
    except Exception as error:  # a failed simulation is a counted failure
        probe.fail(label, settings.protocol, error)
        return
    probe.finish(_clock() - start)


def _hot_settings(seed: int, protocol: str):
    from repro.experiments import RunSettings

    return RunSettings(scale=HOT_SCALE, base_seed=seed, protocol=protocol)


def _paper_hot_unit(probe: Probe, seed: int) -> None:
    for protocol in PROTOCOLS:
        _single(probe, BEST_DYNAMIC, _hot_settings(seed, protocol))


def _figure_settings(seed: int):
    from repro.experiments import RunSettings

    return RunSettings(scale=FIGURE_SCALE,
                       replications=FIGURE_REPLICATIONS, base_seed=seed)


def _figure_unit(probe: Probe, seed: int) -> None:
    from repro.experiments import figure_4_1

    try:
        figure_4_1(_figure_settings(seed), workers=1, cache=None)
    except Exception as error:
        probe.fail("figure-4.1", "optimistic", error)


def _failover_setup(seed: int) -> tuple:
    from repro.experiments import RunSettings
    from repro.sim.faults import resolve_fault_plan

    settings = RunSettings(scale=FAILOVER_SCALE, base_seed=seed,
                           protocol="2pc")
    plan = resolve_fault_plan(FAILOVER_PLAN,
                              settings.warmup_time * settings.scale,
                              settings.measure_time * settings.scale)
    return BEST_DYNAMIC, HOT_RATE, settings, plan


def _failover_unit(probe: Probe, seed: int) -> None:
    strategy, _, settings, plan = _failover_setup(seed)
    _single(probe, strategy, settings, fault_plan=plan)


#: Known defect: under 2pc at 30 txn/s the invariant checker stops runs
#: with "transaction N committed while marked for abort" (a prepared
#: local transaction commits after its vote although an update marked
#: it for abort meanwhile).
TWOPHASE_MARKED_COMMIT = ("2pc", "committed while marked for abort")
TWOPHASE_NOTE = ("known defect (ROADMAP correctness aim): under 2pc the "
                 "invariant checker stops the traced run with 'committed "
                 "while marked for abort'; reported as "
                 "check.invariant_violations, and the run is retraced "
                 "without the checker.")

WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="paper-hot",
            run_unit=_paper_hot_unit,
            known_violations=(TWOPHASE_MARKED_COMMIT,),
            notes=(TWOPHASE_NOTE,),
            setup_simulation=lambda seed: (
                BEST_DYNAMIC, HOT_RATE, _hot_settings(seed, "optimistic"),
                None)),
        Workload(
            name="figure-4.1",
            run_unit=_figure_unit,
            setup_simulation=lambda seed: (
                "static-optimal", HOT_RATE, _figure_settings(seed), None)),
        Workload(
            name="failover-2pc",
            run_unit=_failover_unit,
            setup_simulation=_failover_setup,
            expect_converged=False,
            known_violations=(TWOPHASE_MARKED_COMMIT,),
            notes=(TWOPHASE_NOTE,
                   "known defect (ROADMAP item 5): after the failover "
                   "the drained standby is ahead of the masters on some "
                   "entities; at seed 7001 2pc leaves 10 divergent "
                   "entities (optimistic 40, epoch 140 on the same "
                   "plan). Reported as measured, not masked.",)),
    )
}
