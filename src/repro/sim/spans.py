"""Per-entity lifecycle spans: a phase-attributed timeline.

A :class:`SpanRecorder` decomposes the lifetime of a simulated entity
(here: one transaction) into named, non-overlapping *phases*.  At any
instant the entity is in exactly one phase; :meth:`SpanRecorder.enter`
atomically closes the current phase and opens the next, so the phase
totals always sum to the elapsed lifetime exactly -- the invariant the
response-time decomposition in :mod:`repro.hybrid.metrics` relies on.

The recorder is deliberately tiny: a dictionary of accumulated seconds
per phase plus the currently open phase.  It allocates no per-interval
objects, so attaching one to every transaction costs a few hundred bytes
and two float operations per phase transition.

Phase vocabulary (see ``docs/OBSERVABILITY.md``):

* ``comm``        -- in transit on a site<->central link (shipping, the
  response message, remote-call round trips) or queued in a mailbox.
* ``cpu-wait``    -- queued for a site CPU.
* ``cpu-service`` -- holding a site CPU.
* ``io``          -- in a synchronous I/O (CPU released).
* ``lock-wait``   -- blocked on a lock grant.
* ``auth``        -- a central/shipped transaction's authentication
  round trip (master-site checking plus both message legs).
* ``other``       -- any residue not claimed by the above (abort/rerun
  handling instants, dispatch bookkeeping).  Kept explicit so the
  decomposition is exhaustive rather than silently lossy.
"""

from __future__ import annotations

__all__ = [
    "PHASE_COMM",
    "PHASE_CPU_WAIT",
    "PHASE_CPU_SERVICE",
    "PHASE_IO",
    "PHASE_LOCK_WAIT",
    "PHASE_AUTH",
    "PHASE_OTHER",
    "PHASES",
    "SpanRecorder",
]

PHASE_COMM = "comm"
PHASE_CPU_WAIT = "cpu-wait"
PHASE_CPU_SERVICE = "cpu-service"
PHASE_IO = "io"
PHASE_LOCK_WAIT = "lock-wait"
PHASE_AUTH = "auth"
PHASE_OTHER = "other"

#: Every phase a :class:`SpanRecorder` may report, in reporting order.
PHASES = (
    PHASE_COMM,
    PHASE_CPU_WAIT,
    PHASE_CPU_SERVICE,
    PHASE_IO,
    PHASE_LOCK_WAIT,
    PHASE_AUTH,
    PHASE_OTHER,
)


class SpanRecorder:
    """Accumulates time per named phase over one entity's lifetime.

    The recorder anchors itself at the first :meth:`enter` call; from
    then on every instant is attributed to exactly one phase until
    :meth:`close`.  Re-entering a phase accumulates into the same total
    (reruns of an aborted transaction simply add to the existing
    buckets).
    """

    __slots__ = ("totals", "transitions", "started_at", "closed_at",
                 "_phase", "_since")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.transitions = 0
        self.started_at: float | None = None
        self.closed_at: float | None = None
        self._phase: str | None = None
        self._since = 0.0

    # -- recording -----------------------------------------------------------

    def enter(self, phase: str, now: float) -> None:
        """Close the open phase (if any) and open ``phase`` at ``now``."""
        if self.started_at is None:
            self.started_at = now
        else:
            # Inlined :meth:`_accumulate`: enter runs at every phase
            # transition of every transaction.
            open_phase = self._phase
            if open_phase is not None:
                elapsed = now - self._since
                if elapsed > 0.0:
                    totals = self.totals
                    totals[open_phase] = \
                        totals.get(open_phase, 0.0) + elapsed
        self._phase = phase
        self._since = now
        self.transitions += 1

    def exit(self, now: float, fallback: str = PHASE_OTHER) -> None:
        """Close the open phase, attributing subsequent time to
        ``fallback`` (the catch-all ``other`` phase by default)."""
        self.enter(fallback, now)

    def close(self, now: float) -> None:
        """Stop recording; the timeline is complete at ``now``."""
        if self.started_at is None:
            self.started_at = now
        self._accumulate(now)
        self._phase = None
        self.closed_at = now

    def _accumulate(self, now: float) -> None:
        if self._phase is not None:
            elapsed = now - self._since
            if elapsed > 0.0:
                self.totals[self._phase] = \
                    self.totals.get(self._phase, 0.0) + elapsed

    # -- inspection ----------------------------------------------------------

    @property
    def current_phase(self) -> str | None:
        """The open phase (``None`` before the first enter / after close)."""
        return self._phase

    @property
    def total(self) -> float:
        """Sum of all phase totals (== lifetime once closed)."""
        return sum(self.totals.values())

    def get(self, phase: str) -> float:
        """Accumulated seconds in ``phase`` (0.0 if never entered)."""
        return self.totals.get(phase, 0.0)

    def as_dict(self) -> dict[str, float]:
        """Totals for every phase in :data:`PHASES` (zeros included)."""
        return {phase: self.totals.get(phase, 0.0) for phase in PHASES}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        parts = " ".join(f"{phase}={seconds:.4f}"
                         for phase, seconds in sorted(self.totals.items()))
        state = "open" if self.closed_at is None else "closed"
        return f"<SpanRecorder {state} {parts}>"
