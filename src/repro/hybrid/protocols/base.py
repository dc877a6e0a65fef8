"""The :class:`CommitProtocol` interface: hook objects the sites call.

A commit protocol owns the site<->central interaction of the hybrid
system: how a local transaction's updates reach the central replica
(shipment and update propagation), how commits are authorised
(authentication / voting / epoch ordering), and how the interaction
survives faults (the recovery hooks).  Everything else -- workload,
routing strategies, the lock tables, metrics, fault injection -- is
protocol-independent and shared.

The :class:`~repro.hybrid.system.HybridSystem` always builds the stock
:class:`~repro.hybrid.local.LocalSite`,
:class:`~repro.hybrid.central.CentralSite` and
:class:`~repro.hybrid.standby.StandbyCentral`.  Each site builds one
hook object of its protocol -- :attr:`CommitProtocol.local_hooks` for
a local site, :attr:`CommitProtocol.central_hooks` for the primary and
the standby alike -- and calls it at the few points where protocols
differ.  The two hook classes below carry the paper's optimistic
protocol as their defaults; a protocol subclasses them and overrides
only the hooks it changes.  Protocol state (in-doubt registries, epoch
buffers) lives on the hook object, reachable as ``site.hooks``.

Behavioural contract every implementation must satisfy (enforced by
``tests/test_protocol_conformance.py``):

* **Replica consistency.**  After a drained run every owned entity's
  update count at the central replica equals the count at its master
  site (exactly-once application on both sides).
* **Exactly-once completion.**  Each transaction completes at most
  once, never while marked for abort, with a positive response time
  (the invariant checker's ``record_completion`` wrap).
* **FIFO update application.**  If the protocol uses
  ``UpdatePropagation`` batches, the central applies each site's
  batches in sequence order, never applying more than the site sent.
  Hooks queue updates through ``site._queue_update`` and apply batches
  through ``central._apply_updates``: the invariant checker wraps both.
* **Abort vocabulary.**  Aborts are recorded under the existing causes
  (``deadlock`` / ``local-invalidated`` / ``central-invalidated``) so
  the result schema stays protocol-independent.
* **Determinism.**  Same seed, same config, same fault plan => the
  same :meth:`~repro.hybrid.metrics.SimulationResult.identity_dict`.
* **Registry-only observability.**  Protocol-specific counters go
  through ``MetricsCollector.record_protocol_event`` (the metrics
  registry), never through new tracer vocabulary -- golden traces hash
  the exact event stream.

See ``docs/PROTOCOL.md`` for the full contract and a registration
walkthrough.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ...db.locks import LockMode
from ...sim.engine import Event, Interrupt
from ...sim.spans import PHASE_AUTH
from ..central import _PendingAuth
from ..protocol import AuthRequest, CommitOrder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from collections.abc import Callable

    from ...db.transaction import Transaction
    from ..central import CentralSite
    from ..local import LocalSite

__all__ = ["CommitProtocol", "LocalHooks", "CentralHooks"]


class LocalHooks:
    """The local-site role of a protocol (default: optimistic).

    ``handlers`` maps extra central->site payload types to a callable
    taking the payload; the site refreshes its central snapshot before
    dispatching any payload.
    """

    def __init__(self, site: "LocalSite"):
        self.site = site
        self.handlers: dict[type, Callable] = {}

    def start(self) -> None:
        """Links are attached: start the update-flush cadence."""
        site = self.site
        if site.config.update_batching > 1:
            site.env.process(self._flush_loop(), name=f"{site.name}:flush")

    def _flush_loop(self):
        """Periodic flush so partial batches are never stranded."""
        interval = self.site.config.update_flush_interval
        while True:
            yield self.site.env.timeout(interval)
            self.site._flush_updates()

    def queue_update(self, updates: tuple[int, ...]) -> None:
        """Send (or batch) the asynchronous update propagation message."""
        site = self.site
        site._update_buffer.append(updates)
        if len(site._update_buffer) >= site.config.update_batching:
            site._flush_updates()

    def commit(self, txn: "Transaction"):
        """Finish a transaction that passed its abort checks.

        A generator returning ``True`` when the transaction's run is
        over (committed, or its completion delegated elsewhere) and
        ``False`` to re-execute it.  The default is the optimistic
        protocol's synchronous local commit: release locks, start
        asynchronous propagation, complete.  It never yields, so
        ``yield from`` runs it as a plain call.
        """
        self.site._apply_local_commit(txn, txn.update_entities)
        self.site._complete(txn)
        return True
        yield  # pragma: no cover - unreachable; makes this a generator

    def auth_refusal(self, request: AuthRequest) -> str | None:
        """Asked at the instant this master would grant an
        authentication (after its CPU burst): the protocol event to
        record when it must refuse outright, or ``None`` to run the
        stock checks."""
        return None

    def on_update_ack(self, seq: int) -> None:
        """The central acknowledged batch ``seq`` for the first time."""

    def on_failover(self, notice) -> None:
        """The site re-pointed at the standby and settled its in-flight
        work (the hook runs last)."""

    def on_crash(self) -> None:
        """The site lost its volatile state (the hook runs last)."""


class CentralHooks:
    """The central role of a protocol, shared by the primary and the
    hot standby (default: optimistic authentication).

    ``handlers`` maps site->central payload types to a generator
    function taking the payload; an entry replaces the stock handling
    of that type.
    """

    def __init__(self, central: "CentralSite"):
        self.central = central
        self.handlers: dict[type, Callable] = {}

    def start(self) -> None:
        """Links are attached (the per-site dispatchers are running)."""

    def authorise(self, txn: "Transaction", masters: dict[int, list]):
        """Authorise a central commit (after its ``instr_auth_central``
        burst).  A generator returning the masters whose grants the
        commit now holds -- released if it aborts later -- or ``None``
        when it was refused and must re-execute.

        The default is the authentication phase of Section 2: the lock
        list goes to every master simultaneously; any negative
        acknowledgement releases the granted masters and re-executes.
        """
        if not masters:
            return masters
        central = self.central
        auth_id = next(central._auth_ids)
        done = Event(central.env)
        pending = _PendingAuth(event=done, expected=len(masters),
                               txn_id=txn.txn_id)
        central._pending_auth[auth_id] = pending
        for site, references in masters.items():
            request = AuthRequest(
                auth_id=auth_id, txn_id=txn.txn_id,
                references=tuple(references),
                snapshot=central.snapshot(), deadline=txn.deadline)
            pending.requests[site] = request
            central._send(site, "auth-request", request)
        # Both message legs plus the master-site checks count as the
        # authentication phase of this transaction's timeline.
        txn.spans.enter(PHASE_AUTH, central.env.now)
        try:
            replies = yield done
        except Interrupt:
            # Cancelled mid-round.  The round stays registered,
            # poisoned, so master grants already in flight are
            # released once every reply has arrived (releasing
            # earlier could overtake a not-yet-processed grant).
            pending.cancelled = True
            txn.spans.exit(central.env.now)
            raise
        txn.spans.exit(central.env.now)
        granted = all(reply.granted for reply in replies)
        central.metrics.record_auth_round(granted)
        if not granted:
            # Some master answered NAK: release any granted locks and
            # re-execute (the paper: "it re-executes the transaction
            # and repeats the process").
            central.metrics.record_negative_ack(
                txn, sites=tuple(reply.site for reply in replies
                                 if not reply.granted))
            central._release_masters(txn, masters)
            txn.record_abort()
            return None
        return masters

    def distribute(self, txn: "Transaction", masters: dict[int, list]) -> None:
        """The commit is applied at the central: tell the masters.  The
        default sends every master a commit order carrying its
        updates (which also releases its authentication locks)."""
        central = self.central
        for site, references in masters.items():
            site_updates = tuple(entity for entity, mode in references
                                 if mode is LockMode.EXCLUSIVE)
            central._send(site, "commit", CommitOrder(
                txn_id=txn.txn_id, snapshot=central.snapshot(),
                updates=site_updates))

    def on_deposed(self) -> None:
        """The standby took over from this central (the hook runs last)."""


class CommitProtocol:
    """One site<->central commit protocol: a name and two hook classes.

    Subclasses set :attr:`name` (the registry / config / CLI / cache
    identity) and point :attr:`local_hooks` / :attr:`central_hooks` at
    subclasses of :class:`LocalHooks` / :class:`CentralHooks` that
    override what the protocol changes.
    """

    #: Registry name -- the value of ``SystemConfig.protocol``.
    name: str = "abstract"

    local_hooks: type[LocalHooks] = LocalHooks
    central_hooks: type[CentralHooks] = CentralHooks
