"""Deterministic epoch-batched group commit (protocol ``epoch``).

Execution stays optimistic -- local transactions run under their site's
lock table exactly as in the default protocol -- but the site<->central
interaction is batched into fixed epochs of ``config.epoch_interval``
seconds:

* **Sites** buffer committed updates for a whole epoch and ship them as
  one ``UpdatePropagation`` batch at the boundary.  Updating
  transactions *group-commit*: their locks release and their updates
  apply immediately (so they never block local conflicts), but their
  response is withheld until the central acknowledges the epoch's
  batch -- the durability point.  Read-only transactions respond
  immediately.
* **The central** buffers incoming site batches and central commit
  requests for an epoch, then resolves the epoch deterministically:
  site batches are applied in ``(site, seq)`` order first, then the
  buffered central commits run in arrival order.  A central transaction
  invalidated by that epoch's site batches loses -- deterministically --
  and re-executes; survivors commit without any authentication round
  (the epoch ordering *is* the commit order), distributing
  :class:`EpochCommitOrder` updates to the masters.

Recovery rides on the optimistic machinery: unacknowledged epoch
batches are re-sent on failover (``LocalSite._on_failover``) and the
standby deduplicates them against the shipped log by ``(site, seq)``
-- which is exactly an in-flight-epoch replay; the waiting
group-committed transactions complete when the standby's ack arrives.
Before its takeover the standby's epoch ticker idles (it only replays
the shipped log).
"""

from __future__ import annotations

from ..protocol import EpochCommitOrder, UpdatePropagation
from ...db.locks import LockMode
from ...db.transaction import Transaction
from ...sim.engine import Event, Interrupt
from ...sim.spans import PHASE_AUTH, PHASE_COMM
from . import register
from .base import CentralHooks, CommitProtocol, LocalHooks

__all__ = ["EpochProtocol", "EpochLocal", "EpochCentral"]


class EpochLocal(LocalHooks):
    """Local site with epoch-batched update shipping and group commit."""

    def __init__(self, site):
        super().__init__(site)
        #: Updating transactions committed this epoch, awaiting the
        #: boundary flush.
        self._epoch_pending: list[Transaction] = []
        #: seq -> the transactions group-committing on that batch's ack.
        self._awaiting_ack: dict[int, tuple[Transaction, ...]] = {}
        self.handlers = {EpochCommitOrder: self._handle_epoch_commit}

    def start(self):
        # One flush cadence: the epoch boundary (replaces the batching
        # threshold and the partial-batch flush loop alike).
        site = self.site
        site.env.process(self._epoch_loop(), name=f"{site.name}:epoch")

    def _epoch_loop(self):
        interval = self.site.config.epoch_interval
        while True:
            yield self.site.env.timeout(interval)
            self._flush_epoch()

    def queue_update(self, updates):
        # Buffer for the epoch boundary; never flush on a threshold.
        self.site._update_buffer.append(updates)

    def _flush_epoch(self) -> None:
        site = self.site
        pending = tuple(self._epoch_pending)
        self._epoch_pending.clear()
        if not site._update_buffer:
            return
        site._flush_updates()
        if pending:
            self._awaiting_ack[site._update_seq] = pending
        site.metrics.record_protocol_event("epoch-flush")

    def commit(self, txn):
        site = self.site
        updates = txn.update_entities
        # Group commit: apply and unlock now (later local transactions
        # see the writes), respond at the epoch ack.
        site._apply_local_commit(txn, updates)
        if not updates:
            # Read-only: nothing to make durable, respond immediately.
            site._complete(txn)
            return True
        self._epoch_pending.append(txn)
        site.metrics.record_protocol_event("group-commit-deferred")
        txn.spans.enter(PHASE_COMM, site.env.now)
        return True
        yield  # pragma: no cover - unreachable; makes this a generator

    def on_update_ack(self, seq):
        for txn in self._awaiting_ack.pop(seq, ()):
            self.site.metrics.record_protocol_event("group-commit")
            self.site._complete(txn)

    def _handle_epoch_commit(self, order: EpochCommitOrder) -> None:
        """A central transaction epoch-committed: apply its updates for
        entities mastered here and invalidate conflicting local holders
        (the epoch order wins; there are no master locks to release)."""
        site = self.site
        site.data.apply_updates(order.updates)
        site._invalidate_holders(order.updates,
                                 "invalidated-by-epoch-commit")

    def on_crash(self):
        # Transactions whose response was parked on an epoch ack die
        # with the volatile state (the site already dropped the buffers
        # and unacked batches they ride on).
        site = self.site
        waiting = [txn for seq in sorted(self._awaiting_ack)
                   for txn in self._awaiting_ack[seq]]
        waiting.extend(self._epoch_pending)
        for txn in waiting:
            site.txns_lost_in_crash += 1
            site.metrics.record_lost_in_crash(txn)
        self._awaiting_ack.clear()
        self._epoch_pending.clear()


class EpochCentral(CentralHooks):
    """Epoch buffering and the deterministic boundary resolution, on the
    primary and (after its takeover) the hot standby."""

    def __init__(self, central):
        super().__init__(central)
        #: Site batches received this epoch, applied at the boundary.
        self._epoch_updates: list[UpdatePropagation] = []
        #: (txn_id, wakeup) of central commits waiting for the boundary.
        self._epoch_commits: list[tuple[int, Event]] = []
        self.handlers = {UpdatePropagation: self._buffer_batch}

    def start(self):
        central = self.central
        central.env.process(self._epoch_ticker(),
                            name=f"{central.name}:epoch")

    def _epoch_ticker(self):
        central = self.central
        interval = central.config.epoch_interval
        while True:
            yield central.env.timeout(interval)
            if central.deposed:
                return
            if not central.holds_central_role:
                continue  # a standby ticks only after takeover
            yield from self._close_epoch()

    def _close_epoch(self):
        """Resolve one epoch: site batches in deterministic (site, seq)
        order, then the buffered central commits in arrival order."""
        batches = sorted(self._epoch_updates,
                         key=lambda p: (p.source_site, p.seq))
        self._epoch_updates.clear()
        for batch in batches:
            # The stock application path: dedup against the shipped log,
            # invalidate central holders, ack, ship to the standby.
            yield from self.central._apply_updates(batch)
            self.central.metrics.record_protocol_event("epoch-batch")
        waiters, self._epoch_commits = self._epoch_commits, []
        for _txn_id, wakeup in waiters:
            if not wakeup.triggered:
                wakeup.succeed(None)

    def _buffer_batch(self, batch: UpdatePropagation):
        self._epoch_updates.append(batch)
        return
        yield  # pragma: no cover - unreachable; makes this a generator

    def authorise(self, txn, masters):
        """Epoch commit: wait for the boundary instead of an
        authentication round; the deterministic ordering resolves
        conflicts (that epoch's site batches win).  No master holds a
        grant, so nothing is released on a later abort."""
        central = self.central
        wakeup = Event(central.env)
        entry = (txn.txn_id, wakeup)
        self._epoch_commits.append(entry)
        txn.spans.enter(PHASE_AUTH, central.env.now)
        try:
            yield wakeup
        except Interrupt:
            # Cancelled mid-epoch: deregister so the boundary does not
            # wake a dead transaction's event.
            self._epoch_commits = [e for e in self._epoch_commits
                                   if e is not entry]
            txn.spans.exit(central.env.now)
            raise
        txn.spans.exit(central.env.now)
        return {}

    def distribute(self, txn, masters):
        central = self.central
        central.metrics.record_protocol_event("epoch-central-commit")
        for site, references in masters.items():
            site_updates = tuple(entity for entity, mode in references
                                 if mode is LockMode.EXCLUSIVE)
            if site_updates:
                central._send(site, "epoch-commit", EpochCommitOrder(
                    txn_id=txn.txn_id, snapshot=central.snapshot(),
                    updates=site_updates))

    def on_deposed(self):
        self._epoch_updates.clear()
        self._epoch_commits.clear()


@register
class EpochProtocol(CommitProtocol):
    """Deterministic epoch-batched group commit."""

    name = "epoch"
    local_hooks = EpochLocal
    central_hooks = EpochCentral
