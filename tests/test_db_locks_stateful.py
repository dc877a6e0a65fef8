"""Stateful property testing of the lock manager.

A hypothesis rule-based state machine drives random interleavings of
acquire / release / cancel / force-grant / coherence operations against
:class:`~repro.db.locks.LockManager` and checks the manager's structural
invariants after every step:

* no two holders of one entity hold incompatible modes;
* a transaction never appears both as holder and waiter of one entity;
* waiters only wait while an incompatible holder (or an earlier waiter)
  exists;
* the waits-for graph never contains a cycle (cycles are refused at
  acquire time);
* coherence counts are never negative and pin their lock records;
* the manager's per-transaction index and its grant/queue counters
  equal a brute-force scan of the lock table, and every multi-lock
  answer comes in lock-table insertion order.
"""

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.db import LockManager, LockMode
from repro.sim import Environment

ENTITIES = list(range(6))
TXNS = list(range(1, 8))


class LockManagerMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.manager = LockManager(self.env)
        # Mirror of intended state: txn -> set of entities requested.
        self.requested: dict[int, set[int]] = {t: set() for t in TXNS}

    # -- operations --------------------------------------------------------

    @rule(txn=st.sampled_from(TXNS), entity=st.sampled_from(ENTITIES),
          exclusive=st.booleans())
    def acquire(self, txn, entity, exclusive):
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARE
        event = self.manager.acquire(txn, entity, mode)
        if event.triggered and not event._ok:
            event.defused()  # deadlock refusal is a legal outcome
        else:
            self.requested[txn].add(entity)
        self.env.run()

    @rule(txn=st.sampled_from(TXNS))
    def release_all(self, txn):
        expected = [entity for entity, lock in self.manager._locks.items()
                    if txn in lock.holders]
        assert self.manager.release_all(txn) == expected
        self.requested[txn].clear()
        self.env.run()

    @rule(txn=st.sampled_from(TXNS), entity=st.sampled_from(ENTITIES))
    def release_one_if_held(self, txn, entity):
        if self.manager.is_held_by(entity, txn):
            self.manager.release(txn, entity)
            self.env.run()

    @rule(txn=st.sampled_from(TXNS))
    def cancel_waits(self, txn):
        self.manager.cancel_waits(txn)
        self.env.run()

    @rule(entity=st.sampled_from(ENTITIES))
    def coherence_cycle(self, entity):
        self.manager.increment_coherence(entity)
        assert self.manager.coherence_count(entity) >= 1
        self.manager.decrement_coherence(entity)

    @rule(txn=st.sampled_from(TXNS), entity=st.sampled_from(ENTITIES),
          exclusive=st.booleans())
    def force_grant(self, txn, entity, exclusive):
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARE
        evicted = self.manager.force_grant(txn, entity, mode)
        for victim in evicted:
            assert not self.manager.is_held_by(entity, victim)
        self.env.run()

    # -- invariants ----------------------------------------------------------

    @invariant()
    def holders_are_compatible(self):
        for entity, lock in self.manager._locks.items():
            modes = list(lock.holders.values())
            if len(modes) > 1:
                assert all(m is LockMode.SHARE for m in modes), \
                    f"incompatible holders on {entity}: {lock.holders}"

    @invariant()
    def no_holder_is_also_waiter(self):
        """A holder may only wait for an *upgrade* (holds S, wants X)."""
        for lock in self.manager._locks.values():
            for request in lock.waiters:
                held = lock.holders.get(request.txn_id)
                if held is None:
                    continue
                assert held is LockMode.SHARE and \
                    request.mode is LockMode.EXCLUSIVE, \
                    f"non-upgrade holder/waiter: {held} -> {request.mode}"

    @invariant()
    def waiters_have_a_reason(self):
        for lock in self.manager._locks.values():
            if not lock.waiters:
                continue
            head = lock.waiters[0]
            # The queue head must be genuinely blocked by some holder.
            assert not lock.grant_compatible(head.mode,
                                             txn_id=head.txn_id)

    @invariant()
    def waits_for_graph_is_acyclic(self):
        assert not self.manager._waits_for.has_cycle()

    @invariant()
    def coherence_counts_nonnegative(self):
        for lock in self.manager._locks.values():
            assert lock.coherence_count >= 0

    @invariant()
    def index_matches_table_scan(self):
        manager = self.manager
        locks = manager._locks
        stamps = [lock.stamp for lock in locks.values()]
        assert stamps == sorted(set(stamps)), \
            f"stamps out of insertion order: {stamps}"
        held: dict[int, dict[int, object]] = {}
        queued: dict[int, dict[int, int]] = {}
        for entity, lock in locks.items():
            for txn in lock.holders:
                held.setdefault(txn, {})[entity] = lock
            for request in lock.waiters:
                per_txn = queued.setdefault(request.txn_id, {})
                per_txn[entity] = per_txn.get(entity, 0) + 1
        assert {txn: {entity: id(lock) for entity, lock in index.items()}
                for txn, index in manager._held.items()} == \
            {txn: {entity: id(lock) for entity, lock in index.items()}
             for txn, index in held.items()}
        assert manager._queued == queued
        assert manager.total_locks_held() == \
            sum(len(lock.holders) for lock in locks.values())
        assert manager.waiting_requests() == \
            sum(len(lock.waiters) for lock in locks.values())
        assert manager.holding_transactions() == sorted(held)
        for txn in TXNS:
            assert manager.entities_locked_by(txn) == \
                [entity for entity, lock in locks.items()
                 if txn in lock.holders]

    @invariant()
    def lock_records_not_leaked(self):
        for entity, lock in self.manager._locks.items():
            assert not lock.is_free(), \
                f"free lock record {entity} not collected"


TestLockManagerStateful = LockManagerMachine.TestCase
TestLockManagerStateful.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None)
