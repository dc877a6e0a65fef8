"""Unit tests for the dual-field lock manager (repro.db.locks)."""

import pytest

from repro.db import (
    AuthenticationStatus,
    DeadlockError,
    LockError,
    LockManager,
    LockMode,
)
from repro.sim import Environment


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def lm(env):
    return LockManager(env, name="test")


# ---------------------------------------------------------------------------
# Basic grant / queue behaviour
# ---------------------------------------------------------------------------

def test_free_lock_granted_immediately(lm):
    event = lm.acquire(1, 100, LockMode.EXCLUSIVE)
    assert event.triggered and event.ok
    assert lm.is_held_by(100, 1)


def test_share_locks_coexist(lm):
    assert lm.acquire(1, 7, LockMode.SHARE).triggered
    assert lm.acquire(2, 7, LockMode.SHARE).triggered
    assert lm.held_modes(7) == {1: LockMode.SHARE, 2: LockMode.SHARE}


def test_exclusive_blocks_share(lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    event = lm.acquire(2, 7, LockMode.SHARE)
    assert not event.triggered
    assert lm.lock_waits == 1


def test_share_blocks_exclusive(lm):
    lm.acquire(1, 7, LockMode.SHARE)
    event = lm.acquire(2, 7, LockMode.EXCLUSIVE)
    assert not event.triggered


def test_release_grants_next_waiter(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    waiting = lm.acquire(2, 7, LockMode.EXCLUSIVE)
    lm.release(1, 7)
    env.run()
    assert waiting.triggered and waiting.ok
    assert lm.is_held_by(7, 2)


def test_fifo_no_overtaking(env, lm):
    """A share request queued behind an exclusive waiter must not jump it."""
    lm.acquire(1, 7, LockMode.SHARE)
    exclusive_waiter = lm.acquire(2, 7, LockMode.EXCLUSIVE)
    share_waiter = lm.acquire(3, 7, LockMode.SHARE)
    assert not share_waiter.triggered  # queued behind the X request
    lm.release(1, 7)
    env.run()
    assert exclusive_waiter.triggered
    assert not share_waiter.triggered
    lm.release(2, 7)
    env.run()
    assert share_waiter.triggered


def test_batch_grant_of_consecutive_shares(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    share_a = lm.acquire(2, 7, LockMode.SHARE)
    share_b = lm.acquire(3, 7, LockMode.SHARE)
    lm.release(1, 7)
    env.run()
    assert share_a.triggered and share_b.triggered


def test_rerequest_held_lock_succeeds(lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    event = lm.acquire(1, 7, LockMode.EXCLUSIVE)
    assert event.triggered and event.ok


def test_share_rerequest_when_holding_exclusive(lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    event = lm.acquire(1, 7, LockMode.SHARE)
    assert event.triggered
    assert lm.held_modes(7)[1] is LockMode.EXCLUSIVE  # stays strong


def test_upgrade_sole_holder(lm):
    lm.acquire(1, 7, LockMode.SHARE)
    event = lm.acquire(1, 7, LockMode.EXCLUSIVE)
    assert event.triggered
    assert lm.held_modes(7)[1] is LockMode.EXCLUSIVE


def test_upgrade_blocked_by_other_sharer(lm):
    lm.acquire(1, 7, LockMode.SHARE)
    lm.acquire(2, 7, LockMode.SHARE)
    event = lm.acquire(1, 7, LockMode.EXCLUSIVE)
    assert not event.triggered


def test_release_unheld_lock_raises(lm):
    with pytest.raises(LockError):
        lm.release(1, 7)


def test_release_all_returns_entities(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    lm.acquire(1, 8, LockMode.EXCLUSIVE)
    released = lm.release_all(1)
    assert sorted(released) == [7, 8]
    assert lm.total_locks_held() == 0


def test_release_all_grants_waiters(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    waiter = lm.acquire(2, 7, LockMode.EXCLUSIVE)
    lm.release_all(1)
    env.run()
    assert waiter.triggered


def test_release_all_grants_in_lock_creation_order(env, lm):
    # Lock 40 is created first (by txn 9) but joins txn 1's set last;
    # txn 1 locks 5, 30, 10, 20 in that order, then drops and re-takes
    # 5, whose record is collected and re-created as the newest lock.
    lm.acquire(9, 40, LockMode.SHARE)
    for entity in (5, 30, 10, 20):
        lm.acquire(1, entity, LockMode.EXCLUSIVE)
    lm.acquire(1, 40, LockMode.SHARE)
    lm.release(9, 40)
    lm.release(1, 5)
    assert lm.lock_for(5) is None
    lm.acquire(1, 5, LockMode.EXCLUSIVE)
    granted = []
    for waiter, entity in ((2, 5), (3, 10), (4, 20), (5, 30), (6, 40)):
        event = lm.acquire(waiter, entity, LockMode.EXCLUSIVE)
        event.callbacks.append(lambda _event, w=waiter: granted.append(w))
    assert lm.entities_locked_by(1) == [40, 30, 10, 20, 5]
    assert lm.release_all(1) == [40, 30, 10, 20, 5]
    env.run()
    assert granted == [6, 5, 3, 4, 2]
    assert lm.holding_transactions() == [2, 3, 4, 5, 6]


def test_cancel_waits_removes_queued_requests(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    lm.acquire(2, 7, LockMode.EXCLUSIVE)  # queued
    lm.cancel_waits(2)
    lm.release(1, 7)
    env.run()
    assert not lm.is_held_by(7, 2)
    assert lm.waiting_requests() == 0


def test_lock_table_garbage_collected(lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    lm.release(1, 7)
    assert lm.lock_for(7) is None


def test_counters(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    lm.acquire(2, 7, LockMode.EXCLUSIVE)
    assert lm.locks_granted == 1
    assert lm.lock_waits == 1
    lm.release(1, 7)
    env.run()
    assert lm.locks_granted == 2


def test_total_locks_and_entities_locked_by(lm):
    lm.acquire(1, 7, LockMode.SHARE)
    lm.acquire(2, 7, LockMode.SHARE)
    lm.acquire(1, 9, LockMode.EXCLUSIVE)
    assert lm.total_locks_held() == 3
    assert sorted(lm.entities_locked_by(1)) == [7, 9]


# ---------------------------------------------------------------------------
# Deadlock detection
# ---------------------------------------------------------------------------

def test_two_transaction_deadlock_aborts_requester(lm):
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    lm.acquire(2, 200, LockMode.EXCLUSIVE)
    lm.acquire(1, 200, LockMode.EXCLUSIVE)  # 1 waits for 2
    event = lm.acquire(2, 100, LockMode.EXCLUSIVE)  # closes the cycle
    assert event.triggered and not event.ok
    assert isinstance(event.value, DeadlockError)
    assert lm.deadlocks == 1


def test_three_transaction_deadlock(lm):
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    lm.acquire(2, 200, LockMode.EXCLUSIVE)
    lm.acquire(3, 300, LockMode.EXCLUSIVE)
    lm.acquire(1, 200, LockMode.EXCLUSIVE)
    lm.acquire(2, 300, LockMode.EXCLUSIVE)
    event = lm.acquire(3, 100, LockMode.EXCLUSIVE)
    assert event.triggered and not event.ok


def test_deadlock_callback_invoked(env):
    victims = []
    lm = LockManager(env, on_deadlock=lambda txn, entity:
                     victims.append((txn, entity)))
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    lm.acquire(2, 200, LockMode.EXCLUSIVE)
    lm.acquire(1, 200, LockMode.EXCLUSIVE)
    lm.acquire(2, 100, LockMode.EXCLUSIVE)
    assert victims == [(2, 100)]


def test_no_false_deadlock_on_simple_wait(lm):
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    event = lm.acquire(2, 100, LockMode.EXCLUSIVE)
    assert not event.triggered
    assert lm.deadlocks == 0


def test_wait_chain_is_not_deadlock(lm):
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    lm.acquire(2, 100, LockMode.EXCLUSIVE)
    lm.acquire(3, 100, LockMode.EXCLUSIVE)
    assert lm.deadlocks == 0


def test_deadlock_through_waiter_edge(lm):
    """Deadlock must consider waiters ahead in the queue, not just holders."""
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    lm.acquire(2, 100, LockMode.EXCLUSIVE)   # 2 waits for 1
    lm.acquire(2, 200, LockMode.EXCLUSIVE) if False else None
    # txn 1 now requests an entity held by nobody but waited on by 2?  Build
    # the classic case through a second entity instead:
    lm.acquire(3, 200, LockMode.EXCLUSIVE)
    lm.acquire(1, 200, LockMode.EXCLUSIVE)   # 1 waits for 3
    event = lm.acquire(3, 100, LockMode.EXCLUSIVE)  # 3 -> holder 1 and waiter 2
    assert event.triggered and not event.ok  # cycle 3 -> 1 -> 3


def test_grant_preserves_incoming_wait_edges(env, lm):
    """Regression (found by protocol fuzzing): granting a queued waiter
    must not erase the edges of transactions queued behind it, or a
    subsequent cycle through the new holder goes undetected."""
    # T3 holds e1 (share); T2 queues for X; T1 queues behind T2.
    lm.acquire(3, 100, LockMode.SHARE)
    lm.acquire(2, 100, LockMode.EXCLUSIVE)
    lm.acquire(1, 100, LockMode.SHARE)
    # T1 separately holds e2.
    lm.acquire(1, 200, LockMode.SHARE)
    # T3 commits: T2 is granted e1; T1 still waits (now on T2).
    lm.release_all(3)
    env.run()
    assert lm.is_held_by(100, 2)
    assert not lm.is_held_by(100, 1)
    # T2 now requests e2 (held by T1): cycle T2 -> T1 -> T2.
    event = lm.acquire(2, 200, LockMode.EXCLUSIVE)
    assert event.triggered and not event.ok
    assert isinstance(event.value, DeadlockError)


def test_release_all_clears_waits_for(env, lm):
    lm.acquire(1, 100, LockMode.EXCLUSIVE)
    lm.acquire(2, 100, LockMode.EXCLUSIVE)
    lm.release_all(2)  # drops its queued request too
    # Now 1 -> nothing; a request from 1 on a free entity cannot deadlock.
    event = lm.acquire(1, 200, LockMode.EXCLUSIVE)
    assert event.triggered and event.ok


# ---------------------------------------------------------------------------
# Coherence field
# ---------------------------------------------------------------------------

def test_coherence_increment_decrement(lm):
    lm.increment_coherence(50)
    lm.increment_coherence(50)
    assert lm.coherence_count(50) == 2
    lm.decrement_coherence(50)
    assert lm.coherence_count(50) == 1


def test_coherence_underflow_raises(lm):
    with pytest.raises(LockError):
        lm.decrement_coherence(50)


def test_coherence_zero_for_unknown_entity(lm):
    assert lm.coherence_count(12345) == 0


def test_coherence_keeps_lock_record_alive(lm):
    lm.acquire(1, 50, LockMode.EXCLUSIVE)
    lm.increment_coherence(50)
    lm.release(1, 50)
    assert lm.lock_for(50) is not None  # coherence count pins the record
    lm.decrement_coherence(50)
    assert lm.lock_for(50) is None


def test_check_authentication_granted_when_counts_zero(lm):
    assert lm.check_authentication([1, 2, 3]) is \
        AuthenticationStatus.GRANTED


def test_check_authentication_negative_with_inflight_update(lm):
    lm.increment_coherence(2)
    assert lm.check_authentication([1, 2, 3]) is \
        AuthenticationStatus.NEGATIVE


# ---------------------------------------------------------------------------
# Forced grant (authentication phase)
# ---------------------------------------------------------------------------

def test_force_grant_free_entity(lm):
    evicted = lm.force_grant(99, 7, LockMode.EXCLUSIVE)
    assert evicted == []
    assert lm.is_held_by(7, 99)


def test_force_grant_evicts_incompatible_holder(lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    evicted = lm.force_grant(99, 7, LockMode.EXCLUSIVE)
    assert evicted == [1]
    assert lm.is_held_by(7, 99)
    assert not lm.is_held_by(7, 1)


def test_force_grant_share_keeps_compatible_sharers(lm):
    lm.acquire(1, 7, LockMode.SHARE)
    lm.acquire(2, 7, LockMode.SHARE)
    evicted = lm.force_grant(99, 7, LockMode.SHARE)
    assert evicted == []
    assert lm.is_held_by(7, 1) and lm.is_held_by(7, 2)
    assert lm.is_held_by(7, 99)


def test_force_grant_exclusive_evicts_all_sharers(lm):
    lm.acquire(1, 7, LockMode.SHARE)
    lm.acquire(2, 7, LockMode.SHARE)
    evicted = lm.force_grant(99, 7, LockMode.EXCLUSIVE)
    assert sorted(evicted) == [1, 2]


def test_force_grant_does_not_wake_fifo_waiters(env, lm):
    lm.acquire(1, 7, LockMode.EXCLUSIVE)
    waiter = lm.acquire(2, 7, LockMode.EXCLUSIVE)
    lm.force_grant(99, 7, LockMode.EXCLUSIVE)
    env.run()
    assert not waiter.triggered  # still queued behind the authenticator


def test_force_grant_counter(lm):
    lm.force_grant(99, 7, LockMode.EXCLUSIVE)
    assert lm.forced_grants == 1
