"""Chaos smokes for the non-default commit protocols.

The optimistic path's fault behaviour is covered by
``test_chaos_smoke.py``; these runs put the alternative protocols
through the same central-outage-with-failover scenario (invariant
checker attached -- a breach raises) and assert each protocol's own
recovery story:

* **2PC** -- transactions blocked on the dead coordinator's vote are
  resolved on takeover (refused votes, re-prepare against the standby).
* **epoch** -- the in-flight epoch batch is re-sent to the standby,
  deduplicated against the shipped log and acknowledged, completing the
  parked group commits.

Both must remain bit-reproducible under fault injection.
"""

import pytest

from repro.core import STRATEGIES
from repro.hybrid import HybridSystem, paper_config
from repro.hybrid.checker import attach_checker
from repro.sim.faults import RetryPolicy, failover_outage_plan

WARMUP = 5.0
MEASURE = 45.0

#: Retry policy quick enough for the short smoke horizon (mirrors
#: test_chaos_smoke.RETRY).
RETRY = RetryPolicy(message_timeout=0.5, backoff=2.0,
                    max_message_timeout=2.0, shipment_timeout=1.0,
                    shipment_attempts=2, snapshot_max_age=5.0)


def run_failover(protocol: str):
    plan = failover_outage_plan(warmup_time=WARMUP, measure_time=MEASURE,
                                retry=RETRY)
    config = paper_config(total_rate=22.0, warmup_time=WARMUP,
                          measure_time=MEASURE, seed=29,
                          protocol=protocol)
    system = HybridSystem(config, STRATEGIES["static-optimal"](config),
                          fault_plan=plan)
    checker = attach_checker(system)
    result = system.run()  # raises InvariantViolation on any breach
    return system, checker, result


@pytest.fixture(scope="module")
def twophase_failover():
    return run_failover("2pc")


@pytest.fixture(scope="module")
def epoch_failover():
    return run_failover("epoch")


def test_2pc_blocked_transactions_resolve_on_takeover(twophase_failover):
    """The defining 2PC liability, exercised end to end: prepares sent
    into the outage block until the standby takes over, then resolve as
    refused votes and re-prepare."""
    system, checker, result = twophase_failover
    assert system.standby is not None and system.standby.is_active
    assert result.failover_takeovers == 1
    counters = result.protocol_counters
    # Transactions actually blocked on the dead coordinator and were
    # resolved by the takeover (not by a timeout: 2PC has no watchdog).
    assert counters.get("blocked-resolved", 0) > 0
    assert counters["vote-refused"] >= counters["blocked-resolved"]
    # The protocol kept committing before and after the outage.
    assert counters["decision-commit"] > 100
    assert result.throughput > 1.0
    # No outage-window transaction is still in doubt: anything blocked
    # at the horizon is recent steady-state work (prepared within the
    # last round trip), not a survivor of the dead coordinator.
    (episode,) = system.fault_plan.episodes
    for site in system.sites:
        hooks = site.hooks
        for txn_id in hooks._indoubt | set(hooks._pending_votes):
            txn = site.active[txn_id]
            assert txn.arrival_time > episode.end, (
                f"txn {txn_id} blocked since the outage "
                f"({episode.start:.1f}..{episode.end:.1f}s)")
    assert checker.stats.completions_checked > 100


def test_2pc_prepare_vote_decision_accounting(twophase_failover):
    """Message-round bookkeeping stays conserved through the outage:
    every vote answers a prepare, every decision follows a granted
    vote (the difference is prepares lost with the dead coordinator)."""
    _system, _checker, result = twophase_failover
    counters = result.protocol_counters
    granted = counters.get("prepare-granted", 0)
    refused = counters.get("prepare-refused", 0)
    assert counters["prepare-sent"] >= granted + refused
    assert counters["vote-granted"] <= granted
    assert counters["decision-commit"] <= counters["vote-granted"]


def test_epoch_inflight_batches_replay_to_standby(epoch_failover):
    """Group commits parked on the in-flight epoch survive the outage:
    the batch replays to the standby and the ack completes them."""
    system, checker, result = epoch_failover
    assert system.standby is not None and system.standby.is_active
    assert result.failover_takeovers == 1
    counters = result.protocol_counters
    # Epochs kept closing (primary before, standby after takeover).
    assert counters["epoch-flush"] > 50
    assert counters["epoch-batch"] > 50
    assert counters["group-commit"] > 50
    # Every outage-window group commit was eventually acknowledged:
    # anything still awaiting an ack at the horizon is the current
    # epoch's in-flight batch, not a survivor of the outage.
    (episode,) = system.fault_plan.episodes
    for site in system.sites:
        for batch in site.hooks._awaiting_ack.values():
            for txn in batch:
                assert txn.arrival_time > episode.end, (
                    f"txn {txn.txn_id} parked since the outage "
                    f"({episode.start:.1f}..{episode.end:.1f}s)")
    assert result.throughput > 1.0
    assert checker.stats.completions_checked > 100


def test_epoch_standby_ticks_only_after_takeover(epoch_failover):
    """Before takeover the standby's epoch ticker idles (it only
    replays the shipped log); afterwards it sequences epochs itself --
    so the active standby has applied real batches."""
    system, _checker, result = epoch_failover
    standby = system.standby
    assert standby.is_active
    assert standby.data.total_updates > 0
    # The deposed primary's ticker stopped: its epoch buffers are clear.
    assert system.central.deposed
    assert not system.central.hooks._epoch_updates
    assert not system.central.hooks._epoch_commits


@pytest.mark.parametrize("protocol", ["2pc", "epoch"])
def test_failover_is_reproducible_per_protocol(protocol):
    """Same seed, same plan, same protocol: one sample path."""
    _, _, first = run_failover(protocol)
    _, _, second = run_failover(protocol)
    assert first.engine_events == second.engine_events
    assert first.throughput == second.throughput
    assert first.failover_takeovers == second.failover_takeovers
    assert first.protocol_counters == second.protocol_counters
