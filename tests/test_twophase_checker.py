"""2PC under the invariant checker at the paper's hot operating point.

A master site must never evict an in-doubt holder: its outcome belongs
to the coordinator's vote.  The in-doubt check therefore has to hold at
the instant the authentication is granted.  Evaluated any earlier (say,
before the master's ``instr_auth_master`` CPU burst), a local
transaction that enters its prepare during that burst is evicted and
marked for abort, and its granted vote then commits it anyway -- the
checker's "committed while marked for abort".  Seeds 102 and 107 at
30 txn/s hit that interleaving (107 on its first transaction), and so
does the failover benchmark setup at seed 7001.
"""

import pytest

from repro.experiments import RunSettings, run_single
from repro.hybrid.checker import attach_checker
from repro.sim.faults import resolve_fault_plan

STRATEGY = "min-average-population"
RATE = 30.0
DELAY = 0.2


def run_checked(seed: int, scale: float, plan_name: str | None = None):
    settings = RunSettings(scale=scale, base_seed=seed, protocol="2pc")
    plan = None
    if plan_name is not None:
        plan = resolve_fault_plan(plan_name,
                                  settings.warmup_time * settings.scale,
                                  settings.measure_time * settings.scale)
    # Raises InvariantViolation on any breach.
    return run_single(STRATEGY, RATE, DELAY, settings=settings,
                      fault_plan=plan, instrument=attach_checker)


@pytest.mark.parametrize("seed", [102, 107])
def test_2pc_hot_never_commits_a_marked_transaction(seed):
    result = run_checked(seed, scale=0.25)
    assert result.completed > 0
    assert result.protocol_counters.get("vote-granted", 0) > 0


@pytest.mark.slow
def test_2pc_failover_never_commits_a_marked_transaction():
    result = run_checked(7001, scale=1.0,
                         plan_name="central-outage-failover")
    assert result.failover_takeovers == 1
    assert result.completed > 0
