"""Unit tests for metrics collection (repro.hybrid.metrics)."""

from types import SimpleNamespace

import pytest

from repro.db import (
    LockMode,
    Placement,
    Reference,
    Transaction,
    TransactionClass,
    TransactionKind,
)
from repro.hybrid.metrics import COUNTERS, MetricsCollector
from repro.sim import Environment


def make_txn(txn_class=TransactionClass.A, placement=Placement.LOCAL,
             arrival=0.0):
    txn = Transaction(txn_id=1, txn_class=txn_class, home_site=0,
                      references=(Reference(1, LockMode.EXCLUSIVE),),
                      arrival_time=arrival)
    txn.route(placement)
    txn.begin_run(arrival)
    return txn


def advance(env, to):
    # simple clock move: schedule and run
    env.timeout(to - env.now)
    env.run(until=to)


def freeze(metrics):
    return metrics.freeze(
        total_rate=1.0, comm_delay=0.2, strategy="t", seed=1,
        local_utilizations=[], mean_central_utilization=0.0,
        mean_local_queue_length=0.0, mean_central_queue_length=0.0)


@pytest.fixture
def env():
    return Environment()


def test_warmup_discards_observations(env):
    metrics = MetricsCollector(env, warmup_time=10.0)
    txn = make_txn()
    txn.complete(now=5.0)
    metrics.record_completion(txn)  # env.now == 0 < warmup
    assert metrics.count("completed") == 0
    assert metrics.response_all.count == 0


def test_measuring_flag(env):
    metrics = MetricsCollector(env, warmup_time=10.0)
    assert not metrics.measuring
    advance(env, 10.0)
    assert metrics.measuring


def test_completion_recorded_after_warmup(env):
    metrics = MetricsCollector(env, warmup_time=1.0)
    advance(env, 2.0)
    txn = make_txn(arrival=1.5)
    txn.complete(now=2.0)
    metrics.record_completion(txn)
    assert metrics.count("completed") == 1
    assert metrics.response_all.mean == pytest.approx(0.5)


def test_routing_counts_class_a_only(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    metrics.record_routing(make_txn(TransactionClass.A, Placement.LOCAL))
    metrics.record_routing(make_txn(TransactionClass.A, Placement.SHIPPED))
    metrics.record_routing(make_txn(TransactionClass.B, Placement.CENTRAL))
    assert metrics.count("class_a_arrivals") == 2
    assert metrics.count("class_a_shipped") == 1


def test_abort_causes(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    txn = make_txn()
    metrics.record_abort(txn, "deadlock")
    metrics.record_abort(txn, "local-invalidated")
    metrics.record_abort(txn, "central-invalidated")
    assert metrics.count("aborts_deadlock") == 1
    assert metrics.count("aborts_local_invalidated") == 1
    assert metrics.count("aborts_central_invalidated") == 1
    assert metrics.count("aborts_total") == 3


def test_unknown_abort_cause_rejected(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    with pytest.raises(ValueError):
        metrics.record_abort(make_txn(), "cosmic-ray")


def test_message_counters(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    metrics.record_message(to_central=True)
    metrics.record_message(to_central=True)
    metrics.record_message(to_central=False)
    assert metrics.count("messages_to_central") == 2
    assert metrics.count("messages_to_sites") == 1


def test_freeze_summary(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    advance(env, 1.0)
    local = make_txn(TransactionClass.A, Placement.LOCAL, arrival=0.2)
    local.complete(now=0.7)
    metrics.record_completion(local)
    shipped = make_txn(TransactionClass.A, Placement.SHIPPED, arrival=0.1)
    shipped.complete(now=1.0)
    metrics.record_completion(shipped)
    advance(env, 10.0)
    result = metrics.freeze(
        total_rate=5.0, comm_delay=0.2, strategy="test", seed=1,
        local_utilizations=[0.2, 0.4], mean_central_utilization=0.3,
        mean_local_queue_length=1.0, mean_central_queue_length=2.0)
    assert result.completed == 2
    assert result.mean_response_time == pytest.approx((0.5 + 0.9) / 2)
    assert result.throughput == pytest.approx(0.2)
    assert result.mean_local_utilization == pytest.approx(0.3)
    assert result.response_time_by_kind[TransactionKind.LOCAL_NEW] == \
        pytest.approx(0.5)
    assert result.response_time_by_kind[TransactionKind.SHIPPED_NEW] == \
        pytest.approx(0.9)
    assert result.strategy == "test"


def test_shipped_fraction_empty_is_zero(env):
    metrics = MetricsCollector(env, warmup_time=0.0)
    advance(env, 1.0)
    result = freeze(metrics)
    assert result.shipped_fraction == 0.0
    assert result.abort_rate == 0.0


def test_negative_ack_counter(env):
    metrics = MetricsCollector(env, warmup_time=5.0)
    metrics.record_negative_ack()  # before warmup: ignored
    assert metrics.count("auth_negative_acks") == 0
    advance(env, 6.0)
    metrics.record_negative_ack()
    assert metrics.count("auth_negative_acks") == 1


def test_negative_ack_trace_carries_txn_and_sites(env):
    from repro.sim.trace import Tracer

    tracer = Tracer()
    metrics = MetricsCollector(env, warmup_time=0.0, tracer=tracer)
    txn = make_txn()
    metrics.record_negative_ack(txn, sites=(2, 5))
    record = tracer.records[-1]
    assert record.kind == "negative-ack"
    assert record.details == {"txn": txn.txn_id, "sites": (2, 5)}


def test_record_message_emits_trace_details(env):
    from repro.sim.trace import Tracer

    tracer = Tracer()
    metrics = MetricsCollector(env, warmup_time=0.0, tracer=tracer)
    metrics.record_message(to_central=True, kind="txn", site=3)
    metrics.record_message(to_central=False, kind="auth-reply", site=1)
    first, second = tracer.records[-2:]
    assert first.kind == "message"
    assert first.details == {"direction": "to-central", "message": "txn",
                             "site": 3}
    assert second.details["direction"] == "to-site"
    assert second.details["message"] == "auth-reply"


# -- counter round trip ------------------------------------------------------

MESSAGE = SimpleNamespace(kind="txn")

#: ``(hook firing, the counter fields it moves)``; every counter field of
#: ``SimulationResult`` must appear in at least one row.
HOOKS = [
    (lambda m: m.record_completion(completed_txn()), {"completed"}),
    (lambda m: m.record_routing(make_txn(TransactionClass.A)),
     {"class_a_arrivals"}),
    (lambda m: m.record_routing(make_txn(TransactionClass.A,
                                         Placement.SHIPPED)),
     {"class_a_arrivals", "class_a_shipped"}),
    (lambda m: m.record_abort(make_txn(), "deadlock"),
     {"aborts_total", "aborts_deadlock"}),
    (lambda m: m.record_abort(make_txn(), "local-invalidated"),
     {"aborts_total", "aborts_local_invalidated"}),
    (lambda m: m.record_abort(make_txn(), "central-invalidated"),
     {"aborts_total", "aborts_central_invalidated"}),
    (lambda m: m.record_negative_ack(), {"auth_negative_acks"}),
    (lambda m: m.record_message(to_central=True), {"messages_to_central"}),
    (lambda m: m.record_message(to_central=False), {"messages_to_sites"}),
    (lambda m: m.record_timeout(make_txn()), {"txns_timed_out"}),
    (lambda m: m.record_failover(make_txn()), {"txns_failed_over"}),
    (lambda m: m.record_failure(make_txn(), "cancelled"), {"txns_failed"}),
    (lambda m: m.record_cancelled(make_txn()), {"txns_cancelled_central"}),
    (lambda m: m.record_fallback_routing(make_txn(), "suspected"),
     {"fallback_routings"}),
    (lambda m: m.record_rejected_arrival(make_txn()), {"arrivals_rejected"}),
    (lambda m: m.record_drop(MESSAGE), {"messages_dropped"}),
    (lambda m: m.record_retransmit(MESSAGE), {"messages_retransmitted"}),
    (lambda m: m.record_duplicate(MESSAGE), {"duplicate_messages"}),
    (lambda m: m.record_fault("crash", "apply", site=0), {"fault_events"}),
    (lambda m: m.record_shed(make_txn(), "site-0"), {"arrivals_shed"}),
    (lambda m: m.record_lost_in_crash(make_txn()), {"txns_lost_in_crash"}),
    (lambda m: m.record_deadline_cancel(make_txn()),
     {"txns_deadline_cancelled"}),
    (lambda m: m.record_reship(make_txn()), {"txns_reshipped"}),
    (lambda m: m.record_breaker(0, "open"), {"breaker_transitions"}),
]

#: Counted from simulation start, not from the end of warm-up.
UNGATED = {"fault_events", "breaker_transitions"}


def completed_txn():
    txn = make_txn()
    txn.complete(now=0.0)
    return txn


def registry_count(snapshot, spec):
    """The snapshot value of a counter declaration (summed for totals)."""
    if spec.label_values is None:
        return sum(value for key, value in snapshot.items()
                   if key.startswith(spec.family + "{"))
    key = spec.family
    if spec.label_names:
        key += "{" + ",".join(
            f"{name}={value}" for name, value
            in zip(spec.label_names, spec.label_values)) + "}"
    return snapshot[key]


def test_every_counter_field_has_a_hook():
    assert set().union(*(moved for _, moved in HOOKS)) == set(COUNTERS)


@pytest.mark.parametrize("fire, moved", HOOKS,
                         ids=["+".join(sorted(moved)) for _, moved in HOOKS])
def test_counter_round_trip(env, fire, moved):
    metrics = MetricsCollector(env, warmup_time=0.0)
    fire(metrics)
    result = freeze(metrics)
    for name, spec in COUNTERS.items():
        expected = 1 if name in moved else 0
        assert getattr(result, name) == expected, name
        assert metrics.count(name) == expected, name
        assert registry_count(result.metrics, spec) == expected, name


@pytest.mark.parametrize("fire, moved", HOOKS,
                         ids=["+".join(sorted(moved)) for _, moved in HOOKS])
def test_counters_before_warmup(env, fire, moved):
    metrics = MetricsCollector(env, warmup_time=5.0)
    fire(metrics)
    result = freeze(metrics)
    for name in COUNTERS:
        expected = 1 if name in moved & UNGATED else 0
        assert getattr(result, name) == expected, name


def test_protocol_counters_read_the_registry(env):
    metrics = MetricsCollector(env, warmup_time=5.0)
    for event in ("prepare-sent", "vote-granted", "prepare-sent"):
        metrics.record_protocol_event(event)
    result = freeze(metrics)
    assert result.protocol_counters == {"prepare-sent": 2,
                                        "vote-granted": 1}
    assert result.metrics["protocol_events{event=prepare-sent}"] == 2
