"""Unit tests for static load sharing and its optimiser."""

import dataclasses

import pytest

from repro.core import (
    StaticRouter,
    optimal_static_router_factory,
    optimize_static,
    static_router_factory,
)
from repro.core.router import RoutingObservation
from repro.core.static import _solve_static
from repro.db import LockMode, Placement, Reference, Transaction, \
    TransactionClass
from repro.hybrid import paper_config
from repro.hybrid.protocol import CentralSnapshot


def make_observation():
    return RoutingObservation(
        now=0.0, site=0, local_queue_length=0, local_n_txns=0,
        local_locks_held=0, shipped_in_flight=0,
        central=CentralSnapshot.empty())


def make_txn():
    return Transaction(txn_id=1, txn_class=TransactionClass.A, home_site=0,
                       references=(Reference(1, LockMode.EXCLUSIVE),),
                       arrival_time=0.0)


# ---------------------------------------------------------------------------
# Optimiser
# ---------------------------------------------------------------------------

def test_low_rate_optimum_is_no_shipping():
    optimum = optimize_static(paper_config(total_rate=3.0))
    assert optimum.p_ship == pytest.approx(0.0, abs=0.05)


def test_moderate_rate_ships_substantially():
    optimum = optimize_static(paper_config(total_rate=20.0))
    assert 0.4 <= optimum.p_ship <= 0.9


def test_optimal_fraction_rises_then_falls():
    """The Figure 4.3 shape: rising to a peak, then declining."""
    fractions = [optimize_static(paper_config(total_rate=rate)).p_ship
                 for rate in (5.0, 15.0, 25.0, 35.0)]
    assert fractions[0] < 0.1
    assert fractions[1] > fractions[0]
    peak = max(fractions)
    assert fractions[-1] < peak  # declines once central saturates


def test_optimum_beats_endpoints():
    config = paper_config(total_rate=20.0)
    optimum = optimize_static(config)
    # The optimal average RT is no worse than either pure policy.
    assert optimum.response_average <= optimum.grid_responses[0] + 1e-9
    assert optimum.response_average <= optimum.grid_responses[-1] + 1e-9


def test_grid_shape():
    optimum = optimize_static(paper_config(total_rate=10.0),
                              grid_points=11, refine=False)
    assert len(optimum.grid) == 11
    assert len(optimum.grid_responses) == 11
    assert optimum.grid[0] == 0.0 and optimum.grid[-1] == 1.0


def test_refinement_not_worse():
    config = paper_config(total_rate=20.0)
    coarse = optimize_static(config, grid_points=11, refine=False)
    refined = optimize_static(config, grid_points=11, refine=True)
    assert refined.response_average <= coarse.response_average + 1e-9


def test_optimizer_validates_grid():
    config = paper_config(total_rate=10.0)
    for _ in range(2):  # a failed solve is not memoised
        with pytest.raises(ValueError):
            optimize_static(config, grid_points=2)


def test_optimizer_memo_ignores_only_the_seed():
    _solve_static.cache_clear()
    base = paper_config(total_rate=12.0, seed=1)
    first = optimize_static(base)
    again = optimize_static(dataclasses.replace(base, seed=2))
    assert again is first
    assert _solve_static.cache_info().misses == 1
    assert _solve_static.cache_info().hits == 1

    optimize_static(dataclasses.replace(base, comm_delay=0.5))
    optimize_static(base, rate_per_site=1.3)
    assert _solve_static.cache_info().misses == 3


def test_optimizer_memo_matches_an_uncached_solve():
    config = paper_config(total_rate=20.0, seed=99)
    optimize_static(config)
    cached = optimize_static(dataclasses.replace(config, seed=7))
    fresh = _solve_static.__wrapped__(
        dataclasses.replace(config, seed=0),
        config.workload.arrival_rate_per_site, 41, True)
    assert cached is not fresh
    for field in dataclasses.fields(fresh):
        assert getattr(cached, field.name) == getattr(fresh, field.name)


def test_larger_delay_ships_less_at_moderate_load():
    near = optimize_static(paper_config(total_rate=15.0, comm_delay=0.2))
    far = optimize_static(paper_config(total_rate=15.0, comm_delay=0.5))
    assert far.p_ship <= near.p_ship + 1e-9


# ---------------------------------------------------------------------------
# StaticRouter
# ---------------------------------------------------------------------------

def test_router_probability_zero_never_ships():
    router = StaticRouter(0.0, seed=1, site=0)
    decisions = [router.decide(make_txn(), make_observation())
                 for _ in range(200)]
    assert all(d is Placement.LOCAL for d in decisions)


def test_router_probability_one_always_ships():
    router = StaticRouter(1.0, seed=1, site=0)
    decisions = [router.decide(make_txn(), make_observation())
                 for _ in range(200)]
    assert all(d is Placement.SHIPPED for d in decisions)


def test_router_fraction_matches_probability():
    router = StaticRouter(0.3, seed=5, site=2)
    shipped = sum(
        1 for _ in range(5000)
        if router.decide(make_txn(), make_observation()) is
        Placement.SHIPPED)
    assert shipped / 5000 == pytest.approx(0.3, abs=0.03)


def test_router_deterministic_per_seed_and_site():
    def decisions(seed, site):
        router = StaticRouter(0.5, seed=seed, site=site)
        return [router.decide(make_txn(), make_observation())
                for _ in range(50)]

    assert decisions(1, 0) == decisions(1, 0)
    assert decisions(1, 0) != decisions(1, 1)
    assert decisions(1, 0) != decisions(2, 0)


def test_router_validates_probability():
    with pytest.raises(ValueError):
        StaticRouter(1.5, seed=1, site=0)


def test_factory_builds_per_site_routers():
    config = paper_config(total_rate=10.0)
    factory = static_router_factory(0.4)
    router_a = factory(config, 0)
    router_b = factory(config, 1)
    assert router_a is not router_b
    assert router_a.p_ship == router_b.p_ship == 0.4


def test_optimal_factory_embeds_optimum():
    config = paper_config(total_rate=20.0)
    factory = optimal_static_router_factory(config)
    router = factory(config, 0)
    expected = optimize_static(config).p_ship
    assert router.p_ship == pytest.approx(expected)


def test_router_name_carries_probability():
    assert "0.250" in StaticRouter(0.25, seed=0, site=0).name
