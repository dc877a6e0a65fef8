"""Static (probabilistic) load sharing and its optimiser (Section 3.1).

Static load sharing assumes the transaction arrival rates are known: the
analytic model is evaluated over a grid of shipping probabilities and the
``p_ship`` minimising the estimated average response time is selected.
:class:`StaticRouter` then ships each incoming class A transaction with
that fixed probability, independent of system state -- the baseline the
dynamic schemes are judged against in every figure.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from ..db.transaction import Placement, Transaction
from ..hybrid.config import SystemConfig
from .model import AnalyticModel, ModelEstimates
from .router import Router, RoutingObservation

__all__ = ["StaticOptimum", "optimize_static", "StaticRouter",
           "static_router_factory", "optimal_static_router_factory"]


@dataclass(frozen=True)
class StaticOptimum:
    """Result of the static optimisation at one arrival rate."""

    p_ship: float
    response_average: float
    estimates: ModelEstimates
    grid: tuple[float, ...]
    grid_responses: tuple[float, ...]


def optimize_static(config: SystemConfig,
                    rate_per_site: float | None = None,
                    grid_points: int = 41,
                    refine: bool = True) -> StaticOptimum:
    """Find the shipping probability minimising the model's average RT.

    A coarse grid scan (robust to the flat/multimodal overload region) is
    optionally refined with a finer scan around the best coarse point.

    The analytic model never reads ``config.seed``, so the solve is
    memoised per seed-free configuration: every replication of one
    operating point shares a single solve.
    """
    if rate_per_site is None:
        rate_per_site = config.workload.arrival_rate_per_site
    return _solve_static(replace(config, seed=0), rate_per_site,
                         grid_points, refine)


@lru_cache(maxsize=256)
def _solve_static(config: SystemConfig, rate_per_site: float,
                  grid_points: int, refine: bool) -> StaticOptimum:
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    model = AnalyticModel(config)
    grid = np.linspace(0.0, 1.0, grid_points)
    responses = np.array([
        model.evaluate(float(p), rate_per_site).response_average
        for p in grid])
    best_index = int(np.argmin(responses))
    best_p = float(grid[best_index])
    if refine:
        low = float(grid[max(best_index - 1, 0)])
        high = float(grid[min(best_index + 1, grid_points - 1)])
        fine = np.linspace(low, high, 21)
        fine_responses = np.array([
            model.evaluate(float(p), rate_per_site).response_average
            for p in fine])
        fine_index = int(np.argmin(fine_responses))
        if fine_responses[fine_index] < responses[best_index]:
            best_p = float(fine[fine_index])
    estimates = model.evaluate(best_p, rate_per_site)
    return StaticOptimum(
        p_ship=best_p,
        response_average=estimates.response_average,
        estimates=estimates,
        grid=tuple(float(p) for p in grid),
        grid_responses=tuple(float(r) for r in responses),
    )


class StaticRouter(Router):
    """Ship each class A transaction with a fixed probability."""

    def __init__(self, p_ship: float, seed: int, site: int):
        if not 0.0 <= p_ship <= 1.0:
            raise ValueError(f"p_ship out of range: {p_ship}")
        self.p_ship = p_ship
        self.name = f"static(p={p_ship:.3f})"
        # Per-site deterministic stream, independent of the workload RNG.
        self._rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(entropy=seed,
                                   spawn_key=(0x57A71C, site))))

    def decide(self, txn: Transaction,
               observation: RoutingObservation) -> Placement:
        if self.p_ship > 0.0 and self._rng.random() < self.p_ship:
            return Placement.SHIPPED
        return Placement.LOCAL


def static_router_factory(p_ship: float):
    """Factory-of-factories for a fixed shipping probability."""

    def factory(config: SystemConfig, site: int) -> StaticRouter:
        return StaticRouter(p_ship, seed=config.seed, site=site)

    return factory


def optimal_static_router_factory(config: SystemConfig):
    """Optimise ``p_ship`` for the config's arrival rate, then build routers.

    The optimisation runs once (here), not per site: the paper's static
    scheme fixes one probability a priori from the known rates.
    """
    optimum = optimize_static(config)
    return static_router_factory(optimum.p_ship)
