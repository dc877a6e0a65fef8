"""Output-analysis statistics for simulation runs.

The estimators here implement the standard machinery of a credible
simulation study:

* :class:`RunningStat` -- Welford accumulator for means/variances of
  observation streams (response times, abort counts).
* :class:`TimeWeightedStat` -- time-integral averages for state variables
  (queue lengths, number in system, utilisation).
* :class:`BatchMeans` -- batch-means confidence intervals from a single
  long run (used after warm-up deletion).
* :class:`ReplicationSummary` -- t-based confidence intervals across
  independent replications (used by the experiment harness), optionally
  tightened by a jackknifed linear control-variate adjustment
  (:meth:`ReplicationSummary.adjusted_interval`).
* :func:`paired_difference` -- paired-t estimation of a strategy-vs-
  strategy delta when both strategies ran on common random numbers.
* :class:`IntervalEstimate` -- a point estimate plus half-width.

All confidence intervals use the Student-t quantile
(:func:`scipy.special.stdtrit`, imported on first use so that a single
simulation never loads scipy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "RunningStat",
    "TimeWeightedStat",
    "BatchMeans",
    "ReplicationSummary",
    "IntervalEstimate",
    "ControlVariateEstimate",
    "PairedDifference",
    "paired_difference",
    "control_variate_interval",
]


@dataclass(frozen=True)
class IntervalEstimate:
    """A point estimate with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    n: int

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    @property
    def relative_half_width(self) -> float:
        """Half-width as a fraction of the mean (``inf`` for zero mean)."""
        if self.mean == 0:
            return math.inf
        return abs(self.half_width / self.mean)

    def __str__(self) -> str:
        return (f"{self.mean:.4g} +/- {self.half_width:.2g} "
                f"({self.confidence:.0%}, n={self.n})")


def _t_quantile(confidence: float, df: int) -> float:
    """Two-sided Student-t quantile ``t_{(1 + confidence) / 2, df}``.

    Bit-identical to ``scipy.stats.t.ppf`` (whose ``_ppf`` is this same
    ``stdtrit`` call), without importing ``scipy.stats``.
    """
    from scipy.special import stdtrit
    return float(stdtrit(df, 0.5 + confidence / 2.0))


def _t_half_width(std: float, n: int, confidence: float) -> float:
    if n < 2 or std == 0.0:
        return 0.0
    return _t_quantile(confidence, n - 1) * std / math.sqrt(n)


@dataclass(frozen=True)
class PairedDifference:
    """Paired-t estimate of ``mean(a) - mean(b)`` across replications.

    The point estimate equals the difference of the two sample means
    *exactly* (an algebraic identity of pairing), so pairing never
    biases the delta -- it only changes the half-width.  When the two
    strategies ran on common random numbers their per-replication
    outputs are positively correlated and ``interval`` is far tighter
    than ``unpaired`` (the CI the same data would give under the
    independent-streams assumption); on genuinely independent streams
    the two agree in expectation.
    """

    interval: IntervalEstimate
    #: The same point estimate judged as if the streams were
    #: independent: ``var(a)/m + var(b)/m`` with ``m-1`` df.
    unpaired: IntervalEstimate
    #: ``var_unpaired / var_paired`` of the delta estimator -- how many
    #: times fewer replications pairing needs for the same precision
    #: (``inf`` when the paired differences have zero variance).
    variance_reduction: float
    n_pairs: int


def paired_difference(a: Sequence[float], b: Sequence[float],
                      confidence: float = 0.95) -> PairedDifference:
    """Estimate ``mean(a) - mean(b)`` pairing replication ``r`` with ``r``.

    Pairs up to ``min(len(a), len(b))`` observations (adaptive runs may
    have replicated the two points unequally; the common prefix is the
    paired part).  Raises on fewer than two pairs -- no variance
    information exists below that.
    """
    m = min(len(a), len(b))
    if m < 2:
        raise ValueError(f"need at least 2 paired replications, got {m}")
    a_stat, b_stat, d_stat = RunningStat(), RunningStat(), RunningStat()
    for x, y in zip(list(a)[:m], list(b)[:m]):
        a_stat.add(x)
        b_stat.add(y)
        d_stat.add(x - y)
    paired = IntervalEstimate(
        d_stat.mean, _t_half_width(d_stat.std, m, confidence),
        confidence, m)
    unpaired_var = (a_stat.variance + b_stat.variance) / m
    unpaired = IntervalEstimate(
        d_stat.mean,
        _t_quantile(confidence, m - 1) * math.sqrt(max(unpaired_var, 0.0)),
        confidence, m)
    var_sum = a_stat.variance + b_stat.variance
    if d_stat.variance > 0.0:
        reduction = var_sum / d_stat.variance
    else:
        reduction = math.inf if var_sum > 0.0 else 1.0
    return PairedDifference(interval=paired, unpaired=unpaired,
                            variance_reduction=reduction, n_pairs=m)


@dataclass(frozen=True)
class ControlVariateEstimate:
    """Outcome of a control-variate adjustment attempt.

    ``interval`` is the estimate to *use*: the jackknifed
    regression-adjusted interval when the adjustment engaged and
    actually tightened the CI, otherwise the plain cross-replication
    interval (``used`` records which).  ``variance_reduction`` is
    ``var(plain mean) / var(adjusted mean)`` -- 1.0 whenever the
    adjustment was skipped or rejected.
    """

    interval: IntervalEstimate
    plain: IntervalEstimate
    variance_reduction: float
    used: bool
    #: Covariates that entered the regression (after dropping
    #: zero-variance columns); empty when the adjustment was skipped.
    covariates: tuple[str, ...] = ()


def _cv_theta(y: np.ndarray, centered: np.ndarray) -> float:
    """Regression-adjusted mean of ``y`` given mean-deviation columns.

    ``centered[r, j]`` is covariate ``j``'s observed value in
    replication ``r`` minus its *known* expectation.  Least squares via
    ``lstsq`` tolerates exactly collinear covariate columns (e.g. a
    summed-demand column that is a multiple of the arrival counts): any
    minimum-norm coefficient vector yields the same adjusted mean.
    """
    deviation = centered - centered.mean(axis=0)
    beta, *_ = np.linalg.lstsq(deviation, y - y.mean(), rcond=None)
    return float(y.mean() - centered.mean(axis=0) @ beta)


def control_variate_interval(
        values: Sequence[float],
        covariates: Sequence[Mapping[str, tuple[float, float]]],
        confidence: float = 0.95) -> ControlVariateEstimate:
    """Jackknifed linear control-variate interval for the mean.

    ``covariates[r]`` maps covariate names to ``(observed, expected)``
    pairs for replication ``r``; the expectations must be analytically
    known (Poisson arrival counts, deterministic demand sums, the
    analytic model's plug-in prediction).  The regression coefficient is
    estimated from the same replications it adjusts, which biases the
    naive estimator; the jackknife (leave-one-out pseudo-values, the
    Lavenberg-Welch construction) removes that first-order bias and
    yields an honest t-interval on the pseudo-values.

    Safety guards -- control variates can *inflate* variance when
    replications are few or the covariate correlation is weak:

    * covariate columns with zero sample variance are dropped;
    * with fewer than ``k + 3`` replications, where ``k`` is the *rank*
      of the centred covariate matrix (exactly collinear columns --
      e.g. a demand sum that is a multiple of the arrival counts -- do
      not consume degrees of freedom), the regression is not attempted
      (returns the plain interval);
    * if the jackknife half-width is not strictly tighter than the
      plain one, the plain interval is returned (``used=False``).
    """
    n = len(values)
    stat = RunningStat()
    stat.extend(values)
    plain = IntervalEstimate(
        stat.mean, _t_half_width(stat.std if stat.std == stat.std else 0.0,
                                 n, confidence), confidence, n)

    def fallback() -> ControlVariateEstimate:
        return ControlVariateEstimate(interval=plain, plain=plain,
                                      variance_reduction=1.0, used=False)

    if n < 3 or len(covariates) != n:
        return fallback()
    names = sorted(set.intersection(*(set(row) for row in covariates)))
    if not names:
        return fallback()
    y = np.asarray(list(values), dtype=float)
    observed = np.array([[row[name][0] for name in names]
                         for row in covariates], dtype=float)
    expected = np.array([[row[name][1] for name in names]
                         for row in covariates], dtype=float)
    if not (np.isfinite(y).all() and np.isfinite(observed).all()
            and np.isfinite(expected).all()):
        return fallback()
    keep = [j for j in range(len(names))
            if float(observed[:, j].std()) > 0.0]
    if not keep:
        return fallback()
    names = tuple(names[j] for j in keep)
    centered = observed[:, keep] - expected[:, keep]
    rank = int(np.linalg.matrix_rank(centered - centered.mean(axis=0)))
    if rank < 1 or n < rank + 3:
        return fallback()

    theta = _cv_theta(y, centered)
    index = np.arange(n)
    pseudo = np.empty(n)
    for r in range(n):
        rest = index != r
        theta_r = _cv_theta(y[rest], centered[rest])
        pseudo[r] = n * theta - (n - 1) * theta_r
    mean = float(pseudo.mean())
    std = float(pseudo.std(ddof=1))
    if not (math.isfinite(mean) and math.isfinite(std)):
        return fallback()
    half = _t_half_width(std, n, confidence)
    if half <= 0.0 or half >= plain.half_width:
        return fallback()
    adjusted = IntervalEstimate(mean, half, confidence, n)
    reduction = (plain.half_width / half) ** 2 \
        if plain.half_width > 0.0 else 1.0
    return ControlVariateEstimate(interval=adjusted, plain=plain,
                                  variance_reduction=reduction,
                                  used=True, covariates=names)


class RunningStat:
    """Welford's online mean/variance accumulator.

    Numerically stable for long observation streams, O(1) memory.
    """

    def __init__(self) -> None:
        self._n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self._min = math.inf
        self._max = -math.inf

    def add(self, value: float) -> None:
        self._n += 1
        delta = value - self._mean
        self._mean += delta / self._n
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def extend(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "RunningStat") -> "RunningStat":
        """Combine two accumulators (parallel Welford merge)."""
        merged = RunningStat()
        n = self._n + other._n
        if n == 0:
            return merged
        delta = other._mean - self._mean
        merged._n = n
        merged._mean = self._mean + delta * other._n / n
        merged._m2 = (self._m2 + other._m2 +
                      delta * delta * self._n * other._n / n)
        merged._min = min(self._min, other._min)
        merged._max = max(self._max, other._max)
        return merged

    @property
    def count(self) -> int:
        return self._n

    @property
    def mean(self) -> float:
        return self._mean if self._n else math.nan

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self._n < 2:
            return math.nan
        return self._m2 / (self._n - 1)

    @property
    def std(self) -> float:
        var = self.variance
        return math.sqrt(var) if var == var else math.nan

    @property
    def minimum(self) -> float:
        return self._min if self._n else math.nan

    @property
    def maximum(self) -> float:
        return self._max if self._n else math.nan

    def interval(self, confidence: float = 0.95) -> IntervalEstimate:
        """Confidence interval treating observations as i.i.d.

        For autocorrelated within-run data prefer :class:`BatchMeans`.
        """
        std = self.std
        half = _t_half_width(std if std == std else 0.0, self._n, confidence)
        return IntervalEstimate(self.mean, half, confidence, self._n)


class TimeWeightedStat:
    """Time-average of a piecewise-constant state variable.

    Call :meth:`record` whenever the tracked quantity changes; the mean is
    the integral of the level over time divided by elapsed time.
    """

    def __init__(self, initial_time: float = 0.0, initial_level: float = 0.0):
        self._start = initial_time
        self._last_time = initial_time
        self._level = initial_level
        self._integral = 0.0
        self._peak = initial_level

    def record(self, now: float, level: float) -> None:
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now} < {self._last_time}")
        self._integral += self._level * (now - self._last_time)
        self._last_time = now
        self._level = level
        if level > self._peak:
            self._peak = level

    def reset(self, now: float) -> None:
        """Restart integration at ``now`` keeping the current level."""
        self._start = now
        self._last_time = now
        self._integral = 0.0
        self._peak = self._level

    @property
    def level(self) -> float:
        return self._level

    @property
    def peak(self) -> float:
        return self._peak

    def mean(self, now: float) -> float:
        """Time-average level over ``[start, now]``."""
        elapsed = now - self._start
        if elapsed <= 0:
            return self._level
        total = self._integral + self._level * (now - self._last_time)
        return total / elapsed


class BatchMeans:
    """Batch-means interval estimation from one long (post-warm-up) run.

    Observations are grouped into ``n_batches`` contiguous batches; batch
    averages are approximately independent for long batches, so a t-based
    interval over them is valid despite within-run autocorrelation.
    """

    def __init__(self, n_batches: int = 20):
        if n_batches < 2:
            raise ValueError("need at least 2 batches")
        self.n_batches = n_batches
        self._values: list[float] = []

    def add(self, value: float) -> None:
        self._values.append(value)

    def extend(self, values: Iterable[float]) -> None:
        self._values.extend(values)

    @property
    def count(self) -> int:
        return len(self._values)

    def batch_averages(self) -> list[float]:
        n = len(self._values)
        if n < self.n_batches:
            raise ValueError(
                f"only {n} observations for {self.n_batches} batches")
        size = n // self.n_batches
        averages = []
        for index in range(self.n_batches):
            start = index * size
            # The last batch absorbs the n % n_batches remainder, so no
            # observation is ever silently discarded.
            end = start + size if index < self.n_batches - 1 else n
            chunk = self._values[start:end]
            averages.append(sum(chunk) / len(chunk))
        return averages

    def interval(self, confidence: float = 0.95) -> IntervalEstimate:
        batches = self.batch_averages()
        stat = RunningStat()
        stat.extend(batches)
        half = _t_half_width(stat.std, len(batches), confidence)
        return IntervalEstimate(stat.mean, half, confidence, len(batches))


class ReplicationSummary:
    """Cross-replication estimator: one observation per independent run.

    :meth:`interval` is memoised per confidence level (the adaptive
    replication scheduler and the report layer both query it repeatedly
    between additions); adding a replication invalidates the cache.

    Replications may carry *control variates* -- quantities observed in
    the same run whose expectations are analytically known (see
    :func:`control_variate_interval`).  :meth:`adjusted_interval` then
    returns the regression-adjusted estimate; without covariates it
    degrades to the plain interval, so callers can use it
    unconditionally.
    """

    def __init__(self) -> None:
        self._per_rep: list[float] = []
        self._covariates: list[Mapping[str, tuple[float, float]]] = []
        self._intervals: dict[float, IntervalEstimate] = {}
        self._adjusted: dict[float, ControlVariateEstimate] = {}

    def add_replication(
            self, value: float,
            covariates: Mapping[str, tuple[float, float]] | None = None,
    ) -> None:
        """Record one replication's output (and optional covariates).

        ``covariates`` maps names to ``(observed, expected)`` pairs;
        only covariates present in *every* replication enter the
        adjustment.
        """
        self._per_rep.append(value)
        self._covariates.append(dict(covariates or {}))
        self._intervals.clear()
        self._adjusted.clear()

    @property
    def replications(self) -> Sequence[float]:
        return tuple(self._per_rep)

    def interval(self, confidence: float = 0.95) -> IntervalEstimate:
        cached = self._intervals.get(confidence)
        if cached is not None:
            return cached
        stat = RunningStat()
        stat.extend(self._per_rep)
        half = _t_half_width(stat.std if stat.std == stat.std else 0.0,
                             stat.count, confidence)
        estimate = IntervalEstimate(stat.mean, half, confidence, stat.count)
        self._intervals[confidence] = estimate
        return estimate

    def adjusted_interval(
            self, confidence: float = 0.95) -> ControlVariateEstimate:
        """Control-variate-adjusted interval (plain when not applicable)."""
        cached = self._adjusted.get(confidence)
        if cached is not None:
            return cached
        estimate = control_variate_interval(
            self._per_rep, self._covariates, confidence=confidence)
        self._adjusted[confidence] = estimate
        return estimate
