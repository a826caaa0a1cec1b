"""Monte Carlo bookkeeping and goodness-of-fit helpers.

This module owns the statistical plumbing shared by the simulation and
verification code:

* ``MCAccumulator`` -- streaming count/mean/M2 triples with an exact
  parallel merge rule, so replica chunks can be combined in a fixed
  order regardless of how many worker threads produced them.
* ``EmpiricalDistribution`` -- sorted-sample wrapper with ECDF and
  order-statistic quantile queries.
* ``ks_statistic`` / ``ks_threshold`` -- Kolmogorov-Smirnov distance
  against a continuous, vectorised reference CDF, evaluated with both
  one-sided gaps at every sample point, and the asymptotic decision
  thresholds.
* ``empirical_vs_extremal`` -- compares simulated supremum samples with
  the one-dimensional marginal of an extremal process and returns a
  serializable report.
* ``prefix_scan`` -- ``ufunc.accumulate`` along one axis, bit for bit,
  by rows where the rows are wide enough to pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MCAccumulator",
    "merge",
    "EmpiricalDistribution",
    "ks_statistic",
    "ks_threshold",
    "KSReport",
    "empirical_vs_extremal",
    "prefix_scan",
]

# From this many entries per row on, prefix_scan loops over the rows.
# Along the strided axis, ufunc.accumulate takes 3.5-10 ns per entry
# for bitwise_xor and maximum and 34-48 ns for logaddexp at any width
# from 128 up; one row operation per step takes 0.5-1.1 and 15-23 ns per
# entry at widths 2500-4000, but 120-165 ns at width 10 (numpy 2.4, one
# core, 4 to 20 rows).  The two cross between widths 64 and 256.
_SCAN_ROW_WIDTH = 128


@dataclass
class MCAccumulator:
    """Streaming mean/variance accumulator (count, mean, M2).

    M2 is the sum of squared deviations from the running mean, so
    ``variance = M2 / (count - 1)``.  Merging two accumulators with the
    parallel combination rule is exact up to floating-point roundoff,
    which lets chunked Monte Carlo runs be reduced deterministically:
    merge chunk results in chunk order and the outcome does not depend
    on the number of threads that produced them.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def update_many(self, values) -> None:
        """Absorb a batch of values (vectorised one-pass, then merged)."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return
        batch = MCAccumulator(
            count=int(arr.size),
            mean=float(arr.mean()),
            m2=float(((arr - arr.mean()) ** 2).sum()),
        )
        merged = merge(self, batch)
        self.count, self.mean, self.m2 = merged.count, merged.mean, merged.m2

    @property
    def variance(self) -> float:
        """Sample variance; 0.0 for fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def sem(self) -> float:
        """Standard error of the mean; 0.0 for fewer than two observations."""
        if self.count < 2:
            return 0.0
        return math.sqrt(self.variance / self.count)

    @classmethod
    def from_values(cls, values) -> "MCAccumulator":
        acc = cls()
        acc.update_many(values)
        return acc


def merge(a: MCAccumulator, b: MCAccumulator) -> MCAccumulator:
    """Combine two accumulators as if their samples were pooled.

    Uses the standard parallel update (Chan et al.): exact in exact
    arithmetic, associative to roundoff in floating point.  Merging with
    an empty accumulator returns the other operand unchanged.
    """
    if a.count == 0:
        return MCAccumulator(b.count, b.mean, b.m2)
    if b.count == 0:
        return MCAccumulator(a.count, a.mean, a.m2)
    n = a.count + b.count
    delta = b.mean - a.mean
    mean = a.mean + delta * (b.count / n)
    m2 = a.m2 + b.m2 + delta * delta * (a.count * b.count / n)
    return MCAccumulator(n, mean, m2)


class EmpiricalDistribution:
    """Sorted-sample view with ECDF and quantile queries."""

    def __init__(self, samples):
        xs = np.sort(np.asarray(samples, dtype=float).ravel())
        if xs.size == 0:
            raise ValueError("empirical distribution needs at least one sample")
        if not np.all(np.isfinite(xs)):
            raise ValueError("samples must be finite")
        self.samples = xs

    @property
    def count(self) -> int:
        return int(self.samples.size)

    def cdf(self, x: float) -> float:
        """Right-continuous ECDF: fraction of samples <= x."""
        return float(np.searchsorted(self.samples, x, side="right")) / self.count

    def quantile(self, q: float) -> float:
        """Order-statistic quantile: smallest x with ECDF(x) >= q."""
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile level must be in (0, 1], got {q}")
        idx = max(int(math.ceil(q * self.count)) - 1, 0)
        return float(self.samples[idx])


def ks_statistic(samples, cdf) -> float:
    """Kolmogorov-Smirnov distance between samples and a continuous CDF.

    Evaluates both one-sided gaps at every distinct sample point:
    ``max(ECDF_right - F, F - ECDF_left)``, which is the exact sup
    distance when the reference CDF is continuous.  Ties contribute
    through the cumulative counts on either side of the tied value.

    ``cdf`` must be vectorised: it is called once, on the sorted array
    of distinct sample points, and returns one value per point.
    """
    emp = samples if isinstance(samples, EmpiricalDistribution) else EmpiricalDistribution(samples)
    xs, counts = np.unique(emp.samples, return_counts=True)
    cum_hi = np.cumsum(counts) / emp.count
    cum_lo = cum_hi - counts / emp.count
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError(f"reference CDF must return one value per point: got shape "
                         f"{f.shape} for {xs.size} points")
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise ValueError("reference CDF returned values outside [0, 1]")
    d = max(float(np.max(cum_hi - f)), float(np.max(f - cum_lo)))
    return max(d, 0.0)


# smallest sample count for which ks_threshold's asymptotic form is trusted
KS_MIN_COUNT = 35


def ks_threshold(count: int, significance: float) -> float:
    """Asymptotic KS decision threshold c(alpha)/sqrt(N).

    c(alpha) = sqrt(-ln(alpha/2)/2) gives the standard constants
    c(0.05) = 1.358 and c(0.01) = 1.628.  The asymptotic form is only
    trusted for N >= 35; below that an exact small-sample distribution
    would be needed and we refuse rather than silently approximate.
    """
    if count < KS_MIN_COUNT:
        raise ValueError(
            f"asymptotic KS threshold needs count >= {KS_MIN_COUNT} (got {count}); "
            "exact small-sample distribution required below that"
        )
    if not 0.0 < significance < 1.0:
        raise ValueError(f"significance must be in (0, 1), got {significance}")
    c = math.sqrt(-0.5 * math.log(significance / 2.0))
    return c / math.sqrt(count)


@dataclass
class KSReport:
    """Outcome of an empirical-vs-theoretical distribution comparison."""

    statistic: float
    threshold: float
    significance: float
    count: int
    passed: bool
    # rows (prob, empirical quantile, theoretical quantile)
    quantile_table: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "threshold": self.threshold,
            "significance": self.significance,
            "count": self.count,
            "passed": self.passed,
            "quantiles": [
                {"prob": p, "empirical": e, "theoretical": t}
                for (p, e, t) in self.quantile_table
            ],
        }


_QUANTILE_PROBS = (0.1, 0.25, 0.5, 0.75, 0.9)


def empirical_vs_extremal(samples, measure, t: float, significance: float = 0.01) -> KSReport:
    """KS comparison of supremum samples against an extremal marginal.

    The reference law is P(M(t) <= u) = exp(-t * tail(u)); theoretical
    quantiles come from inverting the tail (closed form for the Pareto
    family).  Returns a report whose ``passed`` flag applies the
    asymptotic threshold at the requested significance.
    """
    from .measures import extremal_marginal, tail_inverse

    emp = samples if isinstance(samples, EmpiricalDistribution) else EmpiricalDistribution(samples)
    stat = ks_statistic(emp, lambda u: extremal_marginal(measure, t, u))
    thr = ks_threshold(emp.count, significance)
    table = []
    for p in _QUANTILE_PROBS:
        # P(M(t) <= u) = p  <=>  tail(u) = -ln(p)/t
        theo = tail_inverse(measure, -math.log(p) / t)
        table.append((p, emp.quantile(p), theo))
    return KSReport(
        statistic=stat,
        threshold=thr,
        significance=significance,
        count=emp.count,
        passed=stat < thr,
        quantile_table=table,
    )


def prefix_scan(ufunc, a: np.ndarray, axis: int = 0) -> np.ndarray:
    """``ufunc.accumulate(a, axis=axis)``, written into ``a``, which it returns.

    Step i along the axis becomes ufunc(step i - 1 as scanned, step i),
    in step order, as accumulate computes it, so the result is the same
    bit for bit.  Rows of at least ``_SCAN_ROW_WIDTH`` entries go
    through one ufunc call per step; narrower ones through one
    accumulate.
    """
    v = np.moveaxis(a, axis, 0)
    if v.size < _SCAN_ROW_WIDTH * len(v):
        ufunc.accumulate(v, axis=0, out=v)
    else:
        for prev, row in zip(v[:-1], v[1:]):
            ufunc(prev, row, out=row)
    return a
