"""Monte Carlo bookkeeping and goodness-of-fit helpers.

This module owns the statistical plumbing shared by the simulation and
verification code:

* ``MCAccumulator`` -- the count/mean/M2 triple of a batch of Monte
  Carlo values, with its variance and standard error of the mean.
* ``EmpiricalDistribution`` -- sorted-sample wrapper with
  order-statistic quantile queries.
* ``ks_statistic`` / ``ks_threshold`` -- Kolmogorov-Smirnov distance
  against a continuous, vectorised reference CDF, evaluated with both
  one-sided gaps at every sample point, and the asymptotic decision
  thresholds.
* ``empirical_vs_extremal`` -- compares simulated supremum samples with
  the one-dimensional marginal of an extremal process and returns a
  serializable report.
* ``prefix_scan`` -- ``ufunc.accumulate`` along the first axis, bit for
  bit, by rows where the rows are wide enough to pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MCAccumulator",
    "EmpiricalDistribution",
    "ks_statistic",
    "ks_threshold",
    "KSReport",
    "empirical_vs_extremal",
    "prefix_scan",
]

# From this many entries per row on, prefix_scan loops over the rows.
# Measured on blocks of about 2^14 entries, the kernels' shape (numpy
# 2.4, 2 CPUs, idle and with both busy), ns per entry, row loop against
# accumulate: bitwise_xor and add 7-15 against 2-4 at width 64, 2.5
# against 2.3-3.1 at 200, 2.0-3.6 against 3.3-4.0 at 256, 1.1-1.2
# against 2.6-3.3 at 500 and 0.4-0.7 against 3.8-5.0 at 2500;
# logaddexp 12-30 against 34-41 at every width from 64.  So the cheap
# scans cross between widths 200 and 256, and logaddexp's row loop is
# the cheaper one at every width measured.
_SCAN_ROW_WIDTH = 256


@dataclass
class MCAccumulator:
    """Mean/variance summary (count, mean, M2) of a batch of values.

    M2 is the sum of squared deviations from the mean, so
    ``variance = M2 / (count - 1)``.  ``from_values`` builds it from the
    values; kernels that count exactly build the triple directly.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

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
        """The triple of ``values``; an empty batch gives (0, 0.0, 0.0)."""
        arr = np.asarray(values, dtype=float).ravel()
        if arr.size == 0:
            return cls()
        mean = arr.mean()
        return cls(int(arr.size), float(mean), float(((arr - mean) ** 2).sum()))


class EmpiricalDistribution:
    """Sorted-sample view with order-statistic quantile queries."""

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
    of distinct sample points, and returns one value per point, each
    in [0, 1] (a NaN is rejected).
    """
    emp = samples if isinstance(samples, EmpiricalDistribution) else EmpiricalDistribution(samples)
    xs, counts = np.unique(emp.samples, return_counts=True)
    cum_hi = np.cumsum(counts) / emp.count
    cum_lo = cum_hi - counts / emp.count
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape:
        raise ValueError(f"reference CDF must return one value per point: got shape "
                         f"{f.shape} for {xs.size} points")
    if not np.all((f >= -1e-12) & (f <= 1.0 + 1e-12)):  # NaN fails both
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


def prefix_scan(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.accumulate(a, axis=0)``, written into ``a``, which it returns.

    Step i along the first axis becomes ufunc(step i - 1 as scanned, step i),
    in step order, as accumulate computes it, so the result is the same
    bit for bit.  Rows of at least ``_SCAN_ROW_WIDTH`` entries go
    through one ufunc call per step; narrower ones through one
    accumulate.  To scan along another axis, pass a transposed view.
    """
    if a.size < _SCAN_ROW_WIDTH * len(a):
        ufunc.accumulate(a, axis=0, out=a)
    else:
        for prev, row in zip(a[:-1], a[1:]):
            ufunc(prev, row, out=row)
    return a
