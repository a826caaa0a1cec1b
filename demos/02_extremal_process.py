"""
Extremal processes from Poisson points
======================================

The limit object behind the rescaled clocks: a Poisson point process on
(0, t] x (u_min, inf) with intensity dt x nu(du), whose running maximum
in the magnitude coordinate is an extremal process.  Everything here is
exact or closed-form checkable.
"""

import math

import numpy as np

from extremalclock import measures
from extremalclock.stats import MCAccumulator, empirical_vs_extremal

rng = np.random.default_rng(2)
K = 4.0
measure = measures.TailMeasure.pareto(K)   # nu(u, inf) = K / u

# One realisation: points, then the right-continuous running-max path.
points = measures.sample_poisson_points(measure, t_max=2.0, u_min=0.1, rng=rng)
path = measures.extremal_path(points)
print(f"{points.count} points above u_min=0.1 on (0, 2], "
      f"{len(path.breakpoints)} of them records")
for bt, bl in path.breakpoints[:5]:
    print(f"  record at t={bt:.4f}: level {bl:.4f}")

# Marginal law: P(M(t) <= u) = exp(-t K / u), here via 10^5 replicas.
levels = measures.sample_sup_levels(measure, [1.0], 2.0, 0.05, 100_000, rng)
report = empirical_vs_extremal(levels[:, 0], measure, 1.0)
print(f"KS vs exp(-tK/u) at t=1: stat={report.statistic:.5f} "
      f"threshold={report.threshold:.5f} passed={report.passed}")

# Quantiles line up with the closed-form inverse.
for prob, emp, theo in report.quantile_table:
    print(f"  q({prob:.2f}): empirical {emp:8.4f}  theoretical {theo:8.4f}")

# Records in (t, t+s] are missed with probability t/(t+s), independent
# of K: the time coordinate alone decides where records land.
for t, s in ((1.0, 1.0), (1.0, 3.0)):
    ind = measures.sample_record_avoidance(measure, t, s, 0.05, 50_000, rng)
    acc = MCAccumulator.from_values(ind.astype(float))
    print(f"P(no record in ({t}, {t + s}]): {acc.mean:.4f} +- {acc.sem:.4f}  "
          f"limit {t / (t + s):.4f}  "
          f"(closed form {measures.range_avoidance_prob(t, s):.4f})")

# Finite-dimensional laws are products of powers of one distribution.
p = measures.fdd_probability(measure, [1.0, 2.0], [4.0, 4.0])
print(f"P(M(1) <= 4, M(2) <= 4) = {p:.6f} = exp(-2K/4) = {math.exp(-2.0):.6f}")
