"""Extremal processes driven by Pareto intensity measures on (0, inf).

The limit objects of rescaled clock processes are extremal processes
M(t) = sup of Poisson point magnitudes with birth time <= t, where the
points live on (0, inf) x (0, inf) with intensity dt x d(nu).  Every
limit law checked here has the Pareto tail ``nu(u, inf) = K/u``, for
which everything is in closed form:

* marginal law       P(M(t) <= u) = exp(-t * K / u)
* finite-dimensional products of marginal factors over time increments
* record structure   the range of M avoids (t, t+s] with probability
                     t / (t + s), independent of K.

Monte Carlo realisations truncate the magnitude axis at u_min > 0,
below which the points are irrelevant for suprema above u_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import prefix_scan

__all__ = [
    "TailMeasure",
    "tail_mass",
    "tail_inverse",
    "extremal_marginal",
    "fdd_probability",
    "PointSample",
    "sample_poisson_points",
    "sup_path",
    "ExtremalPath",
    "extremal_path",
    "range_avoidance_prob",
    "sample_sup_levels",
    "sample_record_avoidance",
]


@dataclass(frozen=True)
class TailMeasure:
    """Pareto intensity measure on (0, inf): tail mass K/u.

    Build it with ``TailMeasure.pareto(K)``; ``constant`` is K.
    """

    constant: float

    @classmethod
    def pareto(cls, constant: float) -> "TailMeasure":
        if not (constant > 0.0 and math.isfinite(constant)):
            raise ValueError(f"Pareto constant must be positive and finite, got {constant}")
        return cls(constant=float(constant))


def tail_mass(measure: TailMeasure, u):
    """nu(u, inf) = K/u for u > 0; an array of u gives the array of masses."""
    arr = np.asarray(u, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"tail mass is defined for u > 0, got u={arr[~(arr > 0.0)].flat[0]}")
    mass = measure.constant / arr
    return float(mass) if mass.ndim == 0 else mass


def tail_inverse(measure: TailMeasure, mass: float) -> float:
    """The u with tail(u) = mass, K/mass in closed form."""
    if not mass > 0.0:
        raise ValueError(f"tail inverse needs a positive mass, got {mass}")
    return measure.constant / mass


def extremal_marginal(measure: TailMeasure, t: float, u):
    """One-dimensional marginal P(M(t) <= u) = exp(-t * tail(u)).

    A scalar u gives a float; an array of u gives the array of marginals.
    """
    if not t > 0.0:
        raise ValueError(f"marginal needs t > 0, got {t}")
    mass = tail_mass(measure, u)
    if isinstance(mass, float):
        return math.exp(-t * mass)
    return np.exp(-t * mass)


def fdd_probability(measure: TailMeasure, times, thresholds) -> float:
    """Finite-dimensional distribution of the extremal process.

    P(M(t_1) <= x_1, ..., M(t_k) <= x_k)
      = F(x_1)^{t_1} * F(x_2)^{t_2 - t_1} * ... * F(x_k)^{t_k - t_{k-1}}

    with F(x)^dt = exp(-dt * tail(x)).  Times must be strictly
    increasing and positive; thresholds positive and non-decreasing
    (events with a decreasing threshold sequence are not of this
    product form and are rejected).
    """
    ts = np.asarray(times, dtype=float)
    xs = np.asarray(thresholds, dtype=float)
    if ts.ndim != 1 or ts.size == 0 or ts.shape != xs.shape:
        raise ValueError("times and thresholds must be equal-length 1-d sequences")
    if not (ts[0] > 0.0 and np.all(np.diff(ts) > 0.0)):
        raise ValueError("times must be positive and strictly increasing")
    if not np.all(xs > 0.0):
        raise ValueError("thresholds must be positive")
    if np.any(np.diff(xs) < 0.0):
        raise ValueError("thresholds must be non-decreasing")
    increments = np.diff(ts, prepend=0.0)
    log_prob = -sum(dt * tail_mass(measure, float(x)) for dt, x in zip(increments, xs))
    return math.exp(log_prob)


@dataclass(frozen=True)
class PointSample:
    """One realisation of the truncated Poisson point process.

    Times lie in (0, t_max], magnitudes in [u_min, inf); the arrays are
    aligned and unordered.
    """

    times: np.ndarray
    magnitudes: np.ndarray
    t_max: float
    u_min: float

    @property
    def count(self) -> int:
        return int(self.times.size)


def sample_poisson_points(measure: TailMeasure, t_max: float, u_min: float,
                          rng: np.random.Generator) -> PointSample:
    """Draw the points of the process on (0, t_max] x (u_min, inf).

    Count ~ Poisson(t_max * tail(u_min)), times i.i.d. uniform on
    (0, t_max], magnitudes i.i.d. from the tail law conditioned above
    u_min, u_min/U by inverse CDF.  Draw order is fixed (count, times,
    magnitudes) so results are reproducible from the generator state.
    """
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    lam = t_max * tail_mass(measure, u_min)
    if not math.isfinite(lam):
        raise ValueError(f"infinite point intensity at u_min={u_min}")
    count = int(rng.poisson(lam))
    times = t_max * (1.0 - rng.random(count))
    mags = u_min / (1.0 - rng.random(count))
    return PointSample(times=times, magnitudes=mags, t_max=t_max, u_min=u_min)


def sup_path(points: PointSample, t: float, floor: float | None = None) -> float:
    """Running supremum sup{magnitude : time <= t}; ``floor`` if empty.

    The floor defaults to the truncation level u_min.  Non-decreasing
    in t by construction.
    """
    if floor is None:
        floor = points.u_min
    if not 0.0 <= t:
        raise ValueError(f"query time must be nonnegative, got {t}")
    mask = points.times <= t
    if not np.any(mask):
        return float(floor)
    return max(float(points.magnitudes[mask].max()), float(floor))


@dataclass(frozen=True)
class ExtremalPath:
    """Right-continuous non-decreasing step function from record points.

    ``breakpoints`` is a list of (time, level) pairs with strictly
    increasing times and strictly increasing levels; the path value at t
    is the level of the last breakpoint with time <= t, or the floor.
    """

    breakpoints: tuple
    floor: float

    def level_at(self, t: float) -> float:
        level = self.floor
        for bt, bl in self.breakpoints:
            if bt <= t:
                level = bl
            else:
                break
        return level


def extremal_path(points: PointSample) -> ExtremalPath:
    """Collapse a point sample to its record sequence above ``points.u_min``."""
    order = np.argsort(points.times, kind="stable")
    bps = []
    level = float(points.u_min)
    for idx in order:
        mag = float(points.magnitudes[idx])
        if mag > level:
            level = mag
            bps.append((float(points.times[idx]), mag))
    return ExtremalPath(breakpoints=tuple(bps), floor=float(points.u_min))


def range_avoidance_prob(t: float, s: float) -> float:
    """Probability that the record set avoids (t, t+s]: t / (t + s).

    Record times have intensity dr/r, so this is exp(-log((t+s)/t)),
    the same for every Pareto constant K.  s = 0 returns 1.
    """
    if not t > 0.0:
        raise ValueError(f"need t > 0, got {t}")
    if not s >= 0.0:
        raise ValueError(f"need s >= 0, got {s}")
    return t / (t + s)


def sample_sup_levels(measure: TailMeasure, t_grid, t_max: float, u_min: float,
                      reps: int, rng: np.random.Generator) -> np.ndarray:
    """Vectorised sup_path sampler: (reps, len(t_grid)) array of levels.

    Each row is one realisation of the truncated point process queried
    at every time in ``t_grid`` (floor u_min), equal in law to calling
    sample_poisson_points + sup_path per replica.  A level never reads
    where a point falls inside a query interval, so no points are drawn:
    the interval between consecutive sorted query times (from 0) holds
    k ~ Poisson(width * tail(u_min)) points, drawn as one (reps, T)
    array, then one (reps, T) array of uniforms U.  A mark's tail
    fraction tail(mag) / tail(u_min) is uniform, so the largest of k
    marks has tail fraction g = 1 - U^(1/k) in (0, 1] and level
    u_min / g; k = 0 or U = 0 gives g = 1, the floor.  The levels are
    the running maximum over the sorted intervals.  Time and memory are
    O(reps * len(t_grid)), and ``t_max`` only bounds the query times.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if np.any(t_grid > t_max):
        raise ValueError("query times must not exceed t_max")
    order = np.argsort(t_grid, kind="stable")
    widths = np.diff(t_grid[order], prepend=0.0)
    base = tail_mass(measure, u_min)
    counts = rng.poisson(widths * base, (reps, t_grid.size))
    g = rng.random((reps, t_grid.size))
    with np.errstate(divide="ignore"):  # log(0) and x / 0 both give g = 1
        np.log(g, out=g)
        g /= counts
    np.expm1(g, out=g)
    np.negative(g, out=g)
    cell = np.divide(u_min, g, out=g)
    prefix_scan(np.maximum, cell.T)
    out = np.empty_like(cell)
    out[:, order] = cell
    return out


def sample_record_avoidance(measure: TailMeasure, t: float, s: float, u_min: float,
                            reps: int, rng: np.random.Generator):
    """MC indicators of {no record in (t, t+s]} from truncated realisations.

    A replica avoids the window iff sup_path(t+s) == sup_path(t); the
    truncation bias is P(M(t) <= u_min) = exp(-t*tail(u_min)), driven to
    negligibility by choosing u_min small.  Returns a boolean array.
    """
    if not s >= 0.0:
        raise ValueError(f"need s >= 0, got {s}")
    levels = sample_sup_levels(measure, [t, t + s], t + s, u_min, reps, rng)
    return levels[:, 1] <= levels[:, 0]
