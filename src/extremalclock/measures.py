"""Extremal processes driven by sigma-finite intensity measures on (0, inf).

The limit objects of rescaled clock processes are extremal processes
M(t) = sup of Poisson point magnitudes with birth time <= t, where the
points live on (0, inf) x (0, inf) with intensity dt x d(nu).  A measure
here is described by its tail mass ``tail(u) = nu(u, inf)``, finite and
non-increasing on (0, inf) and diverging at 0+.  The workhorse family is
the Pareto-type tail K/u, for which everything is in closed form:

* marginal law       P(M(t) <= u) = exp(-t * K / u)
* finite-dimensional products of marginal factors over time increments
* record structure   the range of M avoids (t, t+s] with probability
                     t / (t + s), independent of K.

Monte Carlo realisations truncate the magnitude axis at u_min > 0,
below which the points are irrelevant for suprema above u_min.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    "record_interval_mass",
    "range_avoidance_prob",
    "sample_sup_levels",
    "sample_record_avoidance",
]

_INVERSION_RTOL = 1e-12


@dataclass(frozen=True)
class TailMeasure:
    """Intensity measure on (0, inf), described by its tail mass.

    Parameters
    ----------
    kind : str
        "pareto" for tail K/u, "custom" for a user-supplied tail.
    constant : float
        The Pareto constant K (ignored for custom measures).
    tail_fn : callable, optional
        Tail mass u -> nu(u, inf) for custom measures.  Must be finite,
        nonnegative and non-increasing on (0, inf).

    Notes
    -----
    Custom tails are inverted numerically (bisection to relative
    tolerance 1e-12); the Pareto family inverts in closed form.
    """

    kind: str
    constant: float = 0.0
    tail_fn: object = field(default=None, repr=False)

    @classmethod
    def pareto(cls, constant: float) -> "TailMeasure":
        if not (constant > 0.0 and math.isfinite(constant)):
            raise ValueError(f"Pareto constant must be positive and finite, got {constant}")
        return cls(kind="pareto", constant=float(constant))

    @classmethod
    def from_tail(cls, tail_fn) -> "TailMeasure":
        return cls(kind="custom", tail_fn=tail_fn)


def tail_mass(measure: TailMeasure, u):
    """nu(u, inf) for u > 0; an array of u gives the array of masses.

    Pareto tails are evaluated in closed form on the whole array; a
    custom ``tail_fn`` is called once per entry with a Python float.
    """
    arr = np.asarray(u, dtype=float)
    if not np.all(arr > 0.0):
        raise ValueError(f"tail mass is defined for u > 0, got u={arr[~(arr > 0.0)].flat[0]}")
    if measure.kind == "pareto":
        mass = measure.constant / arr
    else:
        mass = np.array([_custom_mass(measure, x) for x in arr.ravel().tolist()],
                        dtype=float).reshape(arr.shape)
    return float(mass) if mass.ndim == 0 else mass


def _custom_mass(measure: TailMeasure, u: float) -> float:
    """The custom tail at one u > 0, checked finite and nonnegative."""
    mass = float(measure.tail_fn(u))
    if not (math.isfinite(mass) and mass >= 0.0):
        raise ValueError(f"tail function returned invalid mass {mass} at u={u}")
    return mass


def tail_inverse(measure: TailMeasure, mass: float) -> float:
    """Smallest u with tail(u) <= mass.

    Exact for Pareto.  For a custom tail the returned u satisfies
    tail(u) <= mass and lies within relative 1e-12 above the crossing.
    """
    if not mass > 0.0:
        raise ValueError(f"tail inverse needs a positive mass, got {mass}")
    if measure.kind == "pareto":
        return measure.constant / mass
    # Bracket the crossing, tail(lo) >= mass >= tail(hi), expanding outward.
    lo, hi = 1.0, 1.0
    while _custom_mass(measure, lo) < mass:
        lo /= 2.0
        if lo < 1e-300:
            raise ValueError("tail inverse bracket underflow; mass too large")
    while _custom_mass(measure, hi) > mass:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError("tail inverse bracket overflow; mass too small")
    # Bisect, keeping tail(hi) <= mass, until hi is within the tolerance of lo.
    while hi - lo > _INVERSION_RTOL * lo:
        mid = 0.5 * (lo + hi)
        if _custom_mass(measure, mid) <= mass:
            hi = mid
        else:
            lo = mid
    return hi


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


def _sample_magnitudes(measure: TailMeasure, u_min: float, size: int, rng) -> np.ndarray:
    # Conditional law above the truncation: P(mag > u) = tail(u)/tail(u_min).
    v = rng.random(size)
    np.subtract(1.0, v, out=v)  # uniform on (0, 1]
    if measure.kind == "pareto":
        return np.divide(u_min, v, out=v)
    base = tail_mass(measure, u_min)
    return np.asarray([tail_inverse(measure, vi * base) for vi in v])


def sample_poisson_points(measure: TailMeasure, t_max: float, u_min: float,
                          rng: np.random.Generator) -> PointSample:
    """Draw the points of the process on (0, t_max] x (u_min, inf).

    Count ~ Poisson(t_max * tail(u_min)), times i.i.d. uniform on
    (0, t_max], magnitudes i.i.d. from the tail law conditioned above
    u_min (inverse-CDF: u_min/U for the Pareto family).  Draw order is
    fixed (count, times, magnitudes) so results are reproducible from
    the generator state.
    """
    if not t_max > 0.0:
        raise ValueError(f"t_max must be positive, got {t_max}")
    lam = t_max * tail_mass(measure, u_min)
    if not math.isfinite(lam):
        raise ValueError(f"infinite point intensity at u_min={u_min}")
    count = int(rng.poisson(lam))
    times = t_max * (1.0 - rng.random(count))
    mags = _sample_magnitudes(measure, u_min, count, rng)
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


def record_interval_mass(a: float, b: float) -> float:
    """Intensity mass log(b/a) of record times falling in (a, b]."""
    if not (0.0 < a <= b):
        raise ValueError(f"need 0 < a <= b, got a={a}, b={b}")
    return math.log(b / a)


def range_avoidance_prob(K: float, t: float, s: float) -> float:
    """Probability that the record set avoids (t, t+s]: t / (t + s).

    This is exp(-record_interval_mass(t, t+s)), returned in closed form.
    K is the tail constant of the driving measure; the value does not
    depend on it (it cancels in the interval mass), but it is kept in the
    signature because the avoidance event is only meaningful for a record
    process driven by some measure.  s = 0 returns 1.
    """
    if not K > 0.0:
        raise ValueError(f"need K > 0, got {K}")
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
    tail_inverse(g * tail(u_min)), u_min / g for Pareto; k = 0 or U = 0
    gives g = 1, the floor.  The levels are the running maximum over the
    sorted intervals.  Time and memory are O(reps * len(t_grid)), and
    ``t_max`` only bounds the query times.
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
    if measure.kind == "pareto":
        cell = np.divide(u_min, g, out=g)
    else:
        cell = np.full(g.shape, float(u_min))
        filled = counts > 0
        cell[filled] = [tail_inverse(measure, gi * base) for gi in g[filled].tolist()]
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
