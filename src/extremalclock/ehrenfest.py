"""Ehrenfest distance chain: the exact oracle behind hypercube SRW checks.

The Hamming distance from the start of a simple random walk on
{-1,+1}^n is a birth-death chain on {0, ..., n} with
p_{k,k-1} = k/n = 1 - p_{k,k+1}, reversible with respect to
Binomial(n, 1/2).  Everything here is exactly computable at small n
(matrix powers, closed-form hitting times), which is what makes the
occupation and hitting-time quantities testable against simulation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .stats import MCAccumulator

__all__ = [
    "EhrenfestChain",
    "transition_matrix",
    "distance_laws",
    "exact_distribution",
    "expected_hitting_adjacent",
    "expected_hitting_from_zero",
    "hitting_bound",
    "hitting_time_distribution",
    "hitting_window_probability",
    "simulate_hitting_time",
    "occupation_statistic",
    "occupation_exact",
    "distance_process_check",
]


@dataclass(frozen=True)
class EhrenfestChain:
    """Birth-death chain on {0..n} with downward rate k/n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")


def transition_matrix(chain: EhrenfestChain) -> np.ndarray:
    """Tridiagonal stochastic matrix of the distance chain."""
    n = chain.n
    P = np.zeros((n + 1, n + 1))
    for k in range(n + 1):
        if k > 0:
            P[k, k - 1] = k / n
        if k < n:
            P[k, k + 1] = 1.0 - k / n
    return P


def distance_laws(chain: EhrenfestChain, start: int = 0):
    """Laws of the chain after 0, 1, 2, ... moves from ``start``, endlessly.

    Each law is one vector-matrix product on the previous one, rather
    than a dense matrix power; parity alternation comes out exactly
    (odd states have probability 0 after an even number of steps from
    0, and vice versa).  Every law yielded is a fresh array.
    """
    n = chain.n
    if not 0 <= start <= n:
        raise ValueError(f"start {start} outside {{0..{n}}}")
    P = transition_matrix(chain)
    v = np.zeros(n + 1)
    v[start] = 1.0
    while True:
        yield v
        v = v @ P


def exact_distribution(chain: EhrenfestChain, start: int, steps: int) -> np.ndarray:
    """Law of the chain after ``steps`` moves from ``start``."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    return next(itertools.islice(distance_laws(chain, start), steps, None))


def expected_hitting_adjacent(chain: EhrenfestChain, l: int) -> float:
    """E_{l-1} T_l = (n/l) sum_{j=0}^{l-1} prod_{k=j+1}^{l} k/(n-k+1).

    Products are accumulated in log space (each factor is positive and
    < 1 for l <= n/2, but can exceed 1 past the middle) and the outer
    sum uses compensated summation, so the formula stays usable for
    bound sweeps at large n.
    """
    n = chain.n
    if not 1 <= l <= n:
        raise ValueError(f"l must lie in 1..{n}, got {l}")
    log_factors = [math.log(k) - math.log(n - k + 1) for k in range(1, l + 1)]
    # suffix log-products: prod_{k=j+1}^{l}, j = l-1 down to 0
    terms = []
    acc = 0.0
    for k in range(l, 0, -1):
        acc += log_factors[k - 1]
        terms.append(math.exp(acc))
    return n / l * math.fsum(terms)


def expected_hitting_from_zero(chain: EhrenfestChain, d: int) -> float:
    """E_0 T_d as the prefix sum of adjacent expected hitting times."""
    if not 1 <= d <= chain.n:
        raise ValueError(f"d must lie in 1..{chain.n}, got {d}")
    return math.fsum(expected_hitting_adjacent(chain, l) for l in range(1, d + 1))


def hitting_bound(chain: EhrenfestChain, d: int) -> float:
    """Closed-form upper bound d / (1 - 2d/n), valid for d < n/2."""
    n = chain.n
    if not 1 <= d or not d < n / 2:
        raise ValueError(f"bound requires 1 <= d < n/2; got d={d}, n={n}")
    return d / (1.0 - 2.0 * d / n)


def _passage_laws(chain: EhrenfestChain, d: int, horizon: int) -> np.ndarray:
    """Rows P_0(T_d = j) and P_d(T_d^+ = j) for j = 0..horizon.

    Both start vectors, e_0 and e_d, go through the chain killed at d
    together, one (2, n+1) vector-matrix product per step; entry j of a
    row is the mass that reaches d at step j, which is then removed.
    Column 0 is 0: d >= 1 is not hit at step 0, and a return takes at
    least 2 steps.
    """
    P = transition_matrix(chain)
    v = np.zeros((2, chain.n + 1))
    v[0, 0] = v[1, d] = 1.0
    out = np.zeros((2, horizon + 1))
    for j in range(1, horizon + 1):
        v = v @ P
        out[:, j] = v[:, d]
        v[:, d] = 0.0
    return out


def hitting_time_distribution(chain: EhrenfestChain, d: int, horizon: int) -> np.ndarray:
    """P_0(T_d = j) for j = 0..horizon, exactly.

    The first-passage row of ``_passage_laws``: the chain is killed at
    d and entry j is the mass absorbed exactly at step j.
    """
    n = chain.n
    if not 1 <= d <= n:
        raise ValueError(f"d must lie in 1..{n}, got {d}")
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    return _passage_laws(chain, d, horizon)[0]


def hitting_window_probability(chain: EhrenfestChain, d: int, lo: int, hi: int) -> float:
    """Exact P_0(lo < T_d < hi), endpoints excluded.

    The survival mass P_0(T_d > j) is the mass left after j steps of the
    chain killed at d, the first-row sum of T^j with T the interior block
    on {0..d-1}; the window is P_0(T_d > lo) - P_0(T_d > hi - 1), two
    matrix powers.  This replaces coarse path-counting bounds on the
    same event; at small n those bounds are far from tight and only the
    exact value is worth asserting against.
    """
    if hi <= lo:
        return 0.0
    n = chain.n
    if not 1 <= d <= n:
        raise ValueError(f"d must lie in 1..{n}, got {d}")
    if lo < 0:
        raise ValueError(f"lo must be >= 0, got {lo}")
    interior = transition_matrix(chain)[:d, :d]

    def survival(steps):
        return float(np.linalg.matrix_power(interior, steps)[0].sum())

    return survival(lo) - survival(hi - 1)


def simulate_hitting_time(chain: EhrenfestChain, d: int, reps: int,
                          rng: np.random.Generator,
                          step_cap: int | None = None) -> MCAccumulator:
    """Monte Carlo T_d from 0, all replicas advanced in lockstep.

    step_cap bounds the walk length (default 1000x the exact mean);
    replicas still unabsorbed at the cap raise, rather than biasing
    the estimate.
    """
    n = chain.n
    if not 1 <= d <= n:
        raise ValueError(f"d must lie in 1..{n}, got {d}")
    if step_cap is None:
        step_cap = max(1000, int(1000 * expected_hitting_from_zero(chain, d)))
    state = np.zeros(reps, dtype=np.int64)
    times = np.zeros(reps, dtype=np.int64)
    alive = np.arange(reps)
    for step in range(1, step_cap + 1):
        down = rng.random(alive.size) < state[alive] / n
        state[alive] += np.where(down, -1, 1)
        hit = state[alive] == d
        if np.any(hit):
            times[alive[hit]] = step
            alive = alive[~hit]
            if alive.size == 0:
                break
    else:
        raise RuntimeError(f"{alive.size} replicas unabsorbed after {step_cap} steps")
    return MCAccumulator.from_values(times.astype(float))


def occupation_statistic(chain: EhrenfestChain, d: int, v_n: int, reps: int,
                         rng: np.random.Generator) -> MCAccumulator:
    """Monte Carlo E_0 Z with Z = sum_{j=1}^{v_n} 1{Q(j)=d} (j - d).

    An exact renewal sampler.  By the strong Markov property the visits
    of Q to d are a first passage T_d from 0 followed by i.i.d. first
    returns to d, whose laws up to v_n come from ``_passage_laws``.
    Each replica draws its first visit by inverting the first-passage
    CDF with one uniform (an index past v_n means no visit), then, while
    its visit time j is at most v_n, adds j - d and draws the next
    return with one more uniform.  So a call draws one uniform per
    replica and per visit, not one per step; a return takes at least 2
    steps, so the loop runs at most (v_n - d)/2 + 1 rounds.  Z sums
    integers, so it is exact.
    """
    n = chain.n
    if not 1 <= d <= v_n:
        raise ValueError(f"need 1 <= d <= v_n, got d={d}, v_n={v_n}")
    if d > n:
        raise ValueError(f"d={d} exceeds n={n}: the chain never reaches it")
    # cdf[i] = P(T <= i + 1); side="right" skips the zero-mass times
    first_cdf, return_cdf = np.cumsum(_passage_laws(chain, d, v_n)[:, 1:], axis=1)
    times = np.searchsorted(first_cdf, rng.random(reps), side="right") + 1
    z = np.zeros(reps)
    live = np.flatnonzero(times <= v_n)
    while live.size:
        z[live] += times[live] - d
        times[live] += np.searchsorted(return_cdf, rng.random(live.size), side="right") + 1
        live = live[times[live] <= v_n]
    return MCAccumulator.from_values(z)


def occupation_exact(chain: EhrenfestChain, d: int, v_n: int) -> float:
    """E_0 Z by summing (j - d) P_0(Q(j) = d) over j = d..v_n."""
    if not 1 <= d <= v_n:
        raise ValueError(f"need 1 <= d <= v_n, got d={d}, v_n={v_n}")
    total = 0.0
    for j, v in zip(range(v_n + 1), distance_laws(chain)):
        if j >= d:
            total += (j - d) * v[d]
    return total


def distance_process_check(n: int, steps: int, reps: int,
                           rng: np.random.Generator) -> float:
    """Max TV distance between SRW distance laws and the exact chain.

    Simulates genuine hypercube walks (difference bitmaps, one toggled
    coordinate per step) so the projection onto Hamming distance is
    tested, not assumed; compares the empirical law of dist(J(0), J(k))
    with the exact law after k steps (``distance_laws``) for each k <= steps.
    """
    if n < 1 or steps < 1 or reps < 1:
        raise ValueError("n, steps and reps must all be >= 1")
    bits = np.zeros((reps, n), dtype=bool)
    dist = np.zeros(reps, dtype=np.int64)
    rows = np.arange(reps)
    worst = 0.0
    for law in itertools.islice(distance_laws(EhrenfestChain(n)), 1, steps + 1):
        flip = rng.integers(0, n, reps)
        dist += np.where(bits[rows, flip], -1, 1)
        bits[rows, flip] ^= True
        counts = np.bincount(dist, minlength=n + 1)
        empirical = counts / reps
        tv = 0.5 * np.abs(empirical - law).sum()
        worst = max(worst, float(tv))
    return worst
