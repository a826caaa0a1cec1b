"""Independent ground-truth computations for the test suite.

Nothing here reuses the library's own formulas: hitting times come from
a first-step linear system, bivariate normal orthant values from a
correlation-derivative quadrature, Hamiltonians from a naive full loop.
These are the oracles the implementation is judged against.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import dblquad, quad
from scipy.stats import norm


def hitting_times_linear_system(n: int, d: int) -> np.ndarray:
    """E_x T_d for x = 0..d-1 on the distance chain, by first-step analysis.

    h(x) = 1 + (x/n) h(x-1) + (1-x/n) h(x+1), h(d) = 0; the tridiagonal
    system (I - T) h = 1 is eliminated with exact rational arithmetic.
    A float solve loses ~cond * eps here and the condition number grows
    like 2^n as d approaches n, which would swamp the 1e-10 comparisons
    this oracle exists to support.
    """
    if not 1 <= d <= n:
        raise ValueError(f"need 1 <= d <= n, got d={d}, n={n}")
    sub = [Fraction(-x, n) for x in range(d)]        # coeff of h(x-1)
    sup = [Fraction(-(n - x), n) for x in range(d)]  # coeff of h(x+1)
    diag = [Fraction(1)] * d
    rhs = [Fraction(1)] * d
    for x in range(1, d):
        m = sub[x] / diag[x - 1]
        diag[x] -= m * sup[x - 1]
        rhs[x] -= m * rhs[x - 1]
    h = [Fraction(0)] * d
    h[d - 1] = rhs[d - 1] / diag[d - 1]
    for x in range(d - 2, -1, -1):
        h[x] = (rhs[x] - sup[x] * h[x + 1]) / diag[x]
    return np.asarray([float(v) for v in h])


def adjacent_hitting_linear_system(n: int, l: int) -> float:
    """E_{l-1} T_l from the same linear system."""
    return float(hitting_times_linear_system(n, l)[l - 1])


def bivariate_max_cdf(s: float, rho: float) -> float:
    """P(max(Z1, Z2) <= s) for standard normals with correlation rho.

    Phi2(s, s; rho) via the derivative-in-rho identity
    d/d rho Phi2 = phi2(s, s; rho), integrated from independence.
    """
    if not -1.0 < rho < 1.0:
        raise ValueError(f"need |rho| < 1, got {rho}")
    base = norm.cdf(s) ** 2
    integral, _ = quad(
        lambda r: math.exp(-s * s / (1.0 + r)) / math.sqrt(1.0 - r * r),
        0.0, rho, epsabs=1e-14, epsrel=1e-12)
    return base + integral / (2.0 * math.pi)


def comparison_rhs_quadrature(delta0, delta1, s: float) -> float:
    """Normal-comparison bound with one adaptive quadrature per pair.

    Sums 2 (a - b)^+ exp(-s^2/(1 + max(a, b))) int_0^1 (1 - (h a +
    (1 - h) b)^2)^{-1/2} dh over i < j, with a = delta0[i, j] and
    b = delta1[i, j], integrating h numerically.
    """
    total = 0.0
    dim = len(delta0)
    for i in range(dim):
        for j in range(i + 1, dim):
            a, b = float(delta0[i][j]), float(delta1[i][j])
            if a <= b:
                continue
            integral, _ = quad(
                lambda h: 1.0 / math.sqrt(1.0 - (h * a + (1.0 - h) * b) ** 2),
                0.0, 1.0, epsabs=0.0, epsrel=1e-12)
            total += 2.0 * (a - b) * math.exp(-s * s / (1.0 + max(a, b))) * integral
    return total


def bivariate_max_cdf_dblquad(s: float, rho: float) -> float:
    """Same quantity by direct 2-d density integration (slow cross-check)."""
    det = 1.0 - rho * rho
    norm_const = 1.0 / (2.0 * math.pi * math.sqrt(det))

    def density(y, x):
        return norm_const * math.exp(-(x * x - 2.0 * rho * x * y + y * y) / (2.0 * det))

    value, _ = dblquad(density, -8.0, s, lambda x: -8.0, lambda x: s,
                       epsabs=1e-10, epsrel=1e-10)
    return value


def brute_force_hamiltonian(tensor: np.ndarray, x: np.ndarray, scale: float) -> float:
    """Full p-fold loop contraction with compensated summation."""
    p = tensor.ndim
    n = tensor.shape[0]
    terms = []
    for idx in itertools.product(range(n), repeat=p):
        value = float(tensor[idx])
        for i in idx:
            value *= x[i]
        terms.append(value)
    return scale * math.fsum(terms)


def toy_block_tail(lam_inv: float, threshold: float) -> float:
    """P(lam_inv * e > threshold) for e ~ Exp(1)."""
    return math.exp(-threshold / lam_inv)


def truncated_exp_scaled_mean(lam_inv: float, threshold: float, a_n: float) -> float:
    """a_n / threshold * E[lam_inv * e ; lam_inv * e <= threshold].

    E[Y 1{Y <= T}] for Y = lam_inv * e is
    lam_inv * (1 - exp(-T/lam_inv) * (1 + T/lam_inv)).
    """
    ratio = threshold / lam_inv
    mean = lam_inv * (1.0 - math.exp(-ratio) * (1.0 + ratio))
    return a_n / threshold * mean


def pareto_sup_levels_per_t(K: float, t_grid, t_max: float, u_min: float,
                            reps: int, rng) -> np.ndarray:
    """Sup levels of truncated K/u point processes, one masked pass per t.

    Draws in the sampler's documented order (a (reps, T) array of
    Poisson counts for the intervals between the sorted query times,
    then a (reps, T) array of uniforms U), sets each non-empty
    interval's top mark to u_min / (1 - U^(1/k)), and for each query
    time takes the largest top mark, or the floor, over the intervals
    that end by then.
    """
    sorted_t = np.sort(np.asarray(t_grid, dtype=float))
    widths = np.diff(sorted_t, prepend=0.0)
    counts = rng.poisson(widths * K / u_min, (reps, sorted_t.size))
    uniforms = rng.random((reps, sorted_t.size))
    top = np.full(counts.shape, float(u_min))
    filled = counts > 0
    with np.errstate(divide="ignore"):  # U = 0 leaves the floor
        top[filled] = u_min / -np.expm1(np.log(uniforms[filled]) / counts[filled])
    out = np.empty((reps, len(t_grid)))
    for j, t in enumerate(t_grid):
        out[:, j] = top[:, sorted_t <= t].max(axis=1, initial=u_min)
    return out


def occupation_loop(n: int, d: int, v_n: int, reps: int, rng) -> np.ndarray:
    """Z = sum_j 1{Q(j)=d} (j - d) per replica, one uniform draw per step."""
    state = np.zeros(reps, dtype=np.int64)
    z = np.zeros(reps)
    for j in range(1, v_n + 1):
        down = rng.random(reps) < state / n
        state += np.where(down, -1, 1)
        if j >= d:
            z += (state == d) * float(j - d)
    return z


def hitting_window_dist_sum(n: int, d: int, lo: int, hi: int) -> float:
    """P_0(lo < T_d < hi) as the sum of the exact first-passage masses.

    Propagates the law of the distance chain killed at d one step at a
    time and adds the mass absorbed at each step j with lo < j < hi.
    """
    v = np.zeros(d)
    v[0] = 1.0
    total = 0.0
    for j in range(1, hi):
        up = v * (1.0 - np.arange(d) / n)
        down = v * (np.arange(d) / n)
        absorbed = up[d - 1]
        v = np.zeros(d)
        v[1:] += up[:d - 1]
        v[:d - 1] += down[1:]
        if j > lo:
            total += absorbed
    return total
