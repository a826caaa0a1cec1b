"""Independent ground-truth computations for the test suite.

Nothing here reuses the library's own formulas: hitting times come from
a first-step linear system, bivariate normal orthant values from a
correlation-derivative quadrature, Hamiltonians from a naive full loop,
energy tables from a Walsh-Hadamard transform that runs every pass.
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


def full_walsh_energy_table(tensor: np.ndarray, scale: float) -> np.ndarray:
    """H at all 2^n states (bit i set iff x_i = -1), skipping no butterfly.

    One bincount of the couplings over their Walsh masks
    bit[i_1] ^ ... ^ bit[i_p], then a butterfly pass (lo + hi, lo - hi)
    over the whole array for every bit.
    """
    n, p = tensor.shape[0], tensor.ndim
    bit = np.int64(1) << np.arange(n, dtype=np.int64)
    mask = bit
    for _ in range(p - 1):
        mask = np.bitwise_xor.outer(mask, bit)
    a = np.bincount(mask.ravel(), weights=tensor.ravel(), minlength=2 ** n)
    for i in range(n):
        v = a.reshape(-1, 2, 1 << i)
        lo = v[:, 0, :].copy()
        v[:, 0, :] += v[:, 1, :]
        np.subtract(lo, v[:, 1, :], out=v[:, 1, :])
    return a * scale


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


def _distance_chain_matrix(n: int) -> np.ndarray:
    """Transition matrix of the distance chain, down k/n and up 1 - k/n."""
    k = np.arange(n + 1)
    P = np.zeros((n + 1, n + 1))
    P[k[1:], k[1:] - 1] = k[1:] / n
    P[k[:-1], k[:-1] + 1] = 1.0 - k[:-1] / n
    return P


def passage_laws_loop(n: int, d: int, horizon: int) -> np.ndarray:
    """P_0(T_d = j) and P_d(T_d^+ = j) for j = 0..horizon, one step at a time.

    Both start vectors go through the chain killed at d together, one
    (2, n+1) vector-matrix product per step; entry j is the mass that
    reaches d at step j, which is then removed.
    """
    P = _distance_chain_matrix(n)
    v = np.zeros((2, n + 1))
    v[0, 0] = v[1, d] = 1.0
    out = np.zeros((2, horizon + 1))
    for j in range(1, horizon + 1):
        v = v @ P
        out[:, j] = v[:, d]
        v[:, d] = 0.0
    return out


def occupation_exact_loop(n: int, d: int, v_n: int) -> float:
    """E_0 sum_{j=d}^{v_n} 1{Q(j)=d} (j - d), one law per step."""
    P = _distance_chain_matrix(n)
    v = np.zeros(n + 1)
    v[0] = 1.0
    total = 0.0
    for j in range(1, v_n + 1):
        v = v @ P
        if j >= d:
            total += (j - d) * v[d]
    return total


def distance_process_check_2d(n: int, steps: int, reps: int, rng) -> float:
    """Max TV of hypercube-walk distance laws, on a (reps, n) bitmap.

    Draws one flip per replica and step, as the library does, and
    toggles bits[r, flip[r]] by 2-d fancy indexing.
    """
    P = _distance_chain_matrix(n)
    law = np.zeros(n + 1)
    law[0] = 1.0
    bits = np.zeros((reps, n), dtype=bool)
    dist = np.zeros(reps, dtype=np.int64)
    rows = np.arange(reps)
    worst = 0.0
    for _ in range(steps):
        law = law @ P
        flip = rng.integers(0, n, reps)
        dist += np.where(bits[rows, flip], -1, 1)
        bits[rows, flip] ^= True
        empirical = np.bincount(dist, minlength=n + 1) / reps
        worst = max(worst, float(0.5 * np.abs(empirical - law).sum()))
    return worst


def max_cdf_indicators(delta, levels, reps: int, rng, minus=None) -> list:
    """(count, mean, M2) per level from the float pair means of every draw.

    Draws ceil(reps / 2) standard-normal vectors z in (dim, m) chunks of
    at most 65536, as the library does, through symmetric square roots,
    paired or not.  Each z is an antithetic pair: it reads
    1{max H <= s} and -z reads 1{max(-H) <= s} (minus the same two for
    H'); each level keeps the pair's mean of the two as a float for
    every pair, then takes their mean and summed squared deviations.
    """
    mats = [np.asarray(delta, dtype=float)] + ([] if minus is None
                                               else [np.asarray(minus, dtype=float)])
    roots = []
    for mat in mats:
        w, v = np.linalg.eigh(mat)
        roots.append((v * np.sqrt(np.clip(w, 0.0, None))) @ v.T)
    factor, dim = np.vstack(roots), mats[0].shape[0]
    pairs = (reps + 1) // 2
    values = [[] for _ in levels]
    for start in range(0, pairs, 65536):
        z = rng.standard_normal((dim, min(65536, pairs - start)))
        h = (factor @ z).reshape(len(mats), dim, -1)
        for out, level in zip(values, levels):
            plus = (h.max(axis=1) <= level).astype(float)
            neg = ((-h).max(axis=1) <= level).astype(float)
            pair = 0.5 * (plus + neg)
            out.append(pair[0] - pair[1] if minus is not None else pair[0])
    result = []
    for chunks in values:
        arr = np.concatenate(chunks) if chunks else np.zeros(0)
        mean = float(arr.mean()) if arr.size else 0.0
        result.append((int(arr.size), mean, float(((arr - mean) ** 2).sum())))
    return result
