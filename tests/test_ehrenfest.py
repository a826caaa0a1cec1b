"""Distance-chain oracle: hitting times, occupation, simulation checks."""

import itertools
import math

import numpy as np
import pytest

import oracles
from extremalclock.ehrenfest import (
    EhrenfestChain,
    _passage_laws,
    distance_laws,
    distance_process_check,
    exact_distribution,
    expected_hitting_adjacent,
    expected_hitting_from_zero,
    hitting_bound,
    hitting_time_distribution,
    hitting_window_probability,
    occupation_exact,
    occupation_statistic,
    simulate_hitting_time,
    transition_matrix,
)


def test_transition_matrix_structure():
    P = transition_matrix(EhrenfestChain(4))
    assert P.shape == (5, 5)
    np.testing.assert_allclose(P.sum(axis=1), 1.0)
    assert P[0, 1] == 1.0
    assert P[4, 3] == 1.0
    assert P[2, 1] == pytest.approx(0.5)
    assert P[2, 3] == pytest.approx(0.5)
    assert P[2, 2] == 0.0
    with pytest.raises(ValueError):
        EhrenfestChain(0)


def test_hitting_inputs_out_of_range():
    chain = EhrenfestChain(6)
    for d in (0, 7):
        with pytest.raises(ValueError, match=f"d must lie in 1..6, got {d}"):
            expected_hitting_from_zero(chain, d)
        with pytest.raises(ValueError, match=f"d must lie in 1..6, got {d}"):
            simulate_hitting_time(chain, d, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match="lo must be >= 0, got -1"):
        hitting_window_probability(chain, 3, -1, 5)


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_distance_laws_are_matrix_power_rows(n):
    chain = EhrenfestChain(n)
    P = transition_matrix(chain)
    for start in sorted({0, n // 2, n}):
        # held all at once: a law yielded earlier must not change later
        laws = list(itertools.islice(distance_laws(chain, start), 3 * n * n + 1))
        for m, law in enumerate(laws):
            np.testing.assert_allclose(law, np.linalg.matrix_power(P, m)[start],
                                       rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError):
        next(distance_laws(chain, n + 1))


def test_exact_distribution_small_cases():
    chain = EhrenfestChain(2)
    np.testing.assert_allclose(exact_distribution(chain, 0, 1), [0.0, 1.0, 0.0])
    # from 1: half down to 0, half up to 2
    np.testing.assert_allclose(exact_distribution(chain, 1, 1), [0.5, 0.0, 0.5])
    # two steps from 0: back at 0 w.p. 1/2, at 2 w.p. 1/2
    np.testing.assert_allclose(exact_distribution(chain, 0, 2), [0.5, 0.0, 0.5])
    assert np.allclose(exact_distribution(chain, 0, 0), [1.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        exact_distribution(chain, 3, 1)
    with pytest.raises(ValueError):
        exact_distribution(chain, 0, -1)


def test_exact_distribution_parity_and_mass():
    chain = EhrenfestChain(5)
    for k in range(8):
        v = exact_distribution(chain, 0, k)
        assert v.sum() == pytest.approx(1.0, abs=1e-14)
        # parity: support only on states with the same parity as k
        wrong_parity = v[(np.arange(6) + k) % 2 == 1]
        assert np.all(wrong_parity == 0.0)


def test_adjacent_hitting_closed_cases():
    # E_0 T_1 = 1 always
    assert expected_hitting_adjacent(EhrenfestChain(7), 1) == pytest.approx(1.0)
    # n = 3, l = 2: (3/2) * (2/2 * (1 + 1/3)) = 2
    assert expected_hitting_adjacent(EhrenfestChain(3), 2) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        expected_hitting_adjacent(EhrenfestChain(3), 0)
    with pytest.raises(ValueError):
        expected_hitting_adjacent(EhrenfestChain(3), 4)


def test_hitting_from_zero_closed_cases():
    # n = 3, d = 2: 1 + 2 = 3
    assert expected_hitting_from_zero(EhrenfestChain(3), 2) == pytest.approx(3.0)
    # n = 10, d = 2: 1 + (10/2)(2/10)(1 + 1/9) = 20/9 + ... = 1 + 10/9 * ...
    chain = EhrenfestChain(10)
    l2 = (10.0 / 2.0) * ((2.0 / 9.0) + (2.0 / 9.0) * (1.0 / 10.0))
    assert expected_hitting_from_zero(chain, 2) == pytest.approx(1.0 + l2, rel=1e-12)


def test_hitting_matches_linear_system_all_small_n():
    for n in range(2, 51):
        chain = EhrenfestChain(n)
        for d in range(1, n + 1):
            oracle = oracles.hitting_times_linear_system(n, d)
            assert expected_hitting_from_zero(chain, d) == pytest.approx(
                float(oracle[0]), rel=1e-10)
        for l in range(1, n + 1):
            assert expected_hitting_adjacent(chain, l) == pytest.approx(
                oracles.adjacent_hitting_linear_system(n, l), rel=1e-10)


def test_hitting_bound_dominates():
    assert hitting_bound(EhrenfestChain(10), 2) == pytest.approx(10.0 / 3.0)
    for n in range(3, 51):
        chain = EhrenfestChain(n)
        for d in range(1, (n + 1) // 2):
            if d < n / 2:
                assert expected_hitting_from_zero(chain, d) <= hitting_bound(chain, d)
    with pytest.raises(ValueError):
        hitting_bound(EhrenfestChain(10), 5)  # d = n/2 excluded
    with pytest.raises(ValueError):
        hitting_bound(EhrenfestChain(10), 0)


def test_hitting_time_distribution_exact():
    chain = EhrenfestChain(3)
    dist = hitting_time_distribution(chain, 2, 6)
    # T_2 from 0 is even... no: step 1 reaches 1, step 2 reaches 2 or 0
    assert dist[0] == 0.0 and dist[1] == 0.0
    assert dist[2] == pytest.approx(2.0 / 3.0)  # up-up
    assert dist[3] == 0.0                        # parity
    assert dist[4] == pytest.approx((1.0 / 3.0) * (2.0 / 3.0))
    # distribution mean must agree with the closed form once truncation
    # error is negligible
    full = hitting_time_distribution(chain, 2, 400)
    mean = float(np.sum(np.arange(401) * full))
    assert mean == pytest.approx(expected_hitting_from_zero(chain, 2), abs=1e-10)
    assert float(full.sum()) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        hitting_time_distribution(chain, 0, 5)
    with pytest.raises(ValueError):
        hitting_time_distribution(chain, 2, -1)


def test_hitting_window_probability():
    chain = EhrenfestChain(3)
    dist = hitting_time_distribution(chain, 2, 9)
    # endpoints excluded: P(2 < T < 6) = P(T=3) + P(T=4) + P(T=5)
    expect = float(dist[3] + dist[4] + dist[5])
    assert hitting_window_probability(chain, 2, 2, 6) == pytest.approx(expect)
    assert hitting_window_probability(chain, 2, 5, 5) == 0.0
    assert hitting_window_probability(chain, 2, 0, 2) == 0.0  # T >= 2 a.s.
    # wide window converges to 1
    assert hitting_window_probability(chain, 2, 1, 500) == pytest.approx(1.0, abs=1e-12)


def test_hitting_window_matches_first_passage_sum():
    for n, d, lo, hi in ((3, 2, 2, 6), (8, 3, 3, 12), (16, 7, 14, 768), (32, 15, 30, 3072),
                         (12, 1, 0, 5), (9, 4, 10, 11)):
        expected = oracles.hitting_window_dist_sum(n, d, lo, hi)
        assert abs(hitting_window_probability(EhrenfestChain(n), d, lo, hi) - expected) <= 1e-12
    with pytest.raises(ValueError):
        hitting_window_probability(EhrenfestChain(4), 5, 0, 3)


def test_simulate_hitting_time_matches_exact():
    rng = np.random.default_rng(1)
    for n, d in ((10, 2), (20, 4)):
        chain = EhrenfestChain(n)
        acc = simulate_hitting_time(chain, d, 20_000, rng)
        exact = expected_hitting_from_zero(chain, d)
        assert abs(acc.mean - exact) <= 3.0 * acc.sem
    with pytest.raises(RuntimeError):
        simulate_hitting_time(EhrenfestChain(12), 6, 50, rng, step_cap=3)


def test_simulated_window_frequency():
    chain = EhrenfestChain(8)
    rng = np.random.default_rng(2)
    lo, hi, d = 3, 12, 3
    expect = hitting_window_probability(chain, d, lo, hi)
    state = np.zeros(30_000, dtype=np.int64)
    times = np.zeros(30_000, dtype=np.int64)
    alive = np.ones(30_000, dtype=bool)
    for step in range(1, 200):
        down = rng.random(30_000) < state / chain.n
        state += np.where(down & alive, -1, np.where(alive, 1, 0))
        hit = alive & (state == d)
        times[hit] = step
        alive &= ~hit
        if not alive.any():
            break
    frac = float(np.mean((times > lo) & (times < hi)))
    se = math.sqrt(expect * (1.0 - expect) / 30_000)
    assert abs(frac - expect) <= 4.0 * se


def test_occupation_exact_matches_mc():
    chain = EhrenfestChain(6)
    rng = np.random.default_rng(3)
    d, v_n = 2, 40
    exact = occupation_exact(chain, d, v_n)
    acc = occupation_statistic(chain, d, v_n, 40_000, rng)
    assert abs(acc.mean - exact) <= 3.0 * acc.sem
    with pytest.raises(ValueError):
        occupation_statistic(chain, 5, 4, 10, rng)
    with pytest.raises(ValueError):
        occupation_exact(chain, 0, 4)


def _variance_se(values) -> float:
    """SE of the unbiased sample variance: sqrt((m4 - (R-3)/(R-1) s^4) / R)."""
    r = len(values)
    s2 = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - np.mean(values)) ** 4))
    return math.sqrt((m4 - (r - 3) / (r - 1) * s2 ** 2) / r)


class _CountingRng:
    """A generator that counts the uniforms it hands out and the calls."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.uniforms = self.calls = 0

    def random(self, size):
        self.calls += 1
        self.uniforms += int(np.prod(size))
        return self._rng.random(size)


# (6, 2, 40) is checked by test_occupation_exact_matches_mc
@pytest.mark.parametrize("n, d, v_n, reps", [
    (8, 4, 192, 20_000), (16, 2, 768, 20_000), (32, 2, 3072, 50_000),
    (7, 7, 60, 20_000), (5, 3, 3, 100)])
def test_occupation_statistic_mean_matches_exact(n, d, v_n, reps):
    chain = EhrenfestChain(n)
    acc = occupation_statistic(chain, d, v_n, reps, np.random.default_rng(21))
    exact = occupation_exact(chain, d, v_n)
    assert acc.count == reps
    assert abs(acc.mean - exact) <= 4.0 * acc.sem
    if v_n < d + 2:  # the only possible visit, Q(d) = d, adds d - d = 0
        assert (acc.mean, acc.sem, exact) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("n, d, v_n", [(8, 2, 192), (7, 7, 60)])
def test_occupation_statistic_variance_matches_per_step_loop(n, d, v_n):
    # the renewal sampler and one uniform per step draw Z from one law
    reps = 20_000
    acc = occupation_statistic(EhrenfestChain(n), d, v_n, reps, np.random.default_rng(22))
    z = oracles.occupation_loop(n, d, v_n, reps, np.random.default_rng(23))
    # both samples share one law under the null, so the loop's m4 serves both
    combined = math.sqrt(2.0) * _variance_se(z)
    assert abs(acc.variance - float(np.var(z, ddof=1))) <= 4.0 * combined


def _brute_force_passage(n, d, horizon):
    """P_0(T_d = j) and P_d(T_d^+ = j) over all n^horizon flip sequences."""
    flips = np.array(list(itertools.product(range(n), repeat=horizon)))
    popcount = np.array([bin(b).count("1") for b in range(1 << n)])
    out = np.zeros((2, horizon + 1))
    for row, start in enumerate((0, (1 << d) - 1)):
        bits = np.full(len(flips), start)
        first = np.zeros(len(flips), dtype=np.int64)
        for j in range(1, horizon + 1):
            bits ^= 1 << flips[:, j - 1]
            hit = (first == 0) & (popcount[bits] == d)
            first[hit] = j
        out[row] = np.bincount(first, minlength=horizon + 1) / len(flips)
    out[:, 0] = 0.0  # no visit within the horizon
    return out


def test_passage_laws_match_brute_force():
    for d in range(1, 5):
        laws = _passage_laws(EhrenfestChain(4), d, 8)
        np.testing.assert_allclose(laws, _brute_force_passage(4, d, 8), rtol=0.0, atol=1e-15)
    for n, d, lo, hi in ((3, 2, 2, 6), (8, 3, 3, 12), (16, 7, 14, 768), (12, 1, 0, 5)):
        first = _passage_laws(EhrenfestChain(n), d, hi)[0]
        expected = oracles.hitting_window_dist_sum(n, d, lo, hi)
        assert abs(float(first[lo + 1:hi].sum()) - expected) <= 1e-12
        np.testing.assert_array_equal(hitting_time_distribution(EhrenfestChain(n), d, hi), first)


@pytest.mark.parametrize("n", [4, 8, 32, 64])
def test_laws_by_blocks_match_per_step_loop(n):
    # horizons inside one block, at its edge, one past it and 3 n^2
    for d in sorted({1, 2, n // 2, n}):
        for horizon in (1, 63, 64, 65, 3 * n * n):
            np.testing.assert_allclose(_passage_laws(EhrenfestChain(n), d, horizon),
                                       oracles.passage_laws_loop(n, d, horizon),
                                       rtol=1e-12, atol=0.0)
            if horizon >= d:
                assert occupation_exact(EhrenfestChain(n), d, horizon) == pytest.approx(
                    oracles.occupation_exact_loop(n, d, horizon), rel=1e-12, abs=0.0)


def test_occupation_statistic_draws_per_visit():
    # the limit-laws ehrenfest config, 28.8M uniforms at one per step:
    # one uniform per replica and per visit to d instead
    uniforms = {}
    for n in (8, 16, 24, 32):
        rng = _CountingRng(n)
        occupation_statistic(EhrenfestChain(n), 2, 3 * n * n, 5000, rng)
        assert rng.calls - 1 <= 3 * n * n // 2  # a return takes >= 2 steps
        uniforms[n] = rng.uniforms
    assert uniforms[32] < 20_000
    assert sum(uniforms.values()) <= 200_000


def test_occupation_statistic_rejects_unreachable_distance():
    with pytest.raises(ValueError, match=r"d=5 exceeds n=4"):
        occupation_statistic(EhrenfestChain(4), 5, 10, 10, np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"d=5 exceeds n=4"):
        occupation_exact(EhrenfestChain(4), 5, 10)


def test_occupation_exact_tiny_case_by_hand():
    # n = 2, d = 1, v = 2: Q(1) = 1 surely -> (1-1)*1 = 0; Q(2) in {0,2}
    assert occupation_exact(EhrenfestChain(2), 1, 2) == pytest.approx(0.0)
    # v = 3: Q(3) = 1 w.p. 1 -> contributes (3-1)*1 = 2
    assert occupation_exact(EhrenfestChain(2), 1, 3) == pytest.approx(2.0)


def test_distance_process_check_small():
    rng = np.random.default_rng(4)
    worst = distance_process_check(5, steps=12, reps=60_000, rng=rng)
    assert worst <= 0.02
    with pytest.raises(ValueError):
        distance_process_check(0, 5, 10, rng)


@pytest.mark.parametrize("n, steps, reps, seed", [(1, 3, 10, 0), (5, 12, 1000, 1),
                                                  (8, 40, 5000, 2), (32, 30, 777, 3)])
def test_distance_process_check_equals_2d_indexing(n, steps, reps, seed):
    # the flat bitmap draws and toggles as the (reps, n) one does
    assert distance_process_check(n, steps, reps, np.random.default_rng(seed)) == \
        oracles.distance_process_check_2d(n, steps, reps, np.random.default_rng(seed))
