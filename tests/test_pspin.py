"""Spin-glass environment: tensors, incremental kernels, schedules,
comparison machinery, persistence, vectorised chain hooks."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import norm

import oracles
from extremalclock import engine
from extremalclock.engine import ScalingSchedule
from extremalclock.pspin import (
    H1BlockProcess,
    HypercubeSRW,
    IntegrityError,
    PSpinEnvironment,
    TensorBudgetError,
    _BatchWalker,
    _TableWalker,
    _walker,
    block_max_tail,
    build_instance,
    check_schedule,
    delta_flip,
    gaussian_comparison_rhs,
    hamiltonian,
    load_instance,
    make_schedule,
    max_cdf_mc,
    overlap,
    sample_h1_block,
    sample_h1_process,
    sample_hamiltonians,
    save_instance,
    srw_step,
    tau,
    thin_indices,
)


class PlainCube:
    """Hook-free adapter so engine falls back to its reference loops."""

    period = 2

    def __init__(self, n):
        self._m = HypercubeSRW(n)
        self.n = n

    def initial_state(self, rng):
        return self._m.initial_state(rng)

    def next_state(self, x, rng):
        return self._m.next_state(x, rng)

    def log_pi(self, x):
        return self._m.log_pi(x)

    def overlap(self, x, y):
        return self._m.overlap(x, y)


def spins(bits):
    return np.asarray(bits, dtype=float)


# -- instances and Hamiltonians ---------------------------------------------


def test_build_instance_determinism():
    a = build_instance(5, 2, seed=3)
    b = build_instance(5, 2, seed=3)
    assert np.array_equal(a.tensor, b.tensor)
    assert a.tensor.shape == (5, 5)
    c = build_instance(5, 2, seed=4)
    assert not np.array_equal(a.tensor, c.tensor)
    assert a.head_hash() == b.head_hash() != c.head_hash()
    with pytest.raises(ValueError):
        build_instance(1, 2, seed=0)
    with pytest.raises(ValueError):
        build_instance(4, 1, seed=0)


def test_build_instance_budget():
    with pytest.raises(TensorBudgetError) as err:
        build_instance(100, 3, seed=0, memory_budget=8 * 10 ** 5)
    # reports the largest feasible size: (1e5)^(1/3) -> 46
    assert "46" in str(err.value)


def test_tensor_is_read_only():
    inst = build_instance(4, 2, seed=0)
    with pytest.raises(ValueError):
        inst.tensor[0, 0] = 1.0


@pytest.mark.parametrize("p", [2, 3])
def test_hamiltonian_matches_brute_force(p):
    inst = build_instance(3, p, seed=7)
    rng = np.random.default_rng(0)
    for _ in range(4):
        x = spins(rng.integers(0, 2, 3) * 2 - 1)
        expect = oracles.brute_force_hamiltonian(inst.tensor, x, inst.scale)
        assert hamiltonian(inst, x) == pytest.approx(expect, rel=1e-12)


def test_hamiltonian_cache_round_trip():
    inst = build_instance(4, 2, seed=1)
    x = spins([1, -1, 1, 1])
    h1 = hamiltonian(inst, x)
    assert hamiltonian(inst, x) == h1  # cache hit, bitwise


@pytest.mark.parametrize("p", [2, 3])
def test_hamiltonian_covariance(p):
    # E H(x) H(y) = n R^p over fresh environments
    n = 6
    x0 = spins([1] * 6)
    x1 = x0.copy(); x1[0] = -1           # R = 2/3
    x2 = x0.copy(); x2[:3] = -1          # R = 0
    rng = np.random.default_rng(2)
    draws = sample_hamiltonians(n, p, [x0, x1, x2], 30_000, rng)
    emp = np.cov(draws.T)
    for i, j, r in ((0, 0, 1.0), (0, 1, 2.0 / 3.0), (0, 2, 0.0), (1, 1, 1.0)):
        target = n * r ** p
        se = math.sqrt((n * n * (1.0 + r ** (2 * p)) + target ** 2) / 30_000)
        assert abs(emp[i, j] - target) <= 5.0 * se


@pytest.mark.parametrize("p", [2, 3])
def test_delta_flip_matches_fresh_instance(p):
    inst = build_instance(5, p, seed=9)
    rng = np.random.default_rng(3)
    x = spins(rng.integers(0, 2, 5) * 2 - 1)
    h = hamiltonian(inst, x)
    for k in range(5):
        h_new = delta_flip(inst, x, k, h)
        fresh = build_instance(5, p, seed=9)   # empty cache, no circularity
        y = x.copy()
        y[k] = -y[k]
        assert h_new == pytest.approx(hamiltonian(fresh, y), rel=1e-10, abs=1e-12)
        # the flipped value is cached on the original instance
        assert hamiltonian(inst, y) == h_new
    with pytest.raises(ValueError):
        delta_flip(inst, x, 5, h)


def test_tau_overlap_srw_step():
    inst = build_instance(4, 2, seed=5, beta=1.7)
    x = spins([1, 1, -1, 1])
    assert tau(inst, x) == pytest.approx(1.7 * hamiltonian(inst, x))
    assert overlap(x, x) == 1.0
    y = x.copy(); y[2] = 1.0
    assert overlap(x, y) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        overlap(x, spins([1, 1]))
    rng = np.random.default_rng(6)
    for _ in range(50):
        z = srw_step(x, rng)
        assert int(np.sum(z != x)) == 1
    with pytest.raises(ValueError):
        srw_step(np.array([1.0, 0.5]), rng)


@pytest.mark.parametrize("p", [2, 3])
def test_batch_walker_tracks_hamiltonian(p):
    inst = build_instance(6, p, seed=11)
    rng = np.random.default_rng(7)
    x0 = rng.integers(0, 2, (8, 6)).astype(float) * 2 - 1
    walker = _BatchWalker(inst, x0)
    for _ in range(150):
        walker.step(rng)
    fresh = build_instance(6, p, seed=11)
    for r in range(8):
        assert walker.H[r] == pytest.approx(
            hamiltonian(fresh, walker.X[r]), rel=1e-9, abs=1e-10)


def _state(index, n):
    # the energy-table convention: bit i of the index set iff x_i = -1
    return spins([-1.0 if (index >> i) & 1 else 1.0 for i in range(n)])


@pytest.mark.parametrize("p, n", [(2, 2), (2, 5), (2, 10), (3, 2), (3, 3), (3, 5), (3, 8)])
def test_energy_table_matches_brute_force(p, n):
    inst = build_instance(n, p, seed=40 + n)
    table = inst.energy_table()
    assert table.shape == (2 ** n,)
    assert inst.energy_table() is table  # built once
    for index in range(2 ** n):
        expect = oracles.brute_force_hamiltonian(inst.tensor, _state(index, n), inst.scale)
        assert table[index] == pytest.approx(expect, rel=1e-12, abs=1e-12)


def _assert_walkers_agree(table, field):
    np.testing.assert_array_equal(table.X, field.X)
    # relative to the largest |H|: a single H may sit near 0
    assert np.max(np.abs(table.H - field.H)) <= 1e-12 * np.max(np.abs(field.H))


def _walk_both(table, field, steps, seed):
    """Step both walkers on identically seeded streams, comparing after each step."""
    rng_t, rng_f = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(steps):
        table.step(rng_t)
        field.step(rng_f)
        _assert_walkers_agree(table, field)
    assert rng_t.bit_generator.state == rng_f.bit_generator.state


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [4, 9, 12])
def test_table_walker_matches_field_walker(n, p):
    inst = build_instance(n, p, seed=50 + n)
    x0 = np.random.default_rng(n).integers(0, 2, (64, n)).astype(float) * 2 - 1
    table, field = _TableWalker(inst, x0), _BatchWalker(inst, x0)
    _assert_walkers_agree(table, field)
    _walk_both(table, field, 200, seed=p)
    keep = np.arange(64) % 3 != 0
    table, field = table.restrict(keep), field.restrict(keep)
    assert table.R == field.R == int(keep.sum())
    _assert_walkers_agree(table, field)
    _walk_both(table, field, 100, seed=9)


def test_walker_chooses_table_up_to_n20_for_walks_that_pay_for_it():
    long_walk = 10 ** 7
    assert isinstance(_walker(build_instance(20, 2, seed=1), -np.ones((2, 20)), long_walk),
                      _TableWalker)
    assert isinstance(_walker(build_instance(21, 2, seed=1), -np.ones((2, 21)), long_walk),
                      _BatchWalker)
    # 40 environments of 200 replicas x 3n^2 steps at n = 20 (variance):
    # a table per environment would cost more than it saves for p=2
    short_walk = 200 * 3 * 20 ** 2
    assert isinstance(_walker(build_instance(20, 2, seed=1), -np.ones((2, 20)), short_walk),
                      _BatchWalker)
    assert isinstance(_walker(build_instance(20, 3, seed=1), -np.ones((2, 20)), short_walk),
                      _TableWalker)
    inst = build_instance(8, 3, seed=1)
    assert isinstance(_walker(inst, -np.ones((2, 8)), 0), _BatchWalker)
    assert inst._table is None
    with pytest.raises(ValueError):
        _TableWalker(build_instance(5, 2, seed=1), np.ones((3, 4)))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.sampled_from([2, 3]), st.integers(0, 2 ** 32 - 1),
       st.integers(1, 60))
def test_walkers_track_hamiltonian_property(n, p, seed, steps):
    inst = build_instance(n, p, seed=seed)
    rng = np.random.default_rng(seed)
    x0 = rng.integers(0, 2, (5, n)).astype(float) * 2 - 1
    for walker in (_TableWalker(inst, x0), _BatchWalker(inst, x0)):
        walk_rng = np.random.default_rng(seed)
        for _ in range(steps):
            walker.step(walk_rng)
        for x, h in zip(walker.X, walker.H):
            assert h == pytest.approx(hamiltonian(inst, x), rel=1e-10, abs=1e-10)


# -- scaling schedule --------------------------------------------------------


def test_schedule_frozen_values_n16():
    sched = make_schedule(16, 2, c=0.25, beta=1.0)
    assert sched.gamma == pytest.approx(0.5, rel=1e-15)
    assert sched.alpha_n == pytest.approx(0.5, rel=1e-15)
    assert sched.theta_n == 768
    assert sched.log_c_n == pytest.approx(8.0, rel=1e-15)
    assert sched.a_n == pytest.approx(
        math.sqrt(32.0 * math.pi) * 2.0 * math.exp(2.0), rel=1e-13)
    assert sched.v_n == 11  # round(16^((0.25 + 1.5)/2)) = round(2^3.5)
    assert sched.p == 2 and sched.beta == 1.0 and sched.c_exponent == 0.25


def test_schedule_frozen_values_n8():
    sched = make_schedule(8, 2, c=0.25, beta=1.0)
    g = 2.0 ** -0.75
    assert sched.gamma == pytest.approx(g, rel=1e-15)
    assert sched.theta_n == 192
    assert sched.log_c_n == pytest.approx(8.0 * g, rel=1e-14)
    assert sched.a_n == pytest.approx(
        math.sqrt(16.0 * math.pi) / g * math.exp(math.sqrt(2.0)), rel=1e-13)
    assert sched.v_n == 6


def test_schedule_validation():
    with pytest.raises(ValueError):
        make_schedule(8, 2, c=0.5, beta=1.0)
    with pytest.raises(ValueError):
        make_schedule(8, 2, c=-0.1, beta=1.0)
    with pytest.raises(ValueError):
        make_schedule(8, 2, c=0.25, beta=0.0)
    with pytest.warns(UserWarning, match="subadditive"):
        make_schedule(16, 2, c=0.25, beta=0.5)  # alpha exactly 1
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError):
            make_schedule(16, 2, c=0.25, beta=0.4)  # alpha > 1 rejected
    with pytest.raises(ValueError, match="overflow"):
        make_schedule(10 ** 6, 2, c=0.05, beta=1.0)


def test_check_schedule_names_smallest_beta():
    # alpha_n = n^{-c} / beta <= 1 needs beta >= 8^{-0.05} = 0.90125...
    check_schedule(8, 0.05, 8.0 ** -0.05)
    with pytest.warns(UserWarning, match="subadditive"):  # alpha_n exactly 1
        make_schedule(8, 2, c=0.05, beta=8.0 ** -0.05)
    with pytest.raises(ValueError, match="min beta for n=8 is 0.90125"):
        check_schedule(8, 0.05, 0.9)
    with pytest.raises(ValueError, match="beta must be positive"):
        check_schedule(8, 0.05, 0.0)
    # an overflowing a_n is reported first, whatever beta is
    with pytest.raises(ValueError, match="max n for c=0.01 is 1623"):
        check_schedule(2000, 0.01, 0.1)


# -- decoupled comparison process --------------------------------------------


def test_check_schedule_names_largest_n():
    with pytest.raises(ValueError, match="max n for c=0.01 is 1623"):
        check_schedule(2000, 0.01)
    check_schedule(1623, 0.01)
    make_schedule(1623, 2, c=0.01, beta=1.0)
    with pytest.raises(ValueError, match="max n for c=0.01 is 1623"):
        make_schedule(1624, 2, c=0.01, beta=1.0)
    with pytest.raises(ValueError):
        check_schedule(8, 0.5)


def test_h1_covariance_no_repair():
    proc = H1BlockProcess(16, 2, 3)
    expect = np.array([[1.0, 0.75, 0.5], [0.75, 1.0, 0.75], [0.5, 0.75, 1.0]])
    assert np.allclose(proc.raw, expect)
    assert float(np.min(np.linalg.eigvalsh(expect))) > 0.0
    assert proc.repair_distance == 0.0
    assert np.allclose(proc.covariance, expect)

    rng = np.random.default_rng(8)
    draws = proc.sample(rng, 60_000)
    emp = np.cov(draws.T)
    assert np.max(np.abs(emp - expect)) < 0.03


def test_h1_covariance_repair():
    # 2p/n = 1 makes the linearised matrix indefinite for v >= 3
    proc = H1BlockProcess(4, 2, 4)
    assert float(np.min(np.linalg.eigvalsh(proc.raw))) < 0.0
    assert proc.repair_distance > 0.0
    assert np.allclose(np.diag(proc.covariance), 1.0, atol=1e-12)
    assert float(np.min(np.linalg.eigvalsh(proc.covariance))) >= -1e-10
    with pytest.raises(ValueError):
        H1BlockProcess(4, 2, 0)


def test_h1_process_block_structure():
    n, p, v = 16, 2, 4
    assert sample_h1_block(n, p, v, np.random.default_rng(0)).shape == (v,)
    rng = np.random.default_rng(9)
    proc = H1BlockProcess(n, p, v)
    rows = np.stack([sample_h1_process(n, p, v, 2 * v, rng) for _ in range(4000)])
    assert rows.shape == (4000, 2 * v)
    emp = np.corrcoef(rows.T)
    # adjacent within a block: the repaired covariance entry
    assert abs(emp[0, 1] - proc.covariance[0, 1]) < 0.08
    # adjacent across the block boundary: independent
    assert abs(emp[v - 1, v]) < 0.08
    # partial final block is a truncated draw
    assert sample_h1_process(n, p, v, 2 * v + 2, rng).shape == (2 * v + 2,)
    with pytest.raises(ValueError):
        sample_h1_process(n, p, v, 0, rng)


def test_block_max_tail_single_index_closed_form():
    sched = make_schedule(8, 2, c=0.25, beta=1.0)
    proc = H1BlockProcess(8, 2, sched.v_n)
    rng = np.random.default_rng(10)
    u = 1.0
    acc = block_max_tail(u, proc, [1], sched, 60_000, rng)
    # single unit-variance coordinate: P(sqrt(n) beta U > log threshold)
    target = norm.sf(sched.log_threshold(u) / (math.sqrt(8.0) * 1.0))
    assert abs(acc.mean - target) <= 3.0 * acc.sem + 1e-12
    assert acc.count == 60_000


def test_block_max_tail_with_marks_matches_quadrature():
    sched = make_schedule(8, 2, c=0.25, beta=1.0)
    proc = H1BlockProcess(8, 2, sched.v_n)
    rng = np.random.default_rng(11)
    u = 0.5
    acc = block_max_tail(u, proc, [1], sched, 60_000, rng, with_marks=True)
    thr = sched.log_threshold(u)
    scale = math.sqrt(8.0)
    # P(scale*U + log E > thr) = E_U P(E > exp(thr - scale*U))
    target, _ = quad(
        lambda z: norm.pdf(z) * math.exp(-math.exp(thr - scale * z)),
        -12.0, 12.0, epsabs=1e-12)
    assert abs(acc.mean - target) <= 3.0 * acc.sem + 1e-12


def test_block_max_tail_validation():
    sched = make_schedule(8, 2, c=0.25, beta=1.0)
    proc = H1BlockProcess(8, 2, sched.v_n)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        block_max_tail(1.0, proc, [], sched, 10, rng)
    with pytest.raises(ValueError):
        block_max_tail(1.0, proc, [0], sched, 10, rng)  # 1-based indices
    with pytest.raises(ValueError):
        block_max_tail(1.0, proc, [sched.v_n + 1], sched, 10, rng)
    bare = ScalingSchedule(n=8, a_n=10.0, log_c_n=1.0, theta_n=4,
                           alpha_n=1.0, v_n=2)
    with pytest.raises(ValueError):
        block_max_tail(1.0, proc, [1], bare, 10, rng)


def test_thin_indices():
    rng = np.random.default_rng(12)
    gamma = 16.0 ** -0.25
    rate = gamma * gamma * math.log(16.0)
    counts = [thin_indices(500, 16, rng, gamma=gamma).size for _ in range(400)]
    mean = float(np.mean(counts))
    se = float(np.std(counts, ddof=1)) / math.sqrt(400)
    assert abs(mean - 500 * rate) <= 4.0 * se
    idx = thin_indices(500, 16, rng, gamma=gamma)
    assert idx.size == 0 or (idx.min() >= 1 and idx.max() <= 500)
    assert thin_indices(0, 16, rng, gamma=gamma).size == 0
    with pytest.raises(ValueError):
        thin_indices(10, 8, rng, gamma=0.9)  # rate > 1
    with pytest.raises(ValueError):
        thin_indices(-1, 16, rng, gamma=gamma)


# -- Gaussian comparison ------------------------------------------------------


def test_comparison_matrix_validation():
    rng = np.random.default_rng(0)
    good = np.eye(2)
    with pytest.raises(ValueError):
        gaussian_comparison_rhs(np.ones((2, 3)), good, 1.0)
    bad_sym = np.array([[1.0, 0.5], [0.4, 1.0]])
    with pytest.raises(ValueError):
        gaussian_comparison_rhs(bad_sym, good, 1.0)
    bad_diag = np.array([[2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        gaussian_comparison_rhs(bad_diag, good, 1.0)
    not_psd = np.array([[1.0, 0.0, 0.99], [0.0, 1.0, -0.99], [0.99, -0.99, 1.0]])
    with pytest.raises(ValueError):
        gaussian_comparison_rhs(not_psd, np.eye(3), 1.0)
    with pytest.raises(ValueError):
        max_cdf_mc(bad_sym, 1.0, 10, rng)


def test_gaussian_comparison_dominates_exact_difference():
    for rho0, rho1, s in ((0.5, 0.0, 1.0), (0.8, 0.2, 0.5), (0.3, 0.1, 2.0)):
        d0 = np.array([[1.0, rho0], [rho0, 1.0]])
        d1 = np.array([[1.0, rho1], [rho1, 1.0]])
        exact = oracles.bivariate_max_cdf(s, rho0) - oracles.bivariate_max_cdf(s, rho1)
        rhs = gaussian_comparison_rhs(d0, d1, s)
        assert exact > 0.0
        assert rhs >= exact


def test_gaussian_comparison_zero_when_no_positive_part():
    d0 = np.eye(2)
    d1 = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert gaussian_comparison_rhs(d0, d1, 1.0) == 0.0


def _random_correlation(dim, rng):
    g = rng.standard_normal((dim, dim + 1))
    gram = g @ g.T
    scale = 1.0 / np.sqrt(np.diag(gram))
    corr = gram * scale[:, None] * scale[None, :]
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return corr


def test_gaussian_comparison_closed_form_matches_quadrature():
    # signed correlations, so some pairs have no positive part and some
    # interpolation paths cross zero
    rng = np.random.default_rng(37)
    for dim in (2, 3, 5, 8):
        for _ in range(5):
            d0, d1 = _random_correlation(dim, rng), _random_correlation(dim, rng)
            s = float(rng.uniform(0.0, 3.0))
            expected = oracles.comparison_rhs_quadrature(d0, d1, s)
            assert gaussian_comparison_rhs(d0, d1, s) == pytest.approx(expected, rel=1e-10)


def test_gaussian_comparison_singular_correlation_rejected():
    d0 = np.ones((2, 2))
    with pytest.raises(ValueError, match="singular"):
        gaussian_comparison_rhs(d0, np.eye(2), 1.0)


def test_max_cdf_mc_matches_bivariate_oracle():
    rng = np.random.default_rng(13)
    rho, s = 0.6, 1.0
    d = np.array([[1.0, rho], [rho, 1.0]])
    acc = max_cdf_mc(d, s, 200_000, rng)
    target = oracles.bivariate_max_cdf(s, rho)
    # cross-check the oracle itself against direct 2-d quadrature
    assert target == pytest.approx(oracles.bivariate_max_cdf_dblquad(s, rho), abs=1e-8)
    assert abs(acc.mean - target) <= 3.0 * acc.sem


def test_max_cdf_mc_sequence_shares_draws():
    # one call over a level sequence equals scalar calls on the same draws;
    # 70,000 reps span two draw chunks
    d = _random_correlation(4, np.random.default_rng(5))
    levels = [0.5, 2.0, 1.0]
    accs = max_cdf_mc(d, levels, 70_000, np.random.default_rng(17))
    assert len(accs) == len(levels)
    for s, acc in zip(levels, accs):
        single = max_cdf_mc(d, s, 70_000, np.random.default_rng(17))
        assert (acc.count, acc.mean, acc.m2) == (single.count, single.mean, single.m2)
    assert accs[0].mean < accs[2].mean < accs[1].mean
    with pytest.raises(ValueError):
        max_cdf_mc(d, [], 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        max_cdf_mc(d, [[1.0]], 10, np.random.default_rng(0))


def test_gaussian_comparison_rhs_sequence_matches_scalar():
    # one call over a level sequence equals scalar calls, bit for bit
    rng = np.random.default_rng(23)
    for dim in (2, 5, 12):
        d0, d1 = _random_correlation(dim, rng), _random_correlation(dim, rng)
        levels = [0.5, 2.0, 0.0, 1.0]
        bounds = gaussian_comparison_rhs(d0, d1, levels)
        assert bounds.shape == (len(levels),)
        assert bounds.tolist() == [gaussian_comparison_rhs(d0, d1, s) for s in levels]
        assert isinstance(gaussian_comparison_rhs(d0, d1, 1.0), float)
    with pytest.raises(ValueError):
        gaussian_comparison_rhs(d0, d1, [])
    with pytest.raises(ValueError):
        gaussian_comparison_rhs(d0, d1, [[1.0]])


# -- persistence --------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    inst = build_instance(6, 3, seed=21)
    path = tmp_path / "instance.pspn"
    save_instance(inst, path)
    back = load_instance(path, beta=2.0, c=0.1)
    assert back.n == 6 and back.p == 3 and back.seed == 21
    assert np.array_equal(back.tensor, inst.tensor)
    assert back.beta == 2.0 and back.c == 0.1
    assert back.gamma == pytest.approx(6.0 ** -0.1)


def test_load_rejects_corruption(tmp_path):
    inst = build_instance(6, 2, seed=22)
    path = tmp_path / "instance.pspn"
    save_instance(inst, path)
    blob = bytearray(path.read_bytes())
    blob[-1] ^= 0xFF  # flip a hash byte
    bad = tmp_path / "bad.pspn"
    bad.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="hash"):
        load_instance(bad)
    short = tmp_path / "short.pspn"
    short.write_bytes(blob[:10])
    with pytest.raises(IntegrityError, match="truncated"):
        load_instance(short)
    blob2 = bytearray(path.read_bytes())
    blob2[:4] = b"XXXX"
    wrong = tmp_path / "wrong.pspn"
    wrong.write_bytes(bytes(blob2))
    with pytest.raises(IntegrityError):
        load_instance(wrong)


# -- chain model and vectorised hooks -----------------------------------------


def test_hypercube_basics():
    rng = np.random.default_rng(14)
    model = HypercubeSRW(6)
    x = model.initial_state(rng)
    assert x.shape == (6,) and np.all(np.abs(x) == 1.0)
    y = model.next_state(x, rng)
    assert int(np.sum(y != x)) == 1
    assert model.log_pi(x) == pytest.approx(-6.0 * math.log(2.0))
    assert model.period == 2
    X = model.sample_stationary(100, rng)
    assert X.shape == (100, 6) and np.all(np.abs(X) == 1.0)
    stepped = model.step_batch(X, rng, steps=3)
    flips = np.sum(stepped != X, axis=1)
    assert np.all(flips <= 3) and np.all((flips % 2) == 1)  # 3 steps, odd parity
    with pytest.raises(ValueError):
        HypercubeSRW(0)


def test_environment_wrapper():
    inst = build_instance(5, 2, seed=30, beta=0.7)
    env = PSpinEnvironment(inst)
    assert env.log_C == pytest.approx(5.0 * math.log(2.0))
    x = spins([1, -1, 1, -1, 1])
    assert env.log_tau(x) == pytest.approx(0.7 * hamiltonian(inst, x))


@pytest.mark.parametrize("p", [2, 3])
def test_batch_log_inv_rates_match_scalar(p):
    inst = build_instance(6, p, seed=31, beta=0.5)
    env = PSpinEnvironment(inst)
    model = HypercubeSRW(6)
    rng = np.random.default_rng(15)
    X = model.sample_stationary(40, rng)
    fast = model.batch_log_inv_rates(env, X)
    slow = np.asarray([engine.log_inverse_rate(env, model, x) for x in X])
    np.testing.assert_allclose(fast, slow, rtol=1e-10)


def test_batch_log_inv_rates_bound_p3_walker_rows(monkeypatch):
    # a p=3 field walker builds an (R, n, n) array; the rates call hands
    # it no more rows than block_statistics does, 2_000_000 // 40**2 = 1250
    from extremalclock import pspin

    sizes = []

    class RecordingWalker(_BatchWalker):
        def __init__(self, inst, x0):
            sizes.append(len(x0))
            super().__init__(inst, x0)

    monkeypatch.setattr(pspin, "_BatchWalker", RecordingWalker)
    inst = build_instance(40, 3, seed=37, beta=0.5)
    model = HypercubeSRW(40)
    X = model.sample_stationary(2000, np.random.default_rng(18))
    rates = model.batch_log_inv_rates(PSpinEnvironment(inst), X)
    assert max(sizes) <= 1250 and sum(sizes) == 2000
    rows = [0, 1249, 1250, 1999]
    np.testing.assert_allclose(rates[rows], [0.5 * hamiltonian(inst, X[i]) for i in rows],
                               rtol=1e-10)


@pytest.mark.parametrize("p", [2, 3])
def test_block_statistics_hook_vs_generic(p):
    inst = build_instance(6, p, seed=33, beta=0.5)
    env = PSpinEnvironment(inst)
    fast_model = HypercubeSRW(6)
    slow_model = PlainCube(6)
    theta, reps = 20, 3000
    fast = engine.block_statistics(fast_model, env, theta, reps,
                                   np.random.default_rng(16), want_max=True)
    slow = engine.block_statistics(slow_model, env, theta, reps,
                                   np.random.default_rng(17), want_max=True)
    assert fast.log_sums.shape == slow.log_sums.shape == (reps,)
    # path-wise sandwich: max <= sum <= theta * max
    for stats in (fast, slow):
        assert np.all(stats.log_maxes <= stats.log_sums + 1e-12)
        assert np.all(stats.log_sums <= stats.log_maxes + math.log(theta) + 1e-12)
    # same law: compare the tail fraction at a mid threshold
    thr = float(np.median(slow.log_sums))
    pf = float(np.mean(fast.log_sums > thr))
    ps = float(np.mean(slow.log_sums > thr))
    se = math.sqrt(pf * (1 - pf) / reps + ps * (1 - ps) / reps)
    assert abs(pf - ps) <= 4.0 * se


def test_block_statistics_hook_respects_starts_and_ends():
    inst = build_instance(6, 2, seed=34)
    env = PSpinEnvironment(inst)
    model = HypercubeSRW(6)
    rng = np.random.default_rng(18)
    starts = model.sample_stationary(50, rng)
    stats = engine.block_statistics(model, env, theta=5, reps=50, rng=rng,
                                    starts=starts, want_end=True)
    ends = np.asarray(stats.end_states)
    assert ends.shape == (50, 6)
    dist = np.sum(ends != starts, axis=1)
    assert np.all(dist <= 5) and np.all((dist % 2) == 1)  # 5 flips, odd parity


def _per_step_block_statistics(model, env, theta, reps, rng, starts=None):
    """block_statistics with one logaddexp per step, for reps in one chunk."""
    inst = env.inst
    x0 = model.sample_stationary(reps, rng) if starts is None else starts
    walker = _walker(inst, x0, reps * theta)
    offset = -env.log_C - model.log_pi(x0[0])
    ls = np.full(reps, -math.inf)
    lm = np.full(reps, -math.inf)
    for _ in range(theta):
        walker.step(rng)
        term = inst.beta * walker.H + offset + np.log(rng.standard_exponential(reps))
        ls = np.logaddexp(ls, term)
        lm = np.maximum(lm, term)
    return ls, lm, walker.X


@pytest.mark.parametrize("n, p, reps, theta, walker_type", [
    (8, 2, 300, 121, _TableWalker),   # blocks of 54 steps: 54, 54, 13
    (20, 2, 2000, 21, _BatchWalker),  # a walk too short for the table; 8, 8, 5
    (6, 3, 9000, 3, _TableWalker),    # 9000 replicas: one step per block
    (21, 3, 3000, 11, _BatchWalker),  # n > 20; 5, 5, 1
])
@pytest.mark.parametrize("given_starts", [False, True])
def test_block_statistics_matches_per_step_reference(n, p, reps, theta, walker_type,
                                                     given_starts):
    inst = build_instance(n, p, seed=60 + n, beta=0.7)
    env = PSpinEnvironment(inst)
    model = HypercubeSRW(n)
    assert isinstance(_walker(inst, -np.ones((1, n)), reps * theta), walker_type)
    starts = model.sample_stationary(reps, np.random.default_rng(n)) if given_starts else None
    rng, ref_rng = np.random.default_rng(61), np.random.default_rng(61)
    got = model.block_statistics(env, theta, reps, rng, starts=starts,
                                 want_max=True, want_end=True)
    ls, lm, ends = _per_step_block_statistics(model, env, theta, reps, ref_rng, starts)
    np.testing.assert_allclose(got.log_sums, ls, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got.log_maxes, lm)
    np.testing.assert_array_equal(got.end_states, ends)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    bare = model.block_statistics(env, theta, reps, np.random.default_rng(61), starts=starts)
    np.testing.assert_array_equal(bare.log_sums, got.log_sums)
    assert bare.log_maxes is None and bare.end_states is None


def test_trajectory_matches_srw_step_loop():
    model = HypercubeSRW(7)
    traj = engine.simulate_trajectory(model, 300, np.random.default_rng(62))
    rng = np.random.default_rng(62)
    x = model.initial_state(rng)
    states, marks = [x], [rng.standard_exponential()]
    for _ in range(300):
        x = srw_step(x, rng)
        states.append(x)
        marks.append(rng.standard_exponential())
    np.testing.assert_array_equal(np.asarray(traj.states), np.asarray(states))
    np.testing.assert_array_equal(traj.marks, marks)
    assert np.all(np.abs(np.asarray(traj.states)) == 1.0)
    with pytest.raises(ValueError):
        srw_step(np.array([1.0, 0.0, -1.0]), rng)


def test_correlation_hook_vs_generic():
    inst = build_instance(6, 2, seed=35, beta=0.5)
    env = PSpinEnvironment(inst)
    sched = ScalingSchedule(n=6, a_n=20.0, log_c_n=2.0, theta_n=4,
                            alpha_n=1.0, v_n=2)
    fast = engine.estimate_correlation(
        HypercubeSRW(6), env, sched, eps=0.5, t=1.0, s=1.0,
        reps=1500, rng=np.random.default_rng(19), step_budget=100_000)
    slow = engine.estimate_correlation(
        PlainCube(6), env, sched, eps=0.5, t=1.0, s=1.0,
        reps=1500, rng=np.random.default_rng(20), step_budget=100_000)
    assert fast.truncated == 0 and slow.truncated == 0
    se = math.sqrt(fast.se ** 2 + slow.se ** 2)
    assert abs(fast.value - slow.value) <= 4.0 * se


def test_correlation_hook_same_hold_gives_full_overlap():
    # horizon so short that both crossings happen during the first hold
    inst = build_instance(6, 2, seed=36, beta=0.1)
    env = PSpinEnvironment(inst)
    sched = ScalingSchedule(n=6, a_n=10.0, log_c_n=-60.0, theta_n=4,
                            alpha_n=1.0, v_n=2)
    est = engine.estimate_correlation(
        HypercubeSRW(6), env, sched, eps=0.5, t=1.0, s=0.5,
        reps=64, rng=np.random.default_rng(21), step_budget=1000)
    assert est.value == 1.0


def test_engine_runs_reference_loops_where_the_model_does_not_vectorise(monkeypatch):
    # p = 4 has no vectorised kernel: engine must run its reference loops
    inst = build_instance(4, 4, seed=38, beta=0.5)
    env = PSpinEnvironment(inst)
    model = HypercubeSRW(4)
    assert not model.vectorises(env)
    assert model.vectorises(PSpinEnvironment(build_instance(4, 2, seed=38)))
    assert not HypercubeSRW(5).vectorises(PSpinEnvironment(build_instance(4, 2, seed=38)))

    def refuse(*args, **kwargs):
        raise AssertionError("vectorised kernel called for an unsupported environment")

    for name in ("block_statistics", "correlation_overlaps", "batch_log_inv_rates"):
        monkeypatch.setattr(HypercubeSRW, name, refuse)

    states = model.sample_stationary(30, np.random.default_rng(39))
    rates = engine.log_inverse_rates(model, env, states)
    assert rates.tolist() == [engine.log_inverse_rate(env, model, x) for x in states]

    got = engine.block_statistics(model, env, 6, 30, np.random.default_rng(40),
                                  starts=states, want_max=True, want_end=True)
    ref = engine.generic_block_statistics(model, env, 6, 30, np.random.default_rng(40),
                                          starts=states, want_max=True, want_end=True)
    np.testing.assert_array_equal(got.log_sums, ref.log_sums)
    np.testing.assert_array_equal(got.log_maxes, ref.log_maxes)
    np.testing.assert_array_equal(np.asarray(got.end_states), np.asarray(ref.end_states))

    sched = ScalingSchedule(n=4, a_n=10.0, log_c_n=0.0, theta_n=4, alpha_n=1.0, v_n=2)
    est = engine.estimate_correlation(model, env, sched, eps=0.5, t=1.0, s=1.0, reps=40,
                                      rng=np.random.default_rng(41), step_budget=10_000)
    overlaps, truncated = engine.generic_correlation_overlaps(
        model, env, sched.log_threshold(1.0), sched.log_threshold(2.0), 40,
        np.random.default_rng(41), 10_000)
    assert est.truncated == truncated == 0
    assert est.value == float(np.mean(overlaps >= 0.5))


def test_symmetric_tensor_publishes_diagonals_first():
    # pause the building thread right after it publishes _sym; a walker
    # started meanwhile on another thread must find the p=3 diagonals
    from extremalclock.pspin import PSpinInstance

    published, resume = threading.Event(), threading.Event()

    class PausingInstance(PSpinInstance):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "_sym" and value is not None:
                published.set()
                resume.wait(timeout=10)

    base = build_instance(6, 3, seed=4)
    inst = PausingInstance(n=6, p=3, seed=4, tensor=base.tensor.copy())
    builder = threading.Thread(target=inst.symmetric_tensor)
    builder.start()
    try:
        assert published.wait(timeout=10)
        x0 = np.array([[1.0, -1.0, 1.0, 1.0, -1.0, -1.0]] * 4)
        walker = _BatchWalker(inst, x0)
        walker.step(np.random.default_rng(0))
    finally:
        resume.set()
        builder.join(timeout=10)
    assert not builder.is_alive()
    for row, h in zip(walker.X, walker.H):
        assert h == pytest.approx(hamiltonian(base, row), abs=1e-9)


def test_energy_table_is_published_complete():
    # pause the building thread right after it publishes _table; a walker
    # started meanwhile on another thread must read finished energies
    from extremalclock.pspin import PSpinInstance

    published, resume = threading.Event(), threading.Event()

    class PausingInstance(PSpinInstance):
        def __setattr__(self, name, value):
            super().__setattr__(name, value)
            if name == "_table" and value is not None:
                published.set()
                resume.wait(timeout=10)

    base = build_instance(6, 3, seed=4)
    inst = PausingInstance(n=6, p=3, seed=4, tensor=base.tensor.copy())
    build_thread = threading.Thread(target=inst.energy_table)
    build_thread.start()
    try:
        assert published.wait(timeout=10)
        x0 = np.array([[1.0, -1.0, 1.0, 1.0, -1.0, -1.0]] * 4)
        walker = _TableWalker(inst, x0)
        walker.step(np.random.default_rng(0))
    finally:
        resume.set()
        build_thread.join(timeout=10)
    assert not build_thread.is_alive()
    for row, h in zip(walker.X, walker.H):
        assert h == pytest.approx(hamiltonian(base, row), abs=1e-9)


@pytest.mark.parametrize("p", [2, 3])
def test_threads_first_walking_a_shared_instance_agree_with_one_thread(p):
    # four threads build the symmetrised tensor and the energy table of one
    # fresh instance while switching every microsecond; each must see the
    # single-threaded log-sums of its own stream
    n, seeds = 12, (1, 2, 3, 4)
    model = HypercubeSRW(n)

    def log_sums(inst, seed):
        env = PSpinEnvironment(inst)
        return model.block_statistics(env, 40, 300, np.random.default_rng(seed)).log_sums

    expected = [log_sums(build_instance(n, p, seed=60, beta=0.5), s) for s in seeds]
    shared = build_instance(n, p, seed=60, beta=0.5)
    got = [None] * len(seeds)
    start = threading.Barrier(len(seeds))

    def work(i):
        start.wait(timeout=10)
        got[i] = log_sums(shared, seeds[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(seeds))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for g, e in zip(got, expected):
        np.testing.assert_array_equal(g, e)
