"""Spin-glass environment: tensors, incremental kernels, schedules,
comparison machinery, persistence, vectorised chain hooks."""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from extremalclock import engine, pspin
from extremalclock.engine import ScalingSchedule
from extremalclock.pspin import (
    HypercubeSRW,
    IntegrityError,
    PSpinEnvironment,
    TensorBudgetError,
    _BatchWalker,
    _TableWalker,
    _walker,
    build_instance,
    check_schedule,
    delta_flip,
    gaussian_comparison_rhs,
    hamiltonian,
    load_instance,
    make_schedule,
    max_cdf_mc,
    overlap,
    sample_hamiltonians,
    save_instance,
    tau,
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


def _step(walker, rng):
    """One step of every row, on the flips a kernel would draw for it."""
    R, n = walker.X.shape
    walker.walk(rng.integers(0, n, (1, R)), np.empty((1, R)))


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


@pytest.mark.parametrize("n, p, seed, digest", [
    (8, 2, 7, "90d732c8fc31eb47713b464a8670ffd07c3867c5cda4afffa4a24b1d4f705420"),
    (6, 3, 11, "105097be147e552301595551ef4c0b2568d1dabf3c0ad30e55f5e5fc579623f6"),
])
def test_landscape_head_hash_pinned(n, p, seed, digest):
    # couplings come from the Philox stream the saved header names, never
    # from a job stream: these digests hold whatever engine.stream draws
    assert build_instance(n, p, seed).head_hash().hex() == digest


def test_job_stream_keyed_by_seed_and_job_index():
    draws = [engine.stream((5, index)).random(8) for index in (0, 0, 1)]
    assert np.array_equal(draws[0], draws[1])
    assert not np.array_equal(draws[0], draws[2])
    assert isinstance(engine.stream((5, 0)).bit_generator, np.random.SFC64)


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
        # the incremental value never stands in for the contraction
        assert hamiltonian(inst, y) == hamiltonian(fresh, y)
    with pytest.raises(ValueError):
        delta_flip(inst, x, 5, h)


def test_tau_overlap_next_state():
    inst = build_instance(4, 2, seed=5, beta=1.7)
    x = spins([1, 1, -1, 1])
    assert tau(inst, x) == pytest.approx(1.7 * hamiltonian(inst, x))
    assert overlap(x, x) == 1.0
    y = x.copy(); y[2] = 1.0
    assert overlap(x, y) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        overlap(x, spins([1, 1]))
    rng = np.random.default_rng(6)
    model = HypercubeSRW(4)
    for _ in range(50):
        z = model.next_state(x, rng)
        assert int(np.sum(z != x)) == 1


@pytest.mark.parametrize("p", [2, 3])
def test_batch_walker_tracks_hamiltonian(p):
    inst = build_instance(6, p, seed=11)
    rng = np.random.default_rng(7)
    x0 = rng.integers(0, 2, (8, 6)).astype(float) * 2 - 1
    walker = _BatchWalker(inst, x0)
    for _ in range(150):
        _step(walker, rng)
    fresh = build_instance(6, p, seed=11)
    for r in range(8):
        assert walker.H[r] == pytest.approx(
            hamiltonian(fresh, walker.X[r]), rel=1e-9, abs=1e-10)


def _state(index, n):
    # the energy-table convention: bit i of the index set iff x_i = -1
    return spins([-1.0 if (index >> i) & 1 else 1.0 for i in range(n)])


@pytest.mark.parametrize("p, n", [(2, 12), (2, 16), (3, 16), (4, 10), (5, 5)])
def test_energy_table_is_the_full_transform_byte_for_byte(p, n):
    # rows holding a mask: 22 of 64, 37 of 256, 93 of 256, 31 of 32 and all 8 of 8
    inst = build_instance(n, p, seed=30 + n)
    full = oracles.full_walsh_energy_table(inst.tensor, inst.scale)
    assert inst.energy_table().tobytes() == full.tobytes()


@pytest.mark.parametrize("p, n", [(2, 2), (2, 5), (2, 10), (3, 2), (3, 3), (3, 5), (3, 8),
                                  (4, 3), (4, 6), (5, 2), (5, 5)])
def test_energy_table_matches_brute_force(p, n):
    inst = build_instance(n, p, seed=40 + n)
    table = inst.energy_table()
    assert table.shape == (2 ** n,)
    assert inst.energy_table() is table  # built once
    for index in range(2 ** n):
        expect = oracles.brute_force_hamiltonian(inst.tensor, _state(index, n), inst.scale)
        assert table[index] == pytest.approx(expect, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("p", [2, 3])
def test_weight_table_is_normal_with_one_at_the_top(p):
    inst = build_instance(10, p, seed=44, beta=2.5)
    H = inst.energy_table()
    top, w = inst.weight_table()
    assert inst.weight_table()[1] is w  # built once
    assert top == (inst.beta * H).max()
    assert w.max() == 1.0 and w[np.argmax(H)] == 1.0
    assert w.min() >= np.finfo(float).tiny
    np.testing.assert_allclose(np.log(w), inst.beta * H - top, rtol=0, atol=1e-12)
    # beyond the span an entry could leave the normal range: no array
    hot = build_instance(10, p, seed=44, beta=1.01 * pspin._WEIGHT_SPAN / np.ptp(H))
    assert hot.weight_table() == ((hot.beta * H).max(), None)


def _assert_walkers_agree(table, field):
    np.testing.assert_array_equal(table.X, field.X)
    # relative to the largest |H|: a single H may sit near 0
    assert np.max(np.abs(table.H - field.H)) <= 1e-12 * np.max(np.abs(field.H))


def _walk_both(table, field, steps, seed):
    """Walk both walkers on the same flips, one row of them at a time, comparing after each."""
    rng_t, rng_f = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(steps):
        flips = rng_t.integers(0, table.n, (1, table.R))
        np.testing.assert_array_equal(flips, rng_f.integers(0, field.inst.n, (1, field.R)))
        table.walk(flips, np.empty((1, table.R)))
        field.walk(flips, np.empty((1, field.R)))
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


@pytest.mark.parametrize("p", [2, 3])
def test_table_walker_block_equals_one_row_walks(p):
    n, R, steps = 10, 37, 25
    inst = build_instance(n, p, seed=80 + p)
    x0 = np.random.default_rng(p).integers(0, 2, (R, n)).astype(float) * 2 - 1
    flips = np.random.default_rng(p + 1).integers(0, n, (steps, R))
    block, single = _TableWalker(inst, x0), _TableWalker(inst, x0)
    out = np.empty((steps, R))
    block.walk(flips, out)
    for i in range(steps):
        h = np.empty((1, R))
        single.walk(flips[i:i + 1], h)
        np.testing.assert_array_equal(h[0], out[i])
    np.testing.assert_array_equal(block.idx, single.idx)
    np.testing.assert_array_equal(block.H, single.H)
    np.testing.assert_array_equal(block.X, single.X)


def test_table_walker_indices_are_int64_whatever_the_flips_dtype():
    n, R = 10, 6
    inst = build_instance(n, 2, seed=3)
    x0 = np.random.default_rng(0).integers(0, 2, (R, n)).astype(float) * 2 - 1
    flips = np.random.default_rng(1).integers(0, n, (5, R))
    wide = _TableWalker(inst, x0).path(flips)
    for dtype in (np.uint16, np.uint32):
        idx = _TableWalker(inst, x0).path(flips.astype(dtype))
        assert idx.dtype == np.int64
        np.testing.assert_array_equal(idx, wide)


def test_walker_is_the_table_up_to_n20_and_the_field_above_whatever_the_walk():
    for p in (2, 3):
        assert isinstance(_walker(build_instance(20, p, seed=1), -np.ones((2, 20))),
                          _TableWalker)
    assert isinstance(_walker(build_instance(21, 2, seed=1), -np.ones((2, 21))), _BatchWalker)
    # rates at given states take the same walker: exact energy-table reads
    # at n <= 20, the field walker's contraction above
    for n, p in ((8, 2), (8, 3), (20, 3), (21, 2)):
        inst = build_instance(n, p, seed=1, beta=0.7)
        X = HypercubeSRW(n).sample_stationary(50, np.random.default_rng(n + p))
        rates = HypercubeSRW(n).batch_log_inv_rates(PSpinEnvironment(inst), X)
        if n <= 20:
            idx = (X < 0.0) @ (np.int64(1) << np.arange(n, dtype=np.int64))
            np.testing.assert_array_equal(rates, inst.beta * inst.energy_table()[idx])
        else:
            np.testing.assert_array_equal(rates, inst.beta * _BatchWalker(inst, X).H)
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
            _step(walker, walk_rng)
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
    # beta * n past 1e300 would make log c_n infinite
    with pytest.raises(ValueError, match=r"max beta for n=16 is 6.25e\+298"):
        make_schedule(16, 2, c=0.05, beta=1e308)
    assert math.isfinite(make_schedule(16, 2, c=0.05, beta=1e300 / 16).log_c_n)


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


def test_check_schedule_names_largest_beta():
    # log c_n = gamma beta n, the block thresholds and beta H stay finite
    # while beta * n <= 1e300; the largest beta named is accepted
    largest = 1e300 / 16
    check_schedule(16, 0.05, largest)
    with pytest.raises(ValueError, match=r"beta \* n > 1e300 for n=16.*max beta for n=16 "
                                         r"is 6\.25e\+298"):
        check_schedule(16, 0.05, math.nextafter(largest, math.inf))
    with pytest.raises(ValueError, match="max beta for n=8 is 1.25e\\+299"):
        check_schedule(8, 0.05, 1e308)
    check_schedule(16, 0.05, 1e6)
    check_schedule(16, 0.05)  # no beta, no beta rule


def test_check_schedule_names_largest_n():
    with pytest.raises(ValueError, match="max n for c=0.01 is 1623"):
        check_schedule(2000, 0.01)
    check_schedule(1623, 0.01)
    make_schedule(1623, 2, c=0.01, beta=1.0)
    with pytest.raises(ValueError, match="max n for c=0.01 is 1623"):
        make_schedule(1624, 2, c=0.01, beta=1.0)
    with pytest.raises(ValueError):
        check_schedule(8, 0.5)


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
    with pytest.raises(ValueError, match="minus must be symmetric"):
        max_cdf_mc(good, 1.0, 10, rng, minus=bad_sym)
    # the tolerances are np.allclose's (rtol 1e-5) with atol 1e-12
    for entry, value, accepted in (((1, 0), 0.5 * (1.0 + 1e-6), True),
                                   ((1, 0), 0.5 * (1.0 + 1e-3), False),
                                   ((0, 0), 1.0 + 1e-6, True),
                                   ((0, 0), 1.0 + 1e-3, False)):
        d = np.array([[1.0, 0.5], [0.5, 1.0]])
        d[entry] = value
        assert (np.allclose(d, d.T, atol=1e-12)
                and np.allclose(np.diag(d), 1.0, atol=1e-12)) == accepted
        if accepted:
            gaussian_comparison_rhs(d, good, 1.0)
        else:
            with pytest.raises(ValueError, match="symmetric|unit diagonal"):
                gaussian_comparison_rhs(d, good, 1.0)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_comparison_matrix_rejects_non_finite_entries(bad):
    # np.allclose holds for equal infinities, so only the finiteness check catches inf
    d = np.array([[1.0, bad], [bad, 1.0]])
    with pytest.raises(ValueError, match="delta must have finite entries"):
        max_cdf_mc(d, 1.0, 100, np.random.default_rng(0))
    with pytest.raises(ValueError, match="delta0 must have finite entries"):
        gaussian_comparison_rhs(d, np.eye(2), 1.0)
    with pytest.raises(ValueError, match="delta1 must have finite entries"):
        gaussian_comparison_rhs(np.eye(2), d, [0.5, 1.0])


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
    # one call over a level sequence equals scalar calls on the same draws,
    # alone and paired; 140,001 reps are 70,001 antithetic pairs, two draw chunks
    d = _random_correlation(4, np.random.default_rng(5))
    levels = [0.5, 2.0, 1.0]
    for minus in (None, _random_correlation(4, np.random.default_rng(6))):
        accs = max_cdf_mc(d, levels, 140_001, np.random.default_rng(17), minus=minus)
        assert len(accs) == len(levels)
        for s, acc in zip(levels, accs):
            single = max_cdf_mc(d, s, 140_001, np.random.default_rng(17), minus=minus)
            assert (acc.count, acc.mean, acc.m2) == (single.count, single.mean, single.m2)
    accs = max_cdf_mc(d, levels, 140_001, np.random.default_rng(17))
    assert accs[0].mean < accs[2].mean < accs[1].mean
    with pytest.raises(ValueError):
        max_cdf_mc(d, [], 10, np.random.default_rng(0))
    with pytest.raises(ValueError):
        max_cdf_mc(d, [[1.0]], 10, np.random.default_rng(0))


def test_max_cdf_mc_counts_match_indicator_path():
    # 140,001 reps are 70,001 antithetic pairs, two draw chunks; the mean is
    # an exact ratio of integer sums
    d0, d1 = (_random_correlation(6, np.random.default_rng(k)) for k in (31, 32))
    levels = [0.0, 0.5, 1.0, 2.0, 8.0]
    for minus in (None, d1):
        accs = max_cdf_mc(d0, levels, 140_001, np.random.default_rng(41), minus=minus)
        want = oracles.max_cdf_indicators(d0, levels, 140_001, np.random.default_rng(41),
                                          minus=minus)
        for acc, (count, mean, m2) in zip(accs, want):
            assert (acc.count, acc.mean) == (count, mean)
            assert acc.m2 == pytest.approx(m2, rel=1e-12, abs=0.0)


def test_max_cdf_mc_no_replicas_gives_empty_accumulators():
    d0, d1 = (_random_correlation(3, np.random.default_rng(k)) for k in (33, 34))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for minus in (None, d1):
            accs = max_cdf_mc(d0, [0.5, 1.0], 0, np.random.default_rng(0), minus=minus)
            assert [(a.count, a.mean, a.m2) for a in accs] == [(0, 0.0, 0.0)] * 2
            assert max_cdf_mc(d0, 1.0, 0, np.random.default_rng(0), minus=minus).sem == 0.0


def test_max_cdf_mc_paired_matches_bivariate_oracle():
    rho0, rho1, s, reps = 0.6, 0.2, 1.0, 200_000
    d0 = np.array([[1.0, rho0], [rho0, 1.0]])
    d1 = np.array([[1.0, rho1], [rho1, 1.0]])
    gap = max_cdf_mc(d0, s, reps, np.random.default_rng(23), minus=d1)
    target = oracles.bivariate_max_cdf(s, rho0) - oracles.bivariate_max_cdf(s, rho1)
    assert abs(gap.mean - target) <= 4.0 * gap.sem
    # common random numbers: the paired SE is below the independent one
    rng = np.random.default_rng(29)
    alone = [max_cdf_mc(d, s, reps, rng) for d in (d0, d1)]
    assert gap.sem < math.hypot(alone[0].sem, alone[1].sem)


class _CountingNormals:
    """A generator that counts the standard normals it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.normals = 0

    def standard_normal(self, size):
        self.normals += int(np.prod(size))
        return self._rng.standard_normal(size)


def test_max_cdf_mc_paired_draws_one_vector_per_replica():
    # one vector per antithetic pair of replicas serves both matrices
    d0, d1 = (_random_correlation(5, np.random.default_rng(k)) for k in (7, 8))
    rng = _CountingNormals(0)
    max_cdf_mc(d0, [0.5, 1.0, 2.0], 140_001, rng, minus=d1)
    assert rng.normals == 70_001 * 5
    with pytest.raises(ValueError, match="share a shape"):
        max_cdf_mc(d0, 1.0, 10, rng, minus=np.eye(4))


@pytest.mark.parametrize("dim, seed", [(3, 51), (6, 52)])
def test_max_cdf_mc_paired_counts_are_differences_of_unpaired_counts(dim, seed):
    # both paths draw through the same symmetric roots, so from one generator
    # state the paired sum of v over the pairs is delta's sum less minus's, exactly
    rng = np.random.default_rng(seed)
    d0, d1 = _random_correlation(dim, rng), _random_correlation(dim, rng)
    levels = [0.0, 0.5, 1.0, 2.0]

    def counts(accs):
        # the mean of the pair means v / 2 is sum v / (2 count)
        return [round(acc.mean * 2 * acc.count) for acc in accs]

    paired = counts(max_cdf_mc(d0, levels, 70_000, np.random.default_rng(9), minus=d1))
    c0, c1 = (counts(max_cdf_mc(d, levels, 70_000, np.random.default_rng(9)))
              for d in (d0, d1))
    assert paired == [a - b for a, b in zip(c0, c1)]
    assert any(paired)


def test_max_cdf_mc_odd_reps_round_up_to_whole_pairs():
    d = _random_correlation(3, np.random.default_rng(53))
    for reps in (1, 7, 2001):
        for minus in (None, np.eye(3)):
            acc = max_cdf_mc(d, 1.0, reps, np.random.default_rng(0), minus=minus)
            assert acc.count == (reps + 1) // 2
    assert max_cdf_mc(d, 1.0, 1, np.random.default_rng(0)).sem == 0.0


class _FixedNormals:
    """A generator that hands out one fixed (dim, m) block of normals."""

    def __init__(self, z):
        self.z = np.asarray(z, dtype=float)

    def standard_normal(self, size):
        assert tuple(size) == self.z.shape
        return self.z.copy()


def test_max_cdf_mc_reads_minus_z_through_min_h():
    # with delta = I, H = z: z counts 1{max z <= s} and -z counts 1{min z >= -s}
    z = [[0.5, 3.0, 0.5, -0.5],
         [-3.0, -0.5, 0.7, 2.0]]
    levels = [1.0, 2.5, 4.0]
    accs = max_cdf_mc(np.eye(2), levels, 8, _FixedNormals(z))
    # pair sums v = z's + -z's per level: s = 1: 1+0, 0+1, 1+1, 0+1;
    # s = 2.5: 1+0, 0+1, 1+1, 1+1; s = 4: 1+1 each
    assert [a.count for a in accs] == [4, 4, 4]
    assert [a.mean for a in accs] == [5 / 8, 3 / 4, 1.0]
    assert [a.m2 for a in accs] == pytest.approx([3 / 16, 1 / 4, 0.0], abs=1e-15)
    # paired with the rank-one minus, H' = (z_1 + z_2) / sqrt 2 in both
    # coordinates: -1.77, 1.77, 0.85 and 1.06, so a pair with |H'| > s has
    # one replica below s and one above
    ones = np.ones((2, 2))
    gaps = max_cdf_mc(np.eye(2), [1.0, 1.5], 8, _FixedNormals(z), minus=ones)
    # v - v' at s = 1: (1, 1, 2, 1) - (1, 1, 2, 1); at s = 1.5: (1, 1, 2, 1) - (1, 1, 2, 2)
    assert [(g.count, g.mean) for g in gaps] == [(4, 0.0), (4, -1 / 8)]
    assert [g.m2 for g in gaps] == pytest.approx([0.0, 3 / 16], abs=1e-15)


@pytest.mark.parametrize("dim", [2, 6])
def test_max_cdf_mc_sem_matches_spread_over_seeds(dim):
    # the reported SE over pairs is honest: the sd of the estimates across
    # seeds lies within 20% of their mean sem, alone and paired
    d0, d1 = (_random_correlation(dim, np.random.default_rng(k)) for k in (61, 62))
    s = 0.5 if dim == 2 else 1.5
    for minus in (None, d1):
        accs = [max_cdf_mc(d0, s, 2000, np.random.default_rng(seed), minus=minus)
                for seed in range(200)]
        sd = float(np.std([a.mean for a in accs], ddof=1))
        sem = float(np.mean([a.sem for a in accs]))
        assert 0.8 <= sd / sem <= 1.2, (dim, minus is None, sd, sem)


def test_comparison_rejects_nan_levels():
    d0, d1 = np.array([[1.0, 0.5], [0.5, 1.0]]), np.eye(2)
    rng = np.random.default_rng(0)
    for s in (float("nan"), [float("nan"), 1.0]):
        with pytest.raises(ValueError, match="^s must not be NaN$"):
            max_cdf_mc(d0, s, 100, rng)
        with pytest.raises(ValueError, match="^s must not be NaN$"):
            max_cdf_mc(d0, s, 100, rng, minus=d1)
        with pytest.raises(ValueError, match="^s must not be NaN$"):
            gaussian_comparison_rhs(d0, d1, s)
    # s = inf stays exact: the bound is 0 and every replica lies below
    assert gaussian_comparison_rhs(d0, d1, float("inf")) == 0.0
    assert gaussian_comparison_rhs(d0, d1, [float("inf"), 1.0])[0] == 0.0
    acc = max_cdf_mc(d0, float("inf"), 100, rng)
    assert (acc.count, acc.mean, acc.sem) == (50, 1.0, 0.0)
    gap = max_cdf_mc(d0, [float("inf"), 1.0], 100, rng, minus=d1)[0]
    assert (gap.mean, gap.sem) == (0.0, 0.0)


def test_comparison_errors_name_their_matrix():
    rng = np.random.default_rng(0)
    good = np.eye(3)
    asymmetric = np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])
    not_psd = np.array([[1.0, 0.0, 0.99], [0.0, 1.0, -0.99], [0.99, -0.99, 1.0]])
    for bad, why in ((asymmetric, "symmetric"), (not_psd, "positive semi-definite")):
        with pytest.raises(ValueError, match=f"^delta0 must be {why}$"):
            gaussian_comparison_rhs(bad, good, 1.0)
        with pytest.raises(ValueError, match=f"^delta1 must be {why}$"):
            gaussian_comparison_rhs(good, bad, [0.5, 1.0])
        with pytest.raises(ValueError, match=f"^delta must be {why}$"):
            max_cdf_mc(bad, 1.0, 10, rng)
        with pytest.raises(ValueError, match=f"^minus must be {why}$"):
            max_cdf_mc(good, 1.0, 10, rng, minus=bad)
    for call in (lambda: gaussian_comparison_rhs(good, np.eye(2), 1.0),
                 lambda: gaussian_comparison_rhs(np.eye(2), good, [0.5, 1.0]),
                 lambda: max_cdf_mc(good, 1.0, 10, rng, minus=np.eye(2))):
        with pytest.raises(ValueError, match="^covariance matrices must share a shape$"):
            call()


def test_comparison_rejects_an_empty_matrix_by_name():
    rng, good, empty = np.random.default_rng(0), np.eye(3), np.zeros((0, 0))
    for name, call in (("delta0", lambda: gaussian_comparison_rhs(empty, good, 1.0)),
                       ("delta1", lambda: gaussian_comparison_rhs(good, empty, [0.5, 1.0])),
                       ("delta", lambda: max_cdf_mc(empty, 1.0, 10, rng)),
                       ("minus", lambda: max_cdf_mc(good, 1.0, 10, rng, minus=empty))):
        with pytest.raises(ValueError, match=f"^{name} must not be empty$"):
            call()


def test_comparison_decomposes_each_matrix_once(monkeypatch):
    shapes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    rng = np.random.default_rng(25)
    d0, d1 = _random_correlation(4, rng), _random_correlation(4, rng)
    gaussian_comparison_rhs(d0, d1, [0.5, 1.0])
    assert len(shapes) == 2
    max_cdf_mc(d0, [0.5, 1.0], 100, rng, minus=d1)
    assert len(shapes) == 4
    max_cdf_mc(d0, 1.0, 100, rng)
    assert shapes == [(4, 4)] * 5


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



def test_gaussian_comparison_rhs_huge_level_is_zero_without_overflow_warning():
    # s^2 overflows a double past s ~ 1.3e154; the bound there is exactly 0
    rng = np.random.default_rng(24)
    d0, d1 = _random_correlation(5, rng), _random_correlation(5, rng)
    bounds = gaussian_comparison_rhs(d0, d1, [1.0, 1e200])
    assert bounds[0] == gaussian_comparison_rhs(d0, d1, 1.0) > 0.0
    assert bounds[1] == 0.0
    assert gaussian_comparison_rhs(d0, d1, 1e160) == 0.0

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


def test_load_rejects_an_unknown_generator(tmp_path):
    inst = build_instance(6, 2, seed=22)
    path = tmp_path / "other.pspn"
    path.write_bytes(pspin._HEADER.pack(pspin._MAGIC, 1, 6, 2, 22,
                                        b"other-gen".ljust(32, b"\0"), inst.head_hash()))
    with pytest.raises(IntegrityError, match="unknown tensor generator 'other-gen'"):
        load_instance(path)


def test_state_shape_checks():
    inst = build_instance(6, 2, seed=3)
    with pytest.raises(ValueError, match="spin state must be a 1-d vector"):
        hamiltonian(inst, np.ones((2, 6)))
    with pytest.raises(ValueError, match=r"spin entries must be \+-1"):
        hamiltonian(inst, [1.0, -1.0, 0.0, 1.0, 1.0, 1.0])
    for x0 in (np.ones(6), np.ones((4, 5))):
        with pytest.raises(ValueError, match=r"start states must form an \(R, n\) array"):
            _TableWalker(inst, x0)


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


@pytest.mark.parametrize("R", [7, 8])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_step_batch_equals_a_per_step_loop(steps, R):
    # one (steps, R) draw gives the same flips as `steps` draws of R, and
    # leaves the stream where the loop leaves it, for odd and even R alike
    model = HypercubeSRW(5)
    X = model.sample_stationary(R, engine.stream(1))
    batch_rng, loop_rng = engine.stream(2), engine.stream(2)
    stepped = model.step_batch(X, batch_rng, steps=steps)
    looped, rows = X.copy(), np.arange(R)
    for _ in range(steps):
        k = loop_rng.integers(0, 5, R)
        looped[rows, k] = -looped[rows, k]
    assert np.array_equal(stepped, looped)
    assert np.array_equal(batch_rng.integers(0, 5, 9), loop_rng.integers(0, 5, 9))
    assert batch_rng.standard_exponential() == loop_rng.standard_exponential()


@pytest.mark.parametrize("n", [12, 16, 20, 22])
def test_draw_flips_are_uniform(n):
    # 2^16 mod n is 4, 0, 16 and 20: every n but 16 takes the redraw
    flips = pspin._draw_flips(np.random.default_rng(n), n, (400, 500))
    assert flips.shape == (400, 500) and flips.min() == 0 and flips.max() == n - 1
    assert flips.dtype == np.int64  # the table walker's indices and the field walker's takes
    assert scipy.stats.chisquare(np.bincount(flips.ravel(), minlength=n)).pvalue > 1e-3


class _RawWords:
    """A Generator stand-in whose bit generator hands out fixed 64-bit words in order."""

    def __init__(self, chunks):
        # four 16-bit chunks per word, the low chunk first
        self.words = [sum(c << (16 * i) for i, c in enumerate(chunks[k:k + 4]))
                      for k in range(0, len(chunks), 4)]
        self.taken = []
        self.bit_generator = self

    def random_raw(self, size):
        self.taken.append(size)
        start = sum(self.taken[:-1])
        return np.array(self.words[start:start + size], dtype=np.uint64)


def test_draw_flips_redraw_rejected_chunks_in_order_from_fresh_words():
    # at n = 20 a chunk c is redrawn when c * 20 mod 2^16 < 16: so are
    # 0, 3277, 6554 and 9831 (remainders 0, 4, 8 and 12)
    chunks = [0, 3277, 5000, 20000, 30000, 6554, 65535, 65535,  # 6 chunks; 0, 1, 5 rejected
              9831, 50000, 60000, 1,  # redraws of 0 (rejected again), 1 and 5
              40000, 2, 3, 4,  # redraw of 0
              7, 7, 7, 7]  # never taken
    drawn = []
    for _ in range(2):
        rng = _RawWords(chunks)
        drawn.append(pspin._draw_flips(rng, 20, (2, 3)))
        assert rng.taken == [2, 1, 1]  # words per draw
    # (c * 20) >> 16 of 40000, 50000, 5000, 20000, 30000 and 60000
    np.testing.assert_array_equal(drawn[0], [[12, 15, 1], [6, 9, 18]])
    np.testing.assert_array_equal(drawn[1], drawn[0])


def test_draw_flips_range():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="n = 65537"):
        pspin._draw_flips(rng, 2 ** 16 + 1, (3,))
    # at n = 2^16 a flip is its chunk
    words = rng.bit_generator.random_raw(2)
    chunks = [(int(w) >> (16 * i)) & 0xFFFF for w in words for i in range(4)]
    np.testing.assert_array_equal(pspin._draw_flips(_RawWords(chunks), 2 ** 16, (7,)),
                                  chunks[:7])


def test_draw_marks_are_exp1():
    out = np.empty(200_000)
    marks = pspin._draw_marks(np.random.default_rng(4), out)
    assert marks is out and np.all(np.isfinite(marks)) and marks.min() >= 0.0
    assert scipy.stats.kstest(marks, "expon").pvalue > 1e-3


class _FirstMarkZero:
    """A Generator stand-in whose first ``random`` draw starts with U = 0: a mark of 0."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.bit_generator = self._rng.bit_generator
        self.zeroed = False

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, out):
        self._rng.random(out=out)
        if not self.zeroed:
            out.flat[0], self.zeroed = 0.0, True
        return out


@pytest.mark.parametrize("beta", [0.7, 100.0])  # weights, and the shifted sums past their span
def test_block_statistics_take_a_zero_mark(beta):
    n, reps, theta = 8, 300, 121
    inst = build_instance(n, 2, seed=60 + n, beta=beta)
    env, model = PSpinEnvironment(inst), HypercubeSRW(n)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.block_statistics(env, theta, reps, _FirstMarkZero(61), want_max=True)
    assert np.all(np.isfinite(got.log_sums)) and np.all(np.isfinite(got.log_maxes))
    # the zero mark's term is -inf: the same sums as the per-step loop on the same draws
    ls, lm, _ = _per_step_block_statistics(model, env, theta, reps, _FirstMarkZero(61))
    np.testing.assert_allclose(got.log_sums, ls, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(got.log_maxes, lm)


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


def test_p3_field_walker_bounds_its_own_slabs():
    # the walker takes its (rows, n, n) temporaries max(256, 2_000_000 // 40**2)
    # = 1250 rows at a time, with each row's arithmetic independent of R
    n, R = 40, 2000
    inst = build_instance(n, 3, seed=37, beta=0.5)
    model = HypercubeSRW(n)
    X = model.sample_stationary(R, np.random.default_rng(18))
    rates = model.batch_log_inv_rates(PSpinEnvironment(inst), X)
    rows = [0, 1249, 1250, 1999]
    np.testing.assert_allclose(rates[rows], [0.5 * hamiltonian(inst, X[i]) for i in rows],
                               rtol=1e-10)
    flips = np.random.default_rng(19).integers(0, n, (6, R))
    whole, out = _BatchWalker(inst, X), np.empty((6, R))
    whole.walk(flips, out)
    halves = (slice(0, 1250), slice(1250, R))
    parts = [_BatchWalker(inst, X[s]) for s in halves]
    for part, s in zip(parts, halves):
        part_out = np.empty((6, part.R))
        part.walk(flips[:, s], part_out)
        np.testing.assert_array_equal(part_out, out[:, s])
    for name in ("X", "F", "K", "H"):
        np.testing.assert_array_equal(
            getattr(whole, name), np.concatenate([getattr(w, name) for w in parts]))
    np.testing.assert_allclose(whole.H[rows], [hamiltonian(inst, whole.X[i]) for i in rows],
                               rtol=1e-10)


@pytest.mark.parametrize("kernel", ["rates", "block_statistics", "correlation_overlaps"])
def test_p3_kernels_peak_memory_is_bounded_by_the_walker_slab(kernel):
    # at n = 40, R = 4000 a whole (R, n, n) temporary would take 51 MB alone
    n, R = 40, 4000
    inst = build_instance(n, 3, seed=38, beta=0.5)
    inst.symmetric_tensor()
    env, model = PSpinEnvironment(inst), HypercubeSRW(n)
    rng = np.random.default_rng(20)
    X = model.sample_stationary(R, rng) if kernel == "rates" else None
    tracemalloc.start()
    try:
        if kernel == "rates":
            model.batch_log_inv_rates(env, X)
        elif kernel == "block_statistics":
            model.block_statistics(env, 2, R, rng, want_max=True, want_end=True)
        else:
            overlaps = model.correlation_overlaps(env, [1e9, 2e9], [(0, 1)], R, rng, 2)
            assert np.isnan(overlaps).all()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


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
    """block_statistics with one logaddexp per step, on one walker of all reps.

    Draws each block's flips and then its marks through the kernel's
    samplers, and walks the flips one row at a time.
    """
    inst = env.inst
    x0 = model.sample_stationary(reps, rng) if starts is None else starts
    walker = _walker(inst, x0)
    offset = -env.log_C - model.log_pi(x0[0])
    ls = np.full(reps, -math.inf)
    lm = np.full(reps, -math.inf)
    rows = min(theta, max(1, pspin._BLOCK_ELEMS // reps))
    for j in range(0, theta, rows):
        r = min(rows, theta - j)
        flips = pspin._draw_flips(rng, model.n, (r, reps))
        marks = pspin._draw_marks(rng, np.empty((r, reps)))
        for i in range(r):
            walker.walk(flips[i:i + 1], np.empty((1, reps)))
            with np.errstate(divide="ignore"):  # a mark of 0 has log -inf
                term = inst.beta * walker.H + offset + np.log(marks[i])
            ls = np.logaddexp(ls, term)
            lm = np.maximum(lm, term)
    return ls, lm, walker.X


def _block_sum_case(n, p, reps, theta, walker_type, beta=0.7, sums="weights"):
    tag = "" if beta == 0.7 else f"-beta{beta:g}"
    return pytest.param(n, p, reps, theta, walker_type, beta, sums,
                        id=f"{n}-{p}-{reps}-{theta}-{walker_type.__name__}{tag}")


@pytest.mark.parametrize("n, p, reps, theta, walker_type, beta, sums", [
    _block_sum_case(8, 2, 300, 121, _TableWalker),   # blocks of 54 steps: 54, 54, 13
    _block_sum_case(21, 2, 2000, 21, _BatchWalker, sums="shifted"),  # n > 20
    _block_sum_case(6, 3, 9000, 3, _TableWalker),    # 9000 replicas: one step per block
    _block_sum_case(21, 3, 3000, 11, _BatchWalker, sums="shifted"),  # n > 20; 5, 5, 1
    # beta (max H - min H) about 1040, past the weight table's span of 600
    _block_sum_case(8, 2, 300, 121, _TableWalker, beta=100.0, sums="shifted"),
])
@pytest.mark.parametrize("given_starts", [False, True])
def test_block_statistics_matches_per_step_reference(n, p, reps, theta, walker_type, beta,
                                                     sums, given_starts):
    inst = build_instance(n, p, seed=60 + n, beta=beta)
    env = PSpinEnvironment(inst)
    model = HypercubeSRW(n)
    assert isinstance(_walker(inst, -np.ones((1, n))), walker_type)
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
    # which block sums ran: the field walker never asks for weights
    if walker_type is _BatchWalker:
        assert inst._weights is None
    else:
        assert (inst._weights[1] is not None) == (sums == "weights")


def test_trajectory_matches_next_state_loop():
    model = HypercubeSRW(7)
    traj = engine.simulate_trajectory(model, 300, np.random.default_rng(62))
    rng = np.random.default_rng(62)
    x = model.initial_state(rng)
    states, marks = [x], [rng.standard_exponential()]
    for _ in range(300):
        x = model.next_state(x, rng)
        states.append(x)
        marks.append(rng.standard_exponential())
    np.testing.assert_array_equal(np.asarray(traj.states), np.asarray(states))
    np.testing.assert_array_equal(traj.marks, marks)
    assert np.all(np.abs(np.asarray(traj.states)) == 1.0)


def test_correlation_hook_vs_generic():
    # a 2 x 2 (t, s) grid from one walk each, checked pair by pair
    inst = build_instance(6, 2, seed=35, beta=0.5)
    env = PSpinEnvironment(inst)
    sched = ScalingSchedule(n=6, a_n=20.0, log_c_n=2.0, theta_n=4,
                            alpha_n=1.0, v_n=2)
    pairs = [(t, s) for t in (0.5, 1.0) for s in (0.5, 1.0)]
    fast = engine.estimate_correlation(
        HypercubeSRW(6), env, sched, eps=0.5, pairs=pairs,
        reps=1500, rng=np.random.default_rng(19), step_budget=100_000)
    slow = engine.estimate_correlation(
        PlainCube(6), env, sched, eps=0.5, pairs=pairs,
        reps=1500, rng=np.random.default_rng(20), step_budget=100_000)
    assert len(fast) == len(slow) == len(pairs)
    for f, w in zip(fast, slow):
        assert f.truncated == 0 and w.truncated == 0
        se = math.sqrt(f.se ** 2 + w.se ** 2)
        assert abs(f.value - w.value) <= 4.0 * se


def test_correlation_hook_same_hold_gives_full_overlap():
    # horizon so short that both crossings happen during the first hold
    inst = build_instance(6, 2, seed=36, beta=0.1)
    env = PSpinEnvironment(inst)
    sched = ScalingSchedule(n=6, a_n=10.0, log_c_n=-60.0, theta_n=4,
                            alpha_n=1.0, v_n=2)
    (est,) = engine.estimate_correlation(
        HypercubeSRW(6), env, sched, eps=0.5, pairs=[(1.0, 0.5)],
        reps=64, rng=np.random.default_rng(21), step_budget=1000)
    assert est.value == 1.0


class _RecordingRng:
    """A Generator stand-in that keeps a copy of every array it draws.

    Its stationary starts come from ``integers``; a kernel's flips and
    marks come from ``pspin._draw_flips`` and ``pspin._draw_marks``,
    which the ``recording`` fixture routes through ``record``.
    """

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.draws = []

    def integers(self, *args, **kwargs):
        self.draws.append(self._rng.integers(*args, **kwargs))
        return self.draws[-1].copy()

    def record(self, draw, *args):
        drawn = draw(self._rng, *args)
        self.draws.append(drawn.copy())
        return drawn


@pytest.fixture
def recording(monkeypatch):
    """Route the kernels' flip and mark samplers through a ``_RecordingRng``'s ``record``."""
    for name in ("_draw_flips", "_draw_marks"):
        draw = getattr(pspin, name)
        monkeypatch.setattr(pspin, name, lambda rng, *args, draw=draw: (
            rng.record(draw, *args) if isinstance(rng, _RecordingRng) else draw(rng, *args)))
    return _RecordingRng


def _per_step_overlaps(inst, walker_type, draws, log_levels, pairs):
    """correlation_overlaps as a loop of single steps over its recorded draws.

    ``draws`` holds the stationary starts, then each block's flips and
    marks.  Step i owns the state before flip i, and a row leaves the
    walk at the end of the block in which it passed the last level.
    Returns the (reps, len(pairs)) overlaps and the kinds of crossing
    seen.
    """
    x0 = draws[0] * 2.0 - 1.0
    reps, n = x0.shape
    walker = walker_type(inst, x0)
    cum = np.full(reps, -math.inf)
    states = np.full((reps, len(log_levels), n), np.nan)
    alive = np.arange(reps)  # output row of each walker row
    seen = set()
    for flips, marks in zip(draws[1::2], draws[2::2]):
        r = len(flips)
        assert flips.shape == marks.shape == (r, walker.R)
        for i in range(r):
            with np.errstate(divide="ignore"):  # a mark of 0 has log -inf
                nxt = np.logaddexp(cum, inst.beta * walker.H + np.log(marks[i]))
            crossed = np.array([(cum <= level) & (level < nxt) for level in log_levels])
            X = walker.X
            for level, cross in enumerate(crossed):
                states[alive[cross], level] = X[cross]
            if r > 1 and crossed.any():
                seen.add({0: "first step", r - 1: "last step"}.get(i, "inner step"))
            if np.any(crossed.sum(axis=0) > 1):
                seen.add("same step")
            cum = nxt
            walker.walk(flips[i:i + 1], np.empty((1, walker.R)))
        keep = np.isnan(states[alive, -1, 0])
        if 0 < keep.sum() < len(keep):
            seen.add("retired")
        walker = walker.restrict(keep)
        alive, cum = alive[keep], cum[keep]
    overlaps = np.array([[x[a] @ x[b] / n for a, b in pairs] for x in states])
    return overlaps, seen


@pytest.mark.parametrize("walker_type", [_TableWalker, _BatchWalker])
@pytest.mark.parametrize("p", [2, 3])
def test_correlation_overlaps_match_per_step_loop(monkeypatch, recording, p, walker_type):
    # blocks of 256 // R steps, so that crossings fall on first and last
    # steps; budgets that are no multiple of a block; grids of up to four
    # levels, two of them close enough to fall in one step
    n, reps = 8, 48
    monkeypatch.setattr(pspin, "_BLOCK_ELEMS", 256)
    monkeypatch.setattr(pspin, "_walker", lambda inst, x0: walker_type(inst, x0))
    inst = build_instance(n, p, seed=70 + p, beta=0.8)
    env = PSpinEnvironment(inst)
    seen = set()
    for seed, (log_levels, pairs, budget) in enumerate([
            ([3.0, 3.5], [(0, 1)], 203), ([4.0, 6.0], [(0, 1)], 101),
            ([5.0], [(0, 0)], 77), ([2.0, 7.0], [(0, 1)], 45),
            ([2.5, 3.0, 3.05, 4.5], [(0, 1), (0, 3), (1, 2), (2, 3), (1, 1)], 150),
            ([3.0, 4.0, 6.5], [(0, 2), (1, 2), (0, 1)], 90)]):
        rng = recording(seed)
        got = HypercubeSRW(n).correlation_overlaps(env, log_levels, pairs, reps, rng, budget)
        want, events = _per_step_overlaps(inst, walker_type, rng.draws, log_levels, pairs)
        np.testing.assert_array_equal(got, want)
        assert got.shape == (reps, len(pairs))
        blocks = rng.draws[1::2]
        # every block takes 256 // R steps, or what is left of the budget
        lengths = [len(flips) for flips in blocks]
        assert lengths == [min(budget - sum(lengths[:b]), max(1, 256 // flips.shape[1]))
                           for b, flips in enumerate(blocks)]
        if np.isnan(got).any():  # a truncated walk ran to the budget
            assert sum(lengths) == budget
            if lengths[-1] < 256 // blocks[-1].shape[1]:
                events.add("cut short")
        seen |= events
    assert seen >= {"first step", "last step", "same step", "retired", "cut short"}
    # which running sum ran: the linear one on the table walker's weights,
    # the logaddexp one on the field walker, which never asks for weights
    if walker_type is _BatchWalker:
        assert inst._weights is None
    else:
        assert inst._weights[1] is not None


@pytest.mark.parametrize("p", [2, 3])
def test_correlation_overlaps_past_the_weight_span_match_per_step_loop(monkeypatch, recording, p):
    # beta (max H - min H) twice _WEIGHT_SPAN: no weight table, so the
    # table walker keeps the logaddexp running sum; levels at quantiles
    # of beta H, two of them close enough to fall in one step
    n, reps = 8, 48
    monkeypatch.setattr(pspin, "_BLOCK_ELEMS", 256)
    H = build_instance(n, p, seed=70 + p).energy_table()
    inst = build_instance(n, p, seed=70 + p, beta=2.0 * pspin._WEIGHT_SPAN / np.ptp(H))
    env = PSpinEnvironment(inst)
    q = np.quantile(inst.beta * H, [0.5, 0.8, 0.95, 0.99])
    seen = set()
    for seed, (log_levels, pairs, budget) in enumerate([
            (q[[1, 3]], [(0, 1)], 203), (q[[0, 2]], [(0, 1)], 101),
            (q, [(0, 1), (0, 3), (1, 2)], 150), ([q[1], q[1] + 0.05], [(0, 1)], 90)]):
        rng = recording(seed)
        got = HypercubeSRW(n).correlation_overlaps(env, log_levels, pairs, reps, rng, budget)
        want, events = _per_step_overlaps(inst, _TableWalker, rng.draws, log_levels, pairs)
        np.testing.assert_array_equal(got, want)
        seen |= events
    assert seen >= {"first step", "last step", "same step", "retired"}
    assert inst._weights == ((inst.beta * H).max(), None)


@pytest.mark.parametrize("hot", [False, True])  # weights, and the log-sums past their span
def test_correlation_overlaps_take_a_zero_mark(monkeypatch, recording, hot):
    n, reps = 8, 48
    monkeypatch.setattr(pspin, "_BLOCK_ELEMS", 256)
    H = build_instance(n, 2, seed=72).energy_table()
    beta = 2.0 * pspin._WEIGHT_SPAN / np.ptp(H) if hot else 0.8
    inst = build_instance(n, 2, seed=72, beta=beta)
    levels = np.quantile(inst.beta * H, [0.5, 0.8])
    rng = recording(5)
    rng._rng = _FirstMarkZero(5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = HypercubeSRW(n).correlation_overlaps(PSpinEnvironment(inst), levels, [(0, 1)],
                                                   reps, rng, 200)
    assert rng.draws[2][0, 0] == 0.0  # replica 0's first mark
    want, _ = _per_step_overlaps(inst, _TableWalker, rng.draws, levels, [(0, 1)])
    np.testing.assert_array_equal(got, want)
    assert not np.isnan(got[0, 0])  # replica 0's log-sum went on to pass both levels
    assert (inst._weights[1] is None) == hot


@pytest.mark.parametrize("p", [2, 3])
def test_kernels_agree_across_walkers(monkeypatch, p):
    # the walker choice is a cost decision only: the same draws, H to rounding
    n = 9
    inst = build_instance(n, p, seed=90 + p, beta=0.8)
    env = PSpinEnvironment(inst)
    model = HypercubeSRW(n)
    results = []
    for walker_type in (_TableWalker, _BatchWalker):
        monkeypatch.setattr(pspin, "_walker", lambda inst, x0: walker_type(inst, x0))
        stats = model.block_statistics(env, 50, 300, np.random.default_rng(5),
                                       want_max=True, want_end=True)
        overlaps = model.correlation_overlaps(env, [5.0, 6.5], [(0, 1)], 200,
                                              np.random.default_rng(6), 150)
        results.append((stats, overlaps))
    (table, table_overlaps), (field, field_overlaps) = results
    np.testing.assert_allclose(table.log_sums, field.log_sums, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(table.log_maxes, field.log_maxes, rtol=1e-12, atol=1e-12)
    np.testing.assert_array_equal(table.end_states, field.end_states)
    np.testing.assert_array_equal(table_overlaps, field_overlaps)
    # some replicas finished, some were truncated
    assert 0 < np.isnan(table_overlaps).sum() < 200


def test_correlation_overlaps_all_truncated(monkeypatch, recording):
    n, reps, budget = 8, 30, 50
    monkeypatch.setattr(pspin, "_BLOCK_ELEMS", 64)
    inst = build_instance(n, 2, seed=72, beta=0.8)
    env = PSpinEnvironment(inst)
    rng = recording(3)
    got = HypercubeSRW(n).correlation_overlaps(env, [50.0, 60.0], [(0, 1)], reps, rng, budget)
    assert got.shape == (reps, 1) and np.isnan(got).all()
    want, _ = _per_step_overlaps(inst, _TableWalker, rng.draws, [50.0, 60.0], [(0, 1)])
    assert np.isnan(want).all()
    assert sum(len(flips) for flips in rng.draws[1::2]) == budget
    sched = ScalingSchedule(n=n, a_n=10.0, log_c_n=50.0, theta_n=4, alpha_n=1.0, v_n=2)
    with pytest.raises(engine.StepBudgetError, match=f"{reps} truncated"):
        engine.estimate_correlation(HypercubeSRW(n), env, sched, eps=0.5, pairs=[(1.0, 1.0)],
                                    reps=reps, rng=np.random.default_rng(3),
                                    step_budget=budget)


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
    (est,) = engine.estimate_correlation(model, env, sched, eps=0.5, pairs=[(1.0, 1.0)],
                                         reps=40, rng=np.random.default_rng(41),
                                         step_budget=10_000)
    overlaps = engine.generic_correlation_overlaps(
        model, env, [sched.log_threshold(1.0), sched.log_threshold(2.0)], [(0, 1)], 40,
        np.random.default_rng(41), 10_000)
    assert est.truncated == np.isnan(overlaps).sum() == 0
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
        _step(walker, np.random.default_rng(0))
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
        _step(walker, np.random.default_rng(0))
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
