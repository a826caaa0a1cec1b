"""Tail measures, extremal marginals, point sampling, record structure."""

import math
import tracemalloc

import numpy as np
import pytest

import oracles
from extremalclock.measures import (
    ExtremalPath,
    PointSample,
    TailMeasure,
    extremal_marginal,
    extremal_path,
    fdd_probability,
    range_avoidance_prob,
    sample_poisson_points,
    sample_record_avoidance,
    sample_sup_levels,
    sup_path,
    tail_inverse,
    tail_mass,
)


def test_pareto_tail_values():
    m = TailMeasure.pareto(4.0)
    assert tail_mass(m, 2.0) == pytest.approx(2.0)
    assert tail_mass(m, 0.5) == pytest.approx(8.0)
    m6 = TailMeasure.pareto(6.0)
    assert tail_mass(m6, 1.0) == pytest.approx(6.0)
    with pytest.raises(ValueError):
        tail_mass(m, 0.0)
    with pytest.raises(ValueError):
        TailMeasure.pareto(0.0)
    with pytest.raises(ValueError):
        TailMeasure.pareto(math.inf)


def test_sample_poisson_points_input_checks():
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(0)
    for t_max in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"t_max must be positive, got {t_max}"):
            sample_poisson_points(m, t_max, 1.0, rng)
    # t_max * tail(u_min) = 1e308 * 400 overflows to inf
    with pytest.raises(ValueError, match="infinite point intensity at u_min=0.01"):
        sample_poisson_points(m, 1e308, 0.01, rng)


def test_tail_inverse_round_trip():
    m = TailMeasure.pareto(4.0)
    assert tail_inverse(m, 2.0) == pytest.approx(2.0)
    for u in (0.01, 1.0, 37.5):
        assert tail_inverse(m, tail_mass(m, u)) == pytest.approx(u, rel=1e-12)
    with pytest.raises(ValueError):
        tail_inverse(m, 0.0)


def test_extremal_marginal_closed_form():
    m = TailMeasure.pareto(4.0)
    # t=1, u=4: exp(-1)
    assert extremal_marginal(m, 1.0, 4.0) == pytest.approx(math.exp(-1.0), rel=1e-14)
    # t=2, u=4: exp(-2)
    assert extremal_marginal(m, 2.0, 4.0) == pytest.approx(math.exp(-2.0), rel=1e-14)
    with pytest.raises(ValueError):
        extremal_marginal(m, 0.0, 1.0)


def test_extremal_marginal_array_matches_scalar():
    us = np.array([[0.3, 1.0], [4.0, 25.0]])
    m = TailMeasure.pareto(4.0)
    arr = extremal_marginal(m, 1.5, us)
    assert arr.shape == us.shape
    for idx, u in np.ndenumerate(us):
        assert arr[idx] == pytest.approx(extremal_marginal(m, 1.5, float(u)), rel=1e-15)
    np.testing.assert_array_equal(
        tail_mass(m, us), [[tail_mass(m, float(u)) for u in row] for row in us])
    with pytest.raises(ValueError, match="u=0.0"):
        tail_mass(m, np.array([1.0, 0.0]))


def test_fdd_product_form():
    m = TailMeasure.pareto(4.0)
    # times (1, 2), thresholds (4, 4): exp(-1*1) * exp(-1*1) = exp(-2)
    assert fdd_probability(m, [1.0, 2.0], [4.0, 4.0]) == pytest.approx(
        math.exp(-2.0), rel=1e-14)
    # single time must agree bitwise with the marginal
    assert fdd_probability(m, [1.5], [3.0]) == extremal_marginal(m, 1.5, 3.0)
    # non-trivial increasing thresholds
    val = fdd_probability(m, [1.0, 3.0], [2.0, 8.0])
    assert val == pytest.approx(math.exp(-(1.0 * 2.0 + 2.0 * 0.5)), rel=1e-14)


def test_fdd_validation():
    m = TailMeasure.pareto(4.0)
    with pytest.raises(ValueError):
        fdd_probability(m, [2.0, 1.0], [1.0, 1.0])  # times not increasing
    with pytest.raises(ValueError):
        fdd_probability(m, [1.0, 2.0], [5.0, 3.0])  # thresholds decreasing
    with pytest.raises(ValueError):
        fdd_probability(m, [0.0, 1.0], [1.0, 1.0])  # t must be positive
    with pytest.raises(ValueError):
        fdd_probability(m, [1.0, 2.0], [1.0])  # length mismatch
    with pytest.raises(ValueError):
        fdd_probability(m, [1.0], [-1.0])


def test_point_sample_statistics():
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(42)
    counts = []
    for _ in range(2000):
        pts = sample_poisson_points(m, t_max=2.0, u_min=1.0, rng=rng)
        counts.append(pts.count)
        assert np.all(pts.magnitudes >= 1.0)
        assert np.all((pts.times > 0.0) & (pts.times <= 2.0))
    counts = np.asarray(counts, dtype=float)
    # Poisson(t_max * K / u_min) = Poisson(8)
    se = counts.std(ddof=1) / math.sqrt(counts.size)
    assert abs(counts.mean() - 8.0) <= 3.0 * se


def test_point_magnitude_law():
    # conditional magnitudes above u_min follow u_min/U: check the CDF
    # at a few points against tail(u)/tail(u_min)
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(3)
    mags = np.concatenate([
        sample_poisson_points(m, 1.0, 0.5, rng).magnitudes for _ in range(5000)
    ])
    for u in (1.0, 2.0, 4.0):
        frac = float(np.mean(mags > u))
        expect = (4.0 / u) / (4.0 / 0.5)
        se = math.sqrt(expect * (1.0 - expect) / mags.size)
        assert abs(frac - expect) <= 4.0 * se


def test_sup_path_cases():
    pts = PointSample(times=np.array([0.5, 1.5]),
                      magnitudes=np.array([3.0, 2.0]),
                      t_max=2.0, u_min=0.1)
    assert sup_path(pts, 0.25) == pytest.approx(0.1)   # before any point
    assert sup_path(pts, 1.0) == pytest.approx(3.0)
    assert sup_path(pts, 2.0) == pytest.approx(3.0)    # later lower point ignored
    assert sup_path(pts, 1.0, floor=5.0) == pytest.approx(5.0)
    empty = PointSample(times=np.array([]), magnitudes=np.array([]),
                        t_max=1.0, u_min=0.2)
    assert sup_path(empty, 0.7) == pytest.approx(0.2)
    with pytest.raises(ValueError):
        sup_path(pts, -1.0)


def test_extremal_path_records():
    pts = PointSample(times=np.array([1.5, 0.5, 1.0]),
                      magnitudes=np.array([2.0, 3.0, 2.5]),
                      t_max=2.0, u_min=0.1)
    path = extremal_path(pts)
    # only the first point is a record: later ones are below 3.0
    assert path.breakpoints == ((0.5, 3.0),)
    assert path.level_at(0.4) == pytest.approx(0.1)
    assert path.level_at(0.5) == pytest.approx(3.0)   # right-continuous
    assert path.level_at(2.0) == pytest.approx(3.0)


def test_extremal_path_agrees_with_sup_path():
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(9)
    for _ in range(50):
        pts = sample_poisson_points(m, 2.0, 0.05, rng)
        path = extremal_path(pts)
        levels = [bl for _, bl in path.breakpoints]
        assert levels == sorted(levels)
        times = [bt for bt, _ in path.breakpoints]
        assert times == sorted(times)
        for t in (0.3, 0.9, 1.4, 2.0):
            assert path.level_at(t) == pytest.approx(sup_path(pts, t))


def test_range_avoidance_closed_form():
    assert range_avoidance_prob(1.0, 1.0) == pytest.approx(0.5)
    assert range_avoidance_prob(1.0, 3.0) == pytest.approx(0.25)
    assert range_avoidance_prob(2.0, 1.0) == pytest.approx(2.0 / 3.0)
    assert range_avoidance_prob(1.0, 0.0) == 1.0
    with pytest.raises(ValueError):
        range_avoidance_prob(0.0, 1.0)
    with pytest.raises(ValueError):
        range_avoidance_prob(1.0, -0.5)


def test_sample_sup_levels_matches_scalar_path():
    # the interval sampler against the point-by-point reference: the same
    # P(level <= u), replica by replica sample_poisson_points + sup_path
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(21)
    reps, t_grid = 4000, [0.5, 2.0]
    levels = sample_sup_levels(m, t_grid, 2.0, 0.05, reps, rng)
    assert levels.shape == (reps, 2)
    assert np.all(levels >= 0.05)
    assert np.all(np.diff(levels, axis=1) >= 0.0)
    paths = [sample_poisson_points(m, 2.0, 0.05, rng) for _ in range(reps)]
    scalar = np.array([[sup_path(pts, t) for t in t_grid] for pts in paths])
    for j in range(len(t_grid)):
        for u in (1.0, 4.0, 16.0):
            p_vec = float(np.mean(levels[:, j] <= u))
            p_ref = float(np.mean(scalar[:, j] <= u))
            se = math.sqrt((p_vec * (1.0 - p_vec) + p_ref * (1.0 - p_ref)) / reps)
            assert abs(p_vec - p_ref) <= 4.0 * se, (t_grid[j], u, p_vec, p_ref)
    with pytest.raises(ValueError):
        sample_sup_levels(m, [3.0], 2.0, 0.05, 10, rng)


def test_sample_sup_levels_memory_scales_with_the_query_cells():
    # the limit-laws ppp draw: 4.8M Poisson points, but only 120k cells
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(25)
    tracemalloc.start()
    try:
        sample_sup_levels(m, [0.25, 0.5, 1.0, 2.0], 2.0, 0.05, 30_000, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20


@pytest.mark.parametrize("t_grid, t_max", [
    ([0.5, 1.0, 2.0], 2.0),
    ([1.0, 0.25, 2.0, 0.5], 2.0),  # unsorted
    ([0.3, 1.2], 2.0),  # points born after every query time
    ([0.7], 0.7),
])
def test_sample_sup_levels_matches_per_t_oracle(t_grid, t_max):
    m = TailMeasure.pareto(4.0)
    levels = sample_sup_levels(m, t_grid, t_max, 0.05, 3000, np.random.default_rng(23))
    expected = oracles.pareto_sup_levels_per_t(4.0, t_grid, t_max, 0.05, 3000,
                                               np.random.default_rng(23))
    np.testing.assert_array_equal(levels, expected)


def test_sup_level_marginal_mc():
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(8)
    levels = sample_sup_levels(m, [1.0], 1.0, 0.05, 40_000, rng)[:, 0]
    for u in (2.0, 4.0, 8.0):
        p_hat = float(np.mean(levels <= u))
        p = extremal_marginal(m, 1.0, u)
        se = math.sqrt(p * (1.0 - p) / levels.size)
        assert abs(p_hat - p) <= 4.0 * se


def test_record_avoidance_mc():
    m = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(12)
    hits = sample_record_avoidance(m, t=1.0, s=1.0, u_min=0.05,
                                   reps=40_000, rng=rng)
    p_hat = float(np.mean(hits))
    se = math.sqrt(p_hat * (1.0 - p_hat) / hits.size)
    assert abs(p_hat - 0.5) <= 3.0 * se
    with pytest.raises(ValueError):
        sample_record_avoidance(m, t=1.0, s=-1.0, u_min=0.05, reps=10, rng=rng)
