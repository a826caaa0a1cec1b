"""Accumulator triples, KS machinery, and report serialization."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from extremalclock import stats
from extremalclock.stats import (
    EmpiricalDistribution,
    KSReport,
    MCAccumulator,
    empirical_vs_extremal,
    ks_statistic,
    ks_threshold,
    prefix_scan,
)


def test_accumulator_single_stream_matches_numpy():
    rng = np.random.default_rng(11)
    xs = rng.normal(3.0, 2.0, size=1000)
    acc = MCAccumulator.from_values(xs)
    assert acc.count == 1000
    assert acc.mean == pytest.approx(float(xs.mean()), rel=1e-12)
    assert acc.variance == pytest.approx(float(xs.var(ddof=1)), rel=1e-10)
    assert acc.sem == pytest.approx(float(xs.std(ddof=1) / math.sqrt(1000)), rel=1e-10)


def test_accumulator_small_counts():
    acc = MCAccumulator.from_values([])
    assert (acc.count, acc.mean, acc.m2) == (0, 0.0, 0.0)
    assert acc.variance == 0.0 and acc.sem == 0.0
    acc = MCAccumulator.from_values([5.0])
    assert acc.count == 1 and acc.mean == 5.0
    assert acc.variance == 0.0 and acc.sem == 0.0
    acc = MCAccumulator.from_values([5.0, 7.0])
    assert acc.mean == 6.0 and acc.variance == 2.0 and acc.sem == 1.0


def test_ks_statistic_calls_cdf_once_on_distinct_points():
    xs = np.array([0.2, 0.7, 0.2, 0.5])
    seen = []

    def cdf(x):
        seen.append(np.array(x))
        return np.clip(x, 0.0, 1.0)

    assert ks_statistic(xs, cdf) == pytest.approx(0.3, abs=1e-12)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0], [0.2, 0.5, 0.7])
    with pytest.raises(ValueError, match="one value per point"):
        ks_statistic(xs, lambda x: 0.5)


def test_empirical_distribution_queries():
    emp = EmpiricalDistribution([3.0, 1.0, 2.0, 2.0])
    assert emp.count == 4
    assert emp.quantile(0.5) == 2.0
    assert emp.quantile(1.0) == 3.0
    with pytest.raises(ValueError):
        emp.quantile(0.0)
    with pytest.raises(ValueError):
        EmpiricalDistribution([])
    with pytest.raises(ValueError):
        EmpiricalDistribution([1.0, math.inf])


def test_ks_statistic_on_quantile_grid():
    # uniform samples at (i - 0.5)/N give D = 0.5/N exactly
    n = 100
    xs = (np.arange(n) + 0.5) / n
    d = ks_statistic(xs, lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.5 / n, abs=1e-12)


def test_ks_statistic_degenerate_samples():
    # all mass at 0.3 against Uniform(0,1): sup gap is 1 - 0.3 = 0.7
    xs = np.full(50, 0.3)
    d = ks_statistic(xs, lambda x: np.clip(x, 0.0, 1.0))
    assert d == pytest.approx(0.7, abs=1e-12)


def test_ks_statistic_rejects_bad_cdf():
    with pytest.raises(ValueError):
        ks_statistic(np.linspace(0.1, 0.9, 40), lambda x: 2.0 * x)
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        ks_statistic([1.0, 2.0, 3.0], lambda x: np.full(x.shape, np.nan))


def test_ks_threshold_constants():
    # c(0.05) = 1.3581, c(0.01) = 1.6276
    assert ks_threshold(10_000, 0.05) == pytest.approx(1.3581015157406195 / 100.0, abs=2e-6)
    assert ks_threshold(10_000, 0.01) == pytest.approx(1.6276236115189504 / 100.0, abs=2e-6)
    with pytest.raises(ValueError):
        ks_threshold(34, 0.05)
    with pytest.raises(ValueError):
        ks_threshold(100, 1.5)


def test_ks_self_test_false_positive_rate():
    # 200 draws of N=2000 true-null normal samples: at alpha = 0.01 the
    # rejection count should be tiny (binomial mean 2)
    rng = np.random.default_rng(123)
    thr = ks_threshold(2000, 0.01)
    rejections = 0
    for _ in range(200):
        xs = rng.standard_normal(2000)
        if ks_statistic(xs, norm.cdf) >= thr:
            rejections += 1
    assert rejections <= 8


def test_ks_detects_wrong_distribution():
    rng = np.random.default_rng(5)
    xs = rng.standard_exponential(2000)
    assert ks_statistic(xs, norm.cdf) > ks_threshold(2000, 0.01)


def test_empirical_vs_extremal_report():
    from extremalclock.measures import TailMeasure

    measure = TailMeasure.pareto(4.0)
    rng = np.random.default_rng(17)
    t = 2.0
    # M(t) for the Pareto-tail extremal process: exp(-t*K/u) marginal,
    # so M = t*K / Exp(1) by inversion
    samples = t * 4.0 / rng.standard_exponential(50_000)
    report = empirical_vs_extremal(samples, measure, t, significance=0.01)
    assert report.passed
    assert report.count == 50_000
    assert report.statistic < report.threshold
    probs = [row[0] for row in report.quantile_table]
    assert probs == [0.1, 0.25, 0.5, 0.75, 0.9]
    # median: exp(-t*K/u) = 1/2 => u = t*K / ln 2
    med = next(row for row in report.quantile_table if row[0] == 0.5)
    assert med[2] == pytest.approx(2.0 * 4.0 / math.log(2.0), rel=1e-12)
    assert med[1] == pytest.approx(med[2], rel=0.05)

    payload = report.to_json_dict()
    assert set(payload) == {"statistic", "threshold", "significance", "count",
                            "passed", "quantiles"}
    assert len(payload["quantiles"]) == 5


def test_ks_report_shape():
    report = KSReport(statistic=0.01, threshold=0.02, significance=0.05,
                      count=100, passed=True)
    assert report.to_json_dict()["quantiles"] == []


@pytest.mark.parametrize("steps", [1, 2, 6])
@pytest.mark.parametrize("width", [1, 10, 127, 128, stats._SCAN_ROW_WIDTH - 1,
                                   stats._SCAN_ROW_WIDTH, 511, 512, 2500])
def test_prefix_scan_equals_accumulate_bit_for_bit(steps, width):
    # both sides of the switch to row operations, and of the widths where
    # it has been measured to belong, for the scans the kernels run
    rng = np.random.default_rng(steps * width)
    bits = rng.integers(0, 2 ** 40, (steps, width))
    terms = rng.standard_normal((steps, width)) * 30.0
    terms[rng.random(terms.shape) < 0.2] = -math.inf  # log of an empty sum
    terms[0, 0] = -math.inf
    weights = np.exp(terms)  # a linear running sum of weights times marks
    for ufunc, a in ((np.bitwise_xor, bits), (np.logaddexp, terms), (np.maximum, terms),
                     (np.add, weights)):
        want = ufunc.accumulate(a, axis=0)
        got = a.copy()
        assert prefix_scan(ufunc, got) is got
        np.testing.assert_array_equal(got, want, strict=True)
        # down the columns, as sample_sup_levels scans its (reps, T) cells
        want = ufunc.accumulate(a.T, axis=1)
        got = a.T.copy()
        view = got.T
        assert prefix_scan(ufunc, view) is view
        np.testing.assert_array_equal(got, want, strict=True)
