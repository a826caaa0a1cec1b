"""Condition estimators against the 2-state closed forms and exact checks."""

import math
import warnings

import numpy as np
import pytest

import oracles
from extremalclock.conditions import (
    ConditionReport,
    DegenerateScheduleWarning,
    condition0_check,
    condition31_estimate,
    dr_path_functionals,
    env_replication_variance,
    mixing_check,
    mixing_report,
    nu_t,
    q_tail,
    sigma_sq_t,
    tail_functionals,
)
from extremalclock import conditions, engine
from extremalclock.engine import (
    CompleteGraphChain,
    ConstantEnvironment,
    ScalingSchedule,
)
from extremalclock.pspin import HypercubeSRW, PSpinEnvironment, build_instance
from extremalclock.stats import MCAccumulator

REPS = 20_000


def toy_setup():
    # 2-state complete graph, tau = 1, C = 1: lambda^{-1} = 2 everywhere,
    # theta = 1, c_n = 1, alpha = 1, a_n = 10
    model = CompleteGraphChain(2)
    env = ConstantEnvironment(1.0)
    sched = ScalingSchedule(n=2, a_n=10.0, log_c_n=0.0, theta_n=1,
                            alpha_n=1.0, v_n=1)
    return model, env, sched


def test_report_validation_and_json():
    report = ConditionReport(id="0", n=np.int64(4), p=2,
                             parameters={"u": np.float64(1.5), "k": np.int64(3)},
                             estimate=0.5, se=0.01, target=None, verdict="pass")
    payload = report.to_json_dict()
    assert payload["n"] == 4 and isinstance(payload["n"], int)
    assert payload["parameters"]["u"] == 1.5
    assert isinstance(payload["parameters"]["k"], int)
    assert payload["target"] is None
    with pytest.raises(ValueError):
        ConditionReport(id="0", n=4, p=2, parameters={}, estimate=0.0,
                        se=-1.0, target=None, verdict="pass")
    with pytest.raises(ValueError):
        ConditionReport(id="0", n=4, p=2, parameters={}, estimate=0.0,
                        se=0.0, target=None, verdict="maybe")


def test_toy_q_tail():
    model, env, sched = toy_setup()
    rng = np.random.default_rng(1)
    target = oracles.toy_block_tail(2.0, 1.0)  # exp(-1/2)
    acc = q_tail(model, env, sched, 0, 1.0, REPS, rng)
    assert abs(acc.mean - target) <= 3.0 * acc.sem
    with pytest.raises(ValueError):
        q_tail(model, env, sched, 0, 0.0, 10, rng)


def test_q_tail_u_monotone_under_crn():
    model, env, sched = toy_setup()
    lo = q_tail(model, env, sched, 0, 0.5, 4000, np.random.default_rng(2))
    hi = q_tail(model, env, sched, 0, 2.0, 4000, np.random.default_rng(2))
    # common random numbers: the indicator sets are nested path-wise
    assert lo.mean >= hi.mean


def test_toy_nu_t():
    model, env, sched = toy_setup()
    rng = np.random.default_rng(3)
    report = nu_t(model, env, sched, u=1.0, t=1.0, reps=REPS, rng=rng)
    target = 10.0 * oracles.toy_block_tail(2.0, 1.0)
    assert report.id == "2-1a"
    assert report.parameters["functional"] == "nu"
    assert report.parameters["k_n"] == 10
    assert report.target is None  # toy schedule carries no p
    assert report.verdict == "trend-only"
    assert abs(report.estimate - target) <= 3.0 * report.se


def test_toy_sigma_sq_t():
    model, env, sched = toy_setup()
    rng = np.random.default_rng(4)
    report = sigma_sq_t(model, env, sched, u=1.0, t=1.0, reps=REPS, rng=rng)
    target = 10.0 * math.exp(-1.0)  # independent indicator product
    assert report.id == "2-1b"
    assert report.parameters["functional"] == "sigma-sq"
    assert report.target == 0.0
    assert abs(report.estimate - target) <= 3.0 * report.se


def test_shared_walk_keeps_toy_oracles(monkeypatch):
    # nu and sigma from one stacked batch: sigma's halves are separate
    # rows, so the independent-product oracle 10 e^{-1} still holds
    calls = []
    block_statistics = engine.block_statistics

    def counted(*args, **kwargs):
        calls.append(args)
        return block_statistics(*args, **kwargs)

    monkeypatch.setattr(engine, "block_statistics", counted)
    model, env, sched = toy_setup()
    reports = tail_functionals(model, env, sched, (0.5, 1.0), (1.0,), REPS,
                               np.random.default_rng(14), ("nu", "sigma-sq"))
    assert len(calls) == 1
    assert set(reports) == {(f, u, 1.0) for f in ("nu", "sigma-sq") for u in (0.5, 1.0)}
    nu, sigma = reports["nu", 1.0, 1.0], reports["sigma-sq", 1.0, 1.0]
    assert abs(nu.estimate - 10.0 * oracles.toy_block_tail(2.0, 1.0)) <= 3.0 * nu.se
    assert abs(sigma.estimate - 10.0 * math.exp(-1.0)) <= 3.0 * sigma.se
    assert reports["nu", 0.5, 1.0].estimate >= nu.estimate
    assert reports["sigma-sq", 0.5, 1.0].estimate >= sigma.estimate


def test_degenerate_schedule_warns():
    model, env, sched = toy_setup()
    rng = np.random.default_rng(5)
    with pytest.warns(DegenerateScheduleWarning):
        report = nu_t(model, env, sched, u=1.0, t=0.05, reps=100, rng=rng)
    assert report.estimate == 0.0 and report.se == 0.0


def test_mixing_exact():
    dev = mixing_check(4, 48, [0, 1, 2])
    assert dev <= 2.0 ** (-11)
    report = mixing_report(4, 48, [0, 1, 2])
    assert report.id == "1-1" and report.verdict == "pass"
    assert report.se == 0.0
    assert report.target == pytest.approx(2.0 ** (-11))
    # far-from-mixed window fails the bound
    assert mixing_report(4, 1, [0]).verdict == "fail"
    with pytest.raises(ValueError):
        mixing_check(4, 0, [0])
    with pytest.raises(ValueError):
        mixing_check(4, 48, [])


def test_mixing_window_needed():
    # period 2: a single-time comparison cannot mix, the two-term window
    # is what the deviation bound is about
    n = 4
    single_dev = []
    from extremalclock.ehrenfest import EhrenfestChain, exact_distribution
    chain = EhrenfestChain(n)
    v = exact_distribution(chain, 0, 48)
    comb = np.array([math.comb(n, d) for d in range(n + 1)])
    pi = 2.0 ** -n
    dev = np.abs(pi * v / comb - pi * pi)
    assert float(dev.max()) > 2.0 ** (-3 * n + 1)  # parity kills single times


def test_condition0_constant_environment_closed_form():
    model = CompleteGraphChain(4)
    env = ConstantEnvironment(1.0)  # lambda^{-1} = 4 for every state
    sched = ScalingSchedule(n=4, a_n=10.0, log_c_n=1.0, theta_n=2,
                            alpha_n=0.5, v_n=1)
    rng = np.random.default_rng(6)
    report = condition0_check(model, env, sched, v=2.0, reps=500, rng=rng)
    z = math.log(2.0) / 0.5 + 1.0 - math.log(4.0)
    expect = math.exp(-math.exp(z))
    assert report.id == "0"
    assert report.estimate == pytest.approx(expect, rel=1e-12)
    assert report.se <= 1e-15  # rate is state-independent
    assert report.target is None  # no gamma on the toy schedule
    with pytest.raises(ValueError):
        condition0_check(model, env, sched, v=0.0, reps=10, rng=rng)


def test_condition0_pspin_target():
    inst = build_instance(6, 2, seed=1, beta=1.0, c=0.25)
    from extremalclock.pspin import make_schedule
    sched = make_schedule(6, 2, c=0.25, beta=1.0)
    model = HypercubeSRW(6)
    env = PSpinEnvironment(inst)
    report = condition0_check(model, env, sched, v=1.0, reps=2000,
                              rng=np.random.default_rng(7))
    assert report.target == pytest.approx(sched.gamma ** 2 / sched.a_n)
    assert 0.0 <= report.estimate <= 1.0


def test_condition31_toy_closed_form():
    model, env, sched = toy_setup()
    rng = np.random.default_rng(8)
    for delta in (0.5, 1.0, 2.0):
        report = condition31_estimate(model, env, sched, delta=delta, t=1.0,
                                      reps=REPS, rng=rng)
        target = oracles.truncated_exp_scaled_mean(2.0, delta, 10.0)
        assert report.id == "3-1"
        assert abs(report.estimate - target) <= 3.0 * report.se
        # alpha = 1 on the toy schedule: powered estimate is the estimate
        assert report.parameters["estimate_powered"] == pytest.approx(report.estimate)
        assert report.verdict == "trend-only"  # no gamma/beta on toy schedule
    with pytest.raises(ValueError):
        condition31_estimate(model, env, sched, delta=0.0, t=1.0, reps=10, rng=rng)


def test_condition31_verdict_with_pspin_schedule():
    from extremalclock.pspin import make_schedule
    inst = build_instance(6, 2, seed=2, beta=1.0, c=0.25)
    sched = make_schedule(6, 2, c=0.25, beta=1.0)
    report = condition31_estimate(HypercubeSRW(6), PSpinEnvironment(inst),
                                  sched, delta=1.0, t=1.0, reps=4000,
                                  rng=np.random.default_rng(9))
    assert report.target == pytest.approx(4.0 / sched.gamma)
    assert report.verdict in ("pass", "fail")


def test_dr_functionals_match_stationary_intensity():
    # complete graph: every state has the same rate, so the along-path
    # boundary estimates and the stationary nu agree
    model, env, sched = toy_setup()
    rng = np.random.default_rng(10)
    dr_nu, dr_sq = dr_path_functionals(model, env, sched, u=1.0, t=1.0,
                                       inner_reps=400, rng=rng)
    assert dr_nu.id == "DR-1.14" and dr_sq.id == "DR-1.15"
    target_nu = 10.0 * oracles.toy_block_tail(2.0, 1.0)
    assert abs(dr_nu.estimate - target_nu) <= 3.0 * dr_nu.se
    # squared companion: sum of squared boundary means, plus the
    # inner-replication bias p(1-p)/inner_reps per boundary
    p = oracles.toy_block_tail(2.0, 1.0)
    bias = 10.0 * p * (1.0 - p) / 400.0
    assert abs(dr_sq.estimate - (10.0 * p * p + bias)) <= 3.0 * dr_sq.se + bias


def test_eta_requires_hypercube():
    model, env, sched = toy_setup()
    with pytest.raises(ValueError):
        tail_functionals(model, env, sched, (1.0,), (1.0,), reps=10,
                         rng=np.random.default_rng(0), functionals=("eta",))


def test_eta_on_small_hypercube():
    from extremalclock.pspin import make_schedule
    inst = build_instance(6, 2, seed=3, beta=1.0, c=0.25)
    sched = make_schedule(6, 2, c=0.25, beta=1.0)
    # t large enough that the schedule admits at least one block
    report = tail_functionals(HypercubeSRW(6), PSpinEnvironment(inst), sched, (1.0,), (4.0,),
                              reps=2000, rng=np.random.default_rng(11),
                              functionals=("eta",))["eta", 1.0, 4.0]
    assert report.id == "2-1b"
    assert report.parameters["functional"] == "eta"
    k = sched.blocks_in(4.0)
    assert k >= 1
    assert 0.0 <= report.estimate <= k


def test_tail_functionals_share_one_start_set(monkeypatch):
    # one stationary set X serves every functional: after it only the
    # partners are drawn, X' two steps on (sigma-sq) and X'' with two
    # distinct coordinates flipped (eta), and the wanted sets walk together
    from extremalclock.pspin import make_schedule
    captured = []
    stacked = conditions._stacked_log_sums

    def capture(model, env, sched, sets, rng):
        captured.append(sets)
        return stacked(model, env, sched, sets, rng)

    monkeypatch.setattr(conditions, "_stacked_log_sums", capture)
    model = HypercubeSRW(6)
    env = PSpinEnvironment(build_instance(6, 2, seed=3, beta=1.0, c=0.25))
    sched = make_schedule(6, 2, c=0.25, beta=1.0)
    # k_n = 1 and 2; the tails fall from about 1 to about 0.05 over u
    reps, u_grid, t_grid = 500, (3.0, 4.0, 5.0, 6.0), (4.0, 8.0)
    sets, reports = {}, {}
    for functionals, count in ((("nu", "sigma-sq", "eta"), 3), (("nu",), 1),
                               (("sigma-sq",), 2)):
        reports[functionals] = tail_functionals(model, env, sched, u_grid, t_grid, reps,
                                                np.random.default_rng(21), functionals)
        (sets[functionals],) = captured[-1:]
        assert len(sets[functionals]) == count
        assert all(s.shape == (reps, 6) for s in sets[functionals])
    assert len(captured) == 3
    X, X1, X2 = sets["nu", "sigma-sq", "eta"]
    # X is drawn first and the sigma-sq partner next, whatever else is wanted
    assert np.array_equal(sets["nu",][0], X)
    assert all(np.array_equal(a, b) for a, b in zip(sets["sigma-sq",], (X, X1)))
    assert set(np.unique((X1 != X).sum(axis=1))) == {0, 2}
    assert np.all((X2 != X).sum(axis=1) == 2)
    # the product indicators share their first half with nu's indicator,
    # so neither pair functional exceeds nu at any (u, t)
    every = reports["nu", "sigma-sq", "eta"]
    for f in ("sigma-sq", "eta"):
        assert any(0.0 < every[f, u, 4.0].estimate < every["nu", u, 4.0].estimate
                   for u in u_grid)
        for u in u_grid:
            for t in t_grid:
                assert every[f, u, t].estimate <= every["nu", u, t].estimate


def test_env_replication_variance_zero_at_beta_zero(monkeypatch):
    # every rate is 1 at beta = 0: the spread is exactly 0 without a schedule
    # (so no k_n(t) = 0 warning), an environment, a walk or a draw
    def no_instance(*args, **kwargs):
        raise AssertionError("beta = 0 needs no environment")

    monkeypatch.setattr(conditions, "build_instance", no_instance)
    for n, p, t, target in ((6, 2, 1.0, 6.0 ** 0.5), (40, 3, 1e6, 1.0)):
        rng = np.random.default_rng(12)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = env_replication_variance(n, p, c=0.25, beta=0.0, u=1.0, t=t,
                                              env_seeds=range(5), inner_reps=200, rng=rng)
        assert (report.estimate, report.se, report.parameters["k_n"]) == (0.0, 0.0, 0)
        assert report.parameters["functional"] == "env-variance-max"
        assert report.target == pytest.approx(target)  # gamma^{-2} n^{1-p/2}
        assert rng.bit_generator.state == state
    with pytest.raises(ValueError):
        env_replication_variance(6, 2, c=0.25, beta=0.0, u=1.0, t=1.0,
                                 env_seeds=range(1), inner_reps=10,
                                 rng=np.random.default_rng(0))


def test_env_replication_variance_positive_with_disorder():
    # k_n(1) = 0 at n = 6, c = 0.25, so the degenerate path runs and warns
    with pytest.warns(DegenerateScheduleWarning):
        report = env_replication_variance(6, 2, c=0.25, beta=1.0, u=1.0, t=1.0,
                                          env_seeds=range(8), inner_reps=300,
                                          rng=np.random.default_rng(13))
    assert report.estimate >= 0.0
    assert report.se >= 0.0
    assert report.verdict == "trend-only"


def test_env_replication_variance_positive_at_one_block():
    # a_n = 202.7 >= theta_n = 192 at n = 8, c = 0.05: k_n(1) = 1, so no
    # warning, and the disorder spreads the block-max tail across environments
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = env_replication_variance(8, 2, c=0.05, beta=1.0, u=1.0, t=1.0,
                                          env_seeds=range(8), inner_reps=300,
                                          rng=np.random.default_rng(0))
    assert report.parameters["k_n"] == 1
    assert report.estimate > 0.0


@pytest.mark.parametrize("env_reps", [2, 3])
def test_env_replication_variance_se_at_few_environments(env_reps):
    # at E <= 3 the biased m4 is below s^4, which once clipped the SE to 0
    report = env_replication_variance(8, 2, c=0.05, beta=1.0, u=1.0, t=1.0,
                                      env_seeds=range(env_reps), inner_reps=300,
                                      rng=np.random.default_rng(0))
    assert report.estimate > 0.0
    assert report.se > 0.0


def test_env_replication_variance_se_formula(monkeypatch):
    seen = []

    class Recording(MCAccumulator):
        @classmethod
        def from_values(cls, values):
            seen.append(np.array(values))
            return MCAccumulator.from_values(values)

    monkeypatch.setattr(conditions, "MCAccumulator", Recording)
    report = env_replication_variance(8, 2, c=0.05, beta=1.0, u=1.0, t=1.0,
                                      env_seeds=range(6), inner_reps=300,
                                      rng=np.random.default_rng(1))
    (values,) = seen
    e = len(values)
    s2 = float(np.var(values, ddof=1))
    m4 = float(np.mean((values - values.mean()) ** 4))
    assert report.estimate == pytest.approx(s2, rel=1e-12)
    assert report.se == pytest.approx(math.sqrt((m4 - (e - 3) / (e - 1) * s2 ** 2) / e),
                                      rel=1e-12)


def test_env_replication_variance_warns_at_zero_blocks():
    # a_n = 32.7 < theta_n = 108 at n = 6, c = 0.25: k_n(1) = 0, as verify reports it
    with pytest.warns(DegenerateScheduleWarning):
        report = env_replication_variance(6, 2, c=0.25, beta=1.0, u=1.0, t=1.0,
                                          env_seeds=range(2), inner_reps=20,
                                          rng=np.random.default_rng(14))
    assert report.parameters["k_n"] == 0
