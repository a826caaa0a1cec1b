"""Jump chains, clock processes, blocking identities, correlation MC."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import oracles
from extremalclock.engine import (
    CompleteGraphChain,
    ConstantEnvironment,
    EnvironmentOracle,
    EnvironmentValueError,
    HorizonError,
    ScalingSchedule,
    StepBudgetError,
    TabularEnvironment,
    Trajectory,
    _logsumexp,
    block_statistics,
    blocked_clock_parts,
    blocked_clock_value,
    clock_value,
    estimate_correlation,
    jensen_sandwich_check,
    log_inverse_rate,
    simulate_trajectory,
    time_changed_state,
)


def toy_schedule(a_n=10.0, log_c_n=0.0, theta=1, alpha=1.0, v=1):
    return ScalingSchedule(n=2, a_n=a_n, log_c_n=log_c_n, theta_n=theta,
                           alpha_n=alpha, v_n=v)


class _InfiniteTau(EnvironmentOracle):
    log_C = 0.0

    def log_tau(self, x) -> float:
        return math.inf


def test_environment_and_rate_input_checks():
    for C in (0.0, -1.0):
        with pytest.raises(ValueError, match=f"C must be positive, got {C}"):
            ConstantEnvironment(1.0, C=C)
        with pytest.raises(ValueError, match=f"C must be positive, got {C}"):
            TabularEnvironment([1.0, 2.0], C=C)
    with pytest.raises(EnvironmentValueError, match="log tau must be finite, got inf"):
        log_inverse_rate(_InfiniteTau(), CompleteGraphChain(3), 0)


def test_complete_graph_chain_basics():
    rng = np.random.default_rng(0)
    chain = CompleteGraphChain(5)
    assert chain.period == 1
    assert CompleteGraphChain(2).period == 2
    for x in chain.enumerate_states():
        row = [chain.transition_prob(x, y) for y in chain.enumerate_states()]
        assert sum(row) == pytest.approx(1.0)
        assert chain.transition_prob(x, x) == 0.0
        assert math.exp(chain.log_pi(x)) == pytest.approx(0.2)
    for _ in range(200):
        x = chain.initial_state(rng)
        assert chain.next_state(x, rng) != x
    with pytest.raises(ValueError):
        CompleteGraphChain(1)


def test_environment_rates():
    chain = CompleteGraphChain(2)
    env = ConstantEnvironment(1.0)
    # lambda(x) = C pi(x) / tau(x) = 1/2, so log lambda^{-1} = log 2
    assert log_inverse_rate(env, chain, 0) == pytest.approx(math.log(2.0))
    env2 = ConstantEnvironment(3.0, C=6.0)
    # lambda^{-1} = tau / (C pi) = 3 / 3 = 1
    assert log_inverse_rate(env2, chain, 1) == pytest.approx(0.0)
    tab = TabularEnvironment([1.0, 4.0])
    assert log_inverse_rate(tab, chain, 1) == pytest.approx(math.log(8.0))
    with pytest.raises(ValueError):
        ConstantEnvironment(0.0)
    with pytest.raises(ValueError):
        TabularEnvironment([1.0, -2.0])


def test_schedule_validation_and_queries():
    sched = toy_schedule(a_n=10.0, log_c_n=2.0, theta=3, alpha=0.5, v=2)
    assert sched.jumps_in(1.0) == 10
    assert sched.jumps_in(0.0) == 0
    assert sched.blocks_in(1.0) == 3
    assert sched.log_threshold(1.0) == pytest.approx(2.0)
    assert sched.log_threshold(4.0) == pytest.approx(2.0 + 2.0 * math.log(4.0))
    with pytest.raises(ValueError):
        sched.log_threshold(0.0)
    with pytest.raises(ValueError):
        sched.jumps_in(-1.0)
    # a_n t = inf has no integer part: a ValueError naming t, not an OverflowError
    for query in (sched.jumps_in, sched.blocks_in):
        with pytest.raises(ValueError, match="t=1e\\+308"):
            query(1e308)
    with pytest.raises(ValueError):
        toy_schedule(a_n=0.5)
    with pytest.raises(ValueError):
        toy_schedule(alpha=1.5)
    with pytest.raises(ValueError):
        toy_schedule(theta=0)
    with pytest.raises(ValueError):
        toy_schedule(theta=2, v=3)  # v_n must not exceed theta_n


def test_trajectory_shapes_and_marks():
    rng = np.random.default_rng(1)
    chain = CompleteGraphChain(4)
    traj = simulate_trajectory(chain, 50, rng)
    assert len(traj) == 51
    assert np.all(traj.marks > 0.0)
    assert np.all(np.isnan(traj.log_inv_rates))
    with pytest.raises(ValueError):
        clock_value(traj, toy_schedule(), 1.0)  # no env attached
    with pytest.raises(ValueError):
        simulate_trajectory(chain, 0, rng)
    with pytest.raises(ValueError):
        Trajectory(states=[0, 1], marks=np.array([1.0]),
                   log_inv_rates=np.array([0.0]))
    with pytest.raises(ValueError):
        Trajectory(states=[0], marks=np.array([-1.0]),
                   log_inv_rates=np.array([0.0]))


def test_clock_value_matches_direct_sum():
    rng = np.random.default_rng(2)
    chain = CompleteGraphChain(3)
    env = TabularEnvironment([1.0, 2.0, 5.0], C=2.0)
    traj = simulate_trajectory(chain, 30, rng, env=env)
    sched = toy_schedule(a_n=20.0, log_c_n=1.5)
    # direct linear-domain evaluation of the same sum
    lam_inv = np.asarray([math.exp(log_inverse_rate(env, chain, x))
                          for x in traj.states])
    direct = float(np.sum(lam_inv[:20] * traj.marks[:20])) / math.exp(1.5)
    assert clock_value(traj, sched, 1.0) == pytest.approx(math.log(direct), rel=1e-12)
    assert clock_value(traj, sched, 0.01) == -math.inf  # empty sum
    with pytest.raises(ValueError):
        clock_value(traj, sched, 2.0)  # trajectory too short


# log terms spanning the double range, where a linear sum would overflow
# or vanish, terms near 0 whose sum can have a log near 0, and -inf
# (zero-term) entries
_log_terms = st.lists(st.one_of(st.floats(-700.0, 700.0), st.floats(-5.0, 1.0),
                                st.just(-math.inf)), min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(_log_terms)
def test_logsumexp_matches_scipy(terms):
    arr = np.asarray(terms)
    ours, ref = _logsumexp(arr), float(logsumexp(arr))
    if ref == -math.inf:
        assert ours == -math.inf
    else:
        # a log near 0 is a difference of O(1) numbers, so relative
        # agreement there has an absolute floor
        assert ours == pytest.approx(ref, rel=1e-13, abs=1e-13)


def test_blocked_clock_equals_plain_clock_on_whole_blocks():
    # blocked sum over j = 0..theta*k equals the plain clock truncated
    # at theta*k + 1 jumps
    rng = np.random.default_rng(3)
    chain = CompleteGraphChain(3)
    env = TabularEnvironment([1.0, 3.0, 0.5])
    traj = simulate_trajectory(chain, 40, rng, env=env)
    sched = toy_schedule(a_n=12.0, theta=4)
    t = 1.0  # jumps_in = 12, k = 3, blocked uses indices 0..12
    blocked = blocked_clock_value(traj, sched, t)
    direct = float(logsumexp(traj.log_terms()[:13])) - sched.log_c_n
    assert blocked == pytest.approx(direct, rel=1e-12)

    log_hat, log_zero = blocked_clock_parts(traj, sched, t)
    assert log_zero == pytest.approx(float(traj.log_terms()[0]) - sched.log_c_n)
    assert np.logaddexp(log_hat, log_zero) == pytest.approx(blocked)

    # k = 0: block part is the log-domain zero, only index 0 remains
    hat0, zero0 = blocked_clock_parts(traj, sched, 0.01)
    assert hat0 == -math.inf
    assert blocked_clock_value(traj, sched, 0.01) == pytest.approx(zero0)
    with pytest.raises(ValueError):
        blocked_clock_parts(traj, sched, 4.0)  # needs 49 states


def test_time_changed_state_hand_built():
    # holding times 2, 3, 4: S~ = 0, 2, 5, 9
    traj = Trajectory(states=[5, 7, 9],
                      marks=np.array([1.0, 1.0, 1.0]),
                      log_inv_rates=np.log([2.0, 3.0, 4.0]))
    sched = toy_schedule()
    assert time_changed_state(traj, sched, math.log(1.5)) == 5
    assert time_changed_state(traj, sched, math.log(2.0)) == 7
    assert time_changed_state(traj, sched, math.log(4.999)) == 7
    assert time_changed_state(traj, sched, math.log(8.9)) == 9
    assert time_changed_state(traj, sched, -math.inf) == 5  # time 0
    with pytest.raises(HorizonError):
        time_changed_state(traj, sched, math.log(9.5))


def test_jensen_sandwich_on_simulated_paths():
    rng = np.random.default_rng(4)
    chain = CompleteGraphChain(4)
    env = TabularEnvironment([1.0, 10.0, 0.1, 2.0])
    sched = toy_schedule(a_n=16.0, theta=4, alpha=0.5, log_c_n=1.0)
    for _ in range(200):
        traj = simulate_trajectory(chain, 17, rng, env=env)
        assert jensen_sandwich_check(traj, sched, 1.0)
        assert jensen_sandwich_check(traj, sched, 0.01)  # k = 0 edge


def test_toy_block_tail():
    # 2-state complete graph, tau = 1, C = 1: every lambda^{-1} = 2, so a
    # one-step block sum is 2e with P(2e > 1) = exp(-1/2)
    rng = np.random.default_rng(5)
    chain = CompleteGraphChain(2)
    env = ConstantEnvironment(1.0)
    stats = block_statistics(chain, env, theta=1, reps=100_000, rng=rng,
                             want_max=True)
    target = oracles.toy_block_tail(2.0, 1.0)  # exp(-1/2)
    frac = float(np.mean(stats.log_sums > 0.0))
    se = math.sqrt(target * (1.0 - target) / 100_000)
    assert abs(frac - target) <= 3.0 * se
    # single-step block: max and sum coincide
    np.testing.assert_allclose(stats.log_maxes, stats.log_sums)


def test_block_statistics_end_states_and_starts():
    rng = np.random.default_rng(6)
    chain = CompleteGraphChain(2)
    env = ConstantEnvironment(1.0)
    stats = block_statistics(chain, env, theta=3, reps=16, rng=rng,
                             starts=[0] * 16, want_end=True)
    # 2-state alternation: after 3 steps from 0 the chain sits at 1
    assert stats.end_states == [1] * 16
    assert stats.log_sums.shape == (16,)


def test_correlation_s_zero_is_one():
    rng = np.random.default_rng(7)
    chain = CompleteGraphChain(3)
    env = ConstantEnvironment(1.0)
    sched = toy_schedule(a_n=10.0)
    (est,) = estimate_correlation(chain, env, sched, eps=0.5, pairs=[(1.0, 0.0)],
                                  reps=200, rng=rng, step_budget=10_000)
    assert est.value == 1.0
    assert est.truncated == 0
    assert est.completed == 200


def test_correlation_validation_and_budget():
    rng = np.random.default_rng(8)
    chain = CompleteGraphChain(3)
    env = ConstantEnvironment(1.0)
    sched = toy_schedule(a_n=10.0, log_c_n=50.0)  # unreachable horizon
    with pytest.raises(StepBudgetError):
        estimate_correlation(chain, env, sched, eps=0.5, pairs=[(1.0, 1.0)],
                             reps=20, rng=rng, step_budget=3)
    with pytest.raises(ValueError):
        estimate_correlation(chain, env, sched, eps=0.0, pairs=[(1.0, 1.0)],
                             reps=20, rng=rng)
    with pytest.raises(ValueError):
        estimate_correlation(chain, env, sched, eps=0.5, pairs=[(0.0, 1.0)],
                             reps=20, rng=rng)


def test_correlation_two_state_is_degenerate():
    # the 2-state chain has overlap 1 only when both crossing states
    # agree; with eps < 2 the indicator needs equality, and alternation
    # plus exchangeable Exp holds makes the estimate land strictly
    # inside (0, 1)
    rng = np.random.default_rng(9)
    chain = CompleteGraphChain(2)
    env = ConstantEnvironment(1.0)
    sched = toy_schedule(a_n=10.0)
    (est,) = estimate_correlation(chain, env, sched, eps=0.5, pairs=[(0.5, 1.0)],
                                  reps=2000, rng=rng, step_budget=100_000)
    assert est.truncated == 0
    assert 0.0 < est.value < 1.0
