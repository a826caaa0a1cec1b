"""Estimators for the convergence conditions of the blocked clock scheme.

Each condition of the underlying limit theorem reduces, for a reversible
jump chain under stationarity, to an expectation that Monte Carlo can
reach: block-sum tails (`q_tail`), their k_n(t)-scaled versions
(`nu_t`), two-point products (`sigma_sq_t` over two-step pairs, and eta
over uniform distance-2 pairs on the hypercube; `tail_functionals`
yields all three over a (u, t) grid from one walk of one shared
stationary start set and its partner sets),
an exact mixing deviation (`mixing_check`), the initial-distribution
smallness (`condition0_check`), the truncated one-jump mean
(`condition31_estimate`), the functionals along one path that
`dr_path_functionals` walks itself, and the environment-to-environment
variance of the max functional (`env_replication_variance`).

Every estimator emits a ConditionReport.  Condition ids follow the fixed
vocabulary {0, 1-1, 2-1a, 2-1b, 3-1, DR-1.14, DR-1.15}; where two
functionals inform the same condition the ``parameters["functional"]``
entry distinguishes them.  Verdict policy: finite-n bounds (mixing, the
truncated-mean bound) are pass/fail with 3 SE slack; limits attained
only along n are "trend-only" and the n-grid sweep lives in the cli.

Thresholds c_n u^{1/alpha_n} appear exclusively as
log c_n + (1/alpha_n) log u; no linear-domain threshold is ever built.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import engine
from .ehrenfest import EhrenfestChain, distance_laws
from .pspin import HypercubeSRW, PSpinEnvironment, build_instance, make_schedule
from .stats import MCAccumulator

__all__ = [
    "DegenerateScheduleWarning",
    "ConditionReport",
    "q_tail",
    "tail_functionals",
    "k_blocks",
    "nu_t",
    "sigma_sq_t",
    "mixing_check",
    "mixing_report",
    "condition0_check",
    "condition31_estimate",
    "dr_path_functionals",
    "env_replication_variance",
]

_VERDICTS = ("pass", "fail", "trend-only")


class DegenerateScheduleWarning(UserWarning):
    """k_n(t) = 0: the horizon is shorter than one block."""


@dataclass(frozen=True)
class ConditionReport:
    """One verified condition: estimate, uncertainty, target, verdict."""

    id: str
    n: int
    p: int | None
    parameters: dict
    estimate: float
    se: float
    target: float | None
    verdict: str

    def __post_init__(self):
        if self.se < 0.0:
            raise ValueError("standard error must be >= 0")
        if self.verdict not in _VERDICTS:
            raise ValueError(f"verdict must be one of {_VERDICTS}, got {self.verdict!r}")

    def to_json_dict(self) -> dict:
        params = {}
        for key, value in self.parameters.items():
            if isinstance(value, (np.integer,)):
                value = int(value)
            elif isinstance(value, (np.floating,)):
                value = float(value)
            params[str(key)] = value
        return {
            "id": self.id,
            "n": int(self.n),
            "p": None if self.p is None else int(self.p),
            "parameters": params,
            "estimate": float(self.estimate),
            "se": float(self.se),
            "target": None if self.target is None else float(self.target),
            "verdict": self.verdict,
        }


# ---------------------------------------------------------------------------
# block-tail building blocks


def _stacked_log_sums(model, env, sched, sets, rng) -> list:
    """Block sums of every start set, in one walk.

    The sets are stacked row-wise and walked in one
    engine.block_statistics call, so every row is an independent block;
    the log sums come back split into the sets in their given order.
    """
    if all(isinstance(s, np.ndarray) for s in sets):
        starts = np.concatenate(sets)
    else:
        starts = [x for s in sets for x in s]
    stats = engine.block_statistics(model, env, sched.theta_n, len(starts), rng,
                                    starts=starts)
    return np.split(stats.log_sums, np.cumsum([len(s) for s in sets])[:-1])


def q_tail(model, env, sched, y, u: float, reps: int, rng) -> MCAccumulator:
    """Tail of one block sum started at y.

    Estimates P_y(sum_{j=1}^{theta_n} lambda^{-1}(J(j)) e_j exceeds the
    u-threshold); the start state itself contributes no term.
    """
    if u <= 0.0:
        raise ValueError(f"u must be positive, got {u}")
    (values,) = _stacked_log_sums(model, env, sched, [[y] * reps], rng)
    return MCAccumulator.from_values(values > sched.log_threshold(u))


def k_blocks(sched, t: float) -> int:
    """k_n(t) of ``sched``, with a DegenerateScheduleWarning when it is 0."""
    k = sched.blocks_in(t)
    if k == 0:
        warnings.warn(
            f"k_n(t) = 0 for t = {t} under this schedule (a_n = {sched.a_n:.4g}, "
            f"theta_n = {sched.theta_n}); the blocked functional is degenerate",
            DegenerateScheduleWarning, stacklevel=3)
    return k


def _kp_target(sched, t: float, u: float) -> float | None:
    if sched.p is None:
        return None
    return 2.0 * sched.p * t / u


def _distance2_partners(X, rng):
    """Each row of X with two distinct coordinates flipped: its uniform distance-2 partner."""
    reps, n = X.shape
    rows = np.arange(reps)
    first = rng.integers(0, n, reps)
    # second coordinate distinct from the first: shift by 1..n-1
    second = (first + 1 + rng.integers(0, n - 1, reps)) % n
    X2 = X.copy()
    X2[rows, first] = -X2[rows, first]
    X2[rows, second] = -X2[rows, second]
    return X2


# condition id of each tail functional, in report order; the partner sets
# of sigma-sq and eta are drawn in this order after the shared start set
_TAIL_IDS = {"nu": "2-1a", "sigma-sq": "2-1b", "eta": "2-1b"}


def tail_functionals(model, env, sched, u_grid, t_grid, reps: int, rng,
                     functionals=("nu", "sigma-sq", "eta")) -> dict:
    """The block-tail functionals at every (u, t) from one shared walk.

    One stationary start set X of reps rows serves all three
    functionals; only partners are drawn after it: X' two chain steps
    on from X for sigma-sq, then X'' with two distinct coordinates of
    each row of X flipped for eta.  The sets wanted are walked in a
    single engine.block_statistics call.  nu thresholds the sums from
    X; sigma-sq and eta take the product indicator over a row of X and
    the same row of its partner set.  The two halves of a pair are
    separate rows, so the product is unbiased for Q(x)Q(x'); squaring a
    shared estimate would bias upward.  Block sums do not depend on u,
    which only moves the log threshold, and depend on t only through
    the factor k_n(t), so every report is a threshold and a rescaling
    of the same sums: common random numbers make each functional
    exactly non-increasing in u, and sigma-sq and eta never exceed nu.

    Returns {(functional, u, t): ConditionReport}.  Nothing is simulated
    when k_n(t) = 0 for every t.
    """
    if min(u_grid) <= 0.0 or min(t_grid) <= 0.0:
        raise ValueError("u and t must be positive")
    wanted = [f for f in _TAIL_IDS if f in functionals]
    if "eta" in wanted and not (isinstance(model, HypercubeSRW) and model.n >= 2):
        raise ValueError("distance-2 pairs need a hypercube state space with n >= 2")
    ks = {}
    for t in t_grid:  # a loop: a comprehension frame would shift the warning stacklevel
        ks[t] = k_blocks(sched, t)
    sums = {}
    if any(ks.values()):
        X = model.sample_stationary(reps, rng)
        partners = {}
        if "sigma-sq" in wanted:
            partners["sigma-sq"] = model.step_batch(X, rng, steps=2)
        if "eta" in wanted:
            partners["eta"] = _distance2_partners(X, rng)
        own, *theirs = _stacked_log_sums(model, env, sched, [X, *partners.values()], rng)
        sums = {"nu": [own]} | {f: [own, s] for f, s in zip(partners, theirs)}
    reports = {}
    for f in wanted:
        for u in u_grid:
            acc = None
            if sums:
                log_threshold = sched.log_threshold(u)
                hits = np.logical_and.reduce([s > log_threshold for s in sums[f]])
                acc = MCAccumulator.from_values(hits.astype(float))
            for t in t_grid:
                k = ks[t]
                estimate, se = (k * acc.mean, k * acc.sem) if k else (0.0, 0.0)
                reports[f, u, t] = ConditionReport(
                    id=_TAIL_IDS[f], n=sched.n, p=sched.p,
                    parameters={"functional": f, "u": u, "t": t, "reps": reps, "k_n": k},
                    estimate=estimate, se=se,
                    target=_kp_target(sched, t, u) if f == "nu" else 0.0,
                    verdict="trend-only")
    return reports


def nu_t(model, env, sched, u: float, t: float, reps: int, rng) -> ConditionReport:
    """Intensity functional: k_n(t) times the stationary block-sum tail."""
    return tail_functionals(model, env, sched, (u,), (t,), reps, rng, ("nu",))["nu", u, t]


def sigma_sq_t(model, env, sched, u: float, t: float, reps: int, rng) -> ConditionReport:
    """Two-point functional over 2-step pairs; drives the variance condition."""
    return tail_functionals(model, env, sched, (u,), (t,), reps, rng,
                            ("sigma-sq",))["sigma-sq", u, t]


# ---------------------------------------------------------------------------
# exact mixing deviation


def mixing_check(n: int, theta_n: int, i_values) -> float:
    """Exact two-time mixing deviation of the hypercube SRW.

    For each lag i and each distance d, the two-term sum over the period
    window {i + theta_n, i + theta_n + 1} of
    P_pi(J(m) = y, J(0) = x) is computed exactly through the distance
    chain (P_x(J(m) = y) = q_m(d) / C(n, d)) and compared against
    2 pi(x) pi(y).  Returns the maximum absolute deviation.
    """
    i_values = sorted(set(int(i) for i in i_values))
    if not i_values or i_values[0] < 0:
        raise ValueError("i_values must be nonempty and nonnegative")
    if theta_n < 1:
        raise ValueError(f"theta_n must be >= 1, got {theta_n}")
    needed = {m for i in i_values for m in (i + theta_n, i + theta_n + 1)}
    laws = zip(range(max(needed) + 1), distance_laws(EhrenfestChain(n)))
    snapshots = {m: v for m, v in laws if m in needed}
    pi_x = 2.0 ** (-n)
    comb = np.array([math.comb(n, d) for d in range(n + 1)], dtype=float)
    worst = 0.0
    for i in i_values:
        q = snapshots[i + theta_n] + snapshots[i + theta_n + 1]
        joint = pi_x * q / comb  # P_pi(J(0)=x, J(m)=y) summed over the window
        dev = np.abs(joint - 2.0 * pi_x * pi_x)
        worst = max(worst, float(dev.max()))
    return worst


def mixing_report(n: int, theta_n: int, i_values) -> ConditionReport:
    """mixing_check against the 2^{-3n+1} bound; exact, so SE = 0."""
    deviation = mixing_check(n, theta_n, i_values)
    bound = 2.0 ** (-3 * n + 1)
    return ConditionReport(
        id="1-1", n=n, p=None,
        parameters={"theta_n": theta_n, "i_values": list(int(i) for i in i_values)},
        estimate=deviation, se=0.0, target=bound,
        verdict="pass" if deviation <= bound else "fail")


# ---------------------------------------------------------------------------
# remaining conditions


def condition0_check(model, env, sched, v: float, reps: int, rng) -> ConditionReport:
    """Stationary mean of exp(-v^{1/alpha} c_n lambda(x)).

    The exponent is -exp((1/alpha) log v + log c_n + log lambda(x));
    overflow of the inner exp is the correct limit (value 0).
    """
    if v <= 0.0:
        raise ValueError(f"v must be positive, got {v}")
    log_inv = engine.log_inverse_rates(model, env, model.sample_stationary(reps, rng))
    z = math.log(v) / sched.alpha_n + sched.log_c_n - log_inv
    with np.errstate(over="ignore"):
        values = np.exp(-np.exp(z))
    acc = MCAccumulator.from_values(values)
    target = None
    if sched.gamma is not None:
        target = sched.gamma ** 2 / (sched.a_n * v)
    return ConditionReport(
        id="0", n=sched.n, p=sched.p,
        parameters={"v": v, "reps": reps},
        estimate=acc.mean, se=acc.sem, target=target, verdict="trend-only")


def condition31_estimate(model, env, sched, delta: float, t: float,
                         reps: int, rng) -> ConditionReport:
    """Truncated scaled mean of one jump term, with its bound verdict.

    Estimates a_n (c_n delta^{1/alpha})^{-1} E_pi[lambda^{-1}(J(1)) e ;
    lambda^{-1}(J(1)) e <= c_n delta^{1/alpha}].  Each term is kept in
    log form until the final exp of (log a_n + log Y - log threshold),
    so the huge a_n and tiny Y/threshold ratio cancel before any
    linear-domain number is formed.  The alpha-powered estimate rides
    along in parameters["estimate_powered"].
    """
    if delta <= 0.0 or t <= 0.0:
        raise ValueError("delta and t must be positive")
    states = model.step_batch(model.sample_stationary(reps, rng), rng, steps=1)
    log_inv = engine.log_inverse_rates(model, env, states)
    log_y = log_inv + np.log(rng.standard_exponential(reps))
    log_thresh = sched.log_threshold(delta)
    log_a = math.log(sched.a_n)
    with np.errstate(over="ignore"):
        scaled = np.where(log_y <= log_thresh,
                          np.exp(log_a + log_y - log_thresh), 0.0)
    acc = MCAccumulator.from_values(scaled)
    estimate, se = acc.mean, acc.sem
    target = None
    verdict = "trend-only"
    if sched.gamma is not None and sched.beta is not None:
        target = 4.0 / (delta * sched.gamma * sched.beta)
        verdict = "pass" if estimate <= target + 3.0 * se else "fail"
    return ConditionReport(
        id="3-1", n=sched.n, p=sched.p,
        parameters={"delta": delta, "t": t, "reps": reps,
                    "estimate_powered": float(estimate ** sched.alpha_n)},
        estimate=estimate, se=se, target=target, verdict=verdict)


def dr_path_functionals(model, env, sched, u: float, t: float,
                        inner_reps: int, rng) -> tuple[ConditionReport, ConditionReport]:
    """Along-the-path intensity and its squared companion.

    One path from a stationary start hops theta_n steps at a time
    (``model.step_batch``) to its k_n(t) block boundaries.  At each the
    one-step average of the block tail is estimated by sampling a single
    neighbor and running inner_reps block replicas from it.  Returns
    (sum of boundary estimates, sum of squared boundary estimates); the
    second SE uses the delta method per boundary.
    """
    if u <= 0.0 or t <= 0.0:
        raise ValueError("u and t must be positive")
    k = k_blocks(sched, t)
    x = model.sample_stationary(1, rng)
    ys = []
    for _ in range(k):
        x = model.step_batch(x, rng, steps=sched.theta_n)
        ys.append(model.next_state(x[0], rng))
    # one stacked walk: inner_reps rows from each boundary's sampled neighbor
    sets = [[y] * inner_reps for y in ys]
    sums = _stacked_log_sums(model, env, sched, sets, rng) if k else []
    log_threshold = sched.log_threshold(u)
    accs = [MCAccumulator.from_values(s > log_threshold) for s in sums]
    estimates = np.asarray([acc.mean for acc in accs])
    sems = np.asarray([acc.sem for acc in accs])
    nu_est = float(estimates.sum())
    nu_se = float(np.sqrt((sems ** 2).sum()))
    sq_est = float((estimates ** 2).sum())
    sq_se = float(np.sqrt(((2.0 * estimates * sems) ** 2).sum()))
    params = {"u": u, "t": t, "inner_reps": inner_reps, "k_n": k}
    return (
        ConditionReport(id="DR-1.14", n=sched.n, p=sched.p, parameters=dict(params),
                        estimate=nu_est, se=nu_se,
                        target=_kp_target(sched, t, u), verdict="trend-only"),
        ConditionReport(id="DR-1.15", n=sched.n, p=sched.p, parameters=dict(params),
                        estimate=sq_est, se=sq_se, target=0.0, verdict="trend-only"),
    )


def env_replication_variance(n: int, p: int, c: float, beta: float, u: float,
                             t: float, env_seeds, inner_reps: int,
                             rng) -> ConditionReport:
    """Variance of the max functional across the environments of ``env_seeds``.

    Environment e is the coupling tensor of instance seed env_seeds[e],
    built one at a time.  ``rng`` gives only the walk and mark entropy,
    shared across environments (common random numbers).
    At beta = 0 every rate is 1, so the variance is exactly 0: that
    report (k_n = 0) comes back without a schedule, an instance or a
    draw.  Reported against the gamma^{-2} n^{1-p/2} scaling;
    the constant in front is not pinned, hence trend-only.  At
    k_n(t) = 0 it reports k_n = 0, scales the block-max tail by 1
    instead of 0 and warns like every blocked functional.
    """
    env_reps = len(env_seeds)
    if env_reps < 2:
        raise ValueError(f"need at least 2 environments, got {env_reps}")
    gamma = float(n) ** (-c)
    parameters = {"functional": "env-variance-max", "u": u, "t": t, "c": c,
                  "beta": beta, "env_reps": env_reps, "inner_reps": inner_reps}
    target = gamma ** (-2) * float(n) ** (1.0 - p / 2.0)
    if beta == 0.0:
        # every rate is 1: each environment gives the same value on the
        # shared walk, so the spread is exactly 0 without a schedule or a walk
        return ConditionReport(id="2-1a", n=n, p=p, parameters=parameters | {"k_n": 0},
                               estimate=0.0, se=0.0, target=target, verdict="trend-only")
    sched = make_schedule(n, p, c, beta)
    k = k_blocks(sched, t)
    model = HypercubeSRW(n)
    shared_entropy = int(rng.integers(0, 2 ** 63 - 1, dtype=np.int64))
    values = np.empty(env_reps)
    for e, seed in enumerate(env_seeds):
        env = PSpinEnvironment(build_instance(n, p, int(seed), beta=beta, c=c))
        log_maxes = engine.block_statistics(model, env, sched.theta_n, inner_reps,
                                            engine.stream(shared_entropy),
                                            want_max=True).log_maxes
        # scaled by 1 at k_n(t) = 0, where a factor 0 would hide every spread
        values[e] = max(1, k) * float(np.mean(log_maxes > sched.log_threshold(u)))
    acc = MCAccumulator.from_values(values)
    variance = acc.variance
    centered = values - values.mean()
    m4 = float((centered ** 4).mean())
    # Var(s^2) = (m4 - (E-3)/(E-1) s^4) / E, positive whenever the values
    # differ: m4 >= m2^2 and E^2 (E-3) / (E-1)^3 < 1
    se = math.sqrt((m4 - (env_reps - 3) / (env_reps - 1) * variance ** 2) / env_reps)
    return ConditionReport(id="2-1a", n=n, p=p, parameters=parameters | {"k_n": k},
                           estimate=variance, se=se, target=target, verdict="trend-only")
