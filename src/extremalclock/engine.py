"""Markov jump processes in a random environment and their clock processes.

A model is a discrete-time jump chain J on an opaque state space with
invariant measure pi; an environment assigns each state a depth tau > 0
and a normalising constant C, giving the holding rate

    lambda(x) = C * pi(x) / tau(x).

The clock process accumulates lambda^{-1}(J(i)) * e_i over steps with
i.i.d. unit-mean exponential marks e_i; rescaled by c_n and a_n it is
the object whose alpha_n-th power converges to an extremal process.
Because c_n and the per-step inverse rates overflow any fixed-width
float for moderate system sizes, every clock quantity here lives in the
log domain: sums are log-sum-exp (shifted by the largest term, pairwise
summation underneath), c_n exists only as log c_n, and thresholds only
as log c_n + (1/alpha_n) log u.

One dispatch rule: a model whose ``vectorises(env)`` returns True
supplies vectorised kernels for that environment (``block_statistics``,
``correlation_overlaps`` and ``batch_log_inv_rates``), and
``block_statistics``, ``estimate_correlation`` and ``log_inverse_rates``
below call them.  Every other model/environment pair runs the
pure-Python reference loops here.  No other module makes this choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import MCAccumulator

__all__ = [
    "EnvironmentValueError",
    "HorizonError",
    "StepBudgetError",
    "JumpChainModel",
    "CompleteGraphChain",
    "EnvironmentOracle",
    "ConstantEnvironment",
    "TabularEnvironment",
    "ScalingSchedule",
    "Trajectory",
    "stream",
    "log_inverse_rate",
    "log_inverse_rates",
    "simulate_trajectory",
    "clock_value",
    "blocked_clock_value",
    "blocked_clock_parts",
    "time_changed_state",
    "jensen_sandwich_check",
    "BlockStats",
    "block_statistics",
    "generic_block_statistics",
    "CorrelationEstimate",
    "estimate_correlation",
    "generic_correlation_overlaps",
]


class EnvironmentValueError(ValueError):
    """Environment returned a non-positive or non-finite depth."""


class HorizonError(RuntimeError):
    """Queried time lies beyond the simulated clock horizon."""


class StepBudgetError(RuntimeError):
    """No replica reached the target clock level within the step budget."""


# ---------------------------------------------------------------------------
# model and environment interfaces


class JumpChainModel:
    """Base interface for jump chains.

    Subclasses implement ``initial_state`` (a draw from mu_n),
    ``next_state`` (one transition of p_n), and ``log_pi``.  The batch
    methods below are list-based defaults that models may override with
    array versions.
    """

    def initial_state(self, rng):
        raise NotImplementedError

    def next_state(self, x, rng):
        raise NotImplementedError

    def log_pi(self, x) -> float:
        raise NotImplementedError

    def sample_stationary(self, reps: int, rng):
        """`reps` independent draws of the initial state."""
        return [self.initial_state(rng) for _ in range(reps)]

    def step_batch(self, states, rng, steps: int = 1):
        """Advance every state `steps` transitions, one state after another."""
        out = []
        for x in states:
            for _ in range(steps):
                x = self.next_state(x, rng)
            out.append(x)
        return out


class CompleteGraphChain(JumpChainModel):
    """SRW on the complete graph over states {0, ..., m-1}.

    p(x, y) = 1/(m-1) for y != x; pi is uniform.  The 2-state case is
    deterministic alternation with period 2; m >= 3 is aperiodic.
    """

    def __init__(self, m: int):
        if m < 2:
            raise ValueError(f"complete graph needs at least 2 states, got {m}")
        self.m = m

    def initial_state(self, rng):
        return int(rng.integers(self.m))

    def next_state(self, x, rng):
        step = int(rng.integers(self.m - 1))
        return step if step < x else step + 1

    def log_pi(self, x) -> float:
        return -math.log(self.m)

    def overlap(self, x, y) -> float:
        return 1.0 if x == y else -1.0


class EnvironmentOracle:
    """Base interface for environments: log tau per state plus log C."""

    log_C = 0.0

    def log_tau(self, x) -> float:
        raise NotImplementedError


class ConstantEnvironment(EnvironmentOracle):
    """tau identically equal to a constant (degenerate environment)."""

    def __init__(self, tau: float, C: float = 1.0):
        if not (tau > 0.0 and math.isfinite(tau)):
            raise EnvironmentValueError(f"tau must be positive and finite, got {tau}")
        if not C > 0.0:
            raise ValueError(f"C must be positive, got {C}")
        self._log_tau = math.log(tau)
        self.log_C = math.log(C)

    def log_tau(self, x) -> float:
        return self._log_tau


class TabularEnvironment(EnvironmentOracle):
    """Explicit tau table over integer states."""

    def __init__(self, taus, C: float = 1.0):
        taus = np.asarray(taus, dtype=float)
        if np.any(~np.isfinite(taus)) or np.any(taus <= 0.0):
            raise EnvironmentValueError("every tau must be positive and finite")
        if not C > 0.0:
            raise ValueError(f"C must be positive, got {C}")
        self._log_taus = np.log(taus)
        self.log_C = math.log(C)

    def log_tau(self, x) -> float:
        return float(self._log_taus[x])


@dataclass(frozen=True)
class ScalingSchedule:
    """Rescaling sequences (a_n, c_n, theta_n, alpha_n, v_n) for size n.

    c_n is carried as log_c_n only.  Model-specific constructors (the
    p-spin ``make_schedule``) fill the optional provenance fields.
    """

    n: int
    a_n: float
    log_c_n: float
    theta_n: int
    alpha_n: float
    v_n: int
    p: int | None = None
    beta: float | None = None
    gamma: float | None = None
    c_exponent: float | None = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not self.a_n >= 1.0:
            raise ValueError(f"a_n must be >= 1, got {self.a_n}")
        if self.theta_n < 1:
            raise ValueError(f"theta_n must be >= 1, got {self.theta_n}")
        if not 0.0 < self.alpha_n <= 1.0:
            raise ValueError(f"alpha_n must lie in (0, 1], got {self.alpha_n}")
        if not 1 <= self.v_n <= self.theta_n:
            raise ValueError(f"v_n must lie in [1, theta_n], got {self.v_n}")

    def log_threshold(self, u: float) -> float:
        """log(c_n * u^{1/alpha_n}); thresholds are never materialised linearly."""
        if not u > 0.0:
            raise ValueError(f"threshold level must be positive, got {u}")
        return self.log_c_n + math.log(u) / self.alpha_n

    def jumps_in(self, t: float) -> int:
        """floor(a_n * t), the number of clock summands up to time t; a ValueError if infinite."""
        if not (t >= 0.0 and math.isfinite(self.a_n * t)):
            raise ValueError(f"need t >= 0 and a finite a_n t, got t={t} (a_n = {self.a_n:.4g})")
        return int(math.floor(self.a_n * t))

    def blocks_in(self, t: float) -> int:
        """k_n(t) = floor(floor(a_n t) / theta_n)."""
        return self.jumps_in(t) // self.theta_n


@dataclass
class Trajectory:
    """A realised chain path with marks and per-step log inverse rates.

    states[i] = J(i), marks[i] = e_i > 0, log_inv_rates[i] =
    log lambda^{-1}(J(i)); all three have the same length N+1.
    """

    states: list
    marks: np.ndarray
    log_inv_rates: np.ndarray

    def __post_init__(self):
        if not (len(self.states) == len(self.marks) == len(self.log_inv_rates)):
            raise ValueError("states, marks, and rates must have equal length")
        if np.any(self.marks <= 0.0):
            raise ValueError("marks must be positive")

    def __len__(self) -> int:
        return len(self.states)

    # log of the i-th clock summand lambda^{-1}(J(i)) e_i
    def log_terms(self) -> np.ndarray:
        return self.log_inv_rates + np.log(self.marks)


def stream(entropy) -> np.random.Generator:
    """The Monte Carlo stream keyed by ``entropy`` (SeedSequence entropy).

    Equal keys give equal draws; distinct keys give independent streams
    through SeedSequence's hashing.  Every job stream is one of these.
    The bit generator is SFC64, cheaper per draw than a counter-based
    generator such as Philox, whose jump-ahead nothing here needs: no
    stream is ever jumped or advanced.  Coupling tensors are not drawn
    here: their Philox stream is part of the persisted instance format
    (``pspin.GENERATOR_ID``).
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy)))


def log_inverse_rate(env: EnvironmentOracle, model: JumpChainModel, x) -> float:
    """log lambda^{-1}(x) = log tau(x) - log C - log pi(x)."""
    lt = env.log_tau(x)
    if not math.isfinite(lt):
        raise EnvironmentValueError(f"log tau must be finite, got {lt}")
    return lt - env.log_C - model.log_pi(x)


def _vectorised(model, env) -> bool:
    """The dispatch rule: does the model supply vectorised kernels for env?"""
    vectorises = getattr(model, "vectorises", None)
    return vectorises is not None and vectorises(env)


def log_inverse_rates(model: JumpChainModel, env: EnvironmentOracle, states) -> np.ndarray:
    """log lambda^{-1} at each of `states` (a list of states or an array of rows)."""
    if _vectorised(model, env):
        return model.batch_log_inv_rates(env, states)
    return np.asarray([log_inverse_rate(env, model, x) for x in states], dtype=float)


def simulate_trajectory(model: JumpChainModel, steps: int, rng: np.random.Generator,
                        env: EnvironmentOracle | None = None) -> Trajectory:
    """Run `steps` transitions from a fresh initial draw.

    Marks are drawn lazily per step and recorded, so clock and blocked
    clock evaluated on the same trajectory share them (common random
    numbers for the sandwich checks).  Draw order per index: state
    first, then its mark.  When ``env`` is given the per-state log
    inverse rates are filled in; otherwise they are NaN and the clock
    operations will reject the trajectory.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    states = [model.initial_state(rng)]
    marks = np.empty(steps + 1)
    marks[0] = rng.standard_exponential()
    for i in range(steps):
        states.append(model.next_state(states[-1], rng))
        marks[i + 1] = rng.standard_exponential()
    if env is not None:
        rates = log_inverse_rates(model, env, states)
    else:
        rates = np.full(steps + 1, np.nan)
    return Trajectory(states=states, marks=marks, log_inv_rates=rates)


def _logsumexp(terms: np.ndarray) -> float:
    """log(sum(exp(terms))) as top + log(sum(exp(terms - top))), top the
    largest term; ``np.sum`` sums pairwise.  All -inf gives -inf."""
    top = float(np.max(terms))
    if not math.isfinite(top):
        return top
    return top + math.log(float(np.sum(np.exp(terms - top))))


def _require_rates(traj: Trajectory) -> np.ndarray:
    terms = traj.log_terms()
    if np.any(np.isnan(terms)):
        raise ValueError("trajectory has no environment rates attached")
    return terms


def clock_value(traj: Trajectory, sched: ScalingSchedule, t: float) -> float:
    """log S_n(t) with S_n(t) = c_n^{-1} sum_{i=0}^{floor(a_n t)-1} lambda^{-1}(J(i)) e_i.

    Empty sum returns -inf (the log-domain zero sentinel).
    """
    m = sched.jumps_in(t)
    if m == 0:
        return -math.inf
    if len(traj) < m:
        raise ValueError(f"trajectory has {len(traj)} states, clock needs {m}")
    terms = _require_rates(traj)
    return _logsumexp(terms[:m]) - sched.log_c_n


def blocked_clock_value(traj: Trajectory, sched: ScalingSchedule, t: float) -> float:
    """log S_n^b(t): block sums over j = 1..theta_n k_n(t) plus the index-0 term."""
    log_hat, log_zero = blocked_clock_parts(traj, sched, t)
    return float(np.logaddexp(log_hat, log_zero))


def blocked_clock_parts(traj: Trajectory, sched: ScalingSchedule, t: float):
    """(log of the block sums without index 0, log of the index-0 term).

    The blocked clock deliberately drops indices theta_n k_n(t)+1 ..
    floor(a_n t)-1; only whole blocks enter.
    """
    k = sched.blocks_in(t)
    last = sched.theta_n * k
    if len(traj) < last + 1:
        raise ValueError(f"trajectory has {len(traj)} states, blocked clock needs {last + 1}")
    terms = _require_rates(traj)
    log_hat = _logsumexp(terms[1:last + 1]) - sched.log_c_n if k > 0 else -math.inf
    log_zero = float(terms[0]) - sched.log_c_n
    return log_hat, log_zero


def time_changed_state(traj: Trajectory, sched: ScalingSchedule, log_time: float):
    """X_n at unscaled clock time exp(log_time): the J(k) whose holding
    interval [S~(k), S~(k+1)) covers it.

    Raises HorizonError when the trajectory's accumulated clock does not
    reach the queried time; the caller extends the trajectory.
    """
    terms = _require_rates(traj)
    cum = -math.inf  # log S~(k), starting from S~(0) = 0
    for k in range(len(terms)):
        nxt = np.logaddexp(cum, terms[k])
        if cum <= log_time < nxt:
            return traj.states[k]
        cum = nxt
    raise HorizonError(
        f"clock horizon log {cum:.6g} does not cover queried log time {log_time:.6g}"
    )


def jensen_sandwich_check(traj: Trajectory, sched: ScalingSchedule, t: float) -> bool:
    """Path-wise check of S-hat^a <= (S^b)^a <= S-hat^a + (index-0 term)^a.

    Compared in a common rescaled frame (shift by the max log) so the
    inequality is meaningful even when the powers overflow linearly.
    """
    a = sched.alpha_n
    log_hat, log_zero = blocked_clock_parts(traj, sched, t)
    log_sb = np.logaddexp(log_hat, log_zero)
    shift = a * max(log_hat, log_sb, log_zero)
    if shift == -math.inf:
        return True  # identically zero path
    hat_p = math.exp(a * log_hat - shift) if log_hat > -math.inf else 0.0
    sb_p = math.exp(a * log_sb - shift)
    zero_p = math.exp(a * log_zero - shift) if log_zero > -math.inf else 0.0
    slack = 1e-9 * max(hat_p, sb_p, zero_p, 1e-300)  # rounding of the powers
    return hat_p <= sb_p + slack and sb_p <= hat_p + zero_p + slack


# ---------------------------------------------------------------------------
# batched block statistics (the primitive behind the condition estimators)


@dataclass
class BlockStats:
    """Per-replica block quantities in the log domain.

    log_sums[r]  = log sum_{j=1..theta} lambda^{-1}(J(j)) e_j
    log_maxes[r] = log max_{j=1..theta} lambda^{-1}(J(j)) e_j  (optional)
    end_states   = J(theta) per replica (optional)
    """

    log_sums: np.ndarray
    log_maxes: np.ndarray | None = None
    end_states: list | None = None


def block_statistics(model: JumpChainModel, env: EnvironmentOracle, theta: int,
                     reps: int, rng: np.random.Generator, starts=None,
                     want_max: bool = False, want_end: bool = False) -> BlockStats:
    """Simulate `reps` independent blocks of `theta` steps.

    Each block starts from ``starts[r]`` (or a fresh initial draw) and
    accumulates the summands with j running 1..theta: the starting
    state itself contributes nothing, matching the block-sum tail
    functionals.  A vectorising model's ``block_statistics`` method has
    the same contract.
    """
    if _vectorised(model, env):
        return model.block_statistics(env, theta, reps, rng, starts=starts,
                                      want_max=want_max, want_end=want_end)
    return generic_block_statistics(model, env, theta, reps, rng, starts=starts,
                                    want_max=want_max, want_end=want_end)


def generic_block_statistics(model: JumpChainModel, env: EnvironmentOracle, theta: int,
                             reps: int, rng: np.random.Generator, starts=None,
                             want_max: bool = False, want_end: bool = False) -> BlockStats:
    """Reference per-replica implementation of ``block_statistics``.

    Draw order per replica and step: transition first, then the mark.
    """
    log_sums = np.full(reps, -math.inf)
    log_maxes = np.full(reps, -math.inf) if want_max else None
    ends = [] if want_end else None
    for r in range(reps):
        x = model.initial_state(rng) if starts is None else starts[r]
        ls = -math.inf
        lm = -math.inf
        for _ in range(theta):
            x = model.next_state(x, rng)
            term = log_inverse_rate(env, model, x) + math.log(rng.standard_exponential())
            ls = np.logaddexp(ls, term)
            if term > lm:
                lm = term
        log_sums[r] = ls
        if want_max:
            log_maxes[r] = lm
        if want_end:
            ends.append(x)
    return BlockStats(log_sums=log_sums, log_maxes=log_maxes, end_states=ends)


# ---------------------------------------------------------------------------
# time-time correlation (ageing) estimator


@dataclass
class CorrelationEstimate:
    """Estimate of P(overlap between the two time-changed states >= 1-eps)."""

    acc: MCAccumulator
    truncated: int = 0

    @property
    def value(self) -> float:
        return self.acc.mean

    @property
    def se(self) -> float:
        return self.acc.sem

    @property
    def completed(self) -> int:
        return self.acc.count


def estimate_correlation(model: JumpChainModel, env: EnvironmentOracle,
                         sched: ScalingSchedule, eps: float, pairs, reps: int,
                         rng: np.random.Generator,
                         step_budget: int = 10 ** 8) -> list[CorrelationEstimate]:
    """Monte Carlo estimates of the two-time overlap probability, one per (t, s) of ``pairs``.

    One walk per replica, from a stationary start, records the state
    occupied at each clock level x^{1/alpha_n} c_n, x in {t} and {t+s};
    a pair compares its two states through the model overlap, counting
    overlap >= 1 - eps.  Replicas that exhaust ``step_budget`` before a
    pair's t+s are dropped from its estimate and reported in its
    ``truncated``; a pair that loses every replica raises StepBudgetError.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    if not pairs or not all(t > 0.0 and s >= 0.0 for t, s in pairs):
        raise ValueError(f"need pairs of t > 0 and s >= 0, got {pairs}")
    times = sorted({x for t, s in pairs for x in (t, t + s)})
    levels = [sched.log_threshold(x) for x in times]
    index = [(times.index(t), times.index(t + s)) for t, s in pairs]
    if _vectorised(model, env):
        overlaps = model.correlation_overlaps(env, levels, index, reps, rng, step_budget)
    else:
        overlaps = generic_correlation_overlaps(model, env, levels, index, reps, rng,
                                                step_budget)
    estimates = []
    for column in np.asarray(overlaps).T:
        finished = column[~np.isnan(column)]
        truncated = reps - finished.size
        if finished.size == 0:
            raise StepBudgetError(f"no replica reached the clock horizon within "
                                  f"{step_budget} steps ({truncated} truncated)")
        acc = MCAccumulator.from_values((finished >= 1.0 - eps).astype(float))
        estimates.append(CorrelationEstimate(acc=acc, truncated=truncated))
    return estimates


def generic_correlation_overlaps(model: JumpChainModel, env: EnvironmentOracle,
                                 log_levels, pairs, reps: int,
                                 rng: np.random.Generator, step_budget: int) -> np.ndarray:
    """Reference per-replica two-time overlap sampler.

    Returns the overlaps of each of ``pairs``' (earlier, later) indices
    into the increasing ``log_levels``, as a (reps, len(pairs)) array,
    NaN where the budget ran out first.  A replica's k-th iteration owns
    the holding interval of J(k), covering the levels it passes; the
    replica stops at the largest.  Draw order per iteration: the mark of
    the current state, then the transition.
    """
    overlap = getattr(model, "overlap", None)
    if overlap is None:
        raise ValueError("model provides no overlap function")
    out = np.full((reps, len(pairs)), np.nan)
    for r in range(reps):
        x = model.initial_state(rng)
        cum = -math.inf
        states = []  # the state at each level passed so far
        for _ in range(step_budget):
            term = log_inverse_rate(env, model, x) + math.log(rng.standard_exponential())
            cum = np.logaddexp(cum, term)
            while len(states) < len(log_levels) and log_levels[len(states)] < cum:
                states.append(x)
            if len(states) == len(log_levels):
                break
            x = model.next_state(x, rng)
        for c, (a, b) in enumerate(pairs):
            if b < len(states):
                out[r, c] = overlap(states[a], states[b])
    return out
