"""Batch entry point: config parsing, deterministic orchestration, result files.

One run = one subcommand + one JSON config.  Outputs land in the output
directory as results.json (summary: command, config hash, seed, table
names, condition reports, runtime), one CSV per table, and
manifest.json (versions, timestamp, the full config, the job-stream
bit generator, the CPU count and the git revision).  Identical
(config, seed) pairs give identical results.json apart from the
runtime_seconds field, regardless of thread count: every Monte Carlo
job owns a stream keyed by (seed, job index) and results are merged in
job order, never in completion order.  Job streams are SFC64
(``engine.stream``): cheaper per draw than Philox, and no stream is
ever jumped or advanced, so nothing needs a counter-based generator.
Coupling tensors come from Philox streams keyed by the instance seed,
because the saved-instance format names that generator: landscapes do
not change with the job streams.

Subcommands, one `_Command` record each in `_COMMANDS`, which holds the
rules validate_config applies to it, and which the parser and run() read:
  ppp        extremal-process marginals sampled from the Poisson construction
  sk-run     blocked clock samples and powered marginals on the p-spin landscape
  verify     condition estimators (0, 1-1, 2-1a, 2-1b, 3-1, DR) over the n-grid
  ehrenfest  hitting-time tables, occupation statistic, distance-process check
  ageing     two-time overlap probabilities against the t/(t+s) overlay
  compare    randomized max-CDF comparison bound checks
  variance   environment-replication variance trend
The four that read a clock reject beta * n > 1e300 (pspin.check_schedule),
which keeps log c_n, the block thresholds and beta H finite.

CSV conventions: '.' decimal, LF line endings, floats at 17 significant
digits, and (n, p, c, beta, seed) provenance columns on every row.
The only environment variable honored is EXTREMAL_CLOCK_OUT (fallback
output directory when neither --out nor the config names one).

Exit codes: 0 success, 2 config error (missing, not JSON, or invalid),
3 step budget exhausted on every replica of an estimate.  Both failures
print one line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime
import functools
import hashlib
import json
import os
import pathlib
import platform
import sys
import time
import typing
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__, conditions, ehrenfest, engine, measures, pspin, stats

__all__ = ["ExperimentConfig", "ConfigError", "Table", "load_config", "validate_config",
           "config_hash", "run", "main"]

OUT_ENV_VAR = "EXTREMAL_CLOCK_OUT"


class ConfigError(ValueError):
    """Schema violation; ``fields`` lists every offending entry."""

    def __init__(self, fields):
        self.fields = list(fields)
        super().__init__("invalid config fields: " + "; ".join(self.fields))


@dataclasses.dataclass
class ExperimentConfig:
    """One experiment: grids, budgets, seed, output routing.

    ``beta`` is a constant or a per-n sequence aligned with ``n_grid``.
    Fields irrelevant to a subcommand are ignored but still validated.
    """

    n_grid: tuple = (8, 12, 16)
    p: int = 2
    c: float = 0.05
    beta: object = 1.0
    u_grid: tuple = (0.5, 1.0, 2.0)
    t_grid: tuple = (1.0,)
    s_grid: tuple = (1.0,)
    epsilon: float = 0.5
    delta_grid: tuple = (0.5, 1.0, 2.0)
    v: float = 1.0
    replicas: int = 2000
    inner_replicas: int = 200
    step_budget: int = 10 ** 7
    seed: int = 0
    threads: int = 1
    out: str = ""
    # limit-object sampling (ppp)
    K: float = 4.0
    t_max: float = 2.0
    u_min: float = 0.05
    significance: float = 0.01
    # ehrenfest extras
    occupation_d: int = 2
    distance_steps: int = 20
    # compare extras
    pairs: int = 50
    # variance extras
    env_replicas: int = 40

    def beta_for(self, index: int) -> float:
        if isinstance(self.beta, (list, tuple)):
            return float(self.beta[index])
        return float(self.beta)

    def to_json_dict(self) -> dict:
        d = dataclasses.asdict(self)
        for key, value in d.items():
            if isinstance(value, tuple):
                d[key] = list(value)
        return d


_GRID_FIELDS = ("n_grid", "u_grid", "t_grid", "s_grid", "delta_grid")
_POSITIVE_INT_FIELDS = ("replicas", "inner_replicas", "step_budget", "threads",
                        "occupation_d", "distance_steps", "pairs", "env_replicas")
_POSITIVE_FIELDS = ("v", "K", "t_max", "u_min")
# ppp draws a Poisson count per interval between sorted query times, with
# mean at most max(t_grid) * K / u_min; numpy's Poisson sampler raises
# above about 9.2e18
_PPP_MAX_MEAN = 2 ** 62


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int: not a count or a seed
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_config(raw: dict, command: str | None = None) -> ExperimentConfig:
    """Normalize a raw mapping into ExperimentConfig or raise ConfigError.

    With ``command`` given, also apply that subcommand's domain checks.
    """
    spec = _COMMANDS.get(command)
    clock_t = spec and spec.clock_t
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    problems = [f"{k} (unknown field)" for k in sorted(set(raw) - known)]
    defaults = ExperimentConfig()
    merged = {name: raw.get(name, getattr(defaults, name)) for name in known}

    def flag(name, why):
        problems.append(f"{name} ({why})")

    valid_grids = set()
    for name in _GRID_FIELDS:
        value = merged[name]
        if not isinstance(value, (list, tuple)) or len(value) == 0:
            flag(name, "must be a non-empty list")
            continue
        if name == "n_grid":
            valid = all(_is_int(x) and x >= 2 for x in value)
            why = "entries must be integers >= 2"
        else:
            valid = all(_is_number(x) and x > 0 for x in value)
            why = "entries must be positive numbers"
        if not valid:
            flag(name, why)
        elif len(set(value)) < len(value):
            # tables and trend series are keyed by grid value
            flag(name, "entries must be distinct")
        else:
            valid_grids.add(name)
        merged[name] = tuple(value)
    tensors_fit = False
    if not (_is_int(merged["p"]) and merged["p"] >= 2):
        flag("p", "must be an integer >= 2")
    elif clock_t and "n_grid" in valid_grids:
        try:
            for n in merged["n_grid"]:
                pspin.check_tensor_budget(n, merged["p"])
            tensors_fit = True
        except pspin.TensorBudgetError as exc:
            flag("n_grid", str(exc))
    c_valid = _is_number(merged["c"]) and 0.0 < merged["c"] < 0.5
    if not c_valid:
        flag("c", "must lie in (0, 0.5)")
    beta = merged["beta"]
    problems_before_beta = len(problems)
    if isinstance(beta, (list, tuple)):
        if isinstance(merged["n_grid"], tuple) and len(beta) != len(merged["n_grid"]):
            flag("beta", "sequence length must match n_grid")
        elif not all(_is_number(b) and b >= 0 for b in beta):
            flag("beta", "entries must be nonnegative numbers")
        else:
            merged["beta"] = tuple(float(b) for b in beta)
    elif not (_is_number(beta) and beta >= 0):
        flag("beta", "must be a nonnegative number or sequence")
    beta_valid = len(problems) == problems_before_beta
    if clock_t and not spec.zero_beta and beta_valid \
            and np.any(np.asarray(merged["beta"]) == 0):
        flag("beta", f"must be positive for {command}; only variance accepts beta = 0")
    if tensors_fit and c_valid and beta_valid:
        # every n with beta > 0 gets a schedule.  Its a_n must not overflow,
        # which depends on n alone; once a_n fits, what is left to fail is
        # alpha_n = n^{-c} / beta <= 1, a beta problem.
        betas = np.broadcast_to(merged["beta"], (len(merged["n_grid"]),))
        scheduled = [(n, float(b)) for n, b in zip(merged["n_grid"], betas) if b > 0]
        for name, with_beta in (("n_grid", False), ("beta", True)):
            try:
                for n, b in scheduled:
                    pspin.check_schedule(n, merged["c"], b if with_beta else None)
            except ValueError as exc:
                flag(name, str(exc))
                break
        else:  # every schedule fits: read its clock, and bound the walk to it
            budget = merged["step_budget"]
            if {"t_grid", "s_grid"} <= valid_grids:
                t = clock_t(merged)
                for n, _ in scheduled:
                    # a_n and theta_n do not depend on beta
                    sched = pspin.make_schedule(n, merged["p"], merged["c"], 1.0)
                    try:
                        k = sched.blocks_in(t)
                    except ValueError:
                        flag("t_grid", f"{command} reads its clock at a_n t, which "
                                       f"overflows at n={n}, t={t}")
                        break
                    # variance's SE sums fourth powers of deviations of values in [0, max(1, k)]
                    envs = merged["env_replicas"]
                    if command == "variance" and _is_int(envs) \
                            and envs * max(1, k) ** 4 > sys.float_info.max:
                        flag("t_grid", f"variance sums {envs} fourth powers of values up to "
                                       f"k_n(t) = {k:.4g}, which overflow at n={n}, t={t}")
                        break
                    if spec.walk_t and _is_int(budget) and budget >= 1:
                        walk_t = spec.walk_t(merged)  # at most t
                        steps = sched.theta_n * sched.blocks_in(walk_t)
                        if steps > budget:
                            flag("t_grid", f"{command} walks theta_n k_n(t) = {steps:.4g} "
                                           f"steps per replica at n={n}, t={walk_t}, "
                                           f"more than step_budget = {budget}")
                            break
    if not (_is_number(merged["epsilon"]) and 0.0 < merged["epsilon"] < 1.0):
        flag("epsilon", "must lie in (0, 1)")
    if not (_is_number(merged["significance"])
            and 0.0 < merged["significance"] < 1.0):
        flag("significance", "must lie in (0, 1)")
    for name in _POSITIVE_FIELDS:
        if not (_is_number(merged[name]) and merged[name] > 0):
            flag(name, "must be positive")
    for name in _POSITIVE_INT_FIELDS:
        if not (_is_int(merged[name]) and merged[name] >= 1):
            flag(name, "must be an integer >= 1")
    if spec and spec.ks and _is_int(merged["replicas"]) \
            and 1 <= merged["replicas"] < stats.KS_MIN_COUNT:
        flag("replicas", f"must be >= {stats.KS_MIN_COUNT} for {command}, "
                         "whose KS threshold is asymptotic")
    if command == "ppp" and "t_grid" in valid_grids \
            and _is_number(merged["t_max"]) and merged["t_max"] > 0 \
            and max(merged["t_grid"]) > merged["t_max"]:
        flag("t_grid", f"entries must not exceed t_max = {merged['t_max']} for ppp, "
                       "whose Poisson points cover [0, t_max]")
    if command == "ppp" and "t_grid" in valid_grids and all(
            _is_number(merged[name]) and merged[name] > 0 for name in ("K", "u_min")):
        mean = max(merged["t_grid"]) * merged["K"] / merged["u_min"]
        if mean > _PPP_MAX_MEAN:
            flag("u_min", f"ppp draws Poisson counts of mean up to max(t_grid) * K / u_min = "
                          f"{mean:.4g}, more than 2^62")
    if command == "variance" and merged["env_replicas"] == 1:
        flag("env_replicas", "must be >= 2 for variance, which measures the spread "
                             "across environments")
    if not (_is_int(merged["seed"]) and 0 <= merged["seed"] < 2 ** 64):
        flag("seed", "must be an integer in [0, 2^64)")
    if not isinstance(merged["out"], str):
        flag("out", "must be a string")
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(**merged)


def load_config(path: str, overrides: dict | None = None,
                command: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ConfigError(["<document> (top level must be a JSON object)"])
    if overrides:
        raw = dict(raw, **overrides)
    return validate_config(raw, command)


_HASH_EXCLUDED = ("threads", "out", "seed")


def config_hash(cfg: ExperimentConfig) -> str:
    """Hash of the numerically relevant config (threads/out/seed excluded)."""
    d = cfg.to_json_dict()
    for key in _HASH_EXCLUDED:
        d.pop(key, None)
    blob = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# deterministic job execution


def _instance_seed(seed: int, n: int, p: int, replica: int = 0) -> int:
    ss = np.random.SeedSequence((seed, n, p, replica, 0x5EED))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _run_jobs(jobs, cfg: ExperimentConfig):
    """Run callables job(rng) -> result; output order == job order."""
    rngs = [engine.stream((cfg.seed, i)) for i in range(len(jobs))]
    if cfg.threads <= 1 or len(jobs) <= 1:
        return [job(rng) for job, rng in zip(jobs, rngs)]
    with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
        return list(pool.map(lambda pair: pair[0](pair[1]), zip(jobs, rngs)))


# ---------------------------------------------------------------------------
# table plumbing


def _fmt_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


class Table:
    """Ordered rows with fixed columns; provenance columns lead."""

    PROVENANCE = ("n", "p", "c", "beta", "seed")

    def __init__(self, name: str, columns):
        self.name = name
        self.columns = list(self.PROVENANCE) + list(columns)
        self.rows = []

    def add(self, prov: dict, **payload):
        """Append one row; payload keys outside the columns are ignored."""
        row = []
        for col in self.columns:
            source = prov if col in Table.PROVENANCE else payload
            if col not in source:
                raise KeyError(f"table {self.name}: missing column {col!r}")
            row.append(source[col])
        self.rows.append(row)

    def write_csv(self, directory: str) -> str:
        path = os.path.join(directory, f"{self.name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.columns)
            for row in self.rows:
                writer.writerow([_fmt_cell(v) for v in row])
        return path


def _prov(cfg: ExperimentConfig, n: int = 0, beta: float | None = None) -> dict:
    return {
        "n": n,
        "p": cfg.p,
        "c": cfg.c,
        "beta": cfg.beta_for(0) if beta is None else beta,
        "seed": cfg.seed,
    }


def _landscapes(cfg: ExperimentConfig):
    """(n, beta, schedule, model, environment) for each n_grid entry.

    Each environment is replica 0 of the (seed, n, p, replica) key of
    `_instance_seed`, which also keys `variance`'s environments.
    """
    for i, n in enumerate(cfg.n_grid):
        beta = cfg.beta_for(i)
        sched = pspin.make_schedule(n, cfg.p, cfg.c, beta)
        inst = pspin.build_instance(n, cfg.p, _instance_seed(cfg.seed, n, cfg.p),
                                    beta=beta, c=cfg.c)
        yield n, beta, sched, pspin.HypercubeSRW(n), pspin.PSpinEnvironment(inst)


# ---------------------------------------------------------------------------
# subcommands: each returns (tables, reports, extras, partial)


def _file_rows(jobs, cfg: ExperimentConfig) -> list:
    """Run jobs that return (table, provenance, row) triples; file the rows in job order.

    Returns the filed triples for the subcommand's summaries.
    """
    filed = [triple for rows in _run_jobs(jobs, cfg) for triple in rows]
    for table, prov, row in filed:
        table.add(prov, **row)
    return filed


def _landscape_rows(job, cfg: ExperimentConfig) -> list:
    """_file_rows over one job per landscape: job(rng, model=, env=, sched=, prov=)."""
    return _file_rows([functools.partial(job, model=m, env=e, sched=s,
                                         prov=_prov(cfg, n=n, beta=beta))
                       for n, beta, s, m, e in _landscapes(cfg)], cfg)


def _ks_rows(ks_table, q_table, prov, t, rep, **extra) -> list:
    """The KS row and the quantile rows of one empirical-vs-extremal report."""
    ks_row = dict(extra, t=t, count=rep.count, statistic=rep.statistic,
                  threshold=rep.threshold, passed=rep.passed, report=rep)
    return [(ks_table, prov, ks_row)] + [
        (q_table, prov, dict(t=t, prob=prob, empirical=emp, theoretical=theo))
        for prob, emp, theo in rep.quantile_table]


def _cmd_ppp(cfg: ExperimentConfig):
    measure = measures.TailMeasure.pareto(cfg.K)
    ks_table = Table("ppp_ks", ["t", "count", "statistic", "threshold", "passed"])
    q_table = Table("ppp_quantiles", ["t", "prob", "empirical", "theoretical"])

    def job(rng):
        levels = measures.sample_sup_levels(
            measure, cfg.t_grid, cfg.t_max, cfg.u_min, cfg.replicas, rng)
        return [row for j, t in enumerate(cfg.t_grid) for row in _ks_rows(
            ks_table, q_table, _prov(cfg), t,
            stats.empirical_vs_extremal(levels[:, j], measure, t, cfg.significance))]

    filed = _file_rows([job], cfg)
    extras = {"ks": [row["report"].to_json_dict() | {"t": row["t"]}
                     for table, _, row in filed if table is ks_table]}
    return [ks_table, q_table], [], extras, False


def _powered_marginals(model, env, sched, t_grid, reps, rng):
    """[((S^b(t))^{alpha_n} samples, k_n(t))] for each t of t_grid, from one walk.

    The walk stops at each k_n(t) in increasing order and reads the
    running block sum there, so one replica's samples nest in t.
    """
    ks = [conditions.k_blocks(sched, t) for t in t_grid]
    X = model.sample_stationary(reps, rng)
    log_s = engine.log_inverse_rates(model, env, X) + np.log(rng.standard_exponential(reps))
    powered, done = {}, 0
    for k in sorted(set(ks)):
        if k > done:
            blocks = engine.block_statistics(model, env, sched.theta_n * (k - done), reps,
                                             rng, starts=X, want_end=True)
            X, done = blocks.end_states, k
            log_s = np.logaddexp(blocks.log_sums, log_s)
        powered[k] = np.exp(sched.alpha_n * (log_s - sched.log_c_n))
    return [(powered[k], k) for k in ks]


def _cmd_skrun(cfg: ExperimentConfig):
    ks_table = Table("skrun_ks", ["t", "k_n", "count", "statistic", "threshold",
                                  "mean", "median"])
    q_table = Table("skrun_quantiles", ["t", "prob", "empirical", "theoretical"])
    limit = measures.TailMeasure.pareto(2.0 * cfg.p)

    def job(rng, model, env, sched, prov):
        marginals = _powered_marginals(model, env, sched, cfg.t_grid, cfg.replicas, rng)
        return [row for t, (samples, k) in zip(cfg.t_grid, marginals) for row in _ks_rows(
            ks_table, q_table, prov, t,
            stats.empirical_vs_extremal(samples, limit, t, cfg.significance), k_n=k,
            mean=float(np.mean(samples)), median=float(np.median(samples)))]

    _landscape_rows(job, cfg)
    return [ks_table, q_table], [], {}, False


# verify's trend series: a conditions row's functional -> the series' name
_TREND_KINDS = {"nu": "nu", "sigma-sq": "sigma", "eta": "eta"}


def _cmd_verify(cfg: ExperimentConfig):
    cond_table = Table("conditions", ["id", "functional", "u", "t", "delta",
                                      "estimate", "se", "target", "verdict"])
    t0 = cfg.t_grid[0]

    def job(rng, model, env, sched, prov):
        # (kind, tags, report) in table order; kind names a report whose
        # parameters name no functional
        found = [("mixing", {}, conditions.mixing_report(sched.n, sched.theta_n, (0, 1, 2))),
                 ("cond0", {}, conditions.condition0_check(model, env, sched, cfg.v,
                                                           cfg.replicas, rng))]
        tails = conditions.tail_functionals(model, env, sched, cfg.u_grid, cfg.t_grid,
                                            cfg.replicas, rng)
        for u in cfg.u_grid:
            found.extend(("nu", {"u": u, "t": t}, tails["nu", u, t]) for t in cfg.t_grid)
            found.append(("sigma", {"u": u, "t": t0}, tails["sigma-sq", u, t0]))
            found.append(("eta", {"u": u, "t": t0}, tails["eta", u, t0]))
        for delta in cfg.delta_grid:
            found.append(("cond31", {"delta": delta}, conditions.condition31_estimate(
                model, env, sched, delta, t0, cfg.replicas, rng)))
        found.extend(("dr", {"u": cfg.u_grid[0], "t": t0}, rep) for rep in
                     conditions.dr_path_functionals(model, env, sched, cfg.u_grid[0], t0,
                                                    cfg.inner_replicas, rng))
        return [(cond_table, prov, dict(
            id=rep.id, functional=rep.parameters.get("functional", kind),
            u=tags.get("u", ""), t=tags.get("t", ""), delta=tags.get("delta", ""),
            estimate=rep.estimate, se=rep.se, target="" if rep.target is None else rep.target,
            verdict=rep.verdict, report=rep)) for kind, tags, rep in found]

    filed = _landscape_rows(job, cfg)
    by_series = {}
    for _, prov, row in filed:
        if row["functional"] in _TREND_KINDS:
            key = (_TREND_KINDS[row["functional"]], row["u"], row["t"])
            by_series.setdefault(key, []).append((prov["n"], row))
    trend_table = Table("trends", ["functional", "u", "t", "values", "expected",
                                   "monotone"])
    trend_flags = []
    for (kind, u, t), entries in sorted(by_series.items()):
        entries.sort(key=lambda e: e[0])
        # nu approaches its limit target, gauged by absolute gap
        values = [abs(r["estimate"] - r["target"]) if kind == "nu" else r["estimate"]
                  for _, r in entries]
        ok = all(b <= a for a, b in zip(values, values[1:]))
        trend_flags.append({"functional": kind, "u": u, "t": t,
                            "values": [float(v) for v in values],
                            "expected": "decreasing", "monotone": ok})
        trend_table.add(_prov(cfg), functional=kind, u=u, t=t,
                        values=";".join(format(v, ".17g") for v in values),
                        expected="decreasing", monotone=ok)
    reports = [row["report"] for _, _, row in filed]
    return [cond_table, trend_table], reports, {"trend_flags": trend_flags}, False


def _cmd_ehrenfest(cfg: ExperimentConfig):
    hit_table = Table("hitting", ["d", "expected", "bound", "within_bound"])
    occ_table = Table("occupation", ["d", "v_n", "estimate", "se", "exact",
                                     "within_3se"])
    dist_table = Table("distance_check", ["steps", "replicas", "max_tv"])
    win_table = Table("hitting_window", ["d", "lo", "hi", "probability"])

    def occupation_job(rng, n):
        chain, prov = ehrenfest.EhrenfestChain(n), _prov(cfg, n=n)
        d_occ, theta = min(cfg.occupation_d, max(1, n // 2)), 3 * n * n
        occ = ehrenfest.occupation_statistic(chain, d_occ, theta, cfg.replicas, rng)
        rows = []
        for d in range(1, (n + 1) // 2):
            expected = ehrenfest.expected_hitting_from_zero(chain, d)
            bound = ehrenfest.hitting_bound(chain, d)
            rows.append((hit_table, prov, dict(d=d, expected=expected, bound=bound,
                                               within_bound=expected <= bound)))
            window = ehrenfest.hitting_window_probability(chain, d, 2 * d, theta)
            rows.append((win_table, prov, dict(d=d, lo=2 * d, hi=theta, probability=window)))
        exact = ehrenfest.occupation_exact(chain, d_occ, theta)
        rows.append((occ_table, prov, dict(
            d=d_occ, v_n=theta, estimate=occ.mean, se=occ.sem, exact=exact,
            within_3se=abs(occ.mean - exact) <= 3.0 * occ.sem)))
        return rows

    def distance_job(rng, n):
        max_tv = ehrenfest.distance_process_check(n, cfg.distance_steps, cfg.replicas, rng)
        return [(dist_table, _prov(cfg, n=n), dict(steps=cfg.distance_steps,
                                                   replicas=cfg.replicas, max_tv=max_tv))]

    _file_rows([functools.partial(job, n=n) for n in cfg.n_grid
                for job in (occupation_job, distance_job)], cfg)
    return [hit_table, occ_table, dist_table, win_table], [], {}, False


def _cmd_ageing(cfg: ExperimentConfig):
    table = Table("ageing", ["t", "s", "epsilon", "estimate", "se", "completed",
                             "truncated", "limit"])

    def job(rng, model, env, sched, prov):
        pairs = [(t, s) for t in cfg.t_grid for s in cfg.s_grid]
        estimates = engine.estimate_correlation(model, env, sched, cfg.epsilon, pairs,
                                                cfg.replicas, rng, cfg.step_budget)
        return [(table, prov, dict(
            t=t, s=s, epsilon=cfg.epsilon, estimate=est.value, se=est.se,
            completed=est.completed, truncated=est.truncated,
            limit=measures.range_avoidance_prob(2.0 * cfg.p, t, s)))
            for (t, s), est in zip(pairs, estimates)]

    filed = _landscape_rows(job, cfg)
    return [table], [], {}, any(row["truncated"] > 0 for _, _, row in filed)


def _random_comparison_pair(dim: int, rng):
    """(delta0, delta1) with delta0 >= delta1 entrywise, both PSD unit-diagonal."""
    while True:
        g = np.abs(rng.standard_normal((dim, dim)))
        gram = g @ g.T
        scale = 1.0 / np.sqrt(np.diag(gram))
        delta0 = gram * scale[:, None] * scale[None, :]
        np.fill_diagonal(delta0, 1.0)
        off = delta0[~np.eye(dim, dtype=bool)]
        if off.max(initial=0.0) < 0.999:
            break
    chi = float(rng.uniform(0.2, 0.9))
    delta1 = chi * delta0 + (1.0 - chi) * np.eye(dim)
    return delta0, delta1, chi


def _cmd_compare(cfg: ExperimentConfig):
    table = Table("compare", ["pair", "dim", "chi", "s", "lhs", "se", "rhs",
                              "within_bound"])

    def job(rng, pair):
        dim = int(rng.integers(2, 7))
        delta0, delta1, chi = _random_comparison_pair(dim, rng)
        # one set of draws serves both matrices and every s; se is the paired SE
        gaps = pspin.max_cdf_mc(delta0, cfg.s_grid, cfg.replicas, rng, minus=delta1)
        rhss = pspin.gaussian_comparison_rhs(delta0, delta1, cfg.s_grid)
        return [(table, _prov(cfg), dict(pair=pair, dim=dim, chi=chi, s=s, lhs=gap.mean,
                                         se=gap.sem, rhs=rhs,
                                         within_bound=gap.mean <= rhs + 3.0 * gap.sem))
                for s, gap, rhs in zip(cfg.s_grid, gaps, rhss.tolist())]

    filed = _file_rows([functools.partial(job, pair=i) for i in range(cfg.pairs)], cfg)
    violations = sum(not row["within_bound"] for _, _, row in filed)
    return [table], [], {"comparison_violations": violations}, False


def _cmd_variance(cfg: ExperimentConfig):
    table = Table("variance", ["estimate", "se", "scaling", "ratio"])

    def job(rng, n, beta):
        rep = conditions.env_replication_variance(
            n, cfg.p, cfg.c, beta, cfg.u_grid[0], cfg.t_grid[0],
            [_instance_seed(cfg.seed, n, cfg.p, e) for e in range(cfg.env_replicas)],
            cfg.inner_replicas, rng)
        return [(table, _prov(cfg, n=n, beta=beta), dict(
            estimate=rep.estimate, se=rep.se, scaling=rep.target,
            ratio=rep.estimate / rep.target if rep.target else float("nan"), report=rep))]

    filed = _file_rows([functools.partial(job, n=n, beta=cfg.beta_for(i))
                        for i, n in enumerate(cfg.n_grid)], cfg)
    return [table], [row["report"] for _, _, row in filed], {}, False


class _Command(typing.NamedTuple):
    """One subcommand: the function that runs it, and the facts its rules read.

    ``clock_t(grids)``: the latest t of its clock a_n t, or None where it
    builds no n^p tensor and no schedule.  ``walk_t(grids)``: the t to which
    its replicas walk exactly theta_n k_n(t) steps, which step_budget bounds
    (ageing's random first passages have no such count).  ``ks``: it
    KS-tests ``replicas`` samples.  ``zero_beta``: it accepts beta = 0.
    """

    run: typing.Callable
    clock_t: typing.Callable | None = None
    walk_t: typing.Callable | None = None
    ks: bool = False
    zero_beta: bool = False


_COMMANDS = {
    "ppp": _Command(_cmd_ppp, ks=True),
    "sk-run": _Command(_cmd_skrun, clock_t=lambda g: max(g["t_grid"]),
                       walk_t=lambda g: max(g["t_grid"]), ks=True),
    "verify": _Command(_cmd_verify, clock_t=lambda g: max(g["t_grid"]),
                       walk_t=lambda g: g["t_grid"][0]),
    "ehrenfest": _Command(_cmd_ehrenfest),
    "ageing": _Command(_cmd_ageing, clock_t=lambda g: max(g["t_grid"]) + max(g["s_grid"])),
    "compare": _Command(_cmd_compare),
    "variance": _Command(_cmd_variance, clock_t=lambda g: g["t_grid"][0], zero_beta=True),
}
COMMANDS = tuple(_COMMANDS)


def _resolve_out(cfg: ExperimentConfig, command: str) -> str:
    return cfg.out or os.path.join(os.environ.get(OUT_ENV_VAR) or "results", command)


@functools.cache
def _scipy_version() -> str | None:
    """Installed scipy version for the manifest, None if absent.

    Read from package metadata, since the package never imports scipy;
    cached because the lookup scans sys.path, about 4 ms a call.
    Imported here, its only use, since the import costs about 20 ms.
    """
    import importlib.metadata

    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def _git_revision(root: pathlib.Path) -> str | None:
    """Commit checked out at ``root``, read from its .git without running git.

    None where ``root`` holds no readable .git directory, as for an
    installed package.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(command: str, cfg: ExperimentConfig) -> dict:
    """Execute one subcommand and write its artifacts; returns results dict."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    started = time.perf_counter()
    tables, reports, extras, partial = _COMMANDS[command].run(cfg)
    runtime = time.perf_counter() - started
    out_dir = _resolve_out(cfg, command)
    os.makedirs(out_dir, exist_ok=True)
    for table in tables:
        table.write_csv(out_dir)
    results = {
        "command": command,
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "tables": [t.name for t in tables],
        "reports": [r.to_json_dict() for r in reports],
        "partial": partial,
        "runtime_seconds": runtime,
    }
    results.update(extras)
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, sort_keys=True, indent=2)
        fh.write("\n")
    manifest = {
        "command": command,
        "config": cfg.to_json_dict(),
        "config_hash": results["config_hash"],
        "seed": cfg.seed,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": _scipy_version(),
            "extremalclock": __version__,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "job_stream": type(engine.stream(0).bit_generator).__name__,
        "cpu_count": os.cpu_count(),
        # the package sits at <checkout>/src/extremalclock in a source tree
        "git_revision": _git_revision(pathlib.Path(__file__).resolve().parents[2]),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return results


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extremal-clock",
        description="Clock-process and extremal-ageing verification experiments.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=None,
                       help="override worker count (never changes results)")
        p.add_argument("--out", default=None, help="override output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: getattr(args, key) for key in ("seed", "threads", "out")
                 if getattr(args, key) is not None}
    try:
        cfg = load_config(args.config, overrides, args.command)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"config is not valid JSON: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    try:
        results = run(args.command, cfg)
    except engine.StepBudgetError as exc:
        print(f"step budget exhausted: {exc}", file=sys.stderr)
        return 3
    out_dir = _resolve_out(cfg, args.command)
    print(f"{args.command}: wrote {len(results['tables'])} tables to {out_dir}")
    for rep in results["reports"]:
        tag = rep["parameters"].get("functional", rep["id"])
        print(f"  condition {rep['id']} [{tag}] n={rep['n']}: "
              f"estimate={rep['estimate']:.6g} se={rep['se']:.3g} "
              f"verdict={rep['verdict']}")
    if results.get("partial"):
        print("  warning: step budget exhausted on some replicas; "
              "results flagged partial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
