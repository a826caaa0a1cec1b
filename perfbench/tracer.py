"""In-memory span tracer for the benchmark's traced runs.

`Tracer.install` wraps, from outside the package, every public function
defined in the extremalclock modules listed in MODULES, plus the pool
boundary in `cli._run_jobs` (one `cli.job` span per job, parented to the
submitting span across threads), the p-spin two-time overlap kernel, and
the Hamiltonian cache lookup (counted, not spanned: it runs once per
trajectory step).  Each call records a span: name, start, end, parent
span, thread id, and a work count taken from its arguments.  Spans stay
in memory; `restore` puts every wrapped attribute back.

Self time is computed per thread: a span's duration minus its children
that ran on the same thread.  A job span running on a pool worker is
not subtracted from the submitting span, so with two workers each
thread's self times add up to that thread's own covered time.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import Counter, namedtuple

import numpy as np

Span = namedtuple("Span", "id name start end parent thread work")

MODULES = ("engine", "pspin", "conditions", "stats", "measures", "ehrenfest", "cli")


def _sample_count(samples) -> int:
    count = getattr(samples, "count", None)
    return count if isinstance(count, int) else int(np.size(samples))


# work recorded per call, computed from the bound arguments
WORK = {
    "engine.block_statistics": lambda a: a["theta"] * a["reps"],
    "engine.simulate_trajectory": lambda a: a["steps"],
    "pspin.max_cdf_mc": lambda a: a["reps"],
    "measures.sample_sup_levels": lambda a: a["reps"],
    "ehrenfest.occupation_statistic": lambda a: a["v_n"] * a["reps"],
    "stats.ks_statistic": lambda a: _sample_count(a["samples"]),
}

# Every per-layer metric: unit, better direction, and the end-to-end
# metric (on the named workloads) it should move.  The per-command walls
# are untraced medians from the traced run; the walker timings come from
# the kernel grid in kernels.py.
LAYER_METRICS = {
    "verify_s": ("s", "lower", "wall_s on verify-p2"),
    "skrun_s": ("s", "lower", "wall_s on landscape-p3-2w"),
    "ageing_s": ("s", "lower", "wall_s on landscape-p3-2w"),
    "variance_s": ("s", "lower", "wall_s on landscape-p3-2w"),
    "ppp_s": ("s", "lower", "wall_s on limit-laws"),
    "compare_s": ("s", "lower", "wall_s on limit-laws"),
    "ehrenfest_s": ("s", "lower", "wall_s on limit-laws"),
    "cli.self_s": ("s", "lower", "wall_s on every workload"),
    "cli.worker_busy_frac": ("fraction", "higher", "wall_s on landscape-p3-2w"),
    "conditions.block_batches": ("count", "lower", "verify_s on verify-p2"),
    "conditions.replica_steps": ("count", "lower", "verify_s on verify-p2"),
    "conditions.nu_t_s": ("s", "lower", "verify_s on verify-p2"),
    "conditions.sigma_sq_t_s": ("s", "lower", "verify_s on verify-p2"),
    "conditions.pair_distance2_s": ("s", "lower", "verify_s on verify-p2"),
    "conditions.dr_path_s": ("s", "lower", "verify_s on verify-p2"),
    "conditions.env_variance_s": ("s", "lower", "variance_s on landscape-p3-2w"),
    "conditions.mixing_check_s": ("s", "lower", "verify_s on verify-p2"),
    "engine.block_statistics.calls": (
        "count", "lower", "verify_s on verify-p2; skrun_s, variance_s on landscape-p3-2w"),
    "engine.block_statistics.replica_steps": (
        "count", "lower", "verify_s on verify-p2; skrun_s, variance_s on landscape-p3-2w"),
    "engine.block_statistics.busy_s": (
        "s", "lower", "verify_s on verify-p2; skrun_s, variance_s on landscape-p3-2w"),
    "engine.ns_per_replica_step": (
        "ns", "lower", "verify_s on verify-p2; skrun_s, variance_s on landscape-p3-2w"),
    "engine.estimate_correlation.busy_s": ("s", "lower", "ageing_s on landscape-p3-2w"),
    "engine.simulate_trajectory.steps": ("count", "lower", "verify_s on verify-p2"),
    "engine.simulate_trajectory.busy_s": ("s", "lower", "verify_s on verify-p2"),
    "pspin.walker_ns.n16p2": ("ns", "lower", "verify_s on verify-p2"),
    "pspin.walker_ns.n20p2": ("ns", "lower", "verify_s on verify-p2"),
    "pspin.walker_ns.n32p2": ("ns", "lower", "verify_s on verify-p2"),
    "pspin.walker_ns.n12p3": (
        "ns", "lower", "skrun_s, ageing_s, variance_s on landscape-p3-2w"),
    "pspin.walker_ns.n16p3": (
        "ns", "lower", "skrun_s, ageing_s, variance_s on landscape-p3-2w"),
    "pspin.correlation_overlaps.busy_s": ("s", "lower", "ageing_s on landscape-p3-2w"),
    "pspin.build_instance.calls": ("count", "lower", "variance_s on landscape-p3-2w"),
    "pspin.build_instance.busy_s": ("s", "lower", "variance_s on landscape-p3-2w"),
    "pspin.cache_lookups": ("count", "lower", "peak_rss_mb, verify_s on verify-p2"),
    "pspin.cache_hit_frac": ("fraction", "higher", "peak_rss_mb, verify_s on verify-p2"),
    "pspin.max_cdf_mc.draws": ("count", "lower", "compare_s on limit-laws"),
    "pspin.max_cdf_mc.busy_s": ("s", "lower", "compare_s on limit-laws"),
    "pspin.gaussian_comparison_rhs.calls": ("count", "lower", "compare_s on limit-laws"),
    "pspin.gaussian_comparison_rhs.busy_s": ("s", "lower", "compare_s on limit-laws"),
    "stats.ks_statistic.calls": (
        "count", "lower", "ppp_s on limit-laws; skrun_s on landscape-p3-2w"),
    "stats.ks_statistic.points": (
        "count", "lower", "ppp_s on limit-laws; skrun_s on landscape-p3-2w"),
    "stats.ks_statistic.busy_s": (
        "s", "lower", "ppp_s on limit-laws; skrun_s on landscape-p3-2w"),
    "measures.extremal_marginal.calls": (
        "count", "lower", "ppp_s on limit-laws; skrun_s on landscape-p3-2w"),
    "measures.sample_sup_levels.replicas": ("count", "lower", "ppp_s on limit-laws"),
    "measures.sample_sup_levels.busy_s": ("s", "lower", "ppp_s on limit-laws"),
    "ehrenfest.occupation_statistic.replica_steps": (
        "count", "lower", "ehrenfest_s on limit-laws"),
    "ehrenfest.occupation_statistic.busy_s": ("s", "lower", "ehrenfest_s on limit-laws"),
    "ehrenfest.distance_process_check.busy_s": ("s", "lower", "ehrenfest_s on limit-laws"),
    "ehrenfest.hitting_window_probability.busy_s": (
        "s", "lower", "ehrenfest_s on limit-laws"),
    "trace_overhead_frac": ("fraction", "lower", "nothing: traced over untraced wall, minus 1"),
}

# per-layer busy times: metric name -> span name
_BUSY = {
    "conditions.nu_t_s": "conditions.nu_t",
    "conditions.sigma_sq_t_s": "conditions.sigma_sq_t",
    "conditions.pair_distance2_s": "conditions.pair_distance2_functional",
    "conditions.dr_path_s": "conditions.dr_path_functionals",
    "conditions.env_variance_s": "conditions.env_replication_variance",
    "conditions.mixing_check_s": "conditions.mixing_check",
    "engine.block_statistics.busy_s": "engine.block_statistics",
    "engine.estimate_correlation.busy_s": "engine.estimate_correlation",
    "engine.simulate_trajectory.busy_s": "engine.simulate_trajectory",
    "pspin.correlation_overlaps.busy_s": "pspin.correlation_overlaps",
    "pspin.build_instance.busy_s": "pspin.build_instance",
    "pspin.max_cdf_mc.busy_s": "pspin.max_cdf_mc",
    "pspin.gaussian_comparison_rhs.busy_s": "pspin.gaussian_comparison_rhs",
    "stats.ks_statistic.busy_s": "stats.ks_statistic",
    "measures.sample_sup_levels.busy_s": "measures.sample_sup_levels",
    "ehrenfest.occupation_statistic.busy_s": "ehrenfest.occupation_statistic",
    "ehrenfest.distance_process_check.busy_s": "ehrenfest.distance_process_check",
    "ehrenfest.hitting_window_probability.busy_s": "ehrenfest.hitting_window_probability",
}

# per-layer call counts and summed work: metric name -> span name
_CALLS = {
    "engine.block_statistics.calls": "engine.block_statistics",
    "pspin.build_instance.calls": "pspin.build_instance",
    "pspin.gaussian_comparison_rhs.calls": "pspin.gaussian_comparison_rhs",
    "stats.ks_statistic.calls": "stats.ks_statistic",
    "measures.extremal_marginal.calls": "measures.extremal_marginal",
}
_WORK = {
    "engine.block_statistics.replica_steps": "engine.block_statistics",
    "engine.simulate_trajectory.steps": "engine.simulate_trajectory",
    "pspin.max_cdf_mc.draws": "pspin.max_cdf_mc",
    "stats.ks_statistic.points": "stats.ks_statistic",
    "measures.sample_sup_levels.replicas": "measures.sample_sup_levels",
    "ehrenfest.occupation_statistic.replica_steps": "ehrenfest.occupation_statistic",
}


class Tracer:
    """Records spans in memory while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._saved = []  # (owner, attribute, original)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, work=0, parent=None):
        """Run fn(*args, **kwargs) inside a span; parent defaults to this thread's open span."""
        stack = self._stack()
        with self._lock:
            sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, threading.get_ident(), work)
            with self._lock:
                self.spans.append(span)

    def count(self, name, k=1):
        with self._lock:
            self.counts[name] += k

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, owner, attr, name):
        fn = owner.__dict__[attr]
        work_of = WORK.get(name)
        signature = inspect.signature(fn) if work_of else None

        def wrapper(*args, **kwargs):
            work = work_of(signature.bind(*args, **kwargs).arguments) if work_of else 0
            return self.call(name, fn, args, kwargs, work=work)

        self._replace(owner, attr, wrapper)

    def install(self, package):
        """Wrap the public functions of MODULES in `package`, plus three boundaries."""
        for modname in MODULES:
            mod = getattr(package, modname)
            for attr, value in list(vars(mod).items()):
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == mod.__name__):
                    self._wrap(mod, attr, f"{modname}.{attr}")
        pspin, cli = package.pspin, package.cli
        self._wrap(pspin.HypercubeSRW, "correlation_overlaps", "pspin.correlation_overlaps")

        cache_get = pspin.PSpinInstance.cache_get

        def counted_cache_get(inst, key):
            value = cache_get(inst, key)
            self.count("pspin.cache_lookups")
            if value is not None:
                self.count("pspin.cache_hits")
            return value

        self._replace(pspin.PSpinInstance, "cache_get", counted_cache_get)

        run_jobs = cli._run_jobs

        def traced_run_jobs(jobs, cfg):
            def submit():
                parent = self._stack()[-1]
                traced = [lambda rng, job=job: self.call("cli.job", job, (rng,), {},
                                                         parent=parent)
                          for job in jobs]
                return run_jobs(traced, cfg)
            return self.call("cli.run_jobs", submit, (), {})

        self._replace(cli, "_run_jobs", traced_run_jobs)

    def restore(self):
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans


def self_times(spans) -> dict:
    """Span id -> duration minus the children that ran on the same thread."""
    by_id = {s.id: s for s in spans}
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        parent = by_id.get(s.parent)
        if parent is not None and parent.thread == s.thread:
            out[parent.id] -= s.end - s.start
    return out


def thread_totals(spans) -> dict:
    """Thread id -> (sum of self times, sum of durations of the thread's top spans).

    A top span is one whose parent is absent or ran on another thread;
    the two sums agree when the per-thread accounting is complete.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    totals = {}
    for s in spans:
        self_sum, top_sum = totals.get(s.thread, (0.0, 0.0))
        parent = by_id.get(s.parent)
        if parent is None or parent.thread != s.thread:
            top_sum += s.end - s.start
        totals[s.thread] = (self_sum + own[s.id], top_sum)
    return totals


def _ancestors(span, by_id):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


def layer_metrics(spans, counts, wall: float, threads: int) -> dict:
    """Per-layer metrics of one traced workload sequence lasting `wall` seconds."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out = {}
    for metric, name in _BUSY.items():
        # a span nested in a span of the same name is already inside its duration
        out[metric] = sum(s.end - s.start for s in by_name.get(name, [])
                          if not any(a.name == name for a in _ancestors(s, by_id)))
    for metric, name in _CALLS.items():
        out[metric] = len(by_name.get(name, []))
    for metric, name in _WORK.items():
        out[metric] = sum(s.work for s in by_name.get(name, []))
    batches = [s for s in by_name.get("engine.block_statistics", [])
               if any(a.name.startswith("conditions.") for a in _ancestors(s, by_id))]
    out["conditions.block_batches"] = len(batches)
    out["conditions.replica_steps"] = sum(s.work for s in batches)
    steps = out["engine.block_statistics.replica_steps"]
    out["engine.ns_per_replica_step"] = (
        out["engine.block_statistics.busy_s"] * 1e9 / steps if steps else 0.0)
    out["cli.self_s"] = sum(own[s.id] for s in spans if s.name in ("cli.run", "cli.job"))
    jobs = sum(s.end - s.start for s in by_name.get("cli.job", []))
    out["cli.worker_busy_frac"] = jobs / (threads * wall) if wall else 0.0
    lookups = counts.get("pspin.cache_lookups", 0)
    out["pspin.cache_lookups"] = lookups
    out["pspin.cache_hit_frac"] = counts.get("pspin.cache_hits", 0) / lookups if lookups else 0.0
    return out
