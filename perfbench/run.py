"""Benchmark of the extremal-clock CLI, end to end and per layer.

    python3 perfbench/run.py                      # every workload, untraced then traced
    python3 perfbench/run.py --workload verify-p2 --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
its `src/` directory, never from an installed copy.  A run repeats its
workload's subcommand sequence (workloads.py) in one process for about
`--seconds` seconds, checks every invocation's artifacts (checks.py),
and prints a human-readable report followed, as its last line, by one
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of one subcommand sequence
  setup_s      median over SETUP_STARTS fresh interpreters of importing
               extremalclock.cli and validating the workload's config
  peak_rss_mb  peak resident set size of the process running the workload
--trace 1 alternates untraced and traced sequences with the same config
seed, wraps the package's public functions while tracing (tracer.py),
times the walker kernel grid (kernels.py), and reports every metric in
tracer.LAYER_METRICS.  The untraced runs never import the tracer.

An invocation fails if it raises, if its artifacts fail the output
check, or if same-seed sequences disagree on a results.json digest;
`failed` counts failures and `attempted` counts invocations (CLI
subcommands plus setup interpreters).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_STARTS = 5
SETUP_CODE = ("import json, sys\n"
              "from extremalclock import cli\n"
              "cli.validate_config(json.loads(sys.argv[1]))\n")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
DEFAULT_SEED = 0
DEFAULT_SECONDS = 35


def load_program():
    """Import extremalclock from the checkout's src/, or exit nonzero without a result."""
    if not (SRC / "extremalclock" / "__init__.py").is_file():
        sys.exit(f"perfbench: no extremalclock package under {SRC}; "
                 "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import extremalclock
    import extremalclock.cli  # noqa: F401  (the CLI imports every other module)
    if Path(extremalclock.__file__).resolve().parent != SRC / "extremalclock":
        sys.exit(f"perfbench: imported extremalclock from {extremalclock.__file__}, "
                 f"not from {SRC}")
    return extremalclock


def git_revision() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
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
    return "unknown"


def machine_facts() -> dict:
    import numpy as np
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                          "OMP_NUM_THREADS")
                             if k in os.environ},
        "revision": git_revision(),
    }


class Client:
    """The workload's closed-loop client: runs its sequences, counts invocations,
    failures and same-seed digests."""

    def __init__(self, cli, workload, out_dir: str):
        self.cli = cli
        self.workload = workload
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.digests = {}  # (command, config seed) -> first digest seen

    def fail(self, message: str):
        self.failed += 1
        print(f"perfbench: FAILED {message}", file=sys.stderr, flush=True)

    def sequence(self, program_seed: int) -> dict:
        """Run the workload's subcommands once; command -> wall seconds."""
        walls = {}
        for command, raw in workloads.configs(self.workload, program_seed, self.out_dir):
            self.attempted += 1
            start = time.perf_counter()
            try:
                cfg = self.cli.validate_config(raw)
                self.cli.run(command, cfg)
            except Exception:  # a raising invocation is a counted failure, not the end of the run
                self.fail(f"{command} seed {program_seed}:\n{traceback.format_exc()}")
                continue
            walls[command] = time.perf_counter() - start
            problems = checks.check_invocation(command, cfg, raw["out"])
            digest = checks.digest(raw["out"])
            if self.digests.setdefault((command, program_seed), digest) != digest:
                problems.append("results.json differs from an earlier run with the same seed")
            if problems:
                self.fail(f"{command} seed {program_seed}: " + "; ".join(problems))
        return walls

    def setup_times(self, program_seed: int) -> list:
        """Wall seconds of fresh interpreters importing the CLI and validating a config."""
        raw = json.dumps(workloads.configs(self.workload, program_seed, self.out_dir)[0][1])
        env = dict(os.environ, PYTHONPATH=str(SRC))
        times = []
        for _ in range(SETUP_STARTS):
            self.attempted += 1
            start = time.perf_counter()
            try:
                proc = subprocess.run([sys.executable, "-c", SETUP_CODE, raw], env=env,
                                      cwd=ROOT, capture_output=True, text=True, timeout=60)
            except subprocess.TimeoutExpired:
                self.fail("setup interpreter did not finish within 60 s")
                continue
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                self.fail(f"setup interpreter exited {proc.returncode}: {proc.stderr}")
            else:
                times.append(elapsed)
        return times


def _median(values):
    return statistics.median(values) if values else 0.0


def measure_untraced(client, seed: int, seconds: float) -> dict:
    setups = client.setup_times(next(workloads.program_seeds(seed)))
    walls = []
    start = time.perf_counter()
    for program_seed in workloads.program_seeds(seed):
        walls.append(sum(client.sequence(program_seed).values()))
        elapsed = time.perf_counter() - start
        if len(walls) >= 2 and elapsed + statistics.median(walls) > seconds:
            break
    print("# sequence walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {"wall_s": (_median(walls), len(walls)),
              "setup_s": (_median(setups), len(setups)),
              "peak_rss_mb": (peak_kib / 1024.0, 1)}
    return {name: (value, END_TO_END[name], count) for name, (value, count) in values.items()}


def _command_metric(command: str) -> str:
    return command.replace("-", "") + "_s"


COMMAND_METRICS = {_command_metric(c) for c in
                   ("ppp", "sk-run", "verify", "ehrenfest", "ageing", "compare", "variance")}


def measure_traced(client, package, seed: int, seconds: float) -> dict:
    import kernels
    import tracer

    start = time.perf_counter()
    walker = kernels.walker_ns(package.pspin, seed)
    untraced, traced, command_walls, layers = [], [], {}, []
    main_thread = threading.get_ident()
    for program_seed in workloads.program_seeds(seed):
        walls = client.sequence(program_seed)
        untraced.append(sum(walls.values()))
        for command, wall in walls.items():
            command_walls.setdefault(command, []).append(wall)

        spans = tracer.Tracer()
        spans.install(package)
        try:
            walls = spans.call("perfbench.sequence", client.sequence, (program_seed,), {})
        finally:
            spans.restore()
        wall = sum(walls.values())
        traced.append(wall)
        layers.append(tracer.layer_metrics(spans.spans, spans.counts, wall,
                                           client.workload.threads))
        root = next(s for s in spans.spans if s.name == "perfbench.sequence")
        root_wall = root.end - root.start
        for thread, (self_sum, top_sum) in tracer.thread_totals(spans.spans).items():
            covered = root_wall if thread == main_thread else top_sum
            if abs(self_sum - covered) > 1e-6 * root_wall or top_sum > root_wall * (1 + 1e-9):
                client.fail(f"trace accounting on thread {thread}: self times sum to "
                             f"{self_sum:.6f} s, thread covered {covered:.6f} s")
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(untraced) + statistics.median(traced) > seconds:
            break

    per_command = {_command_metric(c): w for c, w in command_walls.items()}
    out = {}
    for name, (unit, _, _) in tracer.LAYER_METRICS.items():
        if name in walker:
            out[name] = (walker[name], unit, kernels.REPEATS)
        elif name in COMMAND_METRICS:
            samples = per_command.get(name, [])
            out[name] = (_median(samples), unit, len(samples))
        elif name == "trace_overhead_frac":
            base = _median(untraced)
            out[name] = (_median(traced) / base - 1.0 if base else 0.0, unit, len(traced))
        else:
            out[name] = (_median([m[name] for m in layers]), unit, len(layers))
    return out


def report(client, metrics) -> dict:
    for name, (value, unit, count) in metrics.items():
        print(f"{name:<46} {value:>16.6g} {unit:<9} samples={count}")
    print(f"{'failed_frac':<46} {client.failed / max(client.attempted, 1):>16.6g} "
          f"{'fraction':<9} attempted={client.attempted}")
    return {
        "correct": client.failed == 0 and client.attempted > 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload untraced, then traced, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(trace)],
                                  cwd=ROOT)
            status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed; the configs' seeds are derived from it")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measurement time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        load_program()
        return run_all(args)

    package = load_program()
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps(machine_facts(), sort_keys=True), flush=True)
    out_dir = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    client = Client(package.cli, workloads.WORKLOADS[args.workload], str(out_dir))
    try:
        if args.trace:
            metrics = measure_traced(client, package, args.seed, args.seconds)
        else:
            metrics = measure_untraced(client, args.seed, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            out_dir.parent.rmdir()
    print(json.dumps(report(client, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
