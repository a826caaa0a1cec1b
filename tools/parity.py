"""Compare the outputs of two source trees on a fixed matrix of runs.

    python tools/parity.py REV_OR_DIR [--law N]

The base is a directory holding a source tree, or a git revision of
this checkout, extracted with `git archive`.  It and the tree holding
this script run, at one thread, every subcommand at `{}`, each
benchmark workload's configs at seeds 0 and 1, and the multi-point
grids of `matrix`; this tree runs them again at two threads.  For each
CSV, and results.json without runtime_seconds, each pair of runs prints
"identical", or how many rows differ and their largest relative
difference.

With --law N both trees run the workload configs and the multi-point
grids of `matrix` at seeds 0..N-1.
Every numeric cell that differs between the trees gets two z of the
difference of its means over the seeds: with the combined SE of two
independent samples, and paired by seed.  Both trees walk the same
landscape at one seed, so read the paired z where the landscape moves
a cell.  A cell whose difference is the same at every seed (an exact
value that moved) has no spread to scale a z by, and gets its largest
relative difference instead.  Each column prints both trees' means,
the mean, sd and largest |z| of its cells, and the largest relative
difference of its fixed cells; cells equal at every seed are left out.
Needs numpy, and git and tar for a revision.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import pathlib
import runpy
import subprocess
import sys
import tempfile

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
COMMANDS = ("ppp", "sk-run", "verify", "ehrenfest", "ageing", "compare", "variance")

# runs (name, command, config) in order; every output lands in out/name
_CHILD = """
import json, sys, warnings
from extremalclock import cli
warnings.simplefilter("ignore")
runs, out, threads = json.load(sys.stdin)
for name, command, cfg in runs:
    cli.run(command, cli.validate_config(
        dict(cfg, threads=threads, out=f"{out}/{name}"), command))
"""


def _workload_runs(seeds) -> list:
    """(name, command, config) of every benchmark workload step at each seed."""
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    return [(f"{w.name}-{command}-s{seed}", command, dict(fields, seed=seed))
            for w in workloads.values() for seed in seeds
            for command, fields in w.steps]


# runs whose rows share one walk per n, so a stream change moves them together
_GRIDS = [("ageing-2x2", "ageing", {"n_grid": [8, 12], "t_grid": [0.5, 1.0],
                                    "s_grid": [0.5, 1.0], "replicas": 400}),
          ("sk-run-3t", "sk-run", {"n_grid": [8, 12], "t_grid": [0.5, 1.0, 2.0]}),
          # every tails row at p = 3 and at two t: nu at both, sigma and eta at the first
          ("verify-p3-2t", "verify", {"p": 3, "n_grid": [8, 12, 16], "t_grid": [0.5, 1.0],
                                      "replicas": 400}),
          # the field walker's flips at an n that takes the redraw (2^16 mod 22 = 20)
          ("verify-p2-n22", "verify", {"p": 2, "n_grid": [22], "replicas": 200,
                                       "inner_replicas": 50})]


def matrix() -> list:
    return ([(f"{command}-default", command, {}) for command in COMMANDS]
            + _workload_runs((0, 1)) + _GRIDS
            # walks on the energy table at n = 18 and 20
            + [("sk-run-n20", "sk-run", {"n_grid": [20], "replicas": 35}),
               ("variance-n18", "variance", {"n_grid": [18]}),
               ("ageing-n20", "ageing", {"n_grid": [20], "replicas": 500}),
               # beta (max H - min H) past the weight span: the table walker's log-sum path
               ("ageing-hot", "ageing", {"n_grid": [8, 12], "c": 0.45, "beta": 100.0,
                                         "replicas": 400, "t_grid": [0.5, 1.0],
                                         "step_budget": 100000}),
               # above n = 20 every walk takes the field walker, above 62 past any int64 index
               ("sk-run-p2-n22", "sk-run", {"p": 2, "n_grid": [22], "replicas": 40}),
               ("sk-run-p3-n22", "sk-run", {"p": 3, "n_grid": [22], "replicas": 40}),
               ("ageing-p2-n22", "ageing", {"p": 2, "n_grid": [22], "replicas": 100}),
               ("ageing-p2-n64", "ageing", {"p": 2, "n_grid": [64], "c": 0.45,
                                            "replicas": 40}),
               # theta = 3 n^2 runs 75 and 108 blocks of the Ehrenfest law propagator
               ("ehrenfest-n48", "ehrenfest", {"n_grid": [40, 48], "replicas": 2000}),
               # 140,001 replicas are 70,001 antithetic pairs (an odd count
               # rounds up), two draw chunks of max_cdf_mc
               ("compare-2chunks", "compare", {"pairs": 3, "replicas": 140001}),
               # per-n beta, and variance's beta = 0 case without a schedule
               ("verify-beta-seq", "verify", {"n_grid": [8, 12], "beta": [1.0, 2.0],
                                              "replicas": 400}),
               ("variance-beta0", "variance", {"n_grid": [8, 12], "beta": [0.0, 1.0],
                                               "env_replicas": 4})])


def law_runs(seeds: int) -> list:
    """The workload configs and the grids of `matrix` at seeds 0..seeds-1."""
    return _workload_runs(range(seeds)) + [
        (f"{name}-s{seed}", command, dict(cfg, seed=seed))
        for seed in range(seeds) for name, command, cfg in _GRIDS]


def run_tree(tree: pathlib.Path, runs, out: pathlib.Path, threads: int) -> pathlib.Path:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(tree / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _CHILD], env=env, text=True,
                          input=json.dumps([runs, str(out), threads]), capture_output=True)
    if proc.returncode != 0:
        raise SystemExit(f"runs in {tree} failed:\n{proc.stderr}")
    return out


def read_rows(path: pathlib.Path) -> list:
    """A CSV's rows, or one row per line of results.json minus runtime_seconds."""
    if path.suffix == ".csv":
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    results = json.loads(path.read_text(encoding="utf-8"))
    results.pop("runtime_seconds", None)
    # '"key": value' lines split into the key and the value
    return [line.rstrip(",").split(": ")
            for line in json.dumps(results, sort_keys=True, indent=0).splitlines()]


def _float(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def diff(a: list, b: list) -> str:
    if a == b:
        return "identical"
    differing = sum(ra != rb for ra, rb in zip(a, b)) + abs(len(a) - len(b))
    worst = 0.0
    for ra, rb in zip(a, b):
        # trends.csv joins a series into one cell with ';'
        for x, y in zip(";".join(ra).split(";"), ";".join(rb).split(";")):
            fx, fy = _float(x), _float(y)
            if fx is not None and fy is not None and fx != fy:
                worst = max(worst, _relative(fx, fy))
    return (f"{differing} of {max(len(a), len(b))} rows differ, "
            f"largest relative difference {worst:.3g}")


def _relative(x, y):
    return np.abs(x - y) / np.maximum(np.abs(x), np.abs(y))


def _outputs(directory: pathlib.Path) -> set:
    return {p.name for p in directory.iterdir() if p.suffix == ".csv"
            or p.name == "results.json"}


def compare(label: str, runs, a: pathlib.Path, b: pathlib.Path) -> list:
    lines = []
    for name, _, _ in runs:
        for file in sorted(_outputs(a / name) | _outputs(b / name)):
            pa, pb = a / name / file, b / name / file
            verdict = (diff(read_rows(pa), read_rows(pb)) if pa.exists() and pb.exists()
                       else "missing on one side")
            lines.append(f"{label:10} {name:32} {file:22} {verdict}")
    return lines


def parity(base: pathlib.Path, runs, scratch: pathlib.Path) -> list:
    """Report lines: base against this tree at 1 thread, then this tree at 1 against 2."""
    old = run_tree(base, runs, scratch / "base", 1)
    new = run_tree(ROOT, runs, scratch / "work", 1)
    two = run_tree(ROOT, runs, scratch / "work-t2", 2)
    return compare("parity", runs, old, new) + compare("threads", runs, new, two)


def law(base: pathlib.Path, runs, scratch: pathlib.Path) -> list:
    """The per-column report of `law_report` on both trees' runs."""
    return law_report(run_tree(base, runs, scratch / "base", 1),
                      run_tree(ROOT, runs, scratch / "work", 1))


def law_report(old: pathlib.Path, new: pathlib.Path) -> list:
    """Per table column of two output directories: both means, and each differing cell's z.

    Each directory holds one subdirectory per run.  Runs named
    <step>-s<seed> pool their cells over the seeds of a step.
    """
    cells = {}  # (step, file, column, row) -> [(old, new) value at each seed]
    for run in sorted(path for path in old.iterdir() if path.is_dir()):
        for file in sorted(f for f in _outputs(run) if f.endswith(".csv")):
            a, b = read_rows(run / file), read_rows(new / run.name / file)
            for i, (ra, rb) in enumerate(zip(a[1:], b[1:])):
                for column, x, y in zip(a[0], ra, rb):
                    if _float(x) is not None and _float(y) is not None:
                        key = (run.name.rsplit("-s", 1)[0], file, column, i)
                        cells.setdefault(key, []).append((float(x), float(y)))
    columns = {}  # (step, file, column) -> [(old mean, new mean, (z, paired z) or None, rel)]
    for (step, file, column, _), pairs in cells.items():
        va, vb = np.asarray(pairs).T
        if np.array_equal(va, vb) or not np.all(np.isfinite([va, vb])):
            continue
        d = va - vb
        # a difference without spread over the seeds has no z; its size is its relative one
        zs = None if np.all(d == d[0]) else (
            d.mean() / np.sqrt((va.var(ddof=1) + vb.var(ddof=1)) / len(d)),
            d.mean() / np.sqrt(d.var(ddof=1) / len(d)))
        moved = d != 0  # seeds where both trees give 0 have no relative difference
        columns.setdefault((step, file, column), []).append(
            (va.mean(), vb.mean(), zs, _relative(va[moved], vb[moved]).max()))
    every = [e for entries in columns.values() for e in entries]
    return [f"{'/'.join(key):48} {_summary(entries)}"
            for key, entries in sorted(columns.items())] + [
        f"{'all differing cells':48} {_summary(every)}"]


def _summary(entries) -> str:
    """Both means; mean, sd and largest |z| of the combined-SE and paired z; fixed cells."""
    if not entries:
        return "no differing cells"
    base, work, zs, rel = zip(*entries)
    line = f"base {np.mean(base):<10.4g} work {np.mean(work):<10.4g} {len(entries)} cells"
    z = np.asarray([pair for pair in zs if pair is not None]).reshape(-1, 2)
    if len(z):
        line += "".join(f"; {label} {v.mean():+.2f} sd {v.std():.2f} max|z| {np.abs(v).max():.2f}"
                        for label, v in (("z", z[:, 0]), ("paired z", z[:, 1])))
    fixed = [r for pair, r in zip(zs, rel) if pair is None]
    if fixed:
        line += f"; {len(fixed)} fixed, largest relative difference {max(fixed):.3g}"
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", metavar="REV_OR_DIR")
    parser.add_argument("--law", type=int, metavar="N",
                        help="compare the law over N config seeds instead of bytes")
    args = parser.parse_args(argv)
    if args.law is not None and args.law < 2:
        parser.error("--law needs at least 2 seeds")
    with tempfile.TemporaryDirectory() as tmp:
        scratch, base = pathlib.Path(tmp), pathlib.Path(args.base)
        if not base.is_dir():
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.base],
                                     capture_output=True, check=True).stdout
            base = scratch / "tree"
            base.mkdir()
            subprocess.run(["tar", "-x", "-C", str(base)], input=archive, check=True)
        lines = (law(base, law_runs(args.law), scratch) if args.law is not None
                 else parity(base, matrix(), scratch))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
