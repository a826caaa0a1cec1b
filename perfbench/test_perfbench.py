"""Tests of the benchmark's own pieces: span arithmetic, output check, tracer.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402

import extremalclock  # noqa: E402
from extremalclock import cli, pspin  # noqa: E402

TINY = {"n_grid": [4], "p": 2, "u_grid": [1.0], "t_grid": [1.0], "s_grid": [1.0],
        "delta_grid": [1.0], "replicas": 150, "inner_replicas": 40, "pairs": 3,
        "env_replicas": 2, "seed": 7}


def _run(command, tmp_path, **fields):
    cfg = cli.validate_config(dict(TINY, out=str(tmp_path / command), **fields))
    cli.run(command, cfg)
    return cfg, str(tmp_path / command)


# main thread 1 runs cli.run > cli.run_jobs; two jobs run on worker threads 2 and 3
SYNTHETIC = [
    Span(1, "cli.run", 0.0, 10.0, None, 1, 0),
    Span(2, "cli.run_jobs", 1.0, 9.0, 1, 1, 0),
    Span(3, "cli.job", 2.0, 8.0, 2, 2, 0),
    Span(4, "conditions.nu_t", 3.0, 7.0, 3, 2, 0),
    Span(5, "engine.block_statistics", 4.0, 6.0, 4, 2, 100),
    Span(6, "cli.job", 1.5, 5.5, 2, 3, 0),
    Span(7, "engine.block_statistics", 2.0, 5.0, 6, 3, 50),
]


def test_self_times_subtract_only_same_thread_children():
    assert tracer.self_times(SYNTHETIC) == {1: 2.0, 2: 8.0, 3: 2.0, 4: 2.0, 5: 2.0,
                                            6: 1.0, 7: 3.0}


def test_self_times_add_up_to_each_threads_covered_time():
    assert tracer.thread_totals(SYNTHETIC) == {1: (10.0, 10.0), 2: (6.0, 6.0),
                                               3: (4.0, 4.0)}


def test_layer_metrics_on_synthetic_spans():
    m = tracer.layer_metrics(SYNTHETIC, {"pspin.cache_lookups": 4, "pspin.cache_hits": 1},
                             wall=10.0, threads=2)
    assert m["conditions.block_batches"] == 1
    assert m["conditions.replica_steps"] == 100
    assert m["engine.block_statistics.calls"] == 2
    assert m["engine.block_statistics.replica_steps"] == 150
    assert m["engine.block_statistics.busy_s"] == 5.0
    assert m["engine.ns_per_replica_step"] == pytest.approx(5.0e9 / 150)
    assert m["conditions.nu_t_s"] == 4.0
    assert m["cli.self_s"] == 2.0 + 2.0 + 1.0  # cli.run and both jobs; the pool wait is excluded
    assert m["cli.worker_busy_frac"] == pytest.approx(10.0 / 20.0)
    assert m["pspin.cache_hit_frac"] == 0.25


@pytest.mark.parametrize("command", ["verify", "sk-run", "ageing", "variance", "ppp",
                                     "compare", "ehrenfest"])
def test_output_check_accepts_real_runs(command, tmp_path):
    cfg, out = _run(command, tmp_path)
    assert checks.check_invocation(command, cfg, out) == []
    assert checks.digest(out) == checks.digest(out)


def _edit_json(out, edit):
    path = Path(out) / "results.json"
    results = json.loads(path.read_text())
    edit(results)
    path.write_text(json.dumps(results))


def _edit_csv(out, table, edit):
    path = Path(out) / f"{table}.csv"
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _set_cell(rows, column, value):
    rows[1][rows[0].index(column)] = value
    return rows


DOCTORINGS = {
    "missing field": ("ehrenfest", lambda out: _edit_json(out, lambda r: r.pop("partial"))),
    "dropped row": ("ehrenfest", lambda out: _edit_csv(out, "occupation", lambda r: r[:-1])),
    "nan estimate": ("ehrenfest", lambda out: _edit_csv(
        out, "occupation", lambda r: _set_cell(r, "estimate", "nan"))),
    "negative se": ("ageing", lambda out: _edit_csv(
        out, "ageing", lambda r: _set_cell(r, "se", "-0.5"))),
    "hitting bound": ("ehrenfest", lambda out: _edit_csv(
        out, "hitting", lambda r: _set_cell(r, "within_bound", "false"))),
    "mixing verdict": ("verify", lambda out: _edit_json(
        out, lambda r: next(rep for rep in r["reports"] if rep["id"] == "1-1")
        .update(verdict="fail"))),
    "infinite report": ("verify", lambda out: _edit_json(
        out, lambda r: r["reports"][-1].update(se=float("inf")))),
}


@pytest.mark.parametrize("doctoring", sorted(DOCTORINGS))
def test_output_check_rejects_doctored_results(doctoring, tmp_path):
    command, doctor = DOCTORINGS[doctoring]
    cfg, out = _run(command, tmp_path)
    before = checks.digest(out)
    doctor(out)
    assert checks.check_invocation(command, cfg, out) != []
    if doctoring in ("missing field", "mixing verdict", "infinite report"):
        assert checks.digest(out) != before


def test_digest_ignores_runtime_only(tmp_path):
    cfg, out = _run("ppp", tmp_path)
    before = checks.digest(out)
    _edit_json(out, lambda r: r.update(runtime_seconds=123.0))
    assert checks.digest(out) == before
    _edit_json(out, lambda r: r.update(seed=8))
    assert checks.digest(out) != before


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    owners = [getattr(extremalclock, m) for m in tracer.MODULES] \
        + [pspin.HypercubeSRW, pspin.PSpinInstance]
    before = [dict(vars(owner)) for owner in owners]
    spans = tracer.Tracer()
    spans.install(extremalclock)
    try:
        assert cli.run is not before[tracer.MODULES.index("cli")]["run"]
        raw = dict(TINY, n_grid=[4, 6], threads=2, out=str(tmp_path / "ehrenfest"))
        spans.call("root", lambda: cli.run("ehrenfest", cli.validate_config(raw)), (), {})
    finally:
        spans.restore()
    for owner, snapshot in zip(owners, before):
        now = vars(owner)
        assert [k for k, v in snapshot.items() if now[k] is not v] == [], owner

    names = {s.name for s in spans.spans}
    assert {"cli.run", "cli.validate_config", "ehrenfest.occupation_statistic",
            "cli.run_jobs", "cli.job"} <= names
    pool = next(s for s in spans.spans if s.name == "cli.run_jobs")
    jobs = [s for s in spans.spans if s.name == "cli.job"]
    assert len(jobs) == 4 and all(j.parent == pool.id for j in jobs)
    assert all(j.thread != pool.thread for j in jobs)
    root = next(s for s in spans.spans if s.name == "root")
    totals = tracer.thread_totals(spans.spans)
    assert totals[root.thread][0] == pytest.approx(root.end - root.start, rel=1e-9)
    for self_sum, top_sum in totals.values():
        assert self_sum == pytest.approx(top_sum, rel=1e-9)


def test_benchmark_json_lists_the_code_metrics_and_workloads():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} \
        == {name: (unit, better) for name, (unit, better, _) in tracer.LAYER_METRICS.items()}
    assert {w["name"]: w["why"] for w in bench["workloads"]} \
        == {w.name: w.why for w in workloads.WORKLOADS.values()}


def test_program_seeds_repeat_the_first_then_vary():
    seeds = workloads.program_seeds(3)
    first = [next(seeds) for _ in range(5)]
    assert first[0] == first[1] and len(set(first[1:])) == 4
    again = workloads.program_seeds(3)
    assert [next(again) for _ in range(5)] == first


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify-p2",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
