"""Config schema, deterministic orchestration, artifact layout, exit codes."""

import csv
import importlib.metadata
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
import scipy

from extremalclock.cli import (
    ConfigError,
    ExperimentConfig,
    Table,
    _fmt_cell,
    _git_revision,
    _run_jobs,
    _scipy_version,
    config_hash,
    load_config,
    main,
    run,
    validate_config,
)
from extremalclock import cli, conditions, engine, measures, pspin
from extremalclock.conditions import DegenerateScheduleWarning

from conftest import package_env

TINY = {
    "n_grid": [4],
    "p": 2,
    "c": 0.05,
    "u_grid": [1.0],
    "t_grid": [1.0],
    "s_grid": [1.0],
    "delta_grid": [1.0],
    "replicas": 150,
    "inner_replicas": 40,
    "seed": 7,
}


def test_validate_defaults():
    cfg = validate_config({})
    assert cfg.n_grid == (8, 12, 16)
    assert cfg.p == 2 and cfg.c == 0.05
    assert cfg.replicas == 2000
    assert cfg.beta_for(0) == 1.0


def test_validate_collects_all_problems():
    with pytest.raises(ConfigError) as err:
        validate_config({"bogus": 1, "p": 1, "c": 0.7, "replicas": 0,
                         "n_grid": [], "epsilon": 2.0})
    fields = err.value.fields
    names = {f.split(" ")[0] for f in fields}
    assert {"bogus", "p", "c", "replicas", "n_grid", "epsilon"} <= names
    # message carries every field
    for name in names:
        assert name in str(err.value)


def test_validate_grid_and_seed_rules():
    with pytest.raises(ConfigError):
        validate_config({"n_grid": [8, 3.5]})
    with pytest.raises(ConfigError):
        validate_config({"u_grid": [0.5, -1.0]})
    with pytest.raises(ConfigError):
        validate_config({"seed": -1})
    with pytest.raises(ConfigError):
        validate_config({"seed": 2 ** 64})
    cfg = validate_config({"u_grid": [1, 2.5]})
    assert cfg.u_grid == (1, 2.5)


@pytest.mark.parametrize("field", ["seed", "replicas", "threads"])
@pytest.mark.parametrize("value", [True, False])
def test_validate_rejects_booleans_as_integers(field, value):
    with pytest.raises(ConfigError) as err:
        validate_config({field: value})
    assert [f.split(" ")[0] for f in err.value.fields] == [field]


def test_cli_rejects_boolean_seed(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": True, "replicas": 40}))
    proc = _cli(["ppp", "--config", str(cfg), "--out", str(tmp_path / "out")], tmp_path)
    assert proc.returncode == 2
    assert "seed (" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_beta_sequence_rules():
    cfg = validate_config({"n_grid": [8, 12], "beta": [1.0, 0.5]})
    assert cfg.beta == (1.0, 0.5)
    assert cfg.beta_for(1) == 0.5
    with pytest.raises(ConfigError) as err:
        validate_config({"n_grid": [8, 12], "beta": [1.0]})
    assert any(f.startswith("beta") for f in err.value.fields)
    with pytest.raises(ConfigError):
        validate_config({"beta": -1.0})


def test_load_config_and_overrides(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"replicas": 500, "seed": 3}))
    cfg = load_config(str(path))
    assert cfg.replicas == 500 and cfg.seed == 3
    cfg2 = load_config(str(path), overrides={"seed": 9, "threads": 4})
    assert cfg2.seed == 9 and cfg2.threads == 4 and cfg2.replicas == 500
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config(str(bad))


def test_config_hash_excludes_operational_fields():
    base = validate_config({"replicas": 100})
    assert config_hash(base) == config_hash(validate_config(
        {"replicas": 100, "seed": 5, "threads": 8, "out": "/elsewhere"}))
    assert config_hash(base) != config_hash(validate_config({"replicas": 101}))


def test_fmt_cell():
    assert _fmt_cell(True) == "true"
    assert _fmt_cell(np.bool_(False)) == "false"
    assert _fmt_cell(0.1) == "0.10000000000000001"
    assert _fmt_cell(np.float64(2.0)) == "2"
    assert _fmt_cell(np.int64(7)) == "7"
    assert _fmt_cell("x") == "x"


def test_table_csv(tmp_path):
    table = Table("demo", ["value", "ok"])
    prov = {"n": 8, "p": 2, "c": 0.05, "beta": 1.0, "seed": 0}
    table.add(prov, value=1.5, ok=True)
    path = table.write_csv(str(tmp_path))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "p", "c", "beta", "seed", "value", "ok"]
    assert rows[1] == ["8", "2", "0.050000000000000003", "1", "0", "1.5", "true"]
    with pytest.raises(KeyError):
        table.add(prov, value=2.0)  # missing 'ok'


def test_run_jobs_order_and_thread_invariance():
    def make_job(i):
        def job(rng):
            time.sleep(0.02 * (3 - i) if i < 3 else 0.0)  # early jobs finish last
            return (i, rng.integers(0, 1000, 3).tolist())
        return job

    jobs = [make_job(i) for i in range(6)]
    seq = _run_jobs(jobs, validate_config({"threads": 1, "seed": 11}))
    par = _run_jobs([make_job(i) for i in range(6)],
                    validate_config({"threads": 4, "seed": 11}))
    assert [r[0] for r in seq] == list(range(6))
    assert seq == par  # per-job streams keyed by index, order preserved


def test_run_ehrenfest_writes_artifacts(tmp_path):
    cfg = validate_config({"n_grid": [6], "replicas": 300, "distance_steps": 6,
                           "out": str(tmp_path / "run1"), "seed": 1})
    results = run("ehrenfest", cfg)
    out = tmp_path / "run1"
    assert (out / "results.json").exists()
    assert (out / "manifest.json").exists()
    for name in results["tables"]:
        assert (out / f"{name}.csv").exists()
    payload = json.loads((out / "results.json").read_text())
    assert payload["command"] == "ehrenfest"
    assert payload["config_hash"] == config_hash(cfg)
    assert payload["seed"] == 1
    assert payload["partial"] is False
    assert payload["runtime_seconds"] > 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["replicas"] == 300
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "extremalclock"}
    assert manifest["job_stream"] == "SFC64"
    assert manifest["cpu_count"] == os.cpu_count()
    # a source checkout gives its commit; an installed package gives null
    rev = manifest["git_revision"]
    assert rev is None or re.fullmatch("[0-9a-f]{40}", rev)
    with pytest.raises(ValueError):
        run("nope", cfg)


def test_git_revision_read_from_dot_git(tmp_path):
    sha = "0123456789abcdef0123456789abcdef01234567"
    assert _git_revision(tmp_path) is None
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    assert _git_revision(tmp_path) is None
    (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{sha} refs/heads/main\n")
    assert _git_revision(tmp_path) == sha
    (git / "refs" / "heads" / "main").write_text(sha[::-1] + "\n")
    assert _git_revision(tmp_path) == sha[::-1]
    (git / "HEAD").write_text(sha + "\n")
    assert _git_revision(tmp_path) == sha


def test_manifest_scipy_version_is_read_without_scipy(tmp_path, monkeypatch):
    cfg = validate_config({"n_grid": [4], "replicas": 50, "distance_steps": 4,
                           "out": str(tmp_path)})
    run("ehrenfest", cfg)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__

    def missing(name):
        raise importlib.metadata.PackageNotFoundError(name)

    # the uncached lookup, as a run without scipy installed would see it
    monkeypatch.setattr(importlib.metadata, "version", missing)
    assert _scipy_version.__wrapped__() is None


def test_run_ppp_reports_ks(tmp_path):
    cfg = validate_config({"replicas": 2000, "t_grid": [0.5, 1.0],
                           "out": str(tmp_path / "ppp"), "seed": 2})
    results = run("ppp", cfg)
    assert [k["t"] for k in results["ks"]] == [0.5, 1.0]
    for entry in results["ks"]:
        assert entry["count"] == 2000
        assert 0.0 <= entry["statistic"] <= 1.0


def test_out_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("EXTREMAL_CLOCK_OUT", str(tmp_path / "envdir"))
    cfg = validate_config({"replicas": 500, "t_grid": [1.0], "seed": 3})
    run("ppp", cfg)
    assert (tmp_path / "envdir" / "ppp" / "results.json").exists()


def _cli(args, cwd):
    return subprocess.run([sys.executable, "-m", "extremalclock", *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=package_env())


def test_cli_error_exit_codes(tmp_path):
    proc = _cli(["ppp", "--config", str(tmp_path / "missing.json")], tmp_path)
    assert proc.returncode == 2
    assert "not found" in proc.stderr

    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    proc = _cli(["ppp", "--config", str(bad)], tmp_path)
    assert proc.returncode == 2
    assert "JSON" in proc.stderr

    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"p": 0, "mystery": 1}))
    proc = _cli(["ppp", "--config", str(schema)], tmp_path)
    assert proc.returncode == 2
    assert "p (" in proc.stderr and "mystery" in proc.stderr


def test_cli_verify_deterministic_across_threads(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(TINY))
    out1 = tmp_path / "t1"
    out2 = tmp_path / "t2"
    p1 = _cli(["verify", "--config", str(cfg_path), "--threads", "1",
               "--out", str(out1)], tmp_path)
    p2 = _cli(["verify", "--config", str(cfg_path), "--threads", "2",
               "--out", str(out2)], tmp_path)
    assert p1.returncode == 0, p1.stderr
    assert p2.returncode == 0, p2.stderr
    r1 = json.loads((out1 / "results.json").read_text())
    r2 = json.loads((out2 / "results.json").read_text())
    r1.pop("runtime_seconds")
    r2.pop("runtime_seconds")
    assert r1 == r2
    assert "wrote" in p1.stdout


def test_cli_seed_changes_results(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**TINY, "replicas": 100}))
    outs = []
    for seed, name in ((1, "s1"), (2, "s2")):
        out = tmp_path / name
        proc = _cli(["verify", "--config", str(cfg_path), "--seed", str(seed),
                     "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((out / "results.json").read_text())
        payload.pop("runtime_seconds")
        outs.append(payload)
    assert outs[0]["config_hash"] == outs[1]["config_hash"]  # seed not hashed
    assert outs[0] != outs[1]


@pytest.mark.parametrize("beta", [0, 0.0, [1.0, 0.0]])
@pytest.mark.parametrize("command", ["verify", "sk-run", "ageing"])
def test_cli_zero_beta_is_a_config_error(tmp_path, capsys, command, beta):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [4, 6], "beta": beta}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "beta (" in err and "Traceback" not in err
    # variance keeps beta = 0 as its degenerate constant-rate case
    validate_config({"n_grid": [4, 6], "beta": beta}, "variance")


@pytest.mark.parametrize("field, grid", [
    ("n_grid", [8, 8]), ("u_grid", [1.0, 1.0]), ("t_grid", [1, 1.0]),
    ("s_grid", [0.5, 1.0, 0.5]), ("delta_grid", [2.0, 2.0])])
def test_cli_repeated_grid_entries_are_a_config_error(tmp_path, capsys, field, grid):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({field: grid}))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{field} (entries must be distinct)" in err and "Traceback" not in err
    assert not (tmp_path / "results.json").exists()


@pytest.mark.parametrize("command", ["ppp", "sk-run"])
def test_cli_ks_commands_need_35_replicas(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [4], "replicas": 34}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "replicas (" in err and "Traceback" not in err
    validate_config({"n_grid": [4], "replicas": 35}, command)
    # subcommands without a KS test keep small replica counts
    for other in ("verify", "ageing", "ehrenfest", "compare", "variance"):
        validate_config({"n_grid": [4], "replicas": 34}, other)


@pytest.mark.parametrize("command", ["sk-run", "verify", "ageing", "variance"])
def test_cli_oversized_tensor_is_a_config_error(tmp_path, capsys, command):
    # 8 * 1000^3 bytes is over the default budget; validation stops it
    # before any tensor is allocated
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"p": 3, "n_grid": [8, 1000]}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "n_grid (tensor for n=1000, p=3" in err and "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    # with a step budget that covers sk-run's and verify's 1.7e92 steps per replica
    validate_config({"p": 3, "n_grid": [8, 812], "step_budget": 10 ** 93}, command)
    # subcommands without a p-spin tensor keep any n
    for other in ("ppp", "ehrenfest", "compare"):
        validate_config({"p": 3, "n_grid": [1000]}, other)


@pytest.mark.parametrize("command", ["sk-run", "verify", "ageing", "variance"])
def test_cli_overflowing_schedule_is_a_config_error(tmp_path, capsys, command):
    # a_n = ... exp(n^{1-2c} / 2) overflows past n = 1623 at c = 0.01
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [2000], "p": 2, "c": 0.01}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "n_grid (a_n overflows for n=2000" in err and "max n for c=0.01 is 1623" in err
    assert "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    # with a step budget that covers sk-run's and verify's 1.1e306 steps per replica
    validate_config({"n_grid": [1623], "p": 2, "c": 0.01, "step_budget": 10 ** 307}, command)
    # variance builds no schedule where beta = 0; other subcommands none at all
    validate_config({"n_grid": [8, 2000], "p": 2, "c": 0.01, "beta": [1.0, 0.0]},
                    "variance")
    for other in ("ppp", "ehrenfest", "compare"):
        validate_config({"n_grid": [2000], "p": 2, "c": 0.01}, other)


@pytest.mark.parametrize("command", ["sk-run", "verify", "ageing", "variance"])
def test_cli_overflowing_clock_is_a_config_error(tmp_path, capsys, command):
    # a_n t = inf at n = 8, t = 1e308: k_n(t) has no integer value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [8], "t_grid": [1e308], "env_replicas": 2}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"t_grid ({command} reads its clock at a_n t, which overflows at n=8" in err
    assert "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    if command == "ageing":  # ageing reads the clock at t + s
        with pytest.raises(ConfigError, match=r"t_grid .*t=1e\+308"):
            validate_config({"n_grid": [8], "t_grid": [1.0], "s_grid": [1e308]}, command)
    elif command in ("sk-run", "verify"):  # both read the clock at their largest t
        with pytest.raises(ConfigError, match=r"t_grid .*overflows at n=8, t=1e\+308"):
            validate_config({"n_grid": [8], "t_grid": [1.0, 1e308]}, command)
    else:  # variance reads the clock at t_grid[0] only
        validate_config({"n_grid": [8], "t_grid": [1.0, 1e308]}, command)
    # variance builds no schedule where beta = 0
    validate_config({"n_grid": [8], "t_grid": [1e308], "beta": 0.0}, "variance")


@pytest.mark.parametrize("command", ["sk-run", "verify", "ageing", "variance"])
def test_cli_alpha_above_one_is_a_config_error(tmp_path, capsys, command):
    # alpha_n = n^{-c} / beta = 8^{-0.05} / 0.1 = 9.01 > 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [8], "beta": 0.1, "replicas": 50}))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "beta (alpha_n = n^(-c) / beta = 9.01" in err and "min beta for n=8 is 0.901" in err
    assert "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    # beta = n^{-c} gives alpha_n = 1 exactly, the largest schedule allows
    validate_config({"n_grid": [8], "beta": 8.0 ** -0.05}, command)
    with pytest.raises(ConfigError, match="beta .*for n=12"):
        validate_config({"n_grid": [8, 12], "beta": [1.0, 0.5]}, command)
    # subcommands without a schedule keep any beta
    for other in ("ppp", "ehrenfest", "compare"):
        validate_config({"n_grid": [8], "beta": 0.1}, other)


def test_cli_ppp_t_grid_beyond_t_max_is_a_config_error(tmp_path, capsys):
    # ppp samples Poisson points on [0, t_max], t_max = 2.0 by default
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"t_grid": [1.0, 3.0], "replicas": 50}))
    assert main(["ppp", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "t_grid (entries must not exceed t_max = 2.0" in err and "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    validate_config({"t_grid": [2.0]}, "ppp")
    validate_config({"t_grid": [3.0], "t_max": 3.0}, "ppp")
    # t_max bounds only the Poisson construction
    for other in ("sk-run", "verify", "ehrenfest", "ageing", "compare", "variance"):
        validate_config({"t_grid": [3.0]}, other)


@pytest.mark.parametrize("fields", [{"K": 4e9}, {"u_min": 1e-9}, {"K": 1e300}])
def test_cli_ppp_point_count_beyond_cap_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                          fields):
    # ppp draws one Poisson count per (replica, query interval), not the
    # points, so 1.6e11 expected points per replica run; only a count mean
    # t_max * K / u_min above 2^62, which numpy's Poisson sampler cannot
    # draw, is stopped before anything is sampled
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(fields))
    if 2.0 * fields.get("K", 4.0) / fields.get("u_min", 0.05) <= 2.0 ** 62:
        assert main(["ppp", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "ppp_quantiles.csv", encoding="utf-8") as fh:
            levels = [float(row["empirical"]) for row in csv.DictReader(fh)]
        assert levels and all(math.isfinite(x) for x in levels)
        return

    def refuse(*args, **kwargs):
        raise AssertionError("ppp sampled levels for a rejected config")

    monkeypatch.setattr(measures, "sample_sup_levels", refuse)
    assert main(["ppp", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "u_min (ppp draws Poisson counts of mean up to t_max * K / u_min" in err
    assert "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    with pytest.raises(ConfigError, match="u_min"):
        validate_config(fields, "ppp")
    # the limit is a mean of 2^62: 2 * 2^61 / 1 reaches it, / 0.5 exceeds it
    at_limit = {"t_max": 2.0, "K": 2.0 ** 61, "u_min": 1.0}
    validate_config(at_limit, "ppp")
    with pytest.raises(ConfigError, match="u_min"):
        validate_config(dict(at_limit, u_min=0.5), "ppp")
    for other in ("sk-run", "verify", "ehrenfest", "ageing", "compare", "variance"):
        validate_config(fields, other)


def test_skrun_warns_at_zero_blocks(tmp_path):
    # a_n = 49 < theta_n = 192 at n = 8, c = 0.25: k_n(1) = 0, and sk-run
    # warns as verify and variance do at the same schedule
    cfg = validate_config({"n_grid": [8], "c": 0.25, "replicas": 100,
                           "out": str(tmp_path)}, "sk-run")
    with pytest.warns(DegenerateScheduleWarning, match="k_n"):
        run("sk-run", cfg)
    with open(tmp_path / "skrun_ks.csv", encoding="utf-8") as fh:
        assert [row["k_n"] for row in csv.DictReader(fh)] == ["0"]


@pytest.mark.parametrize("command", ["sk-run", "verify", "ageing", "variance"])
def test_one_pool_job_per_landscape(tmp_path, monkeypatch, command):
    # every grid of a landscape runs in its one job, on its one stream
    cfg = validate_config(dict(TINY, n_grid=[8, 10], t_grid=[0.5, 1.0], s_grid=[0.5, 1.0],
                               env_replicas=2, out=str(tmp_path)), command)
    handed = []

    def counting_run_jobs(jobs, cfg):
        handed.append(len(jobs))
        return _run_jobs(jobs, cfg)

    monkeypatch.setattr(cli, "_run_jobs", counting_run_jobs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScheduleWarning)
        run(command, cfg)
    assert handed == [len(cfg.n_grid)]


def test_variance_environments_are_keyed_by_replica(tmp_path, monkeypatch):
    # environment e of variance is instance seed (seed, n, p, e); e = 0 is
    # the landscape that sk-run, verify and ageing walk at that (seed, n, p)
    cfg = validate_config(dict(TINY, n_grid=[8, 10], env_replicas=3, out=str(tmp_path)),
                          "variance")
    seeds = {"conditions": [], "pspin": []}

    def recording(owner, build):
        def build_instance(n, p, seed, **kwargs):
            seeds[owner].append((n, seed))
            return build(n, p, seed, **kwargs)
        return build_instance

    monkeypatch.setattr(conditions, "build_instance",
                        recording("conditions", conditions.build_instance))
    monkeypatch.setattr(pspin, "build_instance", recording("pspin", pspin.build_instance))
    run("variance", cfg)
    assert seeds["conditions"] == [(n, cli._instance_seed(cfg.seed, n, cfg.p, e))
                                   for n in cfg.n_grid for e in range(3)]
    list(cli._landscapes(cfg))
    assert seeds["pspin"] == [(n, seed) for n, seed in seeds["conditions"][::3]]


def test_skrun_walks_each_landscape_once_for_its_t_grid():
    # one walk per landscape stops at each k_n(t), so every replica's
    # powered marginal is non-decreasing in t
    cfg = validate_config({"n_grid": [8, 10], "t_grid": [0.5, 1.0, 2.0], "replicas": 40},
                          "sk-run")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateScheduleWarning)
        for _, _, sched, model, env in cli._landscapes(cfg):
            marginals = cli._powered_marginals(model, env, sched, cfg.t_grid,
                                               cfg.replicas, engine.stream(0))
            ks = [k for _, k in marginals]
            assert ks == sorted(ks) and ks[0] < ks[-1]
            samples = np.stack([s for s, _ in marginals])
            assert samples.shape == (3, cfg.replicas)
            assert np.all(np.diff(samples, axis=0) >= 0.0)


def test_ageing_walks_each_landscape_once_for_its_grid(tmp_path, monkeypatch):
    # one walk per landscape serves the whole (t, s) grid: it makes the
    # draws of a one-pair walk to the grid's largest t + s, and ageing
    # hands the kernel every pair in one call per n
    cfg = validate_config({"n_grid": [8, 10], "t_grid": [0.5, 1.0], "s_grid": [0.5, 1.0],
                           "replicas": 40, "out": str(tmp_path)}, "ageing")
    pairs = [(t, s) for t in cfg.t_grid for s in cfg.s_grid]
    for _, _, sched, model, env in cli._landscapes(cfg):
        grid, one = engine.stream(0), engine.stream(0)
        estimates = engine.estimate_correlation(model, env, sched, cfg.epsilon, pairs,
                                                cfg.replicas, grid, cfg.step_budget)
        engine.estimate_correlation(model, env, sched, cfg.epsilon, [(1.0, 1.0)],
                                    cfg.replicas, one, cfg.step_budget)
        assert len(estimates) == len(pairs)
        np.testing.assert_equal(grid.bit_generator.state, one.bit_generator.state)
    calls = []
    correlation_overlaps = pspin.HypercubeSRW.correlation_overlaps

    def counted(self, env, log_levels, index, *args):
        calls.append((len(log_levels), len(index)))
        return correlation_overlaps(self, env, log_levels, index, *args)

    monkeypatch.setattr(pspin.HypercubeSRW, "correlation_overlaps", counted)
    run("ageing", cfg)
    assert calls == [(4, 4)] * len(cfg.n_grid)
    with open(tmp_path / "ageing.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(float(r["t"]), float(r["s"])) for r in rows] == pairs * len(cfg.n_grid)


def test_verify_dr_hops_without_a_trajectory(tmp_path, monkeypatch):
    # the DR job walks its own path to the block boundaries: no full
    # trajectory of states and marks is built
    def refuse(*args, **kwargs):
        raise AssertionError("verify simulated a full trajectory")

    monkeypatch.setattr(engine, "simulate_trajectory", refuse)
    results = run("verify", validate_config(dict(TINY, n_grid=[8], out=str(tmp_path))))
    dr = [rep for rep in results["reports"] if rep["id"] in ("DR-1.14", "DR-1.15")]
    assert len(dr) == 2 and all(rep["parameters"]["k_n"] >= 1 for rep in dr)


def test_cli_variance_needs_two_environments(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [6], "env_replicas": 1}))
    assert main(["variance", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "env_replicas (must be >= 2 for variance" in err and "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    validate_config({"env_replicas": 2}, "variance")
    for other in ("ppp", "sk-run", "verify", "ehrenfest", "ageing", "compare"):
        validate_config({"env_replicas": 1}, other)


def test_cli_exhausted_step_budget_exits_cleanly(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [8], "replicas": 50, "step_budget": 1}))
    proc = _cli(["ageing", "--config", str(cfg_path), "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 3
    assert "step budget exhausted" in proc.stderr and "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1
    assert not (tmp_path / "results.json").exists()


def test_walks_longer_than_the_step_budget_are_config_errors(tmp_path, capsys):
    # sk-run walks theta_n k_n(t) steps per replica to its largest t and
    # verify to its first; both are bounded by step_budget
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [8], "t_grid": [1e300]}))
    assert main(["sk-run", "--config", str(cfg_path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "t_grid (sk-run walks theta_n k_n(t) = 2.027e+302 steps" in err
    assert "step_budget = 10000000" in err and "Traceback" not in err
    assert not (tmp_path / "results.json").exists()
    with pytest.raises(ConfigError, match=r"t_grid \(verify reads its clock at a_n t, "
                                          r"which overflows"):
        validate_config({"n_grid": [8], "t_grid": [1e308]}, "verify")
    # n = 40 at t = 1 takes 3 * 40^2 * 4029 = 19.3M steps, over the default budget
    with pytest.raises(ConfigError, match="1.934e\\+07 steps per replica at n=40"):
        validate_config({"n_grid": [40]}, "sk-run")
    validate_config({"n_grid": [40], "step_budget": 2 * 10 ** 7}, "sk-run")
    wide = {"n_grid": [8], "t_grid": [0.5, 1e6]}
    with pytest.raises(ConfigError, match="at n=8, t=1000000.0, more than"):
        validate_config(wide, "sk-run")
    validate_config(wide, "verify")  # verify walks to t_grid[0] only
    # ageing walks to a random first passage past t + s, which theta_n k_n(t + s)
    # does not bound either way: its replicas truncate at run time instead
    validate_config({"n_grid": [8], "t_grid": [1e6, 0.5]}, "ageing")
    validate_config({"n_grid": [40]}, "ageing")


_NO_SCIPY_CHILD = """
import json, pathlib, sys
from extremalclock.cli import COMMANDS, main, validate_config
validate_config({})
out = pathlib.Path(sys.argv[1])
cfg = out / "cfg.json"
cfg.write_text(sys.argv[2])
for command in COMMANDS:
    assert main([command, "--config", str(cfg), "--out", str(out / command)]) == 0
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
"""


def test_cli_runs_without_loading_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD, str(tmp_path),
                           json.dumps(TINY)],
                          capture_output=True, text=True, cwd=tmp_path, env=package_env())
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def test_cli_ageing_p3_shared_instances_deterministic_across_threads(tmp_path):
    # two (t, s) per n, both walked in that n's one job: the pool runs the
    # two p=3 landscapes at once, and no two jobs share an instance
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"n_grid": [8, 10], "p": 3, "t_grid": [0.5, 1.0],
                                    "replicas": 40, "seed": 3}))
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        proc = _cli(["ageing", "--config", str(cfg_path), "--threads", str(threads),
                     "--out", str(out)], tmp_path)
        assert proc.returncode == 0, proc.stderr
        results = json.loads((out / "results.json").read_text())
        results.pop("runtime_seconds")
        outputs.append((results, [(out / f"{name}.csv").read_text()
                                  for name in results["tables"]]))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", ["sk-run", "ageing", "variance"])
def test_p3_walks_deterministic_across_threads(tmp_path, command):
    # blocked p=3 walks through the pool: results.json minus the wall time,
    # and every CSV, byte for byte at 1 and 2 threads
    cfg = {"p": 3, "n_grid": [8, 12], "t_grid": [0.5, 1.0], "replicas": 40,
           "inner_replicas": 20, "env_replicas": 2, "seed": 11}
    outputs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run(command, validate_config(dict(cfg, threads=threads, out=str(out))))
        results = json.loads((out / "results.json").read_text())
        results.pop("runtime_seconds")
        csvs = sorted(out.glob("*.csv"))
        assert [path.stem for path in csvs] == sorted(results["tables"])
        outputs.append((results, [path.read_bytes() for path in csvs]))
    assert outputs[0] == outputs[1]


SHARED_WALK = {"n_grid": [8, 10], "p": 2, "c": 0.05, "u_grid": [0.5, 1.0, 2.0],
               "t_grid": [1.0, 2.0], "delta_grid": [1.0], "replicas": 200,
               "inner_replicas": 20, "seed": 5}


def test_verify_tails_non_increasing_in_u(tmp_path):
    # common random numbers across u: the indicator sets are nested
    # path-wise, so every estimate is exactly non-increasing in u
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        results = run("verify", validate_config(dict(SHARED_WALK, out=str(tmp_path))))
    series = {}
    for rep in results["reports"]:
        functional = rep["parameters"].get("functional")
        if functional in ("nu", "sigma-sq", "eta"):
            key = (functional, rep["n"], rep["parameters"]["t"])
            series.setdefault(key, []).append((rep["parameters"]["u"], rep["estimate"]))
    assert {f for f, _, _ in series} == {"nu", "sigma-sq", "eta"}
    assert any(e > 0.0 for entries in series.values() for _, e in entries)
    for key, entries in series.items():
        estimates = [e for _, e in sorted(entries)]
        assert len(estimates) == 3
        assert all(b <= a for a, b in zip(estimates, estimates[1:])), key


def test_verify_walks_once_per_n(tmp_path, monkeypatch):
    calls = []
    block_statistics = engine.block_statistics

    def counted(model, env, theta, reps, rng, **kwargs):
        calls.append(reps)
        return block_statistics(model, env, theta, reps, rng, **kwargs)

    monkeypatch.setattr(engine, "block_statistics", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        run("verify", validate_config(dict(SHARED_WALK, out=str(tmp_path))))
    # per n: one shared tails walk of 5 R rows (nu, two sigma halves, two
    # eta halves) and one stacked DR boundary batch
    replicas = SHARED_WALK["replicas"]
    assert calls.count(5 * replicas) == len(SHARED_WALK["n_grid"])
    assert len(calls) == 2 * len(SHARED_WALK["n_grid"])
