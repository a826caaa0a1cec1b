"""Output checks for one CLI invocation, and the same-seed result digest."""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

RESULT_FIELDS = ("command", "config_hash", "seed", "tables", "reports", "partial",
                 "runtime_seconds")

# empirical_vs_extremal reports one quantile row per probability in (0.1, 0.25, 0.5, 0.75, 0.9)
_QUANTILE_ROWS = 5

# table columns holding Monte Carlo estimates and their standard errors
_ESTIMATE_COLUMNS = ("estimate", "lhs")
_SE_COLUMNS = ("se",)


def expected_rows(command: str, cfg) -> dict:
    """Table name -> row count that `cli.run(command, cfg)` must write."""
    n, u, t, s, d = (len(cfg.n_grid), len(cfg.u_grid), len(cfg.t_grid),
                     len(cfg.s_grid), len(cfg.delta_grid))
    if command == "verify":
        # per n: mixing, condition 0, (nu per t, sigma, eta) per u, 3-1 per delta, 2 DR
        return {"conditions": n * (2 + u * (t + 2) + d + 2), "trends": u * t + 2 * u}
    if command == "sk-run":
        return {"skrun_ks": n * t, "skrun_quantiles": _QUANTILE_ROWS * n * t}
    if command == "ageing":
        return {"ageing": n * t * s}
    if command == "variance":
        return {"variance": n}
    if command == "ppp":
        return {"ppp_ks": t, "ppp_quantiles": _QUANTILE_ROWS * t}
    if command == "compare":
        return {"compare": cfg.pairs * s}
    if command == "ehrenfest":
        distances = sum((m + 1) // 2 - 1 for m in cfg.n_grid)
        return {"hitting": distances, "occupation": n, "distance_check": n,
                "hitting_window": distances}
    raise ValueError(f"no row counts for command {command!r}")


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def check_invocation(command: str, cfg, out_dir: str) -> list:
    """Problems found in the artifacts of one invocation; empty when it is correct."""
    with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    problems = [f"results.json lacks {f}" for f in RESULT_FIELDS if f not in results]
    if problems:
        return problems
    if results["command"] != command or results["seed"] != cfg.seed:
        problems.append("results.json names another command or seed")
    for rep in results["reports"]:
        if not (_finite(rep["estimate"]) and _finite(rep["se"]) and rep["se"] >= 0):
            problems.append(f"report {rep['id']} n={rep['n']}: estimate or SE not finite")
        if rep["id"] == "1-1" and rep["verdict"] != "pass":
            problems.append(f"exact mixing report n={rep['n']} is {rep['verdict']}")
    expected = expected_rows(command, cfg)
    if sorted(results["tables"]) != sorted(expected):
        problems.append(f"tables {results['tables']} != {sorted(expected)}")
        return problems
    for table, rows_wanted in expected.items():
        with open(os.path.join(out_dir, f"{table}.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != rows_wanted:
            problems.append(f"{table}: {len(rows)} rows, config implies {rows_wanted}")
        for i, row in enumerate(rows):
            for col in _ESTIMATE_COLUMNS + _SE_COLUMNS:
                if col in row and not _finite(row[col]):
                    problems.append(f"{table} row {i}: {col}={row[col]!r} not finite")
            for col in _SE_COLUMNS:
                if col in row and _finite(row[col]) and float(row[col]) < 0:
                    problems.append(f"{table} row {i}: negative SE")
            if table == "hitting" and row["within_bound"] != "true":
                problems.append(f"hitting row {i}: exact hitting time exceeds its bound")
    return problems


def digest(out_dir: str) -> str:
    """SHA-256 of results.json without its wall-clock field."""
    with open(os.path.join(out_dir, "results.json"), encoding="utf-8") as fh:
        results = json.load(fh)
    results.pop("runtime_seconds", None)
    blob = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
