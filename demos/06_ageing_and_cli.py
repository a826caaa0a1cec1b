"""
Extremal ageing and the experiment driver
=========================================

Two-time correlations C_n(t, t+s) = P(same trap at both rescaled times,
up to overlap eps) approach t/(t+s): the system's memory of time t
decays only hyperbolically in s.  The same estimators are packaged
behind the `extremal-clock` CLI; this script runs one grid in-process.
"""

import json
import tempfile

import numpy as np

from extremalclock import engine, pspin
from extremalclock.cli import run, validate_config

# --- library route ----------------------------------------------------------
n = 12
sched = pspin.make_schedule(n, 2, 0.05, 1.0)
inst = pspin.build_instance(n, 2, seed=9, beta=1.0, c=0.05)
env = pspin.PSpinEnvironment(inst)
model = pspin.HypercubeSRW(n)
rng = np.random.default_rng(8)

print(f"n={n}: C_n(t, t+s) vs the t/(t+s) limit, every (t, s) from one walk")
pairs = ((1.0, 1.0), (1.0, 3.0), (2.0, 1.0))
for (t, s), est in zip(pairs, engine.estimate_correlation(model, env, sched, 0.5, pairs,
                                                          1000, rng)):
    print(f"  (t, s)=({t}, {s}): {est.value:.3f} +- {est.se:.3f}   "
          f"limit {t / (t + s):.3f}   ({est.truncated} truncated)")

# --- CLI route --------------------------------------------------------------
# Identical config + seed => identical results.json, whatever the thread
# count; artifacts are results.json, manifest.json and one CSV per table.
with tempfile.TemporaryDirectory() as tmp:
    cfg = validate_config({
        "n_grid": [8, 12], "c": 0.05, "t_grid": [1.0], "s_grid": [1.0],
        "replicas": 500, "seed": 3, "out": tmp,
    })
    results = run("ageing", cfg)
    print(f"\nCLI ageing run wrote tables {results['tables']} "
          f"(config hash {results['config_hash'][:12]}...)")
    print(json.dumps({"partial": results["partial"],
                      "runtime_seconds": round(results["runtime_seconds"], 3)}))
