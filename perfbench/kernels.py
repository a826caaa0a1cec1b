"""Walker kernel grid: ns per replica-step of the public block-statistics hook.

Each point builds one p-spin instance and times
`HypercubeSRW.block_statistics` on R stationary replicas.  The number of
steps per call is chosen so that every call advances about STEP_BUDGET
replica-steps; the reported figure is the median over REPEATS calls,
after one untimed call that builds the symmetrised tensor.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# (n, p, R) points of the walker grid
GRID = ((16, 2, 2000), (20, 2, 4000), (32, 2, 8192), (12, 3, 2000), (16, 3, 2000))
STEP_BUDGET = 250_000
REPEATS = 3


def walker_ns(pspin, seed: int) -> dict:
    """Metric name -> median ns per replica-step for every grid point."""
    out = {}
    for n, p, reps in GRID:
        rng = np.random.Generator(np.random.Philox(seed))
        inst = pspin.build_instance(n, p, seed)
        env = pspin.PSpinEnvironment(inst)
        model = pspin.HypercubeSRW(n)
        steps = max(1, STEP_BUDGET // reps)
        model.block_statistics(env, 1, reps, rng)
        samples = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            model.block_statistics(env, steps, reps, rng)
            samples.append((time.perf_counter() - start) * 1e9 / (steps * reps))
        out[f"pspin.walker_ns.n{n}p{p}"] = statistics.median(samples)
    return out
