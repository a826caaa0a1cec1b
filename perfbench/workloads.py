"""The benchmark's workloads: fixed subcommand sequences over generated configs.

Each workload is one client in a closed loop: it runs its subcommands
one after another through `cli.validate_config` and `cli.run`, and a
subcommand starts only after the previous one returned.  Sizes are
chosen so that one sequence takes about 3 s on a 2-CPU machine, so a
35-s run takes its median over about ten sequences: on a shared host
single sequences vary by 20% or more from one to the next.
`threads` never exceeds 2.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    threads: int
    steps: tuple  # (command, config fields) in execution order


_P3 = {"p": 3, "n_grid": [8, 12, 16]}

WORKLOADS = {w.name: w for w in (
    Workload(
        "verify-p2",
        "p=2 condition estimators: almost all time is conditions -> "
        "engine.block_statistics -> the p=2 walker, re-simulated per u; "
        "bypasses the pool, measures and ehrenfest",
        1,
        (("verify", {"p": 2, "n_grid": [8, 12, 16], "replicas": 500}),),
    ),
    Workload(
        "landscape-p3-2w",
        "p=3 walker through the 2-worker pool: sk-run block sampling, the "
        "early-exit correlation_overlaps path, and environment-replication "
        "instance builds",
        2,
        # One t per sk-run, so that every pool job walks an instance of its
        # own.  PSpinInstance.symmetric_tensor publishes _sym before
        # _sym_diag2, and two jobs that first walk one shared p=3 instance
        # at the same time can fail with a TypeError in _BatchWalker.step.
        # Go back to t_grid [0.5, 1.0] once that is fixed.
        (("sk-run", dict(_P3, replicas=200, t_grid=[1.0])),
         ("ageing", dict(_P3, replicas=100, t_grid=[0.5], s_grid=[1.0])),
         ("variance", dict(_P3, env_replicas=2))),
    ),
    Workload(
        "limit-laws",
        "no walker: Poisson sup levels and per-point KS CDF loop, max-CDF Monte "
        "Carlo with the quad comparison bound, Ehrenfest occupation loop",
        1,
        (("ppp", {"replicas": 30000, "t_grid": [0.25, 0.5, 1.0, 2.0]}),
         ("compare", {"replicas": 20000, "pairs": 50, "s_grid": [0.5, 1.0, 2.0]}),
         ("ehrenfest", {"replicas": 5000, "n_grid": [8, 16, 24, 32]})),
    ),
)}


def program_seeds(seed: int):
    """Config seeds for successive sequences of a run: s0, s0, s1, s2, ...

    The first seed repeats so that each run compares two same-seed
    results; later sequences draw fresh environments, so a run's median
    covers several quenched instances instead of one.
    """
    rng = random.Random(seed)
    first = rng.getrandbits(32)
    yield first
    yield first
    while True:
        yield rng.getrandbits(32)


def configs(workload: Workload, program_seed: int, out_dir: str):
    """(command, raw config) pairs of one sequence, as the program receives them."""
    return [(command, dict(fields, seed=program_seed, threads=workload.threads,
                           out=f"{out_dir}/{command}"))
            for command, fields in workload.steps]
