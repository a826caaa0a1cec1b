"""Clock processes of reversible jump chains and their extremal limits.

Subpackages: ``measures`` (Pareto tail measures, Poisson constructions and
extremal paths), ``engine`` (generic jump-chain clock machinery),
``pspin`` (the p-spin landscape on the hypercube with vectorised
kernels), ``ehrenfest`` (the exact distance-chain oracle),
``conditions`` (convergence-condition estimators), ``stats``
(accumulators and KS comparison), ``cli`` (the batch driver).
"""

__version__ = "0.1.0"

from .engine import (
    CompleteGraphChain,
    ConstantEnvironment,
    EnvironmentOracle,
    HorizonError,
    JumpChainModel,
    ScalingSchedule,
    StepBudgetError,
    TabularEnvironment,
    Trajectory,
    blocked_clock_value,
    clock_value,
    estimate_correlation,
    simulate_trajectory,
)
from .measures import (
    ExtremalPath,
    PointSample,
    TailMeasure,
    extremal_marginal,
    extremal_path,
    fdd_probability,
    range_avoidance_prob,
    sample_poisson_points,
    sup_path,
)
from .pspin import (
    HypercubeSRW,
    PSpinEnvironment,
    PSpinInstance,
    build_instance,
    make_schedule,
)
from .stats import EmpiricalDistribution, MCAccumulator, ks_statistic, ks_threshold

__all__ = [
    "__version__",
    "CompleteGraphChain",
    "ConstantEnvironment",
    "EnvironmentOracle",
    "HorizonError",
    "JumpChainModel",
    "ScalingSchedule",
    "StepBudgetError",
    "TabularEnvironment",
    "Trajectory",
    "blocked_clock_value",
    "clock_value",
    "estimate_correlation",
    "simulate_trajectory",
    "ExtremalPath",
    "PointSample",
    "TailMeasure",
    "extremal_marginal",
    "extremal_path",
    "fdd_probability",
    "range_avoidance_prob",
    "sample_poisson_points",
    "sup_path",
    "HypercubeSRW",
    "PSpinEnvironment",
    "PSpinInstance",
    "build_instance",
    "make_schedule",
    "EmpiricalDistribution",
    "MCAccumulator",
    "ks_statistic",
    "ks_threshold",
]
