"""Processor-sharing queues with soft deadlines.

Event-driven simulation of the GI/GI/1 processor-sharing queue whose
jobs carry deadlines, the invariant (lifted) measures the scaled state
collapses to in heavy traffic, reflected-Brownian limit objects, and a
harness that measures the collapse along a ladder of scaling parameters.
"""

from .distributions import (
    Deterministic,
    EmpiricalJoint,
    Exponential,
    HyperExponential,
    JointDistribution,
    LinearJoint,
    PointMassZero,
    ProductJoint,
    ScalarDistribution,
    Uniform,
    check_assumptions,
    to_spec,
)
from .engine import (
    JobRecord,
    PathLog,
    ScenarioConfig,
    SimOutput,
    busy_rate_check,
    run,
)
from .errors import ConfigError, SimulationError
from .fileio import joint_from_spec, scalar_from_spec
from .harness import (
    CollapseReport,
    SweepConfig,
    SweepRow,
    build_scenario,
    lateness_fraction,
    run_sweep,
    sojourn_snapshot_experiment,
)
from .manifold import (
    InvariantMeasure,
    ht_params,
    lead_profile_product,
    lift,
    linear_deadline_profile,
    sojourn_limit_cdf,
    time_in_queue_profile,
)
from .measures import (
    PointMeasure,
    QuadrantFunction,
    QuadrantGrid,
    default_grid,
    mass_moment_chi,
    scale_diffusion,
)
from .rbm import RBMPath, RBMSpec, deadline_quantile, simulate, stationary_cdf

__version__ = "0.1.0"
