"""Diffusion LMS over networks with noisy information exchange.

Simulation (Monte-Carlo learning curves) and closed-form analysis (stability,
bias, steady-state MSD/EMSE, tracking) of distributed adaptation where nodes
exchange estimates, intermediate estimates, and raw data over noisy links.
"""

from .combine import (
    matrices_from_rules,
    metropolis,
    relative_variance,
    relative_variance_gamma2,
    uniform,
    weights_from_gamma2,
)
from .network import (
    CombinationMatrices,
    LinkNoiseProfile,
    LinkTable,
    NetworkModel,
    NodeProfile,
    Topology,
    ValidationReport,
    VarianceRanges,
    WeightTrajectory,
    load_network,
    network_from_dict,
    network_to_dict,
    random_network,
    save_network,
    validate,
    validate_matrices,
)
from .simulate import (
    DiffusionState,
    LearningCurve,
    RngPolicy,
    SimulationOptions,
    StepData,
    StepOperator,
    curve_to_csv,
    diffusion_step,
    run_monte_carlo,
    steady_state_level,
    trajectory_to_csv,
)
from .theory import (
    InstabilityError,
    MeanDynamics,
    StabilityInfo,
    StepSizeBounds,
    TheoryReport,
    TrackingMetrics,
    assemble_mean_dynamics,
    assemble_noise_moments,
    bias,
    network_metrics,
    series_msd,
    stability_report,
    step_size_bounds,
    theory_report,
    tracking_metrics,
)

__version__ = "0.1.0"
