"""Random walks among i.i.d. random conductances on Z^d.

Simulation and numerical-verification toolkit: environment sampling under
polynomial-tail conductance laws, percolation decomposition into strong
cluster and holes, Poisson-clock walks with time change and effective
conductances, exact and Monte Carlo heat kernels with exponent fitting, the
exact kernel of the time-changed walk, and the spectral machinery (Dirichlet
forms, principal eigenvalues, penalized semigroups) behind the quenched
decay bounds.
"""

from .errors import (
    ChecksumError,
    EmptyClusterError,
    EnvironmentFileError,
    NumericalError,
    RcmError,
    TruncatedFileError,
    ValidationError,
    VersionMismatchError,
)
from .heatkernel import (
    CltBoundReport,
    ExponentFit,
    HeatKernelHatCurve,
    ReturnProbabilityCurve,
    UniformizationCache,
    box_radius_for_horizon,
    clt_lower_bound_check,
    default_time_grid,
    discrete_return_prob,
    exit_mass,
    fit_exponent,
    heat_kernel_hat,
    poisson_truncation_k,
    poisson_weights,
    poissonization_lower_bound,
    return_prob_curve_exact,
    return_prob_exact,
    return_prob_mc,
)
from .lattice import (
    BoxGeometry,
    ConductanceLaw,
    Environment,
    SlopeEstimate,
    derive_environment_seeds,
    homogeneous_environment,
    load_environment,
    min_conductance_scaling,
    pi,
    sample_environment,
    save_environment,
)
from .percolation import (
    ClusterDecomposition,
    Hole,
    HoleVolumeReport,
    STRONG_LABEL,
    hole_volume_report,
    strong_cluster,
    threshold_for_density,
    write_decomposition_csv,
)
from .spectral import (
    ExitTailReport,
    FloorCertificate,
    OperatorSpec,
    PerturbationReport,
    SpectralReport,
    SurvivalBoundReport,
    dirichlet_form,
    eigenvalue_floor,
    exit_time_tail_check,
    feynman_kac_lanczos,
    feynman_kac_mc,
    feynman_kac_spectral,
    feynman_kac_uniformization,
    homogeneous_lambda1_exact,
    lambda1,
    lambda1_floor_check,
    negative_pivots,
    perturbation_identity_check,
    prescribed_killing_rate,
    prescribed_spec,
    rayleigh_quotient,
    survival_bound_check,
)
from .walk import (
    BoxChain,
    EffectiveConductances,
    EnsembleResult,
    TrajectoryRecord,
    effective_conductance_matrix,
    effective_conductances,
    ensemble_walk,
    next_point_frequencies,
    simulate_ctmc,
    step_distribution,
    time_changed_trajectory,
    transition_matrix,
)

__version__ = "0.1.0"
