"""Random walks among i.i.d. random conductances on Z^d.

Simulation and numerical-verification toolkit: environment sampling under
polynomial-tail conductance laws, percolation decomposition into strong
cluster and holes, Poisson-clock path ensembles and effective conductances,
exact and Monte Carlo heat kernels with exponent fitting, the exact kernel
of the time-changed walk, and the spectral machinery (principal
eigenvalues, penalized semigroups) behind the quenched decay bounds.

``import rcmwalk`` loads no submodule: each public name below is looked up
in its defining module on first use (PEP 562), so a caller pays for SciPy
only when it reaches code that needs it.  The package keeps no copy of a
name; ``rcmwalk.X`` is always the defining module's current ``X``.
"""

import importlib

__version__ = "0.1.0"

# Module -> the public names the package exports from it.
_EXPORTS = {
    "errors": (
        "ChecksumError",
        "EmptyClusterError",
        "EnvironmentFileError",
        "NumericalError",
        "RcmError",
        "TruncatedFileError",
        "ValidationError",
        "VersionMismatchError",
    ),
    "heatkernel": (
        "CltBoundReport",
        "ExponentFit",
        "HeatKernelHatCurve",
        "ReturnProbabilityCurve",
        "UniformizationCache",
        "box_radius_for_horizon",
        "clt_lower_bound_check",
        "default_time_grid",
        "exit_mass",
        "fit_exponent",
        "heat_kernel_hat",
        "poisson_truncation_k",
        "poisson_weights",
        "poissonization_lower_bound",
        "return_prob_curve_exact",
        "return_prob_exact",
        "return_prob_mc",
    ),
    "lattice": (
        "BoxGeometry",
        "Environment",
        "derive_environment_seeds",
        "load_environment",
        "pi",
        "sample_environment",
        "save_environment",
    ),
    "percolation": (
        "ClusterDecomposition",
        "Hole",
        "HoleVolumeReport",
        "STRONG_LABEL",
        "hole_volume_report",
        "strong_cluster",
        "threshold_for_density",
        "write_decomposition_csv",
    ),
    "spectral": (
        "ExitTailReport",
        "FloorCertificate",
        "OperatorSpec",
        "PerturbationReport",
        "SpectralReport",
        "SurvivalBoundReport",
        "eigenvalue_floor",
        "exit_time_tail_check",
        "feynman_kac_lanczos",
        "feynman_kac_mc",
        "feynman_kac_spectral",
        "feynman_kac_uniformization",
        "homogeneous_lambda1_exact",
        "lambda1",
        "lambda1_floor_check",
        "negative_pivots",
        "perturbation_identity_check",
        "prescribed_killing_rate",
        "prescribed_spec",
        "survival_bound_check",
    ),
    "walk": (
        "BoxChain",
        "BoxStencil",
        "EffectiveConductances",
        "EnsembleResult",
        "box_stencil",
        "effective_conductance_matrix",
        "effective_conductances",
        "ensemble_walk",
        "next_point_frequencies",
        "step_distribution",
        "transition_matrix",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_OWNER)


def __getattr__(name):
    # Not stored in the package's globals: a name rebound in its defining
    # module (a test's monkeypatch, a tracer) is seen here at once.
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)


def __dir__():
    return [*globals(), *__all__]
