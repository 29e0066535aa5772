"""Pseudospectral propagation of the time-dependent Dirac equation on static
curved 1-D/2-D backgrounds: FFT derivative operators, Strang splitting, a
matrix-free Crank-Nicolson transport solve, an explicit directional
exponential scheme, and perfectly matched layers."""

from .errors import (
    BudgetError,
    ConfigurationError,
    GeometryError,
    KrylovError,
    SimulationError,
    StepFailureError,
)
from .grid_spectral import (
    Grid,
    SpinorField,
    dense_diff_matrix,
    make_grid,
    spectral_derivative,
)
from .spinor_algebra import alpha_matrix, beta_matrix
from .geometry import (
    MetricModel,
    ScalarForm,
    gamma_weight,
    graphene_f,
    parse_form,
    sample_metric,
)
from .pml import PmlConfig, apply_pml, sigma_profile, stretch_factor
from .krylov import KrylovOptions, KrylovReport, gmres
from .propagators import (
    StepWorkspace,
    cn_transport_step,
    half_potential_step,
    poly_axis_step,
    strang_step,
)
from .oracle import build_dense_G, dense_cn_step
from .harness import (
    DiagnosticsRecord,
    RunConfig,
    SimulationResult,
    convergence_sweep,
    density,
    gamma_norm,
    initial_condition,
    l2_norm,
    parse_config,
    preset_config,
    read_snapshot,
    restrict_to_coarse,
    run_simulation,
    serialize_config,
    write_diagnostics,
    write_snapshot,
)

__all__ = [
    "BudgetError", "ConfigurationError", "GeometryError", "KrylovError",
    "SimulationError", "StepFailureError", "Grid", "SpinorField",
    "dense_diff_matrix", "make_grid", "spectral_derivative", "alpha_matrix",
    "beta_matrix", "MetricModel",
    "ScalarForm", "gamma_weight", "graphene_f", "parse_form", "sample_metric",
    "PmlConfig", "apply_pml", "sigma_profile",
    "stretch_factor", "KrylovOptions", "KrylovReport", "gmres",
    "StepWorkspace", "cn_transport_step", "half_potential_step",
    "poly_axis_step", "strang_step", "build_dense_G",
    "dense_cn_step", "DiagnosticsRecord", "RunConfig", "SimulationResult",
    "convergence_sweep", "density", "gamma_norm", "initial_condition",
    "l2_norm", "parse_config", "preset_config", "read_snapshot",
    "restrict_to_coarse", "run_simulation", "serialize_config",
    "write_diagnostics", "write_snapshot",
]
__version__ = "0.1.0"
