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
    forward_dft_axis,
    inverse_dft_axis,
    make_grid,
    spectral_derivative,
)
from .spinor_algebra import (
    AlphaDiagonalization,
    alpha_matrix,
    beta_matrix,
    diagonalize_alpha,
    exp_dirac,
    expm_small,
)
from .geometry import (
    MetricModel,
    PotentialField,
    ScalarForm,
    connection_fields,
    gamma_weight,
    graphene_f,
    parse_form,
    potential_field,
    velocity_bound,
    velocity_fields,
)
from .pml import PmlConfig, apply_pml, sigma_profile, stretch_factor
from .krylov import KrylovOptions, KrylovReport, gmres
from .propagators import (
    StepWorkspace,
    cn_operator_apply,
    cn_transport_step,
    half_potential_step,
    poly_axis_step,
    poly_axis_step2,
    strang_step,
)
from .oracle import build_dense_G, dense_cn_step, reference_run, restrict_to_coarse
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
    run_simulation,
    serialize_config,
    write_diagnostics,
    write_snapshot,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
