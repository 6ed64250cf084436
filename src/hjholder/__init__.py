"""Desk-scale verification toolkit for the Holder-regularity machinery of
coercive Hamilton-Jacobi equations: variational formulas, explicit barriers,
constant systems, scaling algebra, oscillation-decay measurement and a
rough-coefficient finite-difference solver."""

from .core import (
    EquationParams,
    GridFunction,
    HolderEstimate,
    ParabolicCylinder,
    load_grid,
    osc_over_cylinder,
    save_grid,
    shift_normalize,
)
from .extremal import SymMatrix, m_minus, m_plus, sym_eigs
from .variational import (
    BoundarySamples,
    PowerLagrangian,
    hopf_lax_eval,
    legendre_brute,
    legendre_closed,
    sample_parabolic_boundary,
    semi_lax_upper_bound,
)
from .barriers import (
    BumpFunction,
    FirstOrderConstants,
    SubsolutionBarrier,
    SupersolutionBarrier,
    VerificationGrid,
    bump_eval,
    find_supersolution_constants,
    first_order_constants,
    make_subsolution_barrier,
    subsolution_eval,
    subsolution_residual,
    supersolution_eval,
    supersolution_residual,
    two_case_oscillation_check,
)
from .scheme import (
    ExtremalDiffusion,
    HamiltonianSpec,
    SolveConfig,
    TraceDiffusion,
    comparison_check,
    discrete_residual,
    grid_from_callable,
    lm_norm,
    solve_hj,
)
from .oscillation import (
    check_improvement,
    fit_holder,
    holder_modulus_check,
    iterate_scales,
    measure_oscillations,
)
from .scaling import (
    ScaleReport,
    admissible_alpha,
    beta_window,
    calpha_scale,
    delta_exponent,
    lm_scaling_exponent,
    transform_coeffs,
)

__version__ = "0.1.0"
