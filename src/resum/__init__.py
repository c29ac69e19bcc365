"""Summation toolkit for divergent (and convergent) power series.

Order-dependent mappings, Borel-Leroy transforms with conformal mapping of
the Borel plane, Borel-Pade, and plain Pade approximants, plus generators
and independent oracles for the classic quartic benchmark series.
"""

from .borel import (
    borel_leroy_transform,
    borel_pade_sum,
    borel_sum,
    conformal_map_coeffs,
)
from .errors import (
    DegeneracyError,
    DiagnosticError,
    DomainError,
    FitError,
    FixedPointError,
    ParseError,
    PoleError,
    ResourceError,
    ResumError,
    SelectionError,
    SolverError,
    SummabilityError,
    UsageError,
)
from .mapping import (
    MappingFamily,
    MappingSpec,
    RhoPolynomialTable,
    build_rho_table,
    g_of_lambda,
    lambda_of_g,
    zeta_series,
)
from .models import (
    RgSeriesSet,
    anharmonic_ground_coeffs,
    anharmonic_ground_value,
    d0_partition_coeffs,
    d0_partition_value,
    eta_over_g2_series,
    nu_inv_series,
    rg_series,
)
from .odm import (
    ConvergenceStudy,
    ExponentsResult,
    FixedPointResult,
    LinearFit,
    OdmReport,
    RhoSelectionCriterion,
    SelectionMode,
    convergence_study,
    exponents_at,
    fixed_point,
    odm_value,
    polynomial_real_roots,
    select_rho,
)
from .pade import PadeApproximant, pade_eval, pade_fit
from .precision import DEFAULT_DIGITS, MIN_DIGITS
from .saddle import SaddleSolution, d0_exact_rate, predicted_R, solve_saddle
from .series import (
    PowerSeries,
    binomial_series,
    compose,
    multiply,
    ratio_growth_constant,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
