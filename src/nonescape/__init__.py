"""Resonant-state expansion of the quantum nonescape probability.

A particle prepared inside a finite-range repulsive potential leaks out; the
probability P(t) of still finding it inside the interaction region admits an
expansion over resonant (Gamow) states whose long-time behavior is disputed:
a t^-1 law survives for every finite truncation of the expansion, while the
tail coefficient that carries it vanishes as the truncation grows, leaving
t^-3.  This package builds the expansion from scratch (pole search, state
normalization, overlap algebra, Moshinsky time kernels), measures the
competing tail coefficients, and cross-validates everything against a direct
Crank-Nicolson integration of the Schrodinger equation.

Units: hbar = 2m = 1, so energies are k^2 and the free dispersion reads
i psi_t = -psi_rr.
"""

from __future__ import annotations

from .asymptote import (
    SlopeFit,
    TailCoefficients,
    TailReport,
    convergence_study,
    crossover_time,
    moment_sum,
    moment_sum_quadrature,
    post_exponential_window,
    slope_fit,
    tail_coefficient_t1,
    tail_expansion,
)
from .dynamics import (
    NonescapeSeries,
    ProbabilitySums,
    TimeGrid,
    default_time_grid,
    gamma_width,
    lifetime,
    nonescape_probability,
    probability_sums,
    probability_window,
)
from .errors import (
    AxisZero,
    ConfigError,
    DomainError,
    EmptyWindow,
    EquivalenceViolation,
    HorizonTooShort,
    InvalidPotential,
    InvalidState,
    NonescapeError,
    NonPositiveProbability,
    NormalizationSingular,
    OverflowGuard,
    RootPolishFailure,
    ToleranceNotMet,
    TruncationUnstable,
    UnstableParameters,
    WindingMismatch,
    ZeroWavenumber,
)
from .gamow import (
    ExpansionData,
    GamowState,
    StateDiagnostics,
    build_expansion,
    build_state,
    expansion_coefficient,
    overlap_matrix,
    overlap_quadrature,
    reconstruct_initial,
    sum_rule_residual,
    validate_state,
    weighted_field,
)
from .model import (
    BoxMode,
    DeltaShell,
    InitialState,
    PiecewiseConstant,
    Potential,
    Sampled,
    delta_jump,
    evaluate_potential,
    initial_wavefunction,
    normalized,
    potential_range,
    segments,
    state_norm,
    support_radius,
)
from .oracle import (
    GridSpec,
    OracleResult,
    RefinementReport,
    evolve_tdse,
    gaussian_packet_exact,
    refine_and_compare,
    sampled_gaussian,
)
from .poles import (
    PoleSet,
    ResonancePole,
    SearchWindow,
    locate_poles,
    matching_function,
    mirror_state_rule,
    winding_count,
)
from .specfn import (
    TAIL_PREFACTOR,
    MoshinskyArg,
    asymptotic_coefficients,
    faddeeva,
    moshinsky,
    moshinsky_asymptotic,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "PiecewiseConstant",
    "DeltaShell",
    "Potential",
    "BoxMode",
    "Sampled",
    "InitialState",
    "potential_range",
    "segments",
    "delta_jump",
    "evaluate_potential",
    "initial_wavefunction",
    "support_radius",
    "state_norm",
    "normalized",
    # special functions
    "faddeeva",
    "moshinsky",
    "MoshinskyArg",
    "moshinsky_asymptotic",
    "asymptotic_coefficients",
    "TAIL_PREFACTOR",
    # poles
    "SearchWindow",
    "ResonancePole",
    "PoleSet",
    "matching_function",
    "winding_count",
    "locate_poles",
    "mirror_state_rule",
    # gamow states and expansion
    "GamowState",
    "StateDiagnostics",
    "build_state",
    "validate_state",
    "overlap_quadrature",
    "overlap_matrix",
    "expansion_coefficient",
    "ExpansionData",
    "build_expansion",
    "weighted_field",
    "sum_rule_residual",
    "reconstruct_initial",
    # dynamics
    "TimeGrid",
    "default_time_grid",
    "gamma_width",
    "lifetime",
    "NonescapeSeries",
    "ProbabilitySums",
    "probability_sums",
    "nonescape_probability",
    "probability_window",
    # asymptotics
    "TailCoefficients",
    "tail_coefficient_t1",
    "tail_expansion",
    "moment_sum",
    "moment_sum_quadrature",
    "crossover_time",
    "SlopeFit",
    "slope_fit",
    "post_exponential_window",
    "TailReport",
    "convergence_study",
    # oracle
    "GridSpec",
    "OracleResult",
    "evolve_tdse",
    "RefinementReport",
    "refine_and_compare",
    "gaussian_packet_exact",
    "sampled_gaussian",
    # errors
    "NonescapeError",
    "ConfigError",
    "InvalidPotential",
    "InvalidState",
    "DomainError",
    "OverflowGuard",
    "ZeroWavenumber",
    "AxisZero",
    "WindingMismatch",
    "RootPolishFailure",
    "NormalizationSingular",
    "ToleranceNotMet",
    "TruncationUnstable",
    "NonPositiveProbability",
    "EmptyWindow",
    "EquivalenceViolation",
    "UnstableParameters",
    "HorizonTooShort",
]
