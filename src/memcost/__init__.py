"""Memorization thresholds, cost-of-not-fitting curves, and a finite-sample
Monte Carlo laboratory for overparameterized linear regression."""

from .cost_engine import (
    BoundConstants,
    CostPoint,
    NoiseLevel,
    Regime,
    RhoSolution,
    ThresholdReport,
    anisotropic_cost_lower_bound,
    asymptotic_cost,
    cost_at_rho,
    cost_linear_bound,
    memorization_threshold,
    ols_gap,
    solve_rho,
    solve_rho_def,
    solve_rho_ols,
    threshold_approx,
    threshold_report,
)
from .deformed import (
    DeformedLaw,
    PopulationSpectrum,
    deformed_threshold,
    load_population_spectrum,
    parse_population_spectrum,
    silverstein_solve,
)
from .finite_n_lab import (
    AsymptoticTargets,
    DesignSample,
    EntryDist,
    ErrorReport,
    EstimatorMatrix,
    ExperimentConfig,
    GrowthBoundsReport,
    IdentityCheckReport,
    apportion_atoms,
    build_estimator,
    convergence_report,
    error_growth_trace,
    evaluate_design,
    growth_control_bounds_check,
    lagrangian_gradient_residual,
    matrix_identity_checks,
    max_feasible_rho,
    min_norm_interpolant_report,
    monte_carlo_response_check,
    pred_error_direct,
    run_trials,
    sample_design,
    train_error_direct,
    trial_metrics,
)
from .errors import (
    BracketError,
    ConsistencyError,
    ConvergenceError,
    DomainError,
    FeasibilityError,
    MemcostError,
    NearDivergenceError,
    RankError,
    RegimeError,
    SpectrumFormatError,
)
from .numerics import Interval
from .spectra import (
    EmpiricalSpectrum,
    MPLaw,
    bai_yin_check,
    esd_from_design,
    kolmogorov_distance,
    mp_cdf,
    mp_integrate,
    mp_shrinkage_integrals,
    mp_stieltjes_neg,
)

__version__ = "0.1.0"
