"""Memorization thresholds, cost-of-not-fitting curves, and a finite-sample
Monte Carlo laboratory for overparameterized linear regression.

The package namespace holds the limit-law theory, which needs only the
standard library; the numpy-backed laboratory is ``memcost.finite_n_lab``
and the quadrature oracle is ``memcost.oracle``.
"""

from .cost_engine import (
    BoundConstants,
    CostPoint,
    LimitReduction,
    Regime,
    RhoSolution,
    ThresholdReport,
)
from .deformed import (DeformedReduction, PopulationSpectrum, load_population_spectrum,
                       parse_population_spectrum)
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
from .spectra import MPLaw, mp_cdf, mp_shrinkage, mp_stieltjes_neg

__version__ = "0.1.0"
