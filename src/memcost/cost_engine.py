"""Asymptotic quantities of constrained-training-error regression as
functions of (gamma, sigma2, eps2, population spectrum).

The central objects are spectral integrals against the Marchenko-Pastur
law H:

    train(rho) = int sigma2^2 / ((1 - rho s)^2 (s + sigma2)) dH(s)
    cost(rho)  = (rho^2 / gamma) int sigma2^2 s / ((1 - rho s)^2 (s + sigma2)) dH(s)

train(0) is the memorization threshold; above it, the multiplier rho(eps2)
solving train(rho) = eps2 determines the asymptotic cost of not fitting.
Both integrals, and those of the rho_ols and rho_def equations, are
evaluated in closed form from the MP resolvent (``mp_shrinkage_integrals``).
Every rho is found by ``numerics.solve_multiplier``, the solver the
finite-n lab uses too: requests whose root lies at or past its cap
(1 - 1e-8)/lambda_plus fail loudly, because the constraint integral
diverges at the upper spectral edge.

Everything is exposed in eps^2 units (squared training error).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .deformed import DeformedLaw, PopulationSpectrum, deformed_threshold
from .errors import (
    ConsistencyError,
    DomainError,
    RegimeError,
)
from .numerics import check_sigma2, solve_multiplier
from .spectra import MPLaw, mp_shrinkage_integrals, mp_stieltjes_neg

__all__ = [
    "NoiseLevel",
    "Regime",
    "RhoSolution",
    "CostPoint",
    "ThresholdReport",
    "BoundConstants",
    "memorization_threshold",
    "threshold_approx",
    "solve_rho",
    "cost_at_rho",
    "asymptotic_cost",
    "cost_linear_bound",
    "ols_gap",
    "solve_rho_ols",
    "solve_rho_def",
    "anisotropic_cost_lower_bound",
    "threshold_report",
]

@dataclass(frozen=True)
class NoiseLevel:
    """Label noise variance, 1e-100 <= sigma2 <= 1e100 (see ``check_sigma2``)."""

    sigma2: float

    def __post_init__(self):
        check_sigma2(self.sigma2)


class Regime(str, Enum):
    BELOW_THRESHOLD = "below_threshold"
    ABOVE_THRESHOLD = "above_threshold"

    @classmethod
    def of(cls, rho: float) -> "Regime":
        """Below the threshold exactly when the multiplier is 0 (constraint inactive)."""
        return cls.BELOW_THRESHOLD if rho == 0.0 else cls.ABOVE_THRESHOLD


@dataclass(frozen=True)
class RhoSolution:
    """A solved training-error multiplier.

    ``rho`` is 0 exactly when the constraint is inactive (at or below the
    threshold); ``residual`` is the plugged-back defining-equation mismatch,
    0 by convention when the constraint is inactive; ``target_eps2`` echoes
    the squared training error the solve was aimed at.
    """

    rho: float
    residual: float
    target_eps2: float

    def __post_init__(self):
        if self.rho < 0:
            raise DomainError(f"rho must be nonnegative, got {self.rho}")

    @property
    def regime(self) -> Regime:
        return Regime.of(self.rho)


@dataclass(frozen=True)
class CostPoint:
    """One point of the cost curve at squared training error eps2.

    ``cost`` is the excess over the best unconstrained estimator (0 below
    the threshold); ``costbar`` measures against the minimum-norm
    interpolant instead, i.e. cost minus the interpolation gap.
    """

    eps2: float
    rho: float
    cost: float
    costbar: float


@dataclass(frozen=True)
class ThresholdReport:
    """The threshold family at one (gamma, sigma2) point.

    With a population spectrum, ``eps_def2`` is the deformed threshold, and
    ``eps_def2_upper_bound`` = kappa sigma2^2 m(-kappa sigma2), with m the
    Marchenko-Pastur resolvent and kappa the condition number, bounds it
    from above.
    """

    eps_sigma2: float
    eps_sigma2_approx: float
    eps_ols2: float
    rho_ols: float
    eps_def2: Optional[float] = None
    eps_def2_upper_bound: Optional[float] = None


@dataclass(frozen=True)
class BoundConstants:
    """Constants (c, C) of the linear cost growth guarantee.

    The cost is at least C * eps2 whenever eps2 >= c * sigma2^2.
    """

    c_small: float
    C_growth: float
    kappa: float = 1.0

    def __post_init__(self):
        if self.c_small <= 0 or self.C_growth <= 0:
            raise DomainError("bound constants must be positive")


def _train(law: MPLaw, sigma2: float, rho: float) -> float:
    """train(rho); at rho = 0 it equals memorization_threshold bit for bit."""
    return sigma2**2 * mp_shrinkage_integrals(law, rho, sigma2)[0]


def _inverse_moment(law: MPLaw, a: float) -> float:
    """int 1/(s (s + a)) dH = (1/(1 - 1/gamma) - int 1/(s + a) dH)/a, without cancellation.

    With c = 1/gamma, A = 1 - c + a and D = A^2 + 4ac, the difference equals
    4a/((1 - c)(A + sqrt D)(sqrt D + 1 - c - a)); subtracting the two terms
    instead loses about -log10(a) digits as a -> 0.
    """
    c = 1.0 / law.gamma
    big = 1.0 - c + a
    root = math.sqrt(big * big + 4.0 * a * c)
    b = 1.0 - c - a
    # root + b = 4a / (root - b): use the form that adds terms of one sign
    tail = root + b if b >= 0.0 else 4.0 * a / (root - b)
    return 4.0 / ((1.0 - c) * (big + root) * tail)


def memorization_threshold(gamma: float, noise: NoiseLevel) -> float:
    """Largest eps2 whose constraint is asymptotically free: train(0).

    Evaluated in closed form as sigma2^2 * int 1/(s + sigma2) dH(s).
    """
    law = MPLaw(gamma)
    return noise.sigma2**2 * mp_stieltjes_neg(law, noise.sigma2)


def threshold_approx(gamma: float, noise: NoiseLevel) -> float:
    """Small-noise approximation sigma2^2 / (sigma2 + 1 - 1/gamma)."""
    if not gamma > 1:
        raise RegimeError(f"requires gamma > 1, got {gamma}")
    s2 = noise.sigma2
    return s2 * s2 / (s2 + 1.0 - 1.0 / gamma)


def solve_rho(gamma: float, noise: NoiseLevel, eps2: float) -> RhoSolution:
    """Multiplier rho(eps2) solving train(rho) = eps2 above the threshold.

    Returns rho = 0 (constraint inactive) for eps2 at or below the
    threshold; otherwise solves below the cap (1 - 1e-8)/lambda_plus
    (see ``numerics.solve_multiplier``) and reports the plugged-back
    residual.

    Raises
    ------
    DomainError
        Unless 0 <= eps2 < inf.
    NearDivergenceError
        If even the capped rho cannot reach eps2.
    """
    if not 0.0 <= eps2 < math.inf:
        raise DomainError(f"eps2 must be finite and nonnegative, got {eps2}")
    law = MPLaw(gamma)
    rho, residual = solve_multiplier(
        lambda rho: _train(law, noise.sigma2, rho), law.lambda_plus, eps2, "rho(eps2)"
    )
    return RhoSolution(rho, residual, eps2)


def cost_at_rho(gamma: float, noise: NoiseLevel, rho: float) -> float:
    """Cost at a given multiplier: (rho^2/gamma) int sigma2^2 s/((1 - rho s)^2 (s + sigma2)) dH.

    Zero at rho = 0.  Raises DomainError unless 0 <= rho < 1/lambda_plus.
    """
    law = MPLaw(gamma)
    s2 = noise.sigma2
    return rho * rho / gamma * s2 * s2 * mp_shrinkage_integrals(law, rho, s2)[1]


def asymptotic_cost(gamma: float, noise: NoiseLevel, eps2: float) -> CostPoint:
    """Asymptotic cost of not fitting at eps2, plus the interpolant-relative cost.

    cost = cost_at_rho(rho(eps2)), which is 0 below the threshold;
    costbar = cost - ols_gap(gamma, sigma2).
    """
    sol = solve_rho(gamma, noise, eps2)
    cost = cost_at_rho(gamma, noise, sol.rho)
    return CostPoint(eps2=eps2, rho=sol.rho, cost=cost, costbar=cost - ols_gap(gamma, noise))


def cost_linear_bound(
    gamma: float, noise: NoiseLevel, kappa: float = 1.0, anisotropic: Optional[bool] = None
) -> BoundConstants:
    """Constants of the linear growth guarantee cost >= C * eps2 for eps2 >= c * sigma2^2.

    Two families are implemented.  The isotropic family (default at
    kappa = 1) has c = 2/(lambda_minus^2 + sigma2); the condition-number-
    mitigated family has c = 2 kappa/(lambda_minus + kappa sigma2), which
    differs from the isotropic one even at kappa = 1 (linear rather than
    quadratic in the lower edge).  Pass ``anisotropic=True`` to force the
    mitigated family at kappa = 1.
    """
    if kappa < 1:
        raise DomainError(f"kappa must be >= 1, got {kappa}")
    law = MPLaw(gamma)
    lm, lp = law.lambda_minus, law.lambda_plus
    shrink = (1.0 - 1.0 / math.sqrt(2.0)) ** 2
    if anisotropic is None:
        anisotropic = kappa != 1.0
    if anisotropic:
        c = 2.0 * kappa / (lm + kappa * noise.sigma2)
        C = lm * shrink / (kappa * lp**2 * gamma)
    else:
        c = 2.0 / (lm * lm + noise.sigma2)
        C = shrink * lm / (lp**2 * gamma)
    return BoundConstants(c_small=c, C_growth=C, kappa=kappa)


def ols_gap(gamma: float, noise: NoiseLevel) -> float:
    """Asymptotic prediction-error gap of the minimum-norm interpolant over ridge.

    The gap is (sigma2^2/gamma) int 1/(s (s + sigma2)) dH, with the
    integral in closed form (``_inverse_moment``).  The small-noise limit
    of gap/sigma2^2 is 1/(gamma (1 - 1/gamma)^3).
    """
    s2 = noise.sigma2
    return s2 * s2 / gamma * _inverse_moment(MPLaw(gamma), s2)


def solve_rho_ols(gamma: float, noise: NoiseLevel) -> RhoSolution:
    """Multiplier rho_ols at which the interpolant-relative cost changes sign.

    Solves rho^2 int s/((1 - rho s)^2 (s + sigma2)) dH =
    int 1/(s (s + sigma2)) dH, both sides in closed form, which has a
    unique root in (1/(2 lambda_plus), 1/lambda_plus) for any sigma2 > 0.
    The solution's ``target_eps2`` carries the induced interpolation
    threshold.

    Near gamma = 1 that root lies within RHO_CAP_MARGIN (relative) of
    1/lambda_plus, past the solver's cap, and the solve raises
    NearDivergenceError: for gamma below about 1.124 as sigma2 -> 0, 1.016
    at sigma2 = 0.1 and 1.002 at sigma2 = 1 (for example gamma = 1.05 with
    sigma2 = 0.01).  The cap stays because from it on one ulp of rho moves
    train(rho) by 1.1e-8 relative or more.
    """
    law = MPLaw(gamma)
    s2 = noise.sigma2
    rho, residual = solve_multiplier(
        lambda rho: rho * rho * mp_shrinkage_integrals(law, rho, s2)[1],
        law.lambda_plus,
        _inverse_moment(law, s2),
        "rho_ols",
    )
    return RhoSolution(rho, residual, _train(law, s2, rho))


def solve_rho_def(
    gamma: float, pop: PopulationSpectrum, noise: NoiseLevel, eps2: float
) -> RhoSolution:
    """Multiplier rho_def for anisotropic covariance with spectrum ``pop``.

    Solves, with kappa the population condition number and all integrals
    against the isotropic law H,

        kappa sigma2^2 (int 1/((1 - rho s)^2 (s + kappa sigma2)) dH
                        - int 1/(s + kappa sigma2) dH)
        = eps2 - deformed_threshold.

    Below the deformed threshold the cost is zero and this raises a
    regime error; exactly at it, rho_def = 0.
    """
    law = MPLaw(gamma)
    s2 = noise.sigma2
    kappa = pop.kappa
    ks2 = kappa * s2
    thresh = deformed_threshold(DeformedLaw(gamma, pop), s2)
    rhs = eps2 - thresh
    if rhs < 0:
        raise RegimeError(
            f"eps2={eps2} is below the deformed threshold {thresh}; no cost there"
        )
    scale = kappa * s2 * s2
    j0 = mp_stieltjes_neg(law, ks2)
    # the level is exactly 0 at rho = 0, so rhs == 0 gives rho_def = 0
    rho, residual = solve_multiplier(
        lambda rho: scale * (mp_shrinkage_integrals(law, rho, ks2)[0] - j0),
        law.lambda_plus,
        rhs,
        f"rho_def(eps2={eps2!r})",
    )
    return RhoSolution(rho, residual, eps2)


def anisotropic_cost_lower_bound(
    gamma: float, pop: PopulationSpectrum, noise: NoiseLevel, eps2: float
) -> float:
    """Proved lower bound on the anisotropic cost of not fitting at eps2.

    Returns (rho_def^2/gamma) int sigma2^2 s/((1 - rho_def s)^2 (s + sigma2)) dH.
    Only the lower bound is exposed: the exact anisotropic limit is not
    available, and reporting one would overstate what is known.
    """
    return cost_at_rho(gamma, noise, solve_rho_def(gamma, pop, noise, eps2).rho)


def threshold_report(
    gamma: float, noise: NoiseLevel, pop: Optional[PopulationSpectrum] = None
) -> ThresholdReport:
    """Assemble the threshold family, checking the expected ordering."""
    eps_sigma2 = memorization_threshold(gamma, noise)
    ols = solve_rho_ols(gamma, noise)
    eps_ols2 = ols.target_eps2
    law = MPLaw(gamma)
    ratio = (2.0 * law.lambda_plus / law.lambda_minus) ** 2
    if not (eps_sigma2 < eps_ols2 <= ratio * eps_sigma2 * (1.0 + 1e-12)):
        raise ConsistencyError(
            f"threshold ordering violated: {eps_sigma2}, {eps_ols2}, cap {ratio * eps_sigma2}"
        )
    eps_def2 = bound = None
    if pop is not None:
        eps_def2 = deformed_threshold(DeformedLaw(gamma, pop), noise.sigma2)
        kappa = pop.kappa
        bound = kappa * noise.sigma2**2 * mp_stieltjes_neg(law, kappa * noise.sigma2)
    return ThresholdReport(
        eps_sigma2=eps_sigma2,
        eps_sigma2_approx=threshold_approx(gamma, noise),
        eps_ols2=eps_ols2,
        rho_ols=ols.rho,
        eps_def2=eps_def2,
        eps_def2_upper_bound=bound,
    )
