"""Asymptotic quantities of constrained-training-error regression as
functions of (gamma, sigma2, eps2, population spectrum).

The central objects are spectral integrals against the Marchenko-Pastur
law H:

    train(rho) = int sigma2^2 / ((1 - rho s)^2 (s + sigma2)) dH(s)
    cost(rho)  = (rho^2 / gamma) int sigma2^2 s / ((1 - rho s)^2 (s + sigma2)) dH(s)

train(0) is the memorization threshold; above it, the multiplier rho(eps2)
solving train(rho) = eps2 determines the asymptotic cost of not fitting.
Both integrals, and those of the rho_ols and rho_def equations, are
evaluated in closed form from the MP resolvent bound by ``mp_shrinkage``
in the edge distance delta = 1 - rho lambda_plus, which every multiplier is
solved for by ``numerics.solve_multiplier``; ``numerics.constrain`` reaches it
from an eps2 target or a fixed rho on a ``LimitReduction``, as the lab does on
a design.  rho = (1 - delta)/lambda_plus is formed only for output.

``LimitReduction(gamma, sigma2, pop=None)`` is the entry point: one per
(gamma, sigma2, population) holds the law and every number derived from it,
among them the anisotropic ones read from one Silverstein root, and its
constructor is the one place sigma2 (a plain float in [1e-100, 1e100]) and
then gamma are checked.  Everything is exposed in eps^2 units (squared
training error).
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple, Optional

from .deformed import PopulationSpectrum, _silverstein_root
from .errors import ConsistencyError, DomainError, RegimeError
from .numerics import check_sigma2, edge_distance, solve_multiplier
from .spectra import MPLaw, mp_shrinkage, mp_stieltjes_neg

__all__ = [
    "Regime",
    "RhoSolution",
    "CostPoint",
    "ThresholdReport",
    "BoundConstants",
    "LimitReduction",
]

class Regime(str, Enum):
    BELOW_THRESHOLD = "below_threshold"
    ABOVE_THRESHOLD = "above_threshold"

    @classmethod
    def of(cls, rho: float) -> "Regime":
        """Below the threshold exactly when the multiplier is 0 (constraint inactive)."""
        return cls.BELOW_THRESHOLD if rho == 0.0 else cls.ABOVE_THRESHOLD


class RhoSolution(NamedTuple):
    """A solved training-error multiplier, held as its edge distance.

    ``delta`` = 1 - rho lambda_plus in (0, 1] is 1 exactly when the constraint
    is inactive (at or below the threshold); ``residual`` is the plugged-back
    defining-equation mismatch, 0 by convention when the constraint is
    inactive; ``target_eps2`` echoes the squared training error aimed at.
    """

    delta: float
    lambda_plus: float
    residual: float
    target_eps2: float

    @property
    def rho(self) -> float:
        return (1.0 - self.delta) / self.lambda_plus

    @property
    def regime(self) -> Regime:
        return Regime.of(self.rho)


class CostPoint(NamedTuple):
    """One point of the cost curve at squared training error eps2.

    ``cost`` is the excess over the best unconstrained estimator (0 below
    the threshold); ``costbar`` measures against the minimum-norm
    interpolant instead, i.e. cost minus the interpolation gap.
    """

    eps2: float
    rho: float
    cost: float
    costbar: float


class ThresholdReport(NamedTuple):
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


class BoundConstants(
    NamedTuple("BoundConstants", [("c_small", float), ("C_growth", float), ("kappa", float)])
):
    """Constants (c, C) of the linear cost growth guarantee.

    The cost is at least C * eps2 whenever eps2 >= c * sigma2^2.
    """

    __slots__ = ()

    def __new__(cls, c_small: float, C_growth: float, kappa: float = 1.0):
        if not (c_small > 0 and C_growth > 0):
            raise DomainError("bound constants must be positive")
        return super().__new__(cls, c_small, C_growth, kappa)


class LimitReduction:
    """The limit law at one (gamma, sigma2, pop) and every number derived from it.

    The isotropic numbers are ``threshold``, ``approx``, ``solve(eps2)``,
    ``cost(eps2)``, ``gap`` and ``ols``; given a population spectrum ``pop``,
    so are the anisotropic ones ``eps_def2``, ``solve_def(eps2)`` and
    ``bound(eps2)``.  ``report()`` and ``linear_bound()`` read ``pop`` when it
    is given.  ``threshold``, ``gap``, ``ols``, the Silverstein root ``m_def``
    and ``eps_def2`` are computed on first use and kept; ``threshold`` is the
    isotropic threshold whether or not ``pop`` is given.  train and growth (the
    cost) in delta = 1 - rho lambda_plus are the twins of those of
    ``finite_n_lab._Reduction``.  sigma2 is checked before gamma.
    """

    def __init__(self, gamma: float, sigma2: float, pop: Optional[PopulationSpectrum] = None):
        check_sigma2(sigma2)
        self.law, self.sigma2, self.pop = MPLaw(gamma), sigma2, pop
        self.top = self.law.lambda_plus
        self._shrink = mp_shrinkage(self.law, sigma2)  # the resolvent at a = sigma2, bound once

    def delta(self, rho: float, context: str = "") -> float:
        return edge_distance(rho, self.top, f"{context}rho with top = lambda_plus")

    def train(self, delta: float) -> float:
        return self.sigma2**2 * self._shrink(delta)[0]

    def growth(self, delta: float) -> float:
        rho, s2 = (1.0 - delta) / self.top, self.sigma2
        return rho * rho / self.law.gamma * s2 * s2 * self._shrink(delta)[1]

    def bracket(self, eps2: float) -> None:
        return None  # so solve_multiplier keeps [tiny, 1]

    @functools.cached_property
    def threshold(self) -> float:
        """Largest eps2 whose constraint is asymptotically free: sigma2^2 int 1/(s + sigma2) dH."""
        return self.train(1.0)

    @property
    def approx(self) -> float:
        """Small-noise approximation sigma2^2 / (sigma2 + 1 - 1/gamma) of the threshold."""
        s2 = self.sigma2
        return s2 * s2 / (s2 + 1.0 - 1.0 / self.law.gamma)

    def linear_bound(self) -> BoundConstants:
        """Constants of the linear growth guarantee cost >= C * eps2 for eps2 >= c * sigma2^2.

        Without ``pop`` this is the isotropic family, c = 2/(lambda_minus^2 +
        sigma2).  With ``pop`` it is the condition-number-mitigated family at
        kappa = ``pop.kappa``, c = 2 kappa/(lambda_minus + kappa sigma2), which
        differs from the isotropic one even at kappa = 1 (linear rather than
        quadratic in the lower edge).
        """
        gamma, s2, lm, lp = self.law.gamma, self.sigma2, self.law.lambda_minus, self.top
        iso_growth = (1.0 - 1.0 / math.sqrt(2.0)) ** 2 * lm / (lp**2 * gamma)
        if self.pop is None:
            return BoundConstants(c_small=2.0 / (lm * lm + s2), C_growth=iso_growth)
        kappa = self.pop.kappa
        return BoundConstants(
            c_small=2.0 * kappa / (lm + kappa * s2),
            # kappa last: the product kappa lp^2 gamma overflows for kappa gamma past 1.8e308
            C_growth=iso_growth / kappa,
            kappa=kappa,
        )

    @functools.cached_property
    def gap(self) -> float:
        """Prediction-error gap of the minimum-norm interpolant over ridge: the twin of the lab's.

        (sigma2^2/gamma) int 1/(s (s + sigma2)) dH, in closed form (``_inverse_moment``);
        the small-noise limit of gap/sigma2^2 is 1/(gamma (1 - 1/gamma)^3).
        """
        return self.sigma2 * self.sigma2 / self.law.gamma * _inverse_moment(self.law, self.sigma2)

    @functools.cached_property
    def ols(self) -> RhoSolution:
        """Multiplier rho_ols at which the interpolant-relative cost changes sign.

        Solves rho^2 int s/((1 - rho s)^2 (s + sigma2)) dH =
        int 1/(s (s + sigma2)) dH, both sides in closed form, which has a
        unique root in (1/(2 lambda_plus), 1/lambda_plus) for any sigma2 > 0.
        The solution's ``target_eps2`` carries the induced interpolation
        threshold, train at the solved edge distance, which tends to 0 as
        gamma -> 1+ (2.6e-14 at gamma = 1.01, sigma2 = 1e-4).
        """
        shrink, lp = self._shrink, self.top
        delta, residual = solve_multiplier(
            lambda x: ((1.0 - x) / lp) ** 2 * shrink(x)[1],
            _inverse_moment(self.law, self.sigma2),
            "rho_ols",
        )
        return RhoSolution(delta, lp, residual, self.train(delta))

    def solve(self, eps2: float) -> RhoSolution:
        """Multiplier rho(eps2) solving train(rho) = eps2 above the threshold.

        Returns rho = 0 (constraint inactive) for eps2 at or below the
        threshold; otherwise solves the edge distance delta (see
        ``numerics.solve_multiplier``) and reports the plugged-back residual.
        Raises DomainError unless 0 <= eps2 < inf, and NearDivergenceError
        for an eps2 past the float range of train.
        """
        if not 0.0 <= eps2 < math.inf:
            raise DomainError(f"eps2 must be finite and nonnegative, got {eps2}")
        delta, residual = solve_multiplier(self.train, eps2, "rho(eps2)")
        return RhoSolution(delta, self.top, residual, eps2)

    def cost(self, eps2: float) -> CostPoint:
        """Cost of not fitting at eps2 (``growth`` at rho(eps2), 0 below the threshold), and cost - gap."""
        sol = self.solve(eps2)
        cost = self.growth(sol.delta)
        return CostPoint(eps2=eps2, rho=sol.rho, cost=cost, costbar=cost - self.gap)

    @functools.cached_property
    def m_def(self) -> float:
        """Silverstein root m_G(-sigma2) = int 1/(s + sigma2) dG, G the deformed law of ``pop``."""
        if self.pop is None:
            raise DomainError("the deformed law needs a population spectrum")
        return _silverstein_root(self.pop, self.law.gamma, self.sigma2)

    @functools.cached_property
    def eps_def2(self) -> float:
        """Deformed threshold sigma2^2 m_G(-sigma2); the isotropic one for a point mass at 1."""
        return self.sigma2 * self.sigma2 * self.m_def

    def solve_def(self, eps2: float) -> RhoSolution:
        """Multiplier rho_def for the anisotropic covariance with spectrum ``pop``.

        Solves, with kappa the population condition number and all integrals
        against the isotropic law H,

            kappa sigma2^2 (int 1/((1 - rho s)^2 (s + kappa sigma2)) dH
                            - int 1/(s + kappa sigma2) dH)
            = eps2 - eps_def2.

        Below the deformed threshold the cost is zero and this raises a
        regime error; exactly at it, rho_def = 0.  Raises DomainError for a
        NaN or infinite eps2.
        """
        if not math.isfinite(eps2):
            raise DomainError(f"eps2 must be finite and nonnegative, got {eps2}")
        rhs = eps2 - self.eps_def2
        if rhs < 0:
            raise RegimeError(
                f"eps2={eps2} is below the deformed threshold {self.eps_def2}; no cost there")
        s2, kappa = self.sigma2, self.pop.kappa
        shrink, scale = mp_shrinkage(self.law, kappa * s2), kappa * s2 * s2
        j0 = shrink(1.0)[0]  # m(-kappa sigma2)
        # the level is exactly 0 at delta = 1, so rhs == 0 gives rho_def = 0
        delta, residual = solve_multiplier(
            lambda x: scale * (shrink(x)[0] - j0), rhs,
            f"rho_def(eps2={eps2!r})")
        return RhoSolution(delta, self.top, residual, eps2)

    def bound(self, eps2: float) -> float:
        """Proved lower bound on the anisotropic cost at eps2: ``growth`` at rho_def.

        Only the lower bound is exposed: the exact anisotropic limit is not
        available, and reporting one would overstate what is known.
        """
        return self.growth(self.solve_def(eps2).delta)

    def report(self) -> ThresholdReport:
        """Assemble the threshold family, checking the expected ordering."""
        law, sigma2, pop = self.law, self.sigma2, self.pop
        eps_sigma2, eps_ols2 = self.threshold, self.ols.target_eps2
        ratio = (2.0 * law.lambda_plus / law.lambda_minus) ** 2
        if not (eps_sigma2 < eps_ols2 <= ratio * eps_sigma2 * (1.0 + 1e-12)):
            raise ConsistencyError(
                f"threshold ordering violated: {eps_sigma2}, {eps_ols2}, cap {ratio * eps_sigma2}"
            )
        eps_def2 = bound = None
        if pop is not None:
            eps_def2 = self.eps_def2
            # kappa sigma2^2 m(-kappa sigma2) = sigma2 (x m(-x)) for x = kappa sigma2, and
            # x m(-x) = int x/(s + x) dH rounds to 1 for every x past the float range
            x = pop.kappa * sigma2
            bound = sigma2 * (x * mp_stieltjes_neg(law, x) if x < math.inf else 1.0)
        return ThresholdReport(
            eps_sigma2=eps_sigma2, eps_sigma2_approx=self.approx, eps_ols2=eps_ols2,
            rho_ols=self.ols.rho, eps_def2=eps_def2, eps_def2_upper_bound=bound)


def _inverse_moment(law: MPLaw, a: float) -> float:
    """int 1/(s (s + a)) dH = (1/(1 - 1/gamma) - int 1/(s + a) dH)/a, without cancellation.

    With c = 1/gamma, A = 1 - c + a and D = A^2 + 4ac, the difference equals
    4a/((1 - c)(A + sqrt D)(sqrt D + 1 - c - a)); subtracting the two terms
    instead loses about -log10(a) digits as a -> 0.
    """
    c = 1.0 / law.gamma
    one_c = (law.gamma - 1.0) / law.gamma  # 1 - c, without cancellation as gamma -> 1+
    big = one_c + a
    root = math.sqrt(big * big + 4.0 * a * c)
    b = one_c - a
    # root + b = 4a / (root - b): use the form that adds terms of one sign
    tail = root + b if b >= 0.0 else 4.0 * a / (root - b)
    return 4.0 / (one_c * (big + root) * tail)
