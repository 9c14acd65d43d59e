"""Asymptotic quantities of constrained-training-error regression as
functions of (gamma, sigma2, eps2) for an isotropic population.

The central objects are spectral integrals against the Marchenko-Pastur
law H:

    train(rho) = int sigma2^2 / ((1 - rho s)^2 (s + sigma2)) dH(s)
    cost(rho)  = (rho^2 / gamma) int sigma2^2 s / ((1 - rho s)^2 (s + sigma2)) dH(s)

train(0) is the memorization threshold; above it, the multiplier rho(eps2)
solving train(rho) = eps2 determines the asymptotic cost of not fitting.
Both integrals, and those of the rho_ols equation, are evaluated in closed
form from the MP resolvent bound by ``mp_shrinkage`` in the edge distance
delta = 1 - rho lambda_plus, which every multiplier is solved for by
``numerics.solve_multiplier``.  ``_ConstrainedLaw`` holds the constraint
once, for ``LimitReduction`` and a design's ``finite_n_lab._Reduction``
alike: delta at a fixed rho, the eps2 solve and the cost.  rho =
(1 - delta)/lambda_plus is formed only for output.

``LimitReduction(gamma, sigma2)`` is the entry point: one per (gamma,
sigma2) holds the isotropic law and every number derived from it, and its
constructor is the one place sigma2 (a plain float in [1e-100, 1e100]) and
then gamma are checked.  An anisotropic population's deformed law is
``deformed.DeformedReduction``, which imports this module.  Everything is
exposed in eps^2 units (squared training error).
"""

from __future__ import annotations

import functools
import math
from enum import Enum
from typing import NamedTuple, Optional

from .errors import ConsistencyError, DomainError, RegimeError
from .numerics import check_sigma2, solve_multiplier
from .spectra import MPLaw, mp_shrinkage

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

    ``delta`` = 1 - rho top in (0, 1], top the limit law's lambda_plus or a
    design's top eigenvalue, is 1 exactly when the constraint is inactive (at
    or below the threshold); ``residual`` is the plugged-back defining-equation
    mismatch, 0 by convention when the constraint is inactive; ``target_eps2``
    echoes the squared training error aimed at.
    """

    delta: float
    top: float
    residual: float
    target_eps2: float

    @property
    def rho(self) -> float:
        return (1.0 - self.delta) / self.top

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

    With a population spectrum (``deformed.DeformedReduction``), ``eps_def2``
    is the deformed threshold, and ``eps_def2_upper_bound`` = kappa sigma2^2
    m(-kappa sigma2), with m the Marchenko-Pastur resolvent and kappa the
    condition number, bounds it from above.
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


class _ConstrainedLaw:
    """The training-error constraint in delta = 1 - rho top, for the limit law and a design alike.

    A subclass gives ``top`` (named in ``_top_name``), ``gap``, ``growth(delta)``
    and ``train(delta)``, decreasing on (0, 1] and diverging at delta = 0.
    """

    def delta(self, rho: float) -> float:
        """delta = 1 - rho top for a fixed rho; RegimeError, naming the top, unless 0 <= rho top < 1."""
        if not 0.0 <= rho * self.top < 1.0:
            raise RegimeError(f"rho with top = {self._top_name} requires 0 <= rho * top < 1, "
                              f"got rho * top = {rho * self.top!r}")
        return 1.0 - rho * self.top

    def bracket(self, eps2: float) -> tuple[float, float] | None:
        return None  # no tighter bracket is known: solve on [tiny, 1]

    def solve(self, eps2: float) -> RhoSolution:
        """rho(eps2) solving train = eps2 (``numerics.solve_multiplier``), 0 at or below the threshold.

        Raises DomainError unless 0 <= eps2 < inf, and NearDivergenceError for an
        eps2 past the float range of train.
        """
        if not 0.0 <= eps2 < math.inf:
            raise DomainError(f"eps2 must be finite and nonnegative, got {eps2}")
        delta, residual = solve_multiplier(self.train, eps2, "rho(eps2)", self.bracket(eps2))
        return RhoSolution(delta, self.top, residual, eps2)

    def cost(self, eps2: Optional[float] = None, rho: Optional[float] = None) -> CostPoint:
        """Cost (``growth``) and cost - gap at eps2, or at a fixed rho (-0.0 read as 0.0), with eps2 = train."""
        if eps2 is None:
            delta = self.delta(rho)
            eps2, rho = self.train(delta), rho + 0.0
        else:
            sol = self.solve(eps2)
            delta, rho = sol.delta, sol.rho
        cost = self.growth(delta)
        return CostPoint(eps2=eps2, rho=rho, cost=cost, costbar=cost - self.gap)


class LimitReduction(_ConstrainedLaw):
    """The isotropic limit law at one (gamma, sigma2) and every number derived from it.

    The numbers are ``threshold``, ``approx``, ``solve(eps2)``, ``cost(eps2)``,
    ``gap``, ``ols``, ``linear_bound()`` and ``report()``.  ``threshold``,
    ``gap`` and ``ols`` are computed on first use and kept.  train and growth
    (the cost) in delta = 1 - rho lambda_plus are the twins of those of
    ``finite_n_lab._Reduction``.  sigma2 is checked before gamma.
    """

    _top_name = "lambda_plus"

    def __init__(self, gamma: float, sigma2: float):
        check_sigma2(sigma2)
        self.law, self.sigma2 = MPLaw(gamma), sigma2
        self.top = self.law.lambda_plus
        self._shrink = mp_shrinkage(self.law, sigma2)  # the resolvent at a = sigma2, bound once

    def train(self, delta: float) -> float:
        return self.sigma2**2 * self._shrink(delta)[0]

    def growth(self, delta: float) -> float:
        rho, s2 = (1.0 - delta) / self.top, self.sigma2
        return rho * rho / self.law.gamma * s2 * s2 * self._shrink(delta)[1]

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

        This is the isotropic family, c = 2/(lambda_minus^2 + sigma2); the
        condition-number-mitigated one is ``deformed.DeformedReduction``'s.
        """
        gamma, s2, lm, lp = self.law.gamma, self.sigma2, self.law.lambda_minus, self.top
        return BoundConstants(c_small=2.0 / (lm * lm + s2),
                              C_growth=(1.0 - 1.0 / math.sqrt(2.0)) ** 2 * lm / (lp**2 * gamma))

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

    def report(self) -> ThresholdReport:
        """Assemble the threshold family, checking the expected ordering."""
        eps_sigma2, eps_ols2 = self.threshold, self.ols.target_eps2
        ratio = (2.0 * self.top / self.law.lambda_minus) ** 2
        if not (eps_sigma2 < eps_ols2 <= ratio * eps_sigma2 * (1.0 + 1e-12)):
            raise ConsistencyError(
                f"threshold ordering violated: {eps_sigma2}, {eps_ols2}, cap {ratio * eps_sigma2}"
            )
        return ThresholdReport(
            eps_sigma2=eps_sigma2, eps_sigma2_approx=self.approx, eps_ols2=eps_ols2,
            rho_ols=self.ols.rho)


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
