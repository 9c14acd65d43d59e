"""Isotropic Marchenko-Pastur limit law: support and closed-form resolvent
integrals.

The law for aspect ratio gamma = d/n > 1 has density

    dH(s) = (gamma / 2 pi) * sqrt((lp - s)(s - lm)) / s   on [lm, lp],

with edges lm = (1 - 1/sqrt(gamma))^2 and lp = (1 + 1/sqrt(gamma))^2.
Every integral the isotropic theory needs is a rational function of the
Stieltjes transform of H and its derivative, so production values come in
closed form (``mp_stieltjes_neg``, and ``mp_shrinkage``, bound once per
(law, a)), and so does the c.d.f. (``mp_cdf``).  Standard library only: the
quadrature that checks these forms is ``oracle.mp_integrate``, and empirical
spectra of sampled designs are in ``finite_n_lab``.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError, RegimeError

__all__ = [
    "MPLaw",
    "mp_stieltjes_neg",
    "mp_shrinkage",
    "mp_cdf",
]


class MPLaw(NamedTuple("MPLaw", [("gamma", float)])):
    """The limiting spectral law of (1/d) Z Z^T for aspect ratio gamma > 1."""

    __slots__ = ()

    def __new__(cls, gamma: float):
        if not (math.isfinite(gamma) and gamma > 1.0):
            raise RegimeError(
                f"the overparameterized regime requires gamma > 1, got {gamma}"
            )
        return super().__new__(cls, gamma)

    @property
    def lambda_minus(self) -> float:
        # (1 - 1/sqrt(g))^2, rewritten so it does not cancel as g -> 1+
        root = math.sqrt(self.gamma)
        return ((self.gamma - 1.0) / (root * (root + 1.0))) ** 2

    @property
    def lambda_plus(self) -> float:
        return (1.0 + 1.0 / math.sqrt(self.gamma)) ** 2


def mp_stieltjes_neg(law: MPLaw, sigma2: float) -> float:
    """Closed form of int 1/(s + sigma2) dH(s) for sigma2 > 0.

    Equals (sqrt((1 - 1/gamma + sigma2)^2 + 4 sigma2/gamma) -
    (1 - 1/gamma + sigma2)) / (2 sigma2 / gamma), strictly decreasing
    in sigma2; the sigma2 -> 0 limit is 1/(1 - 1/gamma).
    """
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    g = law.gamma
    a = (g - 1.0) / g + sigma2  # 1 - 1/g, without cancellation as g -> 1+
    # rationalized form of (sqrt(a^2 + 4 sigma2/g) - a) / (2 sigma2/g): no cancellation
    # as sigma2 -> 0, and hypot and the halved sum do not overflow where a^2 would
    return 1.0 / (0.5 * math.hypot(a, 2.0 * math.sqrt(sigma2 / g)) + 0.5 * a)


def mp_shrinkage(law: MPLaw, a: float) -> Callable[[float], tuple[float, float]]:
    """Bound at (law, a): delta -> int 1/((1 - rho s)^2 (s + a)) dH, int s/((1 - rho s)^2 (s + a)) dH.

    With delta = 1 - rho lp, z = 1/rho and m(z) = int 1/(s - z) dH,
    partial fractions in z - s give, for q = 1 + a rho,

        first  = m'(z) / (rho q) + (m(-a) - m(z)) / q^2,
        second = m'(z) / (rho^2 q) - a (m(-a) - m(z)) / q^2,

    where, with c = 1/gamma and R = sqrt((z - lm)(z - lp)),
    m(z) = -2/((z - 1 + c) + R) and m'(z) = -m (c m + 1)/R.  The edge gap
    z - lp = delta lp/(1 - delta) is exact in delta, so accuracy holds up
    as delta -> 0, where both integrals diverge.  delta = 1 (rho = 0) gives
    exactly (m(-a), 1 - a m(-a)).  Requires a > 0, and 0 < delta <= 1 at each call.
    """
    m_a = mp_stieltjes_neg(law, a)
    at_one, c = (m_a, 1.0 - a * m_a), 1.0 / law.gamma
    u = math.sqrt(c)
    # z - lm = gap + 4u and z - 1 + c = gap + 2u(1 + u) for u = 1/sqrt(gamma):
    # the rounded edges are both 1 from gamma near 1e32, and the product under
    # the root underflows at the smallest gap
    lp, four_u, shift = law.lambda_plus, 4.0 * u, 2.0 * u * (1.0 + u)

    def integrals(delta: float) -> tuple[float, float]:
        if not 0.0 < delta <= 1.0:
            raise DomainError(f"requires an edge distance 0 < delta <= 1, got delta={delta!r}")
        if delta == 1.0:
            return at_one
        inv_rho = lp / (1.0 - delta)
        gap = delta * inv_rho
        root = math.sqrt(gap + four_u) * math.sqrt(gap)
        m = -2.0 / ((gap + shift) + root)
        dm = -m * (c * m + 1.0) / root
        q = 1.0 + a / inv_rho
        pole = (m_a - m) / (q * q)
        return dm * inv_rho / q + pole, dm * inv_rho * inv_rho / q - a * pole

    return integrals


def mp_cdf(law: MPLaw, x: float) -> float:
    """Cumulative distribution H(x) of the law, in closed form.

    With a = lm, b = lp, p = sqrt(x - a) and q = sqrt(b - x), for a < x < b,

        H(x) = (gamma / 2 pi) [p q + (a + b) atan2(p, q)
                               - 2 sqrt(a b) atan2(sqrt(b) p, sqrt(a) q)]

    (Bai & Silverstein 2010, ch. 3), the antiderivative of the density.
    ``x`` = -inf gives 0 and +inf gives 1; NaN raises DomainError.
    """
    if math.isnan(x):
        raise DomainError(f"mp_cdf needs a number, got x={x!r}")
    a, b = law.lambda_minus, law.lambda_plus
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    p = math.sqrt(x - a)
    q = math.sqrt(b - x)
    area = (
        p * q
        + (a + b) * math.atan2(p, q)
        - 2.0 * math.sqrt(a * b) * math.atan2(math.sqrt(b) * p, math.sqrt(a) * q)
    )
    return min(max(law.gamma / (2.0 * math.pi) * area, 0.0), 1.0)
