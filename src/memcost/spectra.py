"""Isotropic Marchenko-Pastur limit law: support, closed-form resolvent
integrals, the quadrature oracle, and empirical spectrum extraction.

The law for aspect ratio gamma = d/n > 1 has density

    dH(s) = (gamma / 2 pi) * sqrt((lp - s)(s - lm)) / s   on [lm, lp],

with edges lm = (1 - 1/sqrt(gamma))^2 and lp = (1 + 1/sqrt(gamma))^2.
Every integral the isotropic theory needs is a rational function of the
Stieltjes transform of H and its derivative, so production values come in
closed form (``mp_stieltjes_neg``, ``mp_shrinkage_integrals``), and so
does the c.d.f. (``mp_cdf``); ``mp_integrate`` is the independent
quadrature that checks them and is used only by ``verify`` and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError
from .numerics import Interval

__all__ = [
    "MPLaw",
    "EmpiricalSpectrum",
    "mp_integrate",
    "mp_stieltjes_neg",
    "mp_shrinkage_integrals",
    "mp_cdf",
    "esd_from_design",
    "bai_yin_check",
    "kolmogorov_distance",
]

_START_NODES = 2048
_NODE_BUDGET = 2**18
_ADAPTIVE_RTOL = 1e-11


@dataclass(frozen=True)
class MPLaw:
    """The limiting spectral law of (1/d) Z Z^T for aspect ratio gamma > 1."""

    gamma: float

    def __post_init__(self):
        if not (np.isfinite(self.gamma) and self.gamma > 1.0):
            raise RegimeError(
                f"the overparameterized regime requires gamma > 1, got {self.gamma}"
            )

    @property
    def lambda_minus(self) -> float:
        return (1.0 - 1.0 / math.sqrt(self.gamma)) ** 2

    @property
    def lambda_plus(self) -> float:
        return (1.0 + 1.0 / math.sqrt(self.gamma)) ** 2

    @property
    def support(self) -> Interval:
        return Interval(self.lambda_minus, self.lambda_plus)


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Eigenvalues of (1/d) X X^T for a wide design X, descending."""

    values: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if len(v) != self.n:
            raise DomainError(f"expected {self.n} eigenvalues, got {len(v)}")
        if self.n > self.d:
            raise DomainError(f"requires n <= d, got n={self.n}, d={self.d}")
        if np.any(v < 0):
            raise DomainError("eigenvalues of a Gram matrix must be nonnegative")
        if np.any(np.diff(v) > 0):
            raise DomainError("eigenvalues must be in descending order")
        object.__setattr__(self, "values", v)


@lru_cache(maxsize=16)
def _cheb_transfer(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Gauss (first kind) nodes x_i, ascending, and transfer factors 1 - x_i^2.

    The nodes are cos((2i - 1) pi / 2k) and every weight is pi/k.  The
    identity 1 - cos(t)^2 = sin(t)^2 keeps the transfer factor fully
    accurate near the endpoints, where direct subtraction would cancel.
    """
    if k < 1:
        raise DomainError(f"a Chebyshev-Gauss rule needs k >= 1 nodes, got {k}")
    i = np.arange(k, 0, -1, dtype=np.float64)  # descending angle = ascending node
    theta = (2.0 * i - 1.0) * np.pi / (2.0 * k)
    nodes = np.cos(theta)
    one_minus_x2 = np.sin(theta) ** 2
    for arr in (nodes, one_minus_x2):
        arr.setflags(write=False)
    return nodes, one_minus_x2


def _eval_on_rule(law: MPLaw, f, k: int) -> float:
    """sum_i W_i f(s_i), the k-node rule for int f dH.

    Chebyshev-Gauss (first kind) under s = c + r x transfers the rule to the
    sqrt((lp - s)(s - lm)) weight, so W_i = (gamma r^2 / 2k) (1 - x_i^2)/s_i.
    """
    x, one_minus_x2 = _cheb_transfer(k)
    c = 0.5 * (law.lambda_plus + law.lambda_minus)
    r = 0.5 * (law.lambda_plus - law.lambda_minus)
    s = c + r * x
    w = (law.gamma * r * r / (2.0 * k)) * one_minus_x2 / s
    vals = np.asarray(f(s), dtype=np.float64)
    if vals.shape != s.shape:
        vals = np.broadcast_to(vals, s.shape)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        node = s[bad][0]
        raise DomainError(f"integrand is not finite at node s={node!r}")
    return float(vals @ w)


def mp_integrate(law: MPLaw, f) -> float:
    """Integrate f against the law, with automatic node doubling.

    ``f`` must be finite and continuous on the support and accept an ndarray
    of evaluation points.  The node count doubles (up to 2**18) until two
    successive evaluations agree to 1e-11 relative; integrands with a pole
    just beyond the upper edge may need the full budget.
    """
    k = _START_NODES
    prev = _eval_on_rule(law, f, k)
    while k < _NODE_BUDGET:
        k *= 2
        cur = _eval_on_rule(law, f, k)
        if cur == prev or abs(cur - prev) <= _ADAPTIVE_RTOL * abs(cur):
            return cur
        prev = cur
    raise ConvergenceError(
        f"quadrature did not stabilize to {_ADAPTIVE_RTOL} relative "
        f"within {_NODE_BUDGET} nodes",
        last=prev,
    )


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
    # rationalized form of (sqrt(a^2 + 4 sigma2/g) - a) / (2 sigma2/g):
    # no cancellation as sigma2 -> 0
    return 2.0 / (math.sqrt(a * a + 4.0 * sigma2 / g) + a)


def mp_shrinkage_integrals(law: MPLaw, delta: float, a: float) -> tuple[float, float]:
    """Closed forms of int 1/((1 - rho s)^2 (s + a)) dH and int s/((1 - rho s)^2 (s + a)) dH.

    With delta = 1 - rho lp, z = 1/rho and m(z) = int 1/(s - z) dH,
    partial fractions in z - s give, for q = 1 + a rho,

        first  = m'(z) / (rho q) + (m(-a) - m(z)) / q^2,
        second = m'(z) / (rho^2 q) - a (m(-a) - m(z)) / q^2,

    where, with c = 1/gamma and R = sqrt((z - lm)(z - lp)),
    m(z) = -2/((z - 1 + c) + R) and m'(z) = -m (c m + 1)/R.  The edge gap
    z - lp = delta lp/(1 - delta) is exact in delta, so accuracy holds up
    as delta -> 0, where both integrals diverge.  delta = 1 (rho = 0) gives
    exactly (m(-a), 1 - a m(-a)).  Requires 0 < delta <= 1 and a > 0.
    """
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"requires an edge distance 0 < delta <= 1, got delta={delta!r}")
    m_a = mp_stieltjes_neg(law, a)
    if delta == 1.0:
        return m_a, 1.0 - a * m_a
    lp, lm = law.lambda_plus, law.lambda_minus
    c = 1.0 / law.gamma
    inv_rho = lp / (1.0 - delta)
    gap = delta * inv_rho
    root = math.sqrt((gap + (lp - lm)) * gap)
    m = -2.0 / ((inv_rho - 1.0 + c) + root)
    dm = -m * (c * m + 1.0) / root
    q = 1.0 + a / inv_rho
    pole = (m_a - m) / (q * q)
    return dm * inv_rho / q + pole, dm * inv_rho * inv_rho / q - a * pole


def mp_cdf(law: MPLaw, x: float) -> float:
    """Cumulative distribution H(x) of the law, in closed form.

    With a = lm, b = lp, p = sqrt(x - a) and q = sqrt(b - x), for a < x < b,

        H(x) = (gamma / 2 pi) [p q + (a + b) atan2(p, q)
                               - 2 sqrt(a b) atan2(sqrt(b) p, sqrt(a) q)]

    (Bai & Silverstein 2010, ch. 3), the antiderivative of the density.
    """
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


def esd_from_design(X: np.ndarray) -> EmpiricalSpectrum:
    """Empirical spectrum of (1/d) X X^T, from the eigenvalues of the n x n Gram matrix.

    Eigenvalues of a rank-deficient Gram matrix can come out at -eps times
    the top one; they are clipped to 0.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError(f"expected a matrix, got ndim={X.ndim}")
    n, d = X.shape
    if n > d:
        raise DomainError(f"wide design required (n <= d), got shape {X.shape}")
    s = np.linalg.eigvalsh(X @ X.T)[::-1] / d
    return EmpiricalSpectrum(values=np.maximum(s, 0.0), n=n, d=d)


def bai_yin_check(spec: EmpiricalSpectrum, law: MPLaw) -> tuple[float, float]:
    """Relative deviations of the extreme empirical eigenvalues from the edges.

    Returns (|v_max - lp|/lp, |v_min - lm|/lm); measurement only, degenerate
    spectra (e.g. from X = 0) simply report deviation 1.
    """
    if len(spec.values) == 0:
        raise DomainError("empty spectrum")
    top = float(spec.values[0])
    bot = float(spec.values[-1])
    return (
        abs(top - law.lambda_plus) / law.lambda_plus,
        abs(bot - law.lambda_minus) / law.lambda_minus,
    )


def kolmogorov_distance(spec: EmpiricalSpectrum, law: MPLaw) -> float:
    """Max deviation between empirical and limit c.d.f. on a fixed grid.

    The grid has 100 equispaced points on [lm/2, 2 lp], which makes the
    comparison deterministic for a given spectrum.
    """
    grid = np.linspace(law.lambda_minus / 2.0, 2.0 * law.lambda_plus, 100)
    # values are descending, so the empirical cdf counts from the tail
    v_asc = spec.values[::-1]
    emp = np.searchsorted(v_asc, grid, side="right") / spec.n
    lim = np.array([mp_cdf(law, float(x)) for x in grid])
    return float(np.max(np.abs(emp - lim)))
