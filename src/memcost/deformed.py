"""Population spectra, and the deformed Marchenko-Pastur law they induce.

The limit law G of (1/d) Z Sigma Z^T is handled entirely through its
Stieltjes transform evaluated at real negative arguments z = -sigma2 < 0,
where it solves the scalar fixed point (Silverstein and Bai, 1995)

    m = 1 / (sigma2 + int tau / (1 + tau m / gamma) dT(tau)).

``DeformedReduction(gamma, sigma2, pop)`` solves this once and keeps the root.
Only a lower bound on the anisotropic cost is known, so it has no ``train``,
``growth``, ``solve`` or ``cost``: it is not a ``cost_engine._ConstrainedLaw``.

Population spectra are finite atom lists normalized so the largest atom
value is 1; this realizes any limiting spectrum of the assumed covariance
sequences to test tolerance.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .cost_engine import BoundConstants, LimitReduction, RhoSolution, ThresholdReport
from .errors import ConvergenceError, DomainError, RegimeError, SpectrumFormatError
from .numerics import solve_level, solve_multiplier
from .spectra import mp_shrinkage, mp_stieltjes_neg

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PopulationSpectrum",
    "DeformedReduction",
    "parse_population_spectrum",
    "load_population_spectrum",
]


class PopulationSpectrum(
    NamedTuple("PopulationSpectrum", [("atoms", tuple[tuple[float, float], ...])])
):
    """Discrete spectrum of the population covariance: atoms (value, weight).

    Values and weights must be finite and positive.  Values are rescaled so
    the top value is exactly 1 (with a warning when the input violates that
    normalization); weights are scaled to sum to 1.  ``kappa`` is the
    resulting condition number 1/min(value), which must be finite.
    """

    __slots__ = ()

    def __new__(cls, atoms: tuple[tuple[float, float], ...]):
        if len(atoms) == 0:
            raise DomainError("population spectrum needs at least one atom")
        vals = [float(a[0]) for a in atoms]
        wts = [float(a[1]) for a in atoms]
        if not all(math.isfinite(v) and v > 0 for v in vals):
            raise DomainError(f"atom values must be finite and positive, got {vals}")
        if not all(math.isfinite(w) and w > 0 for w in wts):
            raise DomainError(f"atom weights must be finite and positive, got {wts}")
        total = 0.0
        for w in wts:  # left to right, as numpy sums a short array
            total += w
        if abs(total - 1.0) > 1e-9:
            warnings.warn(
                f"atom weights sum to {total:.6g}; renormalizing to 1", stacklevel=2
            )
        wts = [w / total for w in wts]
        top = max(vals)
        if abs(top - 1.0) > 1e-12:
            warnings.warn(
                f"top atom value {top:.6g} != 1; rescaling all values", stacklevel=2
            )
            vals = [v / top for v in vals]
        if not all(v > 0 and 1.0 / v < math.inf for v in vals):
            raise DomainError(f"the condition number 1/min(value) overflows for atom values {vals}")
        # a stable sort, descending in value
        order = sorted(range(len(vals)), key=lambda j: -vals[j])
        return super().__new__(cls, tuple((vals[j], wts[j]) for j in order))

    @classmethod
    def isotropic(cls) -> "PopulationSpectrum":
        return cls(atoms=((1.0, 1.0),))

    @property
    def values(self) -> np.ndarray:
        import numpy as np

        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
        import numpy as np

        return np.array([a[1] for a in self.atoms])

    @property
    def kappa(self) -> float:
        return 1.0 / float(min(a[0] for a in self.atoms))

    @property
    def is_isotropic(self) -> bool:
        return all(value == 1.0 for value, _ in self.atoms)


def _silverstein_root(pop: PopulationSpectrum, gamma: float, sigma2: float) -> float:
    """Stieltjes transform m_G(-sigma2) of the deformed law, for gamma > 1 and sigma2 > 0.

    Solves the fixed point as the level equation
    m * (sigma2 + int tau/(1 + tau m/gamma) dT) = 1 with
    ``numerics.solve_level``.  The level increases in m, is below 1 at
    1/(sigma2 + int tau dT) and above it at 1/sigma2, so the root is unique
    and bracketed there.  Where those ends round onto the root (sigma2 past
    about 1e15 int tau dT) it solves on (0, 2/sigma2], whose top level stays
    >= 1 in floating point.  The returned m equals int 1/(s + sigma2) dG(s)
    and satisfies the fixed point to 1e-12 relative.  The caller checks
    gamma and sigma2 (``DeformedReduction``, through its isotropic law).
    """
    atoms = pop.atoms

    def level(m: float) -> float:
        total = 0.0
        for tau, w in atoms:  # left to right, as numpy sums a short array
            total += w * tau / (1.0 + tau * m / gamma)
        return m * (sigma2 + total)

    mean = sum(w * tau for tau, w in atoms)
    try:
        m, reached = solve_level(level, 1.0, 1.0 / (sigma2 + mean), 1.0 / sigma2)
    except DomainError:  # BracketError, or ends that rounded together
        m, reached = solve_level(level, 1.0, 0.0, 2.0 / sigma2)
    fp_residual = abs(reached - 1.0)
    if fp_residual > 1e-12:
        raise ConvergenceError(f"fixed point residual {fp_residual:.3e} exceeds 1e-12")
    return m


class DeformedReduction:
    """The deformed limit law at one (gamma, sigma2, pop): ``eps_def2``, ``solve_def``, ``bound``.

    ``m_def`` and ``eps_def2`` are computed on first use and kept.  ``iso``,
    the isotropic ``LimitReduction``, checks sigma2 and then gamma, and
    supplies the isotropic columns of ``report()``, ``top`` and ``growth``.
    """

    def __init__(self, gamma: float, sigma2: float, pop: PopulationSpectrum):
        self.iso, self.pop = LimitReduction(gamma, sigma2), pop

    @functools.cached_property
    def m_def(self) -> float:
        """Silverstein root m_G(-sigma2) = int 1/(s + sigma2) dG, G the deformed law of ``pop``."""
        return _silverstein_root(self.pop, self.iso.law.gamma, self.iso.sigma2)

    @functools.cached_property
    def eps_def2(self) -> float:
        """Deformed threshold sigma2^2 m_G(-sigma2); the isotropic one for a point mass at 1."""
        return self.iso.sigma2 * self.iso.sigma2 * self.m_def

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
        s2, kappa = self.iso.sigma2, self.pop.kappa
        shrink, scale = mp_shrinkage(self.iso.law, kappa * s2), kappa * s2 * s2
        j0 = shrink(1.0)[0]  # m(-kappa sigma2)
        # the level is exactly 0 at delta = 1, so rhs == 0 gives rho_def = 0
        delta, residual = solve_multiplier(
            lambda x: scale * (shrink(x)[0] - j0), rhs,
            f"rho_def(eps2={eps2!r})")
        return RhoSolution(delta, self.iso.top, residual, eps2)

    def bound(self, eps2: float) -> float:
        """Proved lower bound on the anisotropic cost at eps2: the isotropic ``growth`` at rho_def.

        Only the lower bound is exposed: the exact anisotropic limit is not
        available, and reporting one would overstate what is known.
        """
        return self.iso.growth(self.solve_def(eps2).delta)

    def linear_bound(self) -> BoundConstants:
        """The kappa-mitigated family: c = 2/(lambda_minus/kappa + sigma2), linear in lambda_minus.

        C is the isotropic C over kappa.  Both stay positive where kappa sigma2 or kappa gamma overflows.
        """
        kappa = self.pop.kappa
        return BoundConstants(c_small=2.0 / (self.iso.law.lambda_minus / kappa + self.iso.sigma2),
                              C_growth=self.iso.linear_bound().C_growth / kappa, kappa=kappa)

    def report(self) -> ThresholdReport:
        """The isotropic threshold family, with the deformed threshold and its upper bound."""
        report, eps_def2, sigma2 = self.iso.report(), self.eps_def2, self.iso.sigma2
        # kappa sigma2^2 m(-kappa sigma2) = sigma2 (x m(-x)) for x = kappa sigma2, and
        # x m(-x) = int x/(s + x) dH rounds to 1 for every x past the float range
        x = self.pop.kappa * sigma2
        bound = sigma2 * (x * mp_stieltjes_neg(self.iso.law, x) if x < math.inf else 1.0)
        return report._replace(eps_def2=eps_def2, eps_def2_upper_bound=bound)


def parse_population_spectrum(text: str, *, source: str = "<string>") -> PopulationSpectrum:
    """Parse `value weight` lines into a population spectrum.

    Blank lines and `#` comments are allowed; malformed lines raise a
    parse error carrying the 1-based line number, and so does a value whose
    reciprocal overflows only once the values are rescaled to a top of 1.
    """
    atoms, linenos = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise SpectrumFormatError(
                f"{source}:{lineno}: expected 'value weight', got {raw!r}", line=lineno
            )
        try:
            value, weight = float(parts[0]), float(parts[1])
        except ValueError:
            raise SpectrumFormatError(
                f"{source}:{lineno}: non-numeric entry in {raw!r}", line=lineno
            ) from None
        if not (all(math.isfinite(v) and v > 0 for v in (value, weight)) and 1.0 / value < math.inf):
            raise SpectrumFormatError(
                f"{source}:{lineno}: value and weight must be finite and positive, "
                f"and 1/value finite, got {raw!r}",
                line=lineno,
            )
        atoms.append((value, weight))
        linenos.append(lineno)
    if not atoms:
        raise SpectrumFormatError(f"{source}: no atoms found", line=None)
    top = max(value for value, _ in atoms)
    if abs(top - 1.0) > 1e-12:  # PopulationSpectrum divides every value by the top
        for lineno, (value, _) in zip(linenos, atoms):
            scaled = value / top
            if not (scaled > 0 and 1.0 / scaled < math.inf):
                raise SpectrumFormatError(
                    f"{source}:{lineno}: 1/value overflows once value {value!r} is rescaled "
                    f"by the top value {top!r}",
                    line=lineno,
                )
    return PopulationSpectrum(atoms=tuple(atoms))


def load_population_spectrum(path) -> PopulationSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SpectrumFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    return parse_population_spectrum(text, source=str(path))
