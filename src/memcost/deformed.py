"""Deformed Marchenko-Pastur law for anisotropic population covariance.

The limit law G of (1/d) Z Sigma Z^T is handled entirely through its
Stieltjes transform evaluated at real negative arguments z = -sigma2 < 0,
where it solves the scalar fixed point

    m = 1 / (sigma2 + int tau / (1 + tau m / gamma) dT(tau)).

Population spectra are finite atom lists normalized so the largest atom
value is 1; this realizes any limiting spectrum of the assumed covariance
sequences to test tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, RegimeError, SpectrumFormatError
from .numerics import Interval, solve_level

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PopulationSpectrum",
    "DeformedLaw",
    "silverstein_solve",
    "deformed_threshold",
    "parse_population_spectrum",
    "load_population_spectrum",
]


@dataclass(frozen=True)
class PopulationSpectrum:
    """Discrete spectrum of the population covariance: atoms (value, weight).

    Values and weights must be finite and positive.  Values are rescaled so
    the top value is exactly 1 (with a warning when the input violates that
    normalization); weights are scaled to sum to 1.  ``kappa`` is the
    resulting condition number 1/min(value).
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise DomainError("population spectrum needs at least one atom")
        vals = [float(a[0]) for a in self.atoms]
        wts = [float(a[1]) for a in self.atoms]
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
        # a stable sort, descending in value
        order = sorted(range(len(vals)), key=lambda j: -vals[j])
        object.__setattr__(self, "atoms", tuple((vals[j], wts[j]) for j in order))

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


@dataclass(frozen=True)
class DeformedLaw:
    """Limit spectral law of (1/d) Z Sigma Z^T: aspect ratio plus population."""

    gamma: float
    population: PopulationSpectrum

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma > 1.0):
            raise RegimeError(f"requires gamma > 1, got {self.gamma}")


def silverstein_solve(law: DeformedLaw, sigma2: float) -> float:
    """Stieltjes transform of the deformed law at -sigma2 < 0.

    Solves the fixed point as the level equation
    m * (sigma2 + int tau/(1 + tau m/gamma) dT) = 1 with
    ``numerics.solve_level``.  The level increases in m, is below 1 at
    1/(sigma2 + int tau dT) and above it at 1/sigma2, so the root is unique
    and bracketed there.  Where those ends round onto the root (sigma2 past
    about 1e15 int tau dT) it solves on (0, 2/sigma2], whose top level stays
    >= 1 in floating point.  The returned m equals int 1/(s + sigma2) dG(s)
    and satisfies the fixed point to 1e-12 relative.
    """
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    atoms = law.population.atoms
    g = law.gamma

    def level(m: float) -> float:
        total = 0.0
        for tau, w in atoms:  # left to right, as numpy sums a short array
            total += w * tau / (1.0 + tau * m / g)
        return m * (sigma2 + total)

    mean = sum(w * tau for tau, w in atoms)
    try:
        m, reached = solve_level(level, 1.0, Interval(1.0 / (sigma2 + mean), 1.0 / sigma2))
    except DomainError:  # BracketError, or an empty Interval
        m, reached = solve_level(level, 1.0, Interval(0.0, 2.0 / sigma2))
    fp_residual = abs(reached - 1.0)
    if fp_residual > 1e-12:
        raise ConvergenceError(f"fixed point residual {fp_residual:.3e} exceeds 1e-12", last=m)
    return m


def deformed_threshold(law: DeformedLaw, sigma2: float) -> float:
    """Memorization threshold under the deformed law: sigma2^2 * m_G(-sigma2).

    Equals int sigma2^2 / (s + sigma2) dG(s); reduces to the isotropic
    threshold when the population is a point mass at 1.
    """
    return sigma2 * sigma2 * silverstein_solve(law, sigma2)


def parse_population_spectrum(text: str, *, source: str = "<string>") -> PopulationSpectrum:
    """Parse `value weight` lines into a population spectrum.

    Blank lines and `#` comments are allowed; malformed lines raise a
    parse error carrying the 1-based line number.
    """
    atoms = []
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
        if not all(math.isfinite(v) and v > 0 for v in (value, weight)):
            raise SpectrumFormatError(
                f"{source}:{lineno}: value and weight must be finite and positive, got {raw!r}",
                line=lineno,
            )
        atoms.append((value, weight))
    if not atoms:
        raise SpectrumFormatError(f"{source}: no atoms found", line=None)
    return PopulationSpectrum(atoms=tuple(atoms))


def load_population_spectrum(path) -> PopulationSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_population_spectrum(fh.read(), source=str(path))
