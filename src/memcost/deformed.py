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

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, RegimeError, SpectrumFormatError
from .numerics import Interval, solve_level

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

    Values are rescaled so the top value is exactly 1 (with a warning when
    the input violates that normalization); weights are positive and sum
    to 1.  ``kappa`` is the resulting condition number 1/min(value).
    """

    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.atoms) == 0:
            raise DomainError("population spectrum needs at least one atom")
        vals = np.array([a[0] for a in self.atoms], dtype=np.float64)
        wts = np.array([a[1] for a in self.atoms], dtype=np.float64)
        if np.any(vals <= 0):
            raise DomainError("atom values must be positive")
        if np.any(wts <= 0):
            raise DomainError("atom weights must be positive")
        total = wts.sum()
        if abs(total - 1.0) > 1e-9:
            warnings.warn(
                f"atom weights sum to {total:.6g}; renormalizing to 1", stacklevel=2
            )
        wts = wts / total
        top = vals.max()
        if abs(top - 1.0) > 1e-12:
            warnings.warn(
                f"top atom value {top:.6g} != 1; rescaling all values", stacklevel=2
            )
            vals = vals / top
        order = np.argsort(-vals)
        object.__setattr__(
            self, "atoms", tuple((float(v), float(w)) for v, w in zip(vals[order], wts[order]))
        )

    @classmethod
    def isotropic(cls) -> "PopulationSpectrum":
        return cls(atoms=((1.0, 1.0),))

    @property
    def values(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms])

    @property
    def weights(self) -> np.ndarray:
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
        if not (np.isfinite(self.gamma) and self.gamma > 1.0):
            raise RegimeError(f"requires gamma > 1, got {self.gamma}")


def silverstein_solve(law: DeformedLaw, sigma2: float) -> float:
    """Stieltjes transform of the deformed law at -sigma2 < 0.

    Solves the fixed point as the level equation
    m * (sigma2 + int tau/(1 + tau m/gamma) dT) = 1 on (0, 2/sigma2] with
    ``numerics.solve_level``; the level rises from 0 and stays >= 1 at
    2/sigma2 in floating point, so the root is unique and bracketed.  The
    returned m equals int 1/(s + sigma2) dG(s) and satisfies the fixed
    point to 1e-12 relative.
    """
    if not sigma2 > 0:
        raise DomainError(f"sigma2 must be positive, got {sigma2}")
    tau = law.population.values
    w = law.population.weights
    g = law.gamma

    def level(m: float) -> float:
        return m * (sigma2 + float(np.sum(w * tau / (1.0 + tau * m / g))))

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
        if value <= 0 or weight <= 0:
            raise SpectrumFormatError(
                f"{source}:{lineno}: value and weight must be positive", line=lineno
            )
        atoms.append((value, weight))
    if not atoms:
        raise SpectrumFormatError(f"{source}: no atoms found", line=None)
    return PopulationSpectrum(atoms=tuple(atoms))


def load_population_spectrum(path) -> PopulationSpectrum:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_population_spectrum(fh.read(), source=str(path))
