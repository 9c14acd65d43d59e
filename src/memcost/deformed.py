"""Population spectra, and the deformed Marchenko-Pastur law they induce.

The limit law G of (1/d) Z Sigma Z^T is handled entirely through its
Stieltjes transform evaluated at real negative arguments z = -sigma2 < 0,
where it solves the scalar fixed point (Silverstein and Bai, 1995)

    m = 1 / (sigma2 + int tau / (1 + tau m / gamma) dT(tau)).

``cost_engine.LimitReduction(gamma, sigma2, pop)`` checks sigma2 and gamma,
solves this once and keeps the root; the anisotropic numbers are its members.

Population spectra are finite atom lists normalized so the largest atom
value is 1; this realizes any limiting spectrum of the assumed covariance
sequences to test tolerance.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConvergenceError, DomainError, SpectrumFormatError
from .numerics import solve_level

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "PopulationSpectrum",
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
    gamma and sigma2 (``cost_engine.LimitReduction``).
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
        return parse_population_spectrum(fh.read(), source=str(path))
