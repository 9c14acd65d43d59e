"""Numerical kernel: bracketed bisection, the one multiplier solver built on
it, the accepted noise-variance range, and the dense symmetric eigenvalue
contract.

Everything here is a pure function of its inputs (no shared mutable state),
so all operations are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, DomainError, NearDivergenceError

__all__ = [
    "Interval",
    "bisect",
    "sym_eigvals",
]

# Multiplier searches stop this far, relatively, below the spectral edge
# 1/top, where every constraint level diverges.
RHO_CAP_MARGIN = 1e-8


@dataclass(frozen=True)
class Interval:
    """A finite open-ended search or integration domain [lo, hi], lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise DomainError(f"interval endpoints must be finite, got [{self.lo}, {self.hi}]")
        if not self.lo < self.hi:
            raise DomainError(f"interval requires lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo


def check_sigma2(sigma2: float) -> None:
    """Require a noise variance 1e-100 <= sigma2 <= 1e100, or raise DomainError.

    Every threshold is of order sigma2^2, so outside this range the
    computed quantities overflow, or underflow to zero or to subnormals.
    """
    if not 1e-100 <= sigma2 <= 1e100:
        raise DomainError(f"sigma2 must lie in [1e-100, 1e100], got {sigma2}")


def bisect(f: Callable[[float], float], bracket: Interval) -> float:
    """Find a root of a continuous monotone function by pure bisection.

    Halves the bracket until f(mid) == 0 or the midpoint rounds to an
    endpoint, so the result is within one float of the root at any scale
    and the loop ends after at most about 2100 steps.  There is no
    tolerance to tune.

    Parameters
    ----------
    f : callable
        Scalar function, continuous and monotone on the bracket, with
        f(lo) and f(hi) of opposite sign (or one of them zero).
    bracket : Interval
        Initial enclosure of the root.

    Returns
    -------
    float
        A zero of f, or else the float x with the root in (x, next float
        above x), so the result stays below hi whenever f(hi) != 0.
        Deterministic: identical inputs yield bit-identical outputs.

    Raises
    ------
    BracketError
        If f does not change sign over the bracket.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (flo < 0.0 < fhi or fhi < 0.0 < flo):
        raise BracketError(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}",
            lo=lo, hi=hi, flo=flo, fhi=fhi,
        )
    rising = flo < 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # lo and hi are adjacent floats
            return lo
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == rising:
            lo = mid
        else:
            hi = mid


def solve_multiplier(
    level: Callable[[float], float], top: float, target: float, what: str
) -> tuple[float, float]:
    """Multiplier rho with level(rho) = target, and the residual |level(rho) - target|.

    ``level`` must increase on [0, 1/top) and diverge at 1/top, the edge set
    by the top eigenvalue ``top`` of the spectrum it integrates against.
    Returns (0, 0) when target <= level(0): the constraint is inactive.
    Otherwise bisects over [0, cap] with cap = (1 - RHO_CAP_MARGIN)/top.

    Raises
    ------
    NearDivergenceError
        If level(cap) <= target, so the root lies at or past the cap;
        the message starts with ``what``.
    """
    if target <= level(0.0):
        return 0.0, 0.0
    top = float(top)
    cap = (1.0 - RHO_CAP_MARGIN) / top
    if level(cap) <= target:
        raise NearDivergenceError(
            f"{what}: target {target!r} needs rho past the cap (1 - {RHO_CAP_MARGIN})/{top!r} "
            f"= {cap!r}, where the constraint level diverges at the spectral edge"
        )
    rho = float(bisect(lambda r: level(r) - target, Interval(0.0, cap)))
    return rho, abs(level(rho) - target)


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense symmetric matrix, no vectors."""
    M = np.asarray(M, dtype=np.float64)
    _check_symmetric(M)
    return np.linalg.eigvalsh(M)


def _check_symmetric(M: np.ndarray) -> None:
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    scale = np.linalg.norm(M)
    if scale == 0.0:
        return
    if np.linalg.norm(M - M.T) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric to within 1e-12 relative")
