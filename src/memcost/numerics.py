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

from .errors import BracketError, DomainError, NearDivergenceError, RegimeError

__all__ = [
    "Interval",
    "bisect",
    "sym_eigvals",
]

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
    level: Callable[[float], float], target: float, what: str
) -> tuple[float, float]:
    """Edge distance delta with level(delta) = target, and the residual |level(delta) - target|.

    A multiplier rho below the spectral edge 1/top is solved in delta =
    1 - rho top, which keeps full relative precision up to the edge, where
    ``level`` diverges; it must decrease on (0, 1].  Returns (1, 0), i.e.
    rho = 0, when target <= level(1).  Otherwise bisects [tiny, 1], tiny the
    smallest normal float, and raises NearDivergenceError (its message
    starting with ``what``) if level(tiny) <= target.
    """
    if target <= level(1.0):
        return 1.0, 0.0
    tiny = float(np.finfo(np.float64).tiny)
    if not level(tiny) > target:
        raise NearDivergenceError(
            f"{what}: target {target!r} is past the float range of the constraint "
            f"level, which diverges at the spectral edge"
        )
    delta = float(bisect(lambda x: target - level(x), Interval(tiny, 1.0)))
    return delta, abs(level(delta) - target)


def edge_distance(rho: float, top: float, what: str) -> float:
    """delta = 1 - rho top for a fixed rho; RegimeError, naming ``what``, unless 0 <= rho top < 1."""
    if not 0.0 <= rho * top < 1.0:
        raise RegimeError(f"{what} requires 0 <= rho * top < 1, got rho * top = {rho * top!r}")
    return 1.0 - rho * top


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
