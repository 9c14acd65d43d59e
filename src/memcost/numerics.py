"""Numerical kernel: bracketed bisection and the dense symmetric eigenvalue
contract.

Everything here is a pure function of its inputs (no shared mutable state),
so all operations are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BracketError, ConvergenceError, DomainError

__all__ = [
    "Interval",
    "ToleranceSpec",
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


@dataclass(frozen=True)
class ToleranceSpec:
    """Stopping tolerances for iterative solvers.

    A solve stops when the residual drops to ``abs_tol`` or the bracket
    shrinks to ``rel_tol * |x| + abs_tol``; at least one tolerance must be
    positive.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 4e-16
    max_iter: int = 200

    def __post_init__(self):
        if self.abs_tol < 0 or self.rel_tol < 0:
            raise DomainError("tolerances must be nonnegative")
        if self.abs_tol + self.rel_tol <= 0:
            raise DomainError("abs_tol + rel_tol must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be a positive integer")


def bisect(f: Callable[[float], float], bracket: Interval, tol: ToleranceSpec) -> float:
    """Find a root of a continuous monotone function by pure bisection.

    Parameters
    ----------
    f : callable
        Scalar function, continuous and monotone on the bracket, with
        f(lo) and f(hi) of opposite sign (or one of them zero).
    bracket : Interval
        Initial enclosure of the root.
    tol : ToleranceSpec
        Stop when |f(mid)| <= abs_tol or the bracket width falls below
        rel_tol * |mid| + abs_tol.

    Returns
    -------
    float
        The approximate root. Deterministic: identical inputs yield
        bit-identical outputs.

    Raises
    ------
    BracketError
        If f does not change sign over the bracket.
    ConvergenceError
        If max_iter bisection steps do not reach either tolerance; the
        exception carries the last bracket.
    """
    lo, hi = bracket.lo, bracket.hi
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise BracketError(
            f"no sign change over [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}",
            lo=lo, hi=hi, flo=flo, fhi=fhi,
        )
    for _ in range(tol.max_iter):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # bracket exhausted at float resolution
            return mid
        fmid = f(mid)
        if abs(fmid) <= tol.abs_tol:
            return mid
        if np.sign(fmid) == np.sign(flo):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        if hi - lo <= tol.rel_tol * abs(mid) + tol.abs_tol:
            return 0.5 * (lo + hi)
    raise ConvergenceError(
        f"bisection did not converge in {tol.max_iter} iterations", last=(lo, hi)
    )


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
