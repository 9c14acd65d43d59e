"""Numerical kernel: the bracketed level solver (Illinois regula falsi in
log-log), the one multiplier solver built on it, the one constraint route
(``constrain``) and the accepted noise-variance range.  Standard library
only: the matrix factorizations are in ``finite_n_lab`` and ``oracle``.

Everything here is a pure function of its inputs (no shared mutable state),
so all operations are safe to call concurrently.
"""

from __future__ import annotations

import math
import sys
from typing import Callable

from .errors import BracketError, DomainError, NearDivergenceError, RegimeError


def check_sigma2(sigma2: float) -> None:
    """Require a noise variance 1e-100 <= sigma2 <= 1e100, or raise DomainError.

    Every threshold is of order sigma2^2, so outside this range the
    computed quantities overflow, or underflow to zero or to subnormals.
    """
    if not 1e-100 <= sigma2 <= 1e100:
        raise DomainError(f"sigma2 must lie in [1e-100, 1e100], got {sigma2}")


def solve_level(
    level: Callable[[float], float], target: float, lo: float, hi: float,
    ends: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """x with level(x) = target, for a level positive and monotone on [lo, hi].

    Each step is a regula falsi step on (log x, log(level/target)), nearly
    straight for a level diverging like a power of x, with the Illinois
    modification (Dowell & Jarratt 1971): an end kept through two secant
    steps in a row has its log ratio halved.  A midpoint step replaces it
    when the secant point is not strictly inside the bracket, when an end's
    log ratio is not finite (level 0 or inf), and after two steps in a row
    that did not halve the bracket.  It stops when the ends are adjacent
    floats; there is no tolerance.  ``ends`` is (level(lo), level(hi)) if
    known.  Returns (x, level(x)): an exact root, or else the end on the
    level > target side.  Raises DomainError unless lo < hi are both finite,
    and BracketError without a sign change.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError(f"a bracket needs finite ends lo < hi, got [{lo}, {hi}]")
    vlo, vhi = ends if ends is not None else (level(lo), level(hi))
    for x, v in ((lo, vlo), (hi, vhi)):
        if v == target:
            return x, v
    if not (vlo < target < vhi or vhi < target < vlo):
        raise BracketError(
            f"no sign change over [{lo}, {hi}]: level {vlo} and {vhi}, target {target}"
        )
    xs, vs = [lo, hi], [vlo, vhi]
    fs = [_log_ratio(lo, vlo, target), _log_ratio(hi, vhi, target)]
    last, slow = None, 0  # end replaced by the last secant step; steps in a row not halving
    while True:
        lo, hi = xs
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            # lo and hi are adjacent floats
            k = 0 if vs[0] > target else 1
            return xs[k], vs[k]
        x, (flo, fhi) = mid, fs
        if slow < 2 and flo is not None and fhi is not None and flo != fhi:
            ratio = hi / lo
            span = math.log(ratio) if ratio < math.inf else math.log(hi) - math.log(lo)
            # step from the nearer end, so that x keeps every digit near a root
            t = flo / (flo - fhi)
            secant = lo * math.exp(t * span) if t < 0.5 else hi * math.exp((t - 1.0) * span)
            if lo < secant < hi:
                x = secant
            else:
                # the secant root is within rounding of an end: test the float next to it
                x = math.nextafter(lo, hi) if t < 0.5 else math.nextafter(hi, lo)
        v = level(x)
        if v == target:
            return x, v
        k = 0 if (v > target) == (vs[0] > target) else 1
        xs[k], vs[k], fs[k] = x, v, _log_ratio(x, v, target)
        if x == mid:
            # midpoint steps leave the Illinois bookkeeping alone
            slow = 0
            continue
        if k == last and fs[1 - k] is not None:
            fs[1 - k] *= 0.5
        last = k
        slow = 0 if xs[1] - xs[0] <= 0.5 * (hi - lo) else slow + 1


def _log_ratio(x: float, v: float, target: float) -> float | None:
    """log(v/target), or None where it or log x is not a finite number."""
    r = v / target
    return math.log(r) if x > 0.0 and 0.0 < r < math.inf else None


def solve_multiplier(
    level: Callable[[float], float], target: float, what: str,
    bracket: tuple[float, float] | None = None,
) -> tuple[float, float]:
    """Edge distance delta with level(delta) = target, and the residual |level(delta) - target|.

    A multiplier rho below the spectral edge 1/top is solved in delta =
    1 - rho top, which keeps full relative precision up to the edge, where
    ``level`` diverges; it must decrease on (0, 1].  Returns (1, 0), i.e.
    rho = 0, when target <= level(1).  Otherwise solves on [tiny, 1], tiny
    the smallest normal float, or on ``bracket`` cut to [tiny, 1]: a bracket
    is the caller's proof that the root lies in it, and no wider interval is
    tried.  Raises NearDivergenceError (its message starting with ``what``)
    for a target past the float range of the level: if level(tiny) <= target,
    or if the level overflows short of it.  A bracket that misses the root is
    refused the same way.
    """
    top = level(1.0)
    if target <= top:
        return 1.0, 0.0
    lo, hi = (0.0, 1.0) if bracket is None else bracket
    lo, hi = max(lo, sys.float_info.min), min(hi, 1.0)
    solved = None
    if lo < hi:
        ends = (level(lo), top if hi == 1.0 else level(hi))
        if ends[0] > target >= ends[1]:
            solved = solve_level(level, target, lo, hi, ends)
    if solved is None or solved[1] == math.inf:
        raise NearDivergenceError(
            f"{what}: target {target!r} is past the float range of the constraint "
            f"level, which diverges at the spectral edge"
        )
    delta, reached = solved
    return delta, abs(reached - target)


def constrain(red, eps2: float | None, rho: float | None, what: str) -> tuple[float, float]:
    """(delta, rho) for an eps2 target solved on ``red.train``, or else for a fixed rho.

    ``red`` is a ``LimitReduction`` or a design's ``_Reduction``; ``what`` prefixes every error.
    """
    if eps2 is None:
        return red.delta(rho, what), rho
    delta, _ = solve_multiplier(red.train, eps2, f"{what}rho(eps2)", red.bracket(eps2))
    return delta, (1.0 - delta) / red.top


def edge_distance(rho: float, top: float, what: str) -> float:
    """delta = 1 - rho top for a fixed rho; RegimeError, naming ``what``, unless 0 <= rho top < 1."""
    if not 0.0 <= rho * top < 1.0:
        raise RegimeError(f"{what} requires 0 <= rho * top < 1, got rho * top = {rho * top!r}")
    return 1.0 - rho * top
