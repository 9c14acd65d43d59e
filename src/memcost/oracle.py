"""Float quadrature oracle for the isotropic Marchenko-Pastur law.

``mp_integrate`` integrates an ndarray-vectorized integrand against the law
by a node-doubling Chebyshev-Gauss rule, independently of the closed forms
in ``spectra`` that it checks.  It is used only by ``verify`` and the tests,
so the production commands never import numpy through it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .spectra import MPLaw

__all__ = ["mp_integrate"]

_START_NODES = 2048
_NODE_BUDGET = 2**18
_ADAPTIVE_RTOL = 1e-11


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
