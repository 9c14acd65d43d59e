"""Oracles: the routes that check production, and the ``verify`` suite built on them.

``mp_integrate`` integrates an ndarray-vectorized integrand against the
isotropic Marchenko-Pastur law by a node-doubling Chebyshev-Gauss rule,
independently of the closed forms in ``spectra`` that it checks.

``DesignOracle`` holds the direct routes of one sampled design: the
closed-form estimator at any multiplier, its exact conditional errors from
the Frobenius-norm definitions, the stationarity residual, the two residual
identities and the isotropic-reduction growth bounds.  Every factorization
of the design is made once and reused at every multiplier; at each rho the
constraint matrix is factored once, against every right-hand side the
checks read.  The lab's spectral reduction (``finite_n_lab._reduce``) must
agree with these routes to near machine precision.

``verify_checks`` is the suite behind ``memcost verify``.  Only ``verify``,
the tests and the benchmark's output oracle import this module, so
``simulate`` and ``spectrum`` never load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import cost_engine as ce
from . import finite_n_lab as lab
from .deformed import PopulationSpectrum
from .errors import ConsistencyError, ConvergenceError, DomainError, FeasibilityError, MemcostError
from .spectra import MPLaw, mp_shrinkage, mp_stieltjes_neg

__all__ = [
    "mp_integrate",
    "DesignOracle",
    "build_estimator",
    "pred_error_direct",
    "train_error_direct",
    "verify_checks",
]

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
        f"within {_NODE_BUDGET} nodes"
    )


# ------------------------------------------------------------ direct routes


def sym_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending) of a dense symmetric matrix, no vectors."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {M.shape}")
    scale = np.linalg.norm(M)
    if scale != 0.0 and np.linalg.norm(M - M.T) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric to within 1e-12 relative")
    return np.linalg.eigvalsh(M)


def _spd_solve(M: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """M^{-1} B for a symmetric M that a Cholesky factorization proves positive definite."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise FeasibilityError(f"{what} is not positive definite") from exc
    return np.linalg.solve(M, B)


def pred_error_direct(
    A: np.ndarray, X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float
) -> float:
    """Prediction error (1/d)||S(AX - I)||_F^2 + sigma2 ||S A||_F^2, S = Sigma^(1/2)."""
    n, d = X.shape
    R = A @ X
    R[np.diag_indices_from(R)] -= 1.0
    R *= sigma_sqrt[:, None]
    fit = float(np.sum(R**2)) / d
    var = sigma2 * float(np.sum((sigma_sqrt[:, None] * A) ** 2))
    return fit + var


def train_error_direct(A: np.ndarray, X: np.ndarray, sigma2: float) -> float:
    """Training error (1/nd)||XAX - X||_F^2 + (sigma2/n)||XA - I||_F^2."""
    n, d = X.shape
    XA = X @ A
    fit = float(np.sum((XA @ X - X) ** 2)) / (n * d)
    XA[np.diag_indices_from(XA)] -= 1.0
    return fit + sigma2 * float(np.sum(XA**2)) / n


@dataclass(frozen=True)
class ErrorReport:
    """Exact conditional errors of one estimator, via both evaluation routes.

    Construction enforces the algebraic identities: ``route_dev``, the
    reduction route's (``*_trace`` fields) disagreement with the direct
    route, must be at most 1e-9.
    """

    pred_direct: float
    train_direct: float
    pred_ridge: float
    pred_growth_trace: float
    train_trace: float
    duality_residual: float

    def __post_init__(self):
        if not self.route_dev <= 1e-9:
            raise ConsistencyError(
                f"reduction and direct routes disagree by {self.route_dev:.3e} relative: "
                f"training error {self.train_direct!r} vs {self.train_trace!r}, "
                f"prediction growth {self.pred_direct - self.pred_ridge!r} "
                f"vs {self.pred_growth_trace!r}"
            )

    @property
    def route_dev(self) -> float:
        """Larger relative deviation of the reduced training error and growth from direct.

        The growth's scale is floored at 1e-6 of the ridge prediction error:
        a growth below that is pure cancellation in the direct route.  NaN
        in any field gives NaN.
        """
        growth = self.pred_direct - self.pred_ridge
        scale = max(abs(growth), abs(self.pred_ridge) * 1e-6, 1e-300)
        train_dev = abs(self.train_trace - self.train_direct) / max(abs(self.train_direct), 1e-300)
        return float(np.max([train_dev, abs(self.pred_growth_trace - growth) / scale]))


class DesignOracle:
    """The direct routes of one sampled design X = Z diag(sigma_sqrt), factored once.

    Construction takes the thin SVD X = U diag(l) V^T and forms both ridge
    matrices: the d-side V diag(l/(l^2 + d sigma2)) U^T from the SVD, and
    the n-side X^T (XX^T + d sigma2 I)^{-1} from a Cholesky-checked solve.
    The d-side K^{-1} = (X^T X + d sigma2 I)^{-1}, the lab's reduction of
    the design (so ``rho_max`` = 1/s_0), the ridge prediction error and the
    interpolant are each computed on first use and then kept; solves
    through the Gram XX^T refuse a rank-deficient design.  The
    population serves only ``growth_margins``.
    """

    def __init__(self, design: lab.DesignSample, sigma2: float, population: PopulationSpectrum):
        X = design.X
        n, d = X.shape
        self.design, self.sigma2, self.population = design, sigma2, population
        self._svd = np.linalg.svd(X, full_matrices=False)
        U, lam, Vt = self._svd
        self.ridge = (Vt.T * (lam / (lam * lam + d * sigma2))) @ U.T
        self.gram = X @ X.T
        self.kn = self.gram + (d * sigma2) * np.eye(n)
        self.ridge_n = _spd_solve(self.kn, X, "n-side ridge Gram").T
        self.xtx = X.T @ X

    @cached_property
    def reduction(self):
        """The lab's production reduction of this design (``finite_n_lab._reduce``)."""
        return lab._reduce(self.design, self.sigma2)

    @property
    def rho_max(self) -> float:
        """Supremum of feasible multipliers: 1 / top eigenvalue of ZZ^T/d."""
        return 1.0 / self.reduction.top

    @cached_property
    def pred_ridge(self) -> float:
        return pred_error_direct(self.ridge, self.design.X, self.design.sigma_sqrt, self.sigma2)

    @cached_property
    def pinv(self) -> np.ndarray:
        """The minimum-norm interpolant V diag(1/l) U^T, as ``np.linalg.pinv`` forms it."""
        U, lam, Vt = self._svd
        return Vt.T @ ((1.0 / lam)[:, None] * U.T)

    def gram_ridge_solve(self, B: np.ndarray) -> np.ndarray:
        """(XX^T + d sigma2 I)^{-1} (XX^T)^{-1} B, refusing a rank-deficient design."""
        lab._check_rank(self._svd[1] ** 2)
        return _spd_solve(self.kn, _spd_solve(self.gram, B, "design Gram"), "n-side ridge Gram")

    @cached_property
    def kinv(self) -> np.ndarray:
        d = self.xtx.shape[0]
        return _spd_solve(self.xtx + (d * self.sigma2) * np.eye(d), np.eye(d), "d-side ridge Gram")

    def estimator(self, rho: float) -> Estimator:
        """Closed-form optimal estimator at multiplier rho.

        A(rho) = (I - rho sigma2 M^{-1}) (X^T X + d sigma2 I)^{-1} X^T with
        M = Sigma - (rho/d) X^T X, which must be positive definite (minimum
        eigenvalue > 1e-10).  One Cholesky-checked solve of M takes both
        ridge matrices, X^T and Sigma (at rho = 0, M = Sigma divides them);
        the two routes of A must agree to 1e-10 relative Frobenius.
        """
        X, ss = self.design.X, self.design.sigma_sqrt
        n, d = X.shape
        if rho < 0:
            raise DomainError(f"rho must be nonnegative, got {rho}")
        M = (-rho / d) * self.xtx
        M[np.diag_indices_from(M)] += ss**2
        min_eig = float(np.min(ss) ** 2) if rho == 0.0 else float(sym_eigvals(M)[0])
        if min_eig <= 1e-10:
            raise FeasibilityError(
                f"rho={rho} infeasible: min eigenvalue of the constraint matrix is {min_eig:.3e}"
            )
        rhs = np.hstack([self.ridge, self.ridge_n, X.T, np.diag(ss**2)])
        if rho == 0.0:  # M = Sigma
            sol = rhs / (ss**2)[:, None]
        else:
            sol = _spd_solve(M, rhs, "constraint matrix")
        A = self.ridge - (rho * self.sigma2) * sol[:, :n]
        A_n = self.ridge_n - (rho * self.sigma2) * sol[:, n : 2 * n]
        dev = np.linalg.norm(A_n - A) / max(np.linalg.norm(A), 1e-300)
        if dev > 1e-10:
            raise ConsistencyError(
                f"the two closed-form estimator routes disagree: {dev:.3e} relative"
            )
        return Estimator(self, float(rho), M, A, sol[:, 2 * n : 3 * n], sol[:, 3 * n :])

    def growth_margins(self, rho: float) -> tuple[float, float]:
        """Margins (prediction, training) of the isotropic-reduction growth bounds.

        The prediction-error growth must dominate, and the training-error
        growth be dominated by, spectral functionals of Z alone (condition-
        number mitigated); margins are signed so both must be >= -1e-10,
        with the prediction bound tight at kappa = 1.  Outside
        0 <= rho < rho_max raises RegimeError.
        """
        n, d = self.design.X.shape
        s2, kappa, red = self.sigma2, self.population.kappa, self.reduction
        edge = red.delta(rho)
        shrink = 1.0 / red.factors(edge) ** 2
        s = red.s
        pred_rhs = (rho**2 * s2**2 / d) * float(np.sum(shrink * s / (s + s2)))
        train_rhs = (kappa * s2**2 / n) * float(np.sum((shrink - 1.0) / (s + kappa * s2)))
        return red.growth(edge) - pred_rhs, train_rhs - (red.train(edge) - red.train(1.0))

    def interpolant(self) -> tuple[float, float]:
        """Prediction error of the minimum-norm interpolant and its gap over ridge.

        With G = XX^T, the interpolant minus the ridge matrix is
        D = d sigma2 X^T G^-1 (G + d sigma2 I)^-1, and the ridge gradient of
        the prediction error vanishes for any diagonal Sigma, so the gap is
        exactly (1/d)||S D X||_F^2 + sigma2 ||S D||_F^2: positive terms,
        without the cancellation of subtracting two errors of order 1.  It
        must agree with the reduction's gap to 1e-9.
        """
        X, ss, s2 = self.design.X, self.design.sigma_sqrt, self.sigma2
        d = X.shape[1]
        reduced = self.reduction.gap
        SD = ss[:, None] * ((d * s2) * self.gram_ridge_solve(X)).T
        gap = float(np.sum((SD @ X) ** 2)) / d + s2 * float(np.sum(SD**2))
        if abs(gap - reduced) > 1e-9 * max(abs(reduced), 1e-300):
            raise ConsistencyError(
                f"interpolant gap routes disagree: direct {gap!r} vs reduction {reduced!r}"
            )
        return pred_error_direct(self.pinv, X, ss, s2), gap


@dataclass(frozen=True)
class Estimator:
    """The closed-form estimator ``A`` of one design at one multiplier, with its checks.

    Holds the constraint matrix M and the solves M^{-1} X^T and M^{-1} Sigma
    made with ``A``; build it with ``DesignOracle.estimator``.
    """

    oracle: DesignOracle
    rho: float
    M: np.ndarray
    A: np.ndarray
    minv_xt: np.ndarray
    minv_sigma: np.ndarray

    def stationarity(self, A: np.ndarray | None = None) -> float:
        """Normalized Frobenius norm of the stationarity-condition gradient at A (default: ``A``).

        The gradient is (1/d) M A (XX^T + d sigma2 I) - (1/d)(M - rho sigma2 I) X^T;
        it vanishes exactly at the closed-form optimum.  The norm is reported
        relative to ||X||_F / (d sqrt(n)).
        """
        A = self.A if A is None else A
        X = self.oracle.design.X
        n, d = X.shape
        term1 = self.M @ (A @ self.oracle.kn)
        term2 = self.M @ X.T
        term2 -= (self.rho * self.oracle.sigma2) * X.T
        scale = np.linalg.norm(X) / (d * np.sqrt(n))
        return float(np.linalg.norm((term1 - term2) / d) / scale)

    def report(self) -> ErrorReport:
        """Direct errors of ``A`` against the reduction's, with the stationarity residual."""
        o = self.oracle
        X, ss, s2 = o.design.X, o.design.sigma_sqrt, o.sigma2
        delta = o.reduction.delta(self.rho)
        return ErrorReport(
            pred_direct=pred_error_direct(self.A, X, ss, s2),
            train_direct=train_error_direct(self.A, X, s2),
            pred_ridge=o.pred_ridge,
            pred_growth_trace=o.reduction.growth(delta),
            train_trace=o.reduction.train(delta),
            duality_residual=self.stationarity(),
        )

    def identity_devs(self) -> tuple[float, float]:
        """Relative Frobenius deviations of the closed forms of AX - I and XA - I.

        AX - I must equal -d sigma2 M^{-1} Sigma (X^T X + d sigma2 I)^{-1} and
        XA - I must equal -d sigma2 X M^{-1} Sigma X^T (XX^T)^{-1} (XX^T + d sigma2 I)^{-1};
        both hold to 1e-9 relative for any feasible rho.
        """
        o = self.oracle
        X, ss = o.design.X, o.design.sigma_sqrt
        ds2 = X.shape[1] * o.sigma2

        lhs1 = self.A @ X
        lhs1[np.diag_indices_from(lhs1)] -= 1.0
        rhs1 = -ds2 * (self.minv_sigma @ o.kinv.T)
        dev1 = float(np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(rhs1))

        lhs2 = X @ self.A
        lhs2[np.diag_indices_from(lhs2)] -= 1.0
        B = (self.minv_xt * (ss**2)[:, None]).T @ X.T
        rhs2 = -ds2 * o.gram_ridge_solve(B.T).T
        dev2 = float(np.linalg.norm(lhs2 - rhs2) / np.linalg.norm(rhs2))
        return dev1, dev2


def build_estimator(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, rho: float
) -> Estimator:
    """``DesignOracle(...).estimator(rho)`` for a caller that holds only X and sigma_sqrt.

    The population is the one sigma_sqrt realizes.
    """
    values, counts = np.unique(sigma_sqrt**2, return_counts=True)
    population = PopulationSpectrum(atoms=tuple(zip(values, counts / len(sigma_sqrt))))
    design = lab.DesignSample(Z=X / sigma_sqrt, sigma_sqrt=sigma_sqrt, X=X)
    return DesignOracle(design, sigma2, population).estimator(rho)


# -------------------------------------------------------------- verify suite


def verify_checks(quick: bool, seed: int, perturb: bool):
    """Yield (name, margin, limit, passed) for the full identity/invariant suite.

    ``perturb`` moves the estimator off the optimum before its stationarity
    residual is taken, so ``stationarity-residual`` must fail.
    """
    # quadrature moments of the limit law
    worst = 0.0
    for gamma in (1.5, 2.0, 4.0, 10.0):
        law = MPLaw(gamma)
        worst = max(worst, abs(mp_integrate(law, lambda s: np.ones_like(s)) - 1.0))
        worst = max(worst, abs(mp_integrate(law, lambda s: s) - 1.0))
    yield ("limit-law-moments", worst, 1e-10, worst <= 1e-10)

    worst = 0.0
    for gamma in (1.5, 2.0, 4.0):
        law = MPLaw(gamma)
        for s2 in (1e-2, 0.1, 1.0):
            quad = mp_integrate(law, lambda s: 1.0 / (s + s2))
            closed = mp_stieltjes_neg(law, s2)
            worst = max(worst, abs(quad - closed) / closed)
    yield ("resolvent-closed-form", worst, 1e-9, worst <= 1e-9)

    worst = 0.0
    for gamma in (1.5, 4.0):
        law = MPLaw(gamma)
        for s2 in (1e-2, 1.0):
            quad = mp_integrate(law, lambda s: 1.0 / (s * (s + s2)))
            closed = ce.LimitReduction(gamma, s2).gap * gamma / s2**2
            worst = max(worst, abs(quad - closed) / closed)
            for frac in (0.1, 0.5, 0.9):
                rho = frac / law.lambda_plus
                closed = mp_shrinkage(law, s2)(1.0 - frac)
                for k, val in enumerate(closed):
                    quad = mp_integrate(
                        law, lambda s: s**k / ((1.0 - rho * s) ** 2 * (s + s2))
                    )
                    worst = max(worst, abs(quad - val) / val)
    yield ("closed-form-vs-quadrature", worst, 1e-10, worst <= 1e-10)

    n, d = (100, 200) if quick else (200, 400)
    n_rho = 3 if quick else 10
    sigma2 = 0.1
    two_atom = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))
    combos = [
        (lab.EntryDist.GAUSSIAN, PopulationSpectrum.isotropic()),
        (lab.EntryDist.RADEMACHER, two_atom),
    ]
    if not quick:
        combos += [
            (lab.EntryDist.RADEMACHER, PopulationSpectrum.isotropic()),
            (lab.EntryDist.GAUSSIAN, two_atom),
        ]

    worst_identity = 0.0
    worst_stationarity = 0.0
    worst_closed_form = 0.0
    worst_growth = 0.0
    worst_interp = 0.0
    rng = np.random.default_rng(seed)
    for dist, pop in combos:
        config = lab.ExperimentConfig(
            n=n, d=d, sigma2=sigma2, seed=int(rng.integers(0, 2**63)), trials=1,
            entry_dist=dist, population=pop, rho=0.0,
        )
        oracle = DesignOracle(lab.sample_design(config, 0), sigma2, pop)
        for rho in rng.uniform(0.02, 0.9, size=n_rho) * oracle.rho_max:
            rho = float(rho)
            est = oracle.estimator(rho)
            report = est.report()
            worst_identity = max(worst_identity, report.route_dev)
            resid = report.duality_residual
            if perturb:
                bump = np.random.default_rng(0).standard_normal(est.A.shape)
                resid = est.stationarity(est.A + 1e-2 * bump / np.linalg.norm(bump))
            worst_stationarity = max(worst_stationarity, resid)
            worst_closed_form = max(worst_closed_form, *est.identity_devs())
            pred_margin, train_margin = oracle.growth_margins(rho)
            worst_growth = max(worst_growth, -pred_margin, -train_margin)
        worst_interp = max(worst_interp, train_error_direct(oracle.pinv, oracle.design.X, sigma2))

    yield ("error-route-identities", worst_identity, 1e-9, worst_identity <= 1e-9)
    yield ("stationarity-residual", worst_stationarity, 1e-8, worst_stationarity <= 1e-8)
    yield ("closed-form-residual-identities", worst_closed_form, 1e-9, worst_closed_form <= 1e-9)
    yield ("isotropic-growth-bounds", worst_growth, 1e-10, worst_growth <= 1e-10)
    yield ("interpolant-zero-train-error", worst_interp, 1e-16, worst_interp <= 1e-16)

    # feasibility boundary behavior on an isotropic design
    config = lab.ExperimentConfig(n=n, d=d, sigma2=sigma2, seed=seed, trials=1, rho=0.0)
    oracle = DesignOracle(lab.sample_design(config, 0), sigma2, PopulationSpectrum.isotropic())
    rho_max = oracle.rho_max
    ok = True
    try:
        oracle.estimator(0.99 * rho_max)
    except MemcostError:
        ok = False
    try:
        oracle.estimator(1.01 * rho_max)
        ok = False
    except MemcostError:
        pass
    yield ("feasibility-boundary", 0.0 if ok else 1.0, 0.5, ok)

    # training error is strictly increasing in the multiplier
    red = oracle.reduction
    trains = [red.train(red.delta(float(r))) for r in np.linspace(0.0, 0.9 * rho_max, 6)]
    increasing = bool(np.all(np.diff(trains) > 0))
    yield ("train-error-monotone", 0.0 if increasing else 1.0, 0.5, increasing)
