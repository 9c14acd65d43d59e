"""Finite-sample Monte Carlo laboratory.

Samples wide random designs, builds the duality-optimal constrained linear
estimator in closed form, and evaluates its exact conditional prediction and
training errors two ways: directly from the Frobenius-norm definitions, and
through trace identities driven by matrix decompositions.  The two routes
agree to near machine precision conditional on the design, which is the
backbone of the verification suite; Monte Carlo response draws and
convergence-to-asymptotics reports sit on top.

Conventions: designs are n x d with d > n; the population covariance is
realized as a diagonal matrix (without loss of generality for the error
functionals), so ``sigma_sqrt`` arguments are d-vectors holding its square
root.  Trials are independent, deterministically seeded, and reduced in
trial order so outputs are reproducible bit for bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .deformed import PopulationSpectrum
from .errors import (
    ConsistencyError,
    DomainError,
    FeasibilityError,
    RankError,
    RegimeError,
)
from .numerics import Interval, ToleranceSpec, bisect, sym_eigvals

__all__ = [
    "EntryDist",
    "ExperimentConfig",
    "DesignSample",
    "EstimatorMatrix",
    "ResponseSample",
    "ErrorReport",
    "IdentityCheckReport",
    "GrowthBoundsReport",
    "AsymptoticTargets",
    "TrialMetrics",
    "ConvergenceRow",
    "splitmix64",
    "trial_seed",
    "apportion_atoms",
    "sample_design",
    "sample_response",
    "max_feasible_rho",
    "build_estimator",
    "pred_error_direct",
    "train_error_direct",
    "error_growth_trace",
    "lagrangian_gradient_residual",
    "matrix_identity_checks",
    "min_norm_interpolant_report",
    "monte_carlo_response_check",
    "growth_control_bounds_check",
    "evaluate_design",
    "solve_rho_finite",
    "trial_metrics",
    "run_trials",
    "convergence_report",
]

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 mixing step; uniform, bijective on 64-bit integers."""
    z = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def trial_seed(seed: int, trial: int) -> int:
    """Per-trial stream seed: seed XOR splitmix64(trial)."""
    return (seed ^ splitmix64(trial)) & _MASK64


class EntryDist(str, Enum):
    GAUSSIAN = "gaussian"
    RADEMACHER = "rademacher"


@dataclass(frozen=True)
class ExperimentConfig:
    """Specification of one finite-sample experiment.

    Exactly one of ``rho`` / ``eps2`` selects the constraint: a fixed
    multiplier, or a squared-training-error target solved per trial.
    """

    n: int
    d: int
    sigma2: float
    seed: int
    trials: int = 1
    entry_dist: EntryDist = EntryDist.GAUSSIAN
    population: PopulationSpectrum = field(default_factory=PopulationSpectrum.isotropic)
    rho: Optional[float] = None
    eps2: Optional[float] = None

    def __post_init__(self):
        if self.d <= self.n:
            raise RegimeError(
                f"overparameterized regime requires d > n, got n={self.n}, d={self.d}"
            )
        if self.n < 1:
            raise DomainError("n must be positive")
        if not self.sigma2 > 0:
            raise DomainError(f"sigma2 must be positive, got {self.sigma2}")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if not (0 <= self.seed <= _MASK64):
            raise DomainError("seed must fit in 64 unsigned bits")
        if (self.rho is None) == (self.eps2 is None):
            raise DomainError("exactly one of rho / eps2 must be given")
        if self.rho is not None and self.rho < 0:
            raise DomainError("rho must be nonnegative")
        if self.eps2 is not None and self.eps2 < 0:
            raise DomainError("eps2 must be nonnegative")
        object.__setattr__(self, "entry_dist", EntryDist(self.entry_dist))

    @property
    def gamma_n(self) -> float:
        return self.d / self.n


@dataclass(frozen=True)
class DesignSample:
    """One sampled design: standardized entries Z, diagonal sqrt-covariance, X = Z diag(sigma_sqrt)."""

    Z: np.ndarray
    sigma_sqrt: np.ndarray
    X: np.ndarray


@dataclass(frozen=True)
class EstimatorMatrix:
    """A validated closed-form estimator matrix at multiplier rho."""

    A: np.ndarray
    rho: float
    feasible: bool = True


@dataclass(frozen=True)
class ResponseSample:
    """One draw of (signal, noise, response) for a fixed design."""

    theta: np.ndarray
    w: np.ndarray
    y: np.ndarray


@dataclass(frozen=True)
class ErrorReport:
    """Exact conditional errors of one estimator, via both evaluation routes.

    Construction enforces the algebraic identities: the trace route must
    reproduce the direct training error, and the trace growth must match
    the direct prediction-error difference from the ridge baseline, each
    to 1e-9 relative.
    """

    pred_direct: float
    train_direct: float
    pred_ridge: float
    pred_growth_trace: float
    train_trace: float
    duality_residual: float
    monte_carlo_pred: Optional[float] = None
    monte_carlo_train: Optional[float] = None

    def __post_init__(self):
        tol = 1e-9
        if abs(self.train_trace - self.train_direct) > tol * max(abs(self.train_direct), 1e-300):
            raise ConsistencyError(
                f"training error routes disagree: direct {self.train_direct!r} "
                f"vs trace {self.train_trace!r}"
            )
        growth_direct = self.pred_direct - self.pred_ridge
        scale = max(abs(growth_direct), abs(self.pred_ridge) * 1e-6, 1e-300)
        if abs(self.pred_growth_trace - growth_direct) > tol * scale:
            raise ConsistencyError(
                f"prediction growth routes disagree: direct {growth_direct!r} "
                f"vs trace {self.pred_growth_trace!r}"
            )


@dataclass(frozen=True)
class IdentityCheckReport:
    """Relative Frobenius deviations of the two closed-form residual identities."""

    ax_minus_i_dev: float
    xa_minus_i_dev: float

    @property
    def max_dev(self) -> float:
        return max(self.ax_minus_i_dev, self.xa_minus_i_dev)


@dataclass(frozen=True)
class GrowthBoundsReport:
    """Margins of the isotropic-reduction growth bounds (each must be >= -1e-10)."""

    pred_margin: float
    train_margin: float


def apportion_atoms(population: PopulationSpectrum, d: int) -> np.ndarray:
    """Diagonal covariance values (descending) realizing the atom weights over d slots.

    Uses largest-remainder apportionment: floor(w_j d) slots per atom, then
    leftover slots to the largest fractional remainders (ties broken by atom
    order), so the realization is deterministic.
    """
    vals = population.values
    wts = population.weights
    exact = wts * d
    counts = np.floor(exact).astype(int)
    leftover = d - counts.sum()
    if leftover > 0:
        order = sorted(range(len(vals)), key=lambda j: (-(exact[j] - counts[j]), j))
        for j in order[:leftover]:
            counts[j] += 1
    return np.repeat(vals, counts)


def sample_design(config: ExperimentConfig, trial: int) -> DesignSample:
    """Draw the design for one trial, deterministically from (seed, trial)."""
    if trial >= config.trials:
        raise DomainError(f"trial {trial} out of range for {config.trials} trials")
    rng = np.random.default_rng(trial_seed(config.seed, trial))
    n, d = config.n, config.d
    if config.entry_dist is EntryDist.GAUSSIAN:
        Z = rng.standard_normal((n, d))
    else:
        Z = 2.0 * rng.integers(0, 2, size=(n, d)).astype(np.float64) - 1.0
    sigma_sqrt = np.sqrt(apportion_atoms(config.population, d))
    return DesignSample(Z=Z, sigma_sqrt=sigma_sqrt, X=Z * sigma_sqrt[None, :])


def sample_response(X: np.ndarray, sigma2: float, rng: np.random.Generator) -> ResponseSample:
    """Draw theta ~ N(0, I/d), w ~ N(0, sigma2 I), y = X theta + w."""
    n, d = X.shape
    theta = rng.standard_normal(d) / np.sqrt(d)
    w = rng.standard_normal(n) * np.sqrt(sigma2)
    return ResponseSample(theta=theta, w=w, y=X @ theta + w)


def max_feasible_rho(Z: np.ndarray) -> float:
    """Supremum of feasible multipliers: d / (top singular value of Z)^2."""
    n, d = Z.shape
    top = float(np.linalg.svd(Z, compute_uv=False)[0])
    return d / top**2


def _constraint_matrix(X: np.ndarray, sigma_sqrt: np.ndarray, rho: float) -> np.ndarray:
    d = X.shape[1]
    M = (-rho / d) * (X.T @ X)
    M[np.diag_indices_from(M)] += sigma_sqrt**2
    return M


def _spd_factor(M: np.ndarray, what: str, *, overwrite: bool = False):
    # inputs are package-built finite matrices, so skip the finite scan
    try:
        return cho_factor(M, lower=True, check_finite=False, overwrite_a=overwrite)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own
        raise FeasibilityError(f"{what} is not positive definite") from exc
    except Exception as exc:
        raise FeasibilityError(f"{what} is not positive definite: {exc}") from exc


def _spd_solve(factor, B: np.ndarray) -> np.ndarray:
    return cho_solve(factor, B, check_finite=False)


def build_estimator(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, rho: float
) -> EstimatorMatrix:
    """Closed-form optimal estimator at multiplier rho.

    A(rho) = (I - rho sigma2 M^{-1}) (X^T X + d sigma2 I)^{-1} X^T with
    M = Sigma - (rho/d) X^T X, which must be positive definite (minimum
    eigenvalue > 1e-10); rho = 0 gives the ridge matrix.  The equivalent
    form routing X^T through the n x n Gram inverse is evaluated as well
    and must agree to 1e-10 relative Frobenius.
    """
    n, d = X.shape
    if rho < 0:
        raise DomainError(f"rho must be nonnegative, got {rho}")
    M = _constraint_matrix(X, sigma_sqrt, rho)
    if rho == 0.0:
        min_eig = float(np.min(sigma_sqrt) ** 2)
    else:
        min_eig = float(sym_eigvals(M)[0])
    if min_eig <= 1e-10:
        raise FeasibilityError(
            f"rho={rho} infeasible: min eigenvalue of the constraint matrix is {min_eig:.3e}",
            min_eigenvalue=min_eig,
        )

    XtX = X.T @ X
    K = XtX + (d * sigma2) * np.eye(d)
    ridge_d = _spd_solve(_spd_factor(K, "d-side ridge Gram", overwrite=True), X.T)

    Kn = X @ X.T + (d * sigma2) * np.eye(n)
    ridge_n = _spd_solve(_spd_factor(Kn, "n-side ridge Gram", overwrite=True), X).T

    if rho == 0.0:
        A2, A1 = ridge_d, ridge_n
    else:
        Mf = _spd_factor(M, "constraint matrix")
        A2 = ridge_d - (rho * sigma2) * _spd_solve(Mf, ridge_d)
        A1 = ridge_n - (rho * sigma2) * _spd_solve(Mf, ridge_n)
    dev = np.linalg.norm(A1 - A2) / max(np.linalg.norm(A2), 1e-300)
    if dev > 1e-10:
        raise ConsistencyError(
            f"the two closed-form estimator routes disagree: {dev:.3e} relative"
        )
    return EstimatorMatrix(A=A2, rho=float(rho), feasible=True)


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


def _thin_svd_checked(X: np.ndarray):
    n, d = X.shape
    U, lam, Vt = np.linalg.svd(X, full_matrices=False)
    if lam[-1] <= 1e-8 * np.sqrt(d):
        raise RankError(
            f"design is numerically rank deficient: smallest singular value {lam[-1]:.3e}"
        )
    return U, lam, Vt.T


def _growth_trace_from_svd(
    X: np.ndarray,
    sigma_sqrt: np.ndarray,
    sigma2: float,
    rho: float,
    lam: np.ndarray,
    V: np.ndarray,
) -> tuple[float, float]:
    n, d = X.shape
    sig2vals = sigma_sqrt**2
    ds2 = d * sigma2
    if rho == 0.0:
        CtSC = np.sum(sig2vals[:, None] * V**2, axis=0)
        G2 = None
    else:
        Mf = _spd_factor(_constraint_matrix(X, sigma_sqrt, rho), "constraint matrix")
        C = _spd_solve(Mf, V)
        CtSC = np.sum(sig2vals[:, None] * C**2, axis=0)
        B = sig2vals[:, None] * _spd_solve(Mf, X.T)
        G2 = np.sum((B.T @ V) ** 2, axis=0)
    delta_pred = (rho**2 * sigma2**2 / d) * float(
        np.sum(lam**2 / (lam**2 + ds2) * CtSC)
    )
    if G2 is None:
        # at rho = 0 the trace telescopes to the ridge training error
        train = sigma2**2 * float(np.sum(1.0 / (lam**2 / d + sigma2))) / n
    else:
        train = (d * sigma2**2 / n) * float(np.sum(G2 / (lam**2 * (lam**2 + ds2))))
    return delta_pred, train


def error_growth_trace(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, rho: float
) -> tuple[float, float]:
    """Trace-identity route to (prediction-error growth over ridge, training error).

    Evaluated through the thin SVD of X and SPD solves against the
    constraint matrix; no explicit d x d inverse is formed.  Requires a
    numerically full-row-rank design and a feasible rho.
    """
    _, lam, V = _thin_svd_checked(X)
    return _growth_trace_from_svd(X, sigma_sqrt, sigma2, rho, lam, V)


def lagrangian_gradient_residual(
    A: np.ndarray, X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, rho: float
) -> float:
    """Normalized Frobenius norm of the stationarity-condition gradient at A.

    The gradient is (1/d) M A (XX^T + d sigma2 I) - (1/d)(M - rho sigma2 I) X^T
    with M = Sigma - (rho/d) X^T X; it vanishes exactly at the closed-form
    optimum.  The norm is reported relative to ||X||_F / (d sqrt(n)).
    """
    n, d = X.shape
    M = _constraint_matrix(X, sigma_sqrt, rho)
    Kn = X @ X.T + (d * sigma2) * np.eye(n)
    term1 = M @ (A @ Kn)
    term2 = M @ X.T
    term2 -= (rho * sigma2) * X.T
    G = (term1 - term2) / d
    scale = np.linalg.norm(X) / (d * np.sqrt(n))
    return float(np.linalg.norm(G) / scale)


def matrix_identity_checks(
    X: np.ndarray,
    sigma_sqrt: np.ndarray,
    sigma2: float,
    rho: float,
    A: Optional[np.ndarray] = None,
) -> IdentityCheckReport:
    """Relative deviations of the closed forms of A(rho)X - I and XA(rho) - I.

    A(rho)X - I must equal -d sigma2 M^{-1} Sigma (X^T X + d sigma2 I)^{-1}
    and XA(rho) - I must equal
    -d sigma2 X M^{-1} Sigma X^T (XX^T)^{-1} (XX^T + d sigma2 I)^{-1};
    both hold to 1e-9 relative for any feasible rho.  Pass ``A`` to reuse an
    already-built estimator.
    """
    n, d = X.shape
    XXt = X @ X.T
    min_eig = float(np.linalg.eigvalsh(XXt)[0])
    if min_eig <= (1e-8) ** 2 * d:
        raise RankError(
            f"design is numerically rank deficient: min eig of XX^T is {min_eig:.3e}"
        )
    if A is None:
        A = build_estimator(X, sigma_sqrt, sigma2, rho).A
    sig2vals = sigma_sqrt**2
    ds2 = d * sigma2
    Mf = _spd_factor(_constraint_matrix(X, sigma_sqrt, rho), "constraint matrix")
    K = X.T @ X + ds2 * np.eye(d)
    Kf = _spd_factor(K, "d-side ridge Gram", overwrite=True)

    lhs1 = A @ X
    lhs1[np.diag_indices_from(lhs1)] -= 1.0
    MinvS = _spd_solve(Mf, np.diag(sig2vals))
    rhs1 = -ds2 * _spd_solve(Kf, MinvS.T).T
    dev1 = float(np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(rhs1))

    lhs2 = X @ A
    lhs2[np.diag_indices_from(lhs2)] -= 1.0
    XXtf = _spd_factor(XXt, "design Gram")
    Knf = _spd_factor(XXt + ds2 * np.eye(n), "n-side ridge Gram", overwrite=True)
    B = (_spd_solve(Mf, X.T) * sig2vals[:, None]).T @ X.T
    rhs2 = -ds2 * _spd_solve(Knf, _spd_solve(XXtf, B.T)).T
    dev2 = float(np.linalg.norm(lhs2 - rhs2) / np.linalg.norm(rhs2))
    return IdentityCheckReport(ax_minus_i_dev=dev1, xa_minus_i_dev=dev2)


def min_norm_interpolant_report(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float
) -> tuple[float, float]:
    """Prediction error of the minimum-norm interpolant and its gap over ridge.

    For an isotropic covariance the gap is cross-checked against the
    spectral form -n/d + sigma2 tr((XX^T)^{-1})
    + (1/d) tr(XX^T (XX^T + d sigma2 I)^{-1}), which must agree to 1e-9.
    """
    n, d = X.shape
    U, lam, V = _thin_svd_checked(X)
    A_ols = V @ (U / lam[None, :]).T
    pred_ols = pred_error_direct(A_ols, X, sigma_sqrt, sigma2)
    A0 = build_estimator(X, sigma_sqrt, sigma2, 0.0).A
    gap = pred_ols - pred_error_direct(A0, X, sigma_sqrt, sigma2)
    if np.all(sigma_sqrt == 1.0):
        spectral = (
            -n / d
            + sigma2 * float(np.sum(1.0 / lam**2))
            + float(np.sum(lam**2 / (lam**2 + d * sigma2))) / d
        )
        if abs(gap - spectral) > 1e-9 * max(abs(spectral), 1e-300):
            raise ConsistencyError(
                f"interpolant gap routes disagree: direct {gap!r} vs spectral {spectral!r}"
            )
    return pred_ols, gap


def monte_carlo_response_check(
    X: np.ndarray,
    sigma_sqrt: np.ndarray,
    sigma2: float,
    A: np.ndarray,
    samples: int,
    seed: int,
) -> tuple[float, float]:
    """Sample-mean estimates of the conditional errors from response draws.

    Draws (theta, w) pairs, forms y and the estimate A y, and averages
    ||Sigma^(1/2)(est - theta)||^2 and (1/n)||X est - y||^2; both estimate
    the exact conditional errors with O(1/sqrt(samples)) standard error.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    n, d = X.shape
    rng = np.random.default_rng(seed)
    theta = rng.standard_normal((d, samples)) / np.sqrt(d)
    w = rng.standard_normal((n, samples)) * np.sqrt(sigma2)
    y = X @ theta + w
    est = A @ y
    pred = np.sum((sigma_sqrt[:, None] * (est - theta)) ** 2, axis=0)
    train = np.sum((X @ est - y) ** 2, axis=0) / n
    return float(pred.mean()), float(train.mean())


def growth_control_bounds_check(
    Z: np.ndarray, population: PopulationSpectrum, sigma2: float, rho: float
) -> GrowthBoundsReport:
    """Margins of the isotropic-reduction bounds on the anisotropic error growths.

    The prediction-error growth must dominate, and the training-error growth
    be dominated by, spectral functionals of Z alone (condition-number
    mitigated); margins are signed so both must be >= -1e-10, with the
    prediction bound tight at kappa = 1.
    """
    n, d = Z.shape
    mu2 = np.linalg.svd(Z, compute_uv=False) ** 2
    if rho * mu2[0] / d >= 1.0:
        raise RegimeError(
            f"requires rho * top_eig(ZZ^T)/d < 1, got {rho * mu2[0] / d}"
        )
    kappa = population.kappa
    sigma_sqrt = np.sqrt(apportion_atoms(population, d))
    X = Z * sigma_sqrt[None, :]

    delta_pred, train_rho = error_growth_trace(X, sigma_sqrt, sigma2, rho)
    _, train_0 = error_growth_trace(X, sigma_sqrt, sigma2, 0.0)
    delta_train = train_rho - train_0

    s = mu2 / d
    shrink = 1.0 / (1.0 - rho * s) ** 2
    pred_rhs = (rho**2 * sigma2**2 / d) * float(np.sum(shrink * s / (s + sigma2)))
    train_rhs = (kappa * sigma2**2 / n) * float(np.sum((shrink - 1.0) / (s + kappa * sigma2)))
    return GrowthBoundsReport(
        pred_margin=delta_pred - pred_rhs,
        train_margin=train_rhs - delta_train,
    )


def evaluate_design(
    X: np.ndarray,
    sigma_sqrt: np.ndarray,
    sigma2: float,
    rho: float,
    mc_samples: int = 0,
    mc_seed: int = 0,
    pred_ridge: Optional[float] = None,
) -> ErrorReport:
    """Assemble the full error report for one design at one multiplier.

    ``pred_ridge`` may be passed to reuse the ridge prediction error when
    evaluating many multipliers on the same design.
    """
    A = build_estimator(X, sigma_sqrt, sigma2, rho)
    if pred_ridge is None:
        A0 = A if rho == 0.0 else build_estimator(X, sigma_sqrt, sigma2, 0.0)
        pred_ridge = pred_error_direct(A0.A, X, sigma_sqrt, sigma2)
    delta_pred, train_trace = error_growth_trace(X, sigma_sqrt, sigma2, rho)
    mc_pred = mc_train = None
    if mc_samples > 0:
        mc_pred, mc_train = monte_carlo_response_check(
            X, sigma_sqrt, sigma2, A.A, mc_samples, mc_seed
        )
    return ErrorReport(
        pred_direct=pred_error_direct(A.A, X, sigma_sqrt, sigma2),
        train_direct=train_error_direct(A.A, X, sigma2),
        pred_ridge=pred_ridge,
        pred_growth_trace=delta_pred,
        train_trace=train_trace,
        duality_residual=lagrangian_gradient_residual(A.A, X, sigma_sqrt, sigma2, rho),
        monte_carlo_pred=mc_pred,
        monte_carlo_train=mc_train,
    )


def _solve_rho_for_train(train, s_top: float, eps2: float) -> float:
    """Invert a monotone finite-sample training-error function."""
    if train(0.0) >= eps2:
        return 0.0
    # feasibility boundary of this design; the training error diverges there
    cap = (1.0 - 1e-9) / s_top
    if train(cap) < eps2:
        raise FeasibilityError(
            f"eps2={eps2} is unreachable within this design's feasible multipliers"
        )
    rho = bisect(
        lambda r: train(r) - eps2,
        Interval(0.0, cap),
        ToleranceSpec(abs_tol=1e-24, rel_tol=4e-16, max_iter=200),
    )
    return float(rho)


def _spectral_train(s: np.ndarray, sigma2: float):
    def train(rho: float) -> float:
        return sigma2**2 * float(np.mean(1.0 / ((1.0 - rho * s) ** 2 * (s + sigma2))))

    return train


def solve_rho_finite(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, eps2: float
) -> float:
    """Multiplier making this design's exact training error equal eps2.

    Returns 0 when the design's unconstrained training error already
    exceeds eps2 (finite-sample constraint inactive).  Isotropic designs
    use the spectral form of the training error; anisotropic ones the
    trace route.
    """
    n, d = X.shape
    _, lam, V = _thin_svd_checked(X)
    s = lam**2 / d
    if np.all(sigma_sqrt == 1.0):
        train = _spectral_train(s, sigma2)
    else:

        def train(rho: float) -> float:
            return _growth_trace_from_svd(X, sigma_sqrt, sigma2, rho, lam, V)[1]

    return _solve_rho_for_train(train, float(s[0]), eps2)


@dataclass(frozen=True)
class AsymptoticTargets:
    """Limit values the finite-sample means are compared against."""

    train_ridge: Optional[float] = None
    cost: Optional[float] = None
    ols_gap: Optional[float] = None


@dataclass(frozen=True)
class TrialMetrics:
    """Per-trial scalars aggregated by the convergence report."""

    trial: int
    rho: float
    train_ridge: float
    cost: float
    ols_gap: float


@dataclass(frozen=True)
class ConvergenceRow:
    """Mean/SE of each metric at one problem size, with target deviations."""

    n: int
    d: int
    trials: int
    mean_train_ridge: float
    se_train_ridge: float
    mean_cost: float
    se_cost: float
    mean_ols_gap: float
    se_ols_gap: float
    dev_train_ridge: Optional[float] = None
    dev_cost: Optional[float] = None
    dev_ols_gap: Optional[float] = None


def trial_metrics(config: ExperimentConfig, trial: int) -> TrialMetrics:
    """Ridge training error, constrained cost, and interpolant gap for one trial.

    Isotropic configs run entirely on the singular values of X (the exact
    spectral forms of the error identities); anisotropic ones fall back to
    the decomposition-based trace route, which is intended for n <= 400.
    """
    design = sample_design(config, trial)
    X, sigma_sqrt = design.X, design.sigma_sqrt
    n, d = X.shape
    sigma2 = config.sigma2
    isotropic = bool(np.all(sigma_sqrt == 1.0))
    if isotropic:
        lam = np.linalg.svd(X, compute_uv=False)
        V = None
    else:
        _, lam, V = _thin_svd_checked(X)
    if lam[-1] <= 1e-8 * np.sqrt(d):
        raise RankError("design is numerically rank deficient")
    s = lam**2 / d

    train_ridge = sigma2**2 * float(np.mean(1.0 / (s + sigma2)))
    if config.eps2 is not None:
        if isotropic:
            rho = _solve_rho_for_train(_spectral_train(s, sigma2), float(s[0]), config.eps2)
        else:
            rho = _solve_rho_for_train(
                lambda r: _growth_trace_from_svd(X, sigma_sqrt, sigma2, r, lam, V)[1],
                float(s[0]),
                config.eps2,
            )
    else:
        rho = float(config.rho)
        # for isotropic designs s is the spectrum of ZZ^T/d, whose top value caps rho
        if isotropic and rho * s[0] >= 1.0:
            raise RegimeError(
                f"trial {trial}: requires rho * top_eig(ZZ^T)/d < 1, got {rho * s[0]}"
            )

    if isotropic:
        if rho == 0.0:
            cost = 0.0
        else:
            cost = (rho**2 * sigma2**2 / d) * float(
                np.sum(s / ((1.0 - rho * s) ** 2 * (s + sigma2)))
            )
        ols_gap = (
            -n / d
            + sigma2 * float(np.sum(1.0 / lam**2))
            + float(np.sum(s / (s + sigma2))) / d
        )
    else:
        cost = _growth_trace_from_svd(X, sigma_sqrt, sigma2, rho, lam, V)[0]
        _, ols_gap = min_norm_interpolant_report(X, sigma_sqrt, sigma2)
    return TrialMetrics(
        trial=trial, rho=rho, train_ridge=train_ridge, cost=cost, ols_gap=ols_gap
    )


def _thread_count() -> int:
    env = os.environ.get("MEMCOST_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def run_trials(config: ExperimentConfig, fn: Callable[[ExperimentConfig, int], object]) -> list:
    """Run fn(config, trial) for every trial, in trial order.

    Trials may execute concurrently (capped by MEMCOST_THREADS); results
    are collected by trial index so downstream reductions are reproducible
    regardless of scheduling.
    """
    workers = min(_thread_count(), config.trials)
    if workers <= 1:
        return [fn(config, t) for t in range(config.trials)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda t: fn(config, t), range(config.trials)))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    m = float(values.mean())
    if len(values) < 2:
        return m, 0.0
    return m, float(values.std(ddof=1) / np.sqrt(len(values)))


def _rel_dev(mean: float, target: Optional[float]) -> Optional[float]:
    if target is None:
        return None
    return abs(mean - target) / abs(target)


def convergence_report(
    configs: Sequence[ExperimentConfig], targets: AsymptoticTargets
) -> list[ConvergenceRow]:
    """Aggregate per-trial metrics for each config and compare to the limits.

    Configs are expected to share (aspect ratio, sigma2, population) and
    vary n; each row carries means, standard errors, and relative
    deviations from the supplied targets.
    """
    rows = []
    for config in configs:
        metrics = run_trials(config, trial_metrics)
        tr = np.array([m.train_ridge for m in metrics])
        co = np.array([m.cost for m in metrics])
        og = np.array([m.ols_gap for m in metrics])
        m_tr, se_tr = _mean_se(tr)
        m_co, se_co = _mean_se(co)
        m_og, se_og = _mean_se(og)
        rows.append(
            ConvergenceRow(
                n=config.n,
                d=config.d,
                trials=config.trials,
                mean_train_ridge=m_tr,
                se_train_ridge=se_tr,
                mean_cost=m_co,
                se_cost=se_co,
                mean_ols_gap=m_og,
                se_ols_gap=se_og,
                dev_train_ridge=_rel_dev(m_tr, targets.train_ridge),
                dev_cost=_rel_dev(m_co, targets.cost),
                dev_ols_gap=_rel_dev(m_og, targets.ols_gap),
            )
        )
    return rows
