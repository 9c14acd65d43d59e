"""Finite-sample Monte Carlo laboratory.

Samples wide random designs, builds the duality-optimal constrained linear
estimator in closed form, and evaluates its exact conditional prediction and
training errors two ways: directly from the Frobenius-norm definitions, and
through one spectral reduction of the design to n-vectors, after which every
error at every multiplier is an O(n) sum.  The reduction is the production
route; the direct route (d x d Cholesky-checked solves) is its oracle.  The
two agree to near machine precision conditional on the design, which is the
backbone of the verification suite; Monte Carlo response draws and
convergence-to-asymptotics reports sit on top.  The empirical spectrum of a
design and its comparison with the Marchenko-Pastur edges and c.d.f. are
here too, with the dense symmetric eigenvalue contract.

Conventions: designs are n x d with d > n; the population covariance is
realized as a diagonal matrix (without loss of generality for the error
functionals), so ``sigma_sqrt`` arguments are d-vectors holding its square
root.  Trials are independent, deterministically seeded, and run one at a
time in trial order, so outputs are reproducible bit for bit for a fixed BLAS
build and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .deformed import PopulationSpectrum
from .errors import (
    ConsistencyError,
    DomainError,
    FeasibilityError,
    NearDivergenceError,
    RankError,
    RegimeError,
)
from .numerics import check_sigma2, edge_distance, solve_multiplier
from .spectra import MPLaw, mp_cdf

__all__ = [
    "EmpiricalSpectrum",
    "esd_from_design",
    "bai_yin_check",
    "kolmogorov_distance",
    "sym_eigvals",
    "EntryDist",
    "ExperimentConfig",
    "DesignSample",
    "EstimatorMatrix",
    "ErrorReport",
    "IdentityCheckReport",
    "GrowthBoundsReport",
    "AsymptoticTargets",
    "TrialMetrics",
    "splitmix64",
    "trial_seed",
    "apportion_atoms",
    "sample_design",
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
    "trial_metrics",
    "run_trials",
    "summarize",
    "summarize_trials",
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
        check_sigma2(self.sigma2)
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        self.check_seed(self.seed)
        if (self.rho is None) == (self.eps2 is None):
            raise DomainError("exactly one of rho / eps2 must be given")
        for name in ("rho", "eps2"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < np.inf:
                raise DomainError(f"{name} must be finite and nonnegative, got {value}")
        object.__setattr__(self, "entry_dist", EntryDist(self.entry_dist))

    @staticmethod
    def check_seed(seed: int) -> None:
        """Refuse a seed outside the 64 unsigned bits the trial streams take."""
        if not 0 <= seed <= _MASK64:
            raise DomainError(f"seed must fit in 64 unsigned bits, got {seed}")

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
    monte_carlo_pred: Optional[float] = None
    monte_carlo_train: Optional[float] = None

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


@dataclass(frozen=True)
class EmpiricalSpectrum:
    """Eigenvalues of (1/d) X X^T for a wide design X, descending."""

    values: np.ndarray
    n: int
    d: int

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if len(v) != self.n:
            raise DomainError(f"expected {self.n} eigenvalues, got {len(v)}")
        if self.n > self.d:
            raise DomainError(f"requires n <= d, got n={self.n}, d={self.d}")
        if np.any(v < 0):
            raise DomainError("eigenvalues of a Gram matrix must be nonnegative")
        if np.any(np.diff(v) > 0):
            raise DomainError("eigenvalues must be in descending order")
        object.__setattr__(self, "values", v)


def esd_from_design(X: np.ndarray) -> EmpiricalSpectrum:
    """Empirical spectrum of (1/d) X X^T, from the eigenvalues of the n x n Gram matrix.

    Eigenvalues of a rank-deficient Gram matrix can come out at -eps times
    the top one; they are clipped to 0.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DomainError(f"expected a matrix, got ndim={X.ndim}")
    n, d = X.shape
    if n > d:
        raise DomainError(f"wide design required (n <= d), got shape {X.shape}")
    s = np.linalg.eigvalsh(X @ X.T)[::-1] / d
    return EmpiricalSpectrum(values=np.maximum(s, 0.0), n=n, d=d)


def bai_yin_check(spec: EmpiricalSpectrum, law: MPLaw) -> tuple[float, float]:
    """Relative deviations of the extreme empirical eigenvalues from the edges.

    Returns (|v_max - lp|/lp, |v_min - lm|/lm); measurement only, degenerate
    spectra (e.g. from X = 0) simply report deviation 1.
    """
    if len(spec.values) == 0:
        raise DomainError("empty spectrum")
    top = float(spec.values[0])
    bot = float(spec.values[-1])
    return (
        abs(top - law.lambda_plus) / law.lambda_plus,
        abs(bot - law.lambda_minus) / law.lambda_minus,
    )


def kolmogorov_distance(spec: EmpiricalSpectrum, law: MPLaw) -> float:
    """Max deviation between empirical and limit c.d.f. on a fixed grid.

    The grid has 100 equispaced points on [lm/2, 2 lp], which makes the
    comparison deterministic for a given spectrum.
    """
    grid = np.linspace(law.lambda_minus / 2.0, 2.0 * law.lambda_plus, 100)
    # values are descending, so the empirical cdf counts from the tail
    v_asc = spec.values[::-1]
    emp = np.searchsorted(v_asc, grid, side="right") / spec.n
    lim = np.array([mp_cdf(law, float(x)) for x in grid])
    return float(np.max(np.abs(emp - lim)))


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


def max_feasible_rho(Z: np.ndarray) -> float:
    """Supremum of feasible multipliers: 1 / top eigenvalue of ZZ^T/d."""
    return 1.0 / float(esd_from_design(Z).values[0])


def _constraint_matrix(X: np.ndarray, sigma_sqrt: np.ndarray, rho: float) -> np.ndarray:
    d = X.shape[1]
    M = (-rho / d) * (X.T @ X)
    M[np.diag_indices_from(M)] += sigma_sqrt**2
    return M


def _spd_solve(M: np.ndarray, B: np.ndarray, what: str) -> np.ndarray:
    """M^{-1} B for a symmetric M that a Cholesky factorization proves positive definite."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise FeasibilityError(f"{what} is not positive definite") from exc
    return np.linalg.solve(M, B)


def _check_rank(s: np.ndarray) -> None:
    """Refuse a descending Gram spectrum whose smallest value is at rounding level of its top."""
    n = len(s)
    if s[-1] <= n * np.finfo(np.float64).eps * s[0]:
        raise RankError(
            f"design is numerically rank deficient: smallest eigenvalue of XX^T/d "
            f"is {s[-1]:.3e} against a top eigenvalue of {s[0]:.3e}"
        )


def build_estimator(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, rho: float
) -> EstimatorMatrix:
    """Closed-form optimal estimator at multiplier rho.

    A(rho) = (I - rho sigma2 M^{-1}) (X^T X + d sigma2 I)^{-1} X^T with
    M = Sigma - (rho/d) X^T X, which must be positive definite (minimum
    eigenvalue > 1e-10); rho = 0 gives the ridge matrix, V diag(l/(l^2 +
    d sigma2)) U^T from the thin SVD X = U diag(l) V^T.  The form routing X^T
    through the n x n Gram inverse must agree to 1e-10 relative Frobenius.
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

    U, lam, Vt = np.linalg.svd(X, full_matrices=False)
    ridge_d = (Vt.T * (lam / (lam * lam + d * sigma2))) @ U.T

    Kn = X @ X.T + (d * sigma2) * np.eye(n)
    ridge_n = _spd_solve(Kn, X, "n-side ridge Gram").T

    if rho == 0.0:
        A2, A1 = ridge_d, ridge_n
    else:
        both = _spd_solve(M, np.hstack([ridge_d, ridge_n]), "constraint matrix")
        A2 = ridge_d - (rho * sigma2) * both[:, :n]
        A1 = ridge_n - (rho * sigma2) * both[:, n:]
    dev = np.linalg.norm(A1 - A2) / max(np.linalg.norm(A2), 1e-300)
    if dev > 1e-10:
        raise ConsistencyError(
            f"the two closed-form estimator routes disagree: {dev:.3e} relative"
        )
    return EstimatorMatrix(A=A2, rho=float(rho))


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
class _Reduction:
    """One design reduced to n-vectors, so every error at every multiplier is an O(n) sum.

    With s the descending spectrum of ZZ^T/d and g_k = (1 - rho s_k)^-2,
    the training error is sum_k a_k g_k and the prediction-error growth
    over ridge is rho^2 sum_k b_k g_k, with b = (n/d) s a (see ``_reduce``).
    ``gap`` is the prediction-error gap of the minimum-norm interpolant over
    ridge.  Methods take the edge distance delta = 1 - rho s_0 in (0, 1],
    where the constraint matrix is positive definite for every population,
    and 1 - rho s_k is delta + (1 - delta)(1 - s_k/s_0), exactly delta at k = 0.
    """

    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    gap: float

    def delta(self, rho: float, context: str = "") -> float:
        return edge_distance(rho, float(self.s[0]), f"{context}rho with top = top_eig(ZZ^T)/d")

    def factors(self, delta: float) -> np.ndarray:
        return delta + (1.0 - delta) * (1.0 - self.s / self.s[0])

    def train(self, delta: float) -> float:
        f = self.factors(delta)
        return float(np.sum(self.a / f / f))

    def bracket(self, eps2: float) -> tuple[float, float]:
        """Edge distances around the root of train(delta) = eps2.

        Every factor is at least delta and the top one equals it, so
        a_0/delta^2 <= train(delta) <= sum(a)/delta^2 puts the root in
        [sqrt(a_0/eps2), sqrt(sum(a)/eps2)].  Each end is moved out by a
        factor 2: at large eps2 the a_0 term is all of train, and the lower
        end rounds onto the root.
        """
        return float(0.5 * np.sqrt(self.a[0] / eps2)), float(2.0 * np.sqrt(np.sum(self.a) / eps2))

    def growth(self, delta: float) -> float:
        f = self.factors(delta)
        return float(np.sum(((1.0 - delta) / self.s[0]) ** 2 * self.b / f / f))


def _reduce(Z: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float) -> _Reduction:
    """The spectral reduction of the design X = Z S, S = diag(sigma_sqrt).

    With thin SVDs Z = U_z diag(mu) V_z^T and X = U diag(lambda) V^T,
    s = mu^2/d, s' = lambda^2/d and W = U_z^T U, the identity
    train(rho) = (sigma2^2/n) tr[(I - rho ZZ^T/d)^-2 (XX^T/d + sigma2 I)^-1]
    gives, for every population,

        a = (sigma2^2/n) (W o W) 1/(s' + sigma2),    b = (n/d) s a,
        gap = (sigma2^2/d) sum_j T_j/(s'_j (s'_j + sigma2)),  T_j = v_j^T Sigma v_j,

    a gap of positive terms that stays accurate as sigma2 -> 0.  Isotropic
    designs are the case W = I, s' = s and T = 1, from the Gram eigenvalues.
    """
    n, d = Z.shape
    scale = sigma2 * sigma2
    if np.all(sigma_sqrt == 1.0):
        s = sx = esd_from_design(Z).values
        W2, T = np.eye(n), 1.0
    else:
        Uz, mu, _ = np.linalg.svd(Z, full_matrices=False)
        U, lam, Vt = np.linalg.svd(Z * sigma_sqrt, full_matrices=False)
        s, sx = mu**2 / d, lam**2 / d
        W2, T = (Uz.T @ U) ** 2, Vt**2 @ sigma_sqrt**2
    _check_rank(s)
    _check_rank(sx)
    inv = 1.0 / (sx + sigma2)
    a = (scale / n) * (W2 @ inv)
    return _Reduction(
        s=s, a=a, b=(n / d) * s * a, gap=(scale / d) * float(np.sum(T * inv / sx))
    )


def error_growth_trace(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float, rho: float
) -> tuple[float, float]:
    """Reduction route to (prediction-error growth over ridge, training error).

    Reduces the design once (see ``_reduce``) and sums over n-vectors; no
    d x d matrix is formed.  Requires a numerically full-row-rank design
    (else RankError) and 0 <= rho < 1/top_eig(ZZ^T/d) (else RegimeError).
    """
    red = _reduce(X / sigma_sqrt, sigma_sqrt, sigma2)
    delta = red.delta(rho)
    return red.growth(delta), red.train(delta)


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
    _check_rank(np.linalg.eigvalsh(XXt)[::-1])
    if A is None:
        A = build_estimator(X, sigma_sqrt, sigma2, rho).A
    sig2vals = sigma_sqrt**2
    ds2 = d * sigma2
    M = _constraint_matrix(X, sigma_sqrt, rho)
    Minv = _spd_solve(M, np.hstack([np.diag(sig2vals), X.T]), "constraint matrix")
    K = X.T @ X + ds2 * np.eye(d)

    lhs1 = A @ X
    lhs1[np.diag_indices_from(lhs1)] -= 1.0
    rhs1 = -ds2 * _spd_solve(K, Minv[:, :d].T, "d-side ridge Gram").T
    dev1 = float(np.linalg.norm(lhs1 - rhs1) / np.linalg.norm(rhs1))

    lhs2 = X @ A
    lhs2[np.diag_indices_from(lhs2)] -= 1.0
    B = (Minv[:, d:] * sig2vals[:, None]).T @ X.T
    rhs2 = -ds2 * _spd_solve(
        XXt + ds2 * np.eye(n), _spd_solve(XXt, B.T, "design Gram"), "n-side ridge Gram"
    ).T
    dev2 = float(np.linalg.norm(lhs2 - rhs2) / np.linalg.norm(rhs2))
    return IdentityCheckReport(ax_minus_i_dev=dev1, xa_minus_i_dev=dev2)


def min_norm_interpolant_report(
    X: np.ndarray, sigma_sqrt: np.ndarray, sigma2: float
) -> tuple[float, float]:
    """Prediction error of the minimum-norm interpolant and its gap over ridge.

    Both come from the direct route (the interpolant is pinv(X)).  With
    G = XX^T, the interpolant minus the ridge matrix is
    D = d sigma2 X^T G^-1 (G + d sigma2 I)^-1, and the ridge gradient of the
    prediction error vanishes for any diagonal Sigma, so the gap is exactly
    (1/d)||S D X||_F^2 + sigma2 ||S D||_F^2: positive terms, without the
    cancellation of subtracting two errors of order 1.  It is cross-checked
    against the reduction's gap (see ``_reduce``), and the two must agree
    to 1e-9.
    """
    n, d = X.shape
    reduced = _reduce(X / sigma_sqrt, sigma_sqrt, sigma2).gap
    pred_ols = pred_error_direct(np.linalg.pinv(X), X, sigma_sqrt, sigma2)
    G = X @ X.T
    ds2 = d * sigma2
    Dt = ds2 * _spd_solve(G + ds2 * np.eye(n), _spd_solve(G, X, "design Gram"), "n-side ridge Gram")
    SD = sigma_sqrt[:, None] * Dt.T
    gap = float(np.sum((SD @ X) ** 2)) / d + sigma2 * float(np.sum(SD**2))
    if abs(gap - reduced) > 1e-9 * max(abs(reduced), 1e-300):
        raise ConsistencyError(
            f"interpolant gap routes disagree: direct {gap!r} vs reduction {reduced!r}"
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
    kappa = population.kappa
    red = _reduce(Z, np.sqrt(apportion_atoms(population, d)), sigma2)
    edge = red.delta(rho)
    delta_pred = red.growth(edge)
    delta_train = red.train(edge) - red.train(1.0)

    s = red.s
    shrink = 1.0 / red.factors(edge) ** 2
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
) -> ErrorReport:
    """Assemble the full error report for one design at one multiplier."""
    A = build_estimator(X, sigma_sqrt, sigma2, rho)
    A0 = A if rho == 0.0 else build_estimator(X, sigma_sqrt, sigma2, 0.0)
    delta_pred, train_trace = error_growth_trace(X, sigma_sqrt, sigma2, rho)
    mc_pred = mc_train = None
    if mc_samples > 0:
        mc_pred, mc_train = monte_carlo_response_check(
            X, sigma_sqrt, sigma2, A.A, mc_samples, mc_seed
        )
    return ErrorReport(
        pred_direct=pred_error_direct(A.A, X, sigma_sqrt, sigma2),
        train_direct=train_error_direct(A.A, X, sigma2),
        pred_ridge=pred_error_direct(A0.A, X, sigma_sqrt, sigma2),
        pred_growth_trace=delta_pred,
        train_trace=train_trace,
        duality_residual=lagrangian_gradient_residual(A.A, X, sigma_sqrt, sigma2, rho),
        monte_carlo_pred=mc_pred,
        monte_carlo_train=mc_train,
    )


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


def trial_metrics(config: ExperimentConfig, trial: int) -> TrialMetrics:
    """Ridge training error, constrained cost, and interpolant gap for one trial.

    All three, and the multiplier solve for an eps2 target, are sums over
    one spectral reduction of the design (see ``_reduce``), for isotropic
    and anisotropic populations alike.  The solve is the limit law's own
    (``numerics.solve_multiplier``), in delta = 1 - rho top_eig(ZZ^T/d), on
    ``_Reduction.bracket``; the training error overflows at its smallest
    delta, so every finite eps2 is reached, and only a cost past the float
    range raises NearDivergenceError.
    A fixed rho at or past 1/top_eig(ZZ^T/d) raises RegimeError.
    """
    design = sample_design(config, trial)
    red = _reduce(design.Z, design.sigma_sqrt, config.sigma2)
    # a sum past the float range is inf, and so is the bracket at eps2 = 0
    with np.errstate(over="ignore", divide="ignore"):
        if config.eps2 is not None:
            delta, _ = solve_multiplier(
                red.train, config.eps2, f"trial {trial} rho(eps2)", red.bracket(config.eps2)
            )
            rho = (1.0 - delta) / red.s[0]
        else:
            rho = float(config.rho)
            delta = red.delta(rho, f"trial {trial}: ")
        cost = red.growth(delta)
    if not np.isfinite(cost):
        raise NearDivergenceError(f"trial {trial}: the cost at eps2={config.eps2!r} overflows")
    return TrialMetrics(trial=trial, rho=rho, train_ridge=red.train(1.0), cost=cost, ols_gap=red.gap)


def run_trials(config: ExperimentConfig, fn: Callable[[ExperimentConfig, int], object]) -> list:
    """[fn(config, trial) for every trial], run one at a time in trial order.

    The only parallelism is the BLAS library's own threads inside each trial.
    """
    return [fn(config, t) for t in range(config.trials)]


def summarize(values: Sequence[float], target: Optional[float] = None) -> dict:
    """Mean and standard error of per-trial values, and their deviation from a target.

    Returns {"mean", "se"}, plus {"target", "rel_dev"} when a target is
    given.  The standard error is 0 for a single trial; rel_dev is
    |mean - target|/|target|, or |mean| when the target is 0.
    """
    vals = np.asarray(values, dtype=np.float64)
    # scaling by a power of two is exact; it keeps the sum of values near 1e308 from
    # overflowing, and the squared deviations of values near 1e-200 from underflowing
    _, exp = np.frexp(np.max(np.abs(vals)))
    scaled = np.ldexp(vals, -exp)
    mean = float(np.ldexp(scaled.mean(), exp))
    se = float(np.ldexp(scaled.std(ddof=1) / np.sqrt(len(vals)), exp)) if len(vals) > 1 else 0.0
    entry = {"mean": mean, "se": se}
    if target is not None:
        entry["target"] = target
        entry["rel_dev"] = abs(mean - target) / abs(target) if target != 0 else abs(mean)
    return entry


def summarize_trials(metrics: Sequence[TrialMetrics], targets: AsymptoticTargets) -> dict:
    """{metric: summarize(per-trial values, its target)} for every trial metric.

    Keys come in the order rho, train_ridge, cost, ols_gap; rho has no
    target, and a metric whose target is None gets none either.
    """
    return {
        name: summarize([getattr(m, name) for m in metrics], getattr(targets, name, None))
        for name in ("rho", "train_ridge", "cost", "ols_gap")
    }


def convergence_report(
    configs: Sequence[ExperimentConfig], targets: AsymptoticTargets
) -> list[dict]:
    """Aggregate per-trial metrics for each config and compare to the limits.

    Configs are expected to share (aspect ratio, sigma2, population) and
    vary n; each row is {"n", "d", "trials", "metrics"}, with "metrics"
    from ``summarize_trials``.
    """
    return [
        {
            "n": config.n,
            "d": config.d,
            "trials": config.trials,
            "metrics": summarize_trials(run_trials(config, trial_metrics), targets),
        }
        for config in configs
    ]
