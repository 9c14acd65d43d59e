"""Finite-sample Monte Carlo laboratory: what ``simulate`` and ``spectrum`` run.

Samples wide random designs and reduces each one, once, to n-vectors (see
``_reduce``), after which the training error, the cost of not fitting and
the multiplier solve at any multiplier are O(n) sums.  The empirical
spectrum of a design and its comparison with the Marchenko-Pastur edges and
c.d.f. are here too.  The direct routes that check the reduction (the
closed-form estimator and its Frobenius-norm errors) are in
``memcost.oracle``, which this module never imports.

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
from .errors import DomainError, NearDivergenceError, RankError, RegimeError
from .numerics import check_sigma2, edge_distance, solve_multiplier
from .spectra import MPLaw, mp_cdf

__all__ = [
    "EmpiricalSpectrum",
    "esd_from_design",
    "bai_yin_check",
    "kolmogorov_distance",
    "EntryDist",
    "ExperimentConfig",
    "DesignSample",
    "AsymptoticTargets",
    "TrialMetrics",
    "splitmix64",
    "trial_seed",
    "apportion_atoms",
    "sample_design",
    "trial_metrics",
    "run_trials",
    "summarize",
    "summarize_trials",
]

# bench/oracles.py reads these oracle routes from this module; they load
# memcost.oracle on first access, so simulate and spectrum never import it
_ORACLE_NAMES = ("build_estimator", "pred_error_direct", "train_error_direct")


def __getattr__(name: str):
    if name in _ORACLE_NAMES:
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _check_rank(s: np.ndarray) -> None:
    """Refuse a descending Gram spectrum whose smallest value is at rounding level of its top."""
    n = len(s)
    if s[-1] <= n * np.finfo(np.float64).eps * s[0]:
        raise RankError(
            f"design is numerically rank deficient: smallest eigenvalue of XX^T/d "
            f"is {s[-1]:.3e} against a top eigenvalue of {s[0]:.3e}"
        )


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
