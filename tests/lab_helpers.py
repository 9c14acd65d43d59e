"""Test-only companions of the finite-n lab: Monte Carlo response draws and
convergence rows over a sequence of experiment configs."""

from typing import Sequence

import numpy as np

from memcost.errors import DomainError
from memcost.finite_n_lab import (
    ExperimentConfig,
    Readings,
    summarize_trials,
    trial_metrics,
)


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


def convergence_report(
    configs: Sequence[ExperimentConfig], targets: Readings
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
            "metrics": summarize_trials(
                [trial_metrics(config, t) for t in range(config.trials)], targets
            ),
        }
        for config in configs
    ]
