"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with the measured margin and wall time against the stated
budget."""

import hashlib
import math
import time

import numpy as np

from memcost import cli
from memcost.cost_engine import LimitReduction
from memcost.deformed import DeformedReduction, PopulationSpectrum
from memcost.finite_n_lab import (
    EntryDist,
    ExperimentConfig,
    Readings,
    sample_design,
)
from memcost.finite_n_lab import bai_yin_check, esd_from_design
from memcost.oracle import DesignOracle, mp_integrate, pred_error_direct, train_error_direct
from memcost.spectra import MPLaw, mp_stieltjes_neg

from lab_helpers import convergence_report

GAMMA_GRID = (1.5, 2.0, 4.0, 10.0)
SIGMA2_GRID = (1e-3, 1e-2, 0.1, 1.0)
TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))


def _report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = f"[{status}] criterion {num} ({name}): {detail} [{elapsed:.2f}s / limit {limit}s]"
    print(line)
    assert ok, line
    assert elapsed < limit, line


def test_criterion_01_limit_law_moments_and_resolvent():
    t0 = time.time()
    worst_moment = 0.0
    for gamma in GAMMA_GRID:
        law = MPLaw(gamma)
        worst_moment = max(worst_moment, abs(mp_integrate(law, lambda s: np.ones_like(s)) - 1.0))
        worst_moment = max(worst_moment, abs(mp_integrate(law, lambda s: s) - 1.0))
    worst_resolvent = 0.0
    for gamma in GAMMA_GRID:
        law = MPLaw(gamma)
        for s2 in SIGMA2_GRID:
            quad = mp_integrate(law, lambda s: 1.0 / (s + s2))
            closed = mp_stieltjes_neg(law, s2)
            worst_resolvent = max(worst_resolvent, abs(quad - closed))
    ok = worst_moment <= 1e-10 and worst_resolvent <= 1e-9
    _report(
        1, "limit-law moments",
        ok, f"moment dev {worst_moment:.2e} <= 1e-10, resolvent dev {worst_resolvent:.2e} <= 1e-9",
        time.time() - t0, 1.0,
    )


def test_criterion_02_threshold_expansion():
    t0 = time.time()
    deviations = []
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        red = LimitReduction(2.0, s2)
        ratio = red.threshold / red.approx
        deviations.append(abs(1.0 - ratio))
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    ok = monotone and deviations[-1] <= 0.05
    _report(
        2, "threshold small-noise expansion",
        ok, f"deviation sequence {['%.1e' % d for d in deviations]} monotone={monotone}",
        time.time() - t0, 1.0,
    )


def test_criterion_03_rho_solver_residuals_and_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(50):
        gamma = float(np.exp(rng.uniform(math.log(1.3), math.log(10.0))))
        s2 = float(np.exp(rng.uniform(math.log(1e-3), math.log(1.0))))
        red = LimitReduction(gamma, s2)
        eps2 = red.threshold * float(np.exp(rng.uniform(math.log(1.05), math.log(40.0))))
        sol = red.solve(eps2)
        assert sol.rho > 0
        worst = max(worst, sol.residual)
    red = LimitReduction(2.0, 0.1)
    th = red.threshold
    rhos = [red.solve(float(e)).rho for e in np.linspace(0.5 * th, 8 * th, 20)]
    monotone = all(b >= a for a, b in zip(rhos, rhos[1:]))
    ok = worst <= 1e-10 and monotone
    _report(
        3, "multiplier solver",
        ok, f"worst plug-back residual {worst:.2e} <= 1e-10 over 50 draws, monotone={monotone}",
        time.time() - t0, 5.0,
    )


def test_criterion_04_linear_growth():
    t0 = time.time()
    worst_ratio = float("inf")
    for gamma in (1.5, 2.0, 4.0):
        for s2 in (0.01, 0.1):
            red = LimitReduction(gamma, s2)
            bc = red.linear_bound()
            floor = bc.c_small * s2**2
            for eps2 in np.linspace(floor, 20.0 * floor, 8):
                point = red.cost(float(eps2))
                worst_ratio = min(worst_ratio, point.cost / (bc.C_growth * eps2))
    ok = worst_ratio >= 1.0
    _report(
        4, "linear cost growth",
        ok, f"min cost/(C eps2) = {worst_ratio:.2f} >= 1 on the (gamma, sigma2) grid",
        time.time() - t0, 5.0,
    )


def test_criterion_05_interpolation_thresholds():
    t0 = time.time()
    ok = True
    worst_bar = 0.0
    for gamma in (1.5, 2.0, 4.0):
        for s2 in (0.01, 0.1):
            law = MPLaw(gamma)
            red = LimitReduction(gamma, s2)
            eps_s = math.sqrt(red.threshold)
            sol = red.ols
            eps_ols = math.sqrt(sol.target_eps2)
            ok &= eps_s < eps_ols <= 2.0 * law.lambda_plus / law.lambda_minus * eps_s
            ok &= sol.rho >= 1.0 / (2.0 * law.lambda_plus)
            bar_at = red.cost(sol.target_eps2).costbar
            worst_bar = max(worst_bar, abs(bar_at))
            ok &= abs(bar_at) <= 1e-8
            ok &= red.cost(0.9 * sol.target_eps2).costbar < 0
            ok &= red.cost(1.1 * sol.target_eps2).costbar > 0
    _report(
        5, "interpolation thresholds",
        bool(ok), f"ordering+bounds hold; worst |costbar| at threshold {worst_bar:.2e} <= 1e-8",
        time.time() - t0, 5.0,
    )


def test_criterion_06_interpolant_gap_small_noise_law():
    t0 = time.time()
    limit_const = 4.0  # 1/(gamma (1-1/gamma)^3) at gamma = 2
    deviations = []
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        gap = LimitReduction(2.0, s2).gap
        deviations.append(abs(gap / s2**2 - limit_const) / limit_const)
    monotone = all(a > b for a, b in zip(deviations, deviations[1:]))
    ok = monotone and deviations[-1] <= 0.05
    _report(
        6, "interpolant gap small-noise law",
        ok, f"gap/sigma2^2 -> 4, deviations {['%.1e' % d for d in deviations]}",
        time.time() - t0, 1.0,
    )


def test_criterion_07_exact_finite_sample_identities():
    t0 = time.time()
    sigma2 = 0.1
    combos = [
        (EntryDist.GAUSSIAN, PopulationSpectrum.isotropic()),
        (EntryDist.GAUSSIAN, TWO_ATOM),
        (EntryDist.RADEMACHER, PopulationSpectrum.isotropic()),
        (EntryDist.RADEMACHER, TWO_ATOM),
    ]
    rng = np.random.default_rng(1105)
    worst_identity = 0.0
    worst_stationarity = 0.0
    n_rho = 0
    for idx, (dist, pop) in enumerate(combos):
        config = ExperimentConfig(
            n=200, d=400, sigma2=sigma2, seed=500 + idx, trials=1,
            entry_dist=dist, population=pop, rho=0.0,
        )
        oracle = DesignOracle(sample_design(config, 0), sigma2, pop)
        X, ss = oracle.design.X, oracle.design.sigma_sqrt
        red = oracle.reduction
        A0 = oracle.estimator(0.0)  # also checks the two closed forms agree
        pred_ridge = pred_error_direct(A0.A, X, ss, sigma2)
        for frac in rng.uniform(0.05, 0.9, 3):
            n_rho += 1
            rho = float(frac) * oracle.rho_max
            A = oracle.estimator(rho)  # raises if the forms disagree > 1e-10
            delta, train = red.growth(red.delta(rho)), red.train(red.delta(rho))
            train_direct = train_error_direct(A.A, X, sigma2)
            delta_direct = pred_error_direct(A.A, X, ss, sigma2) - pred_ridge
            worst_identity = max(
                worst_identity,
                abs(train - train_direct) / train_direct,
                abs(delta - delta_direct) / abs(delta_direct),
            )
            worst_identity = max(worst_identity, *A.identity_devs())
            worst_stationarity = max(worst_stationarity, A.stationarity())
    ok = worst_identity <= 1e-9 and worst_stationarity <= 1e-8
    _report(
        7, "exact finite-sample identities",
        ok,
        f"{n_rho} multipliers x 4 design families: worst identity dev "
        f"{worst_identity:.2e} <= 1e-9, worst stationarity {worst_stationarity:.2e} <= 1e-8",
        time.time() - t0, 30.0,
    )


def test_criterion_08_finite_sample_convergence():
    t0 = time.time()
    red = LimitReduction(2.0, 0.1)
    th = red.threshold
    targets = Readings(train_ridge=th, cost=red.cost(2.0 * th).cost, ols_gap=red.gap)
    configs = [
        ExperimentConfig(n=n, d=2 * n, sigma2=0.1, seed=2024, trials=20, eps2=2.0 * th)
        for n in (200, 400, 800)
    ]
    rows = convergence_report(configs, targets)
    first, last = (
        {name: m["rel_dev"] for name, m in row["metrics"].items() if "rel_dev" in m}
        for row in (rows[0], rows[-1])
    )
    ok = (
        last["train_ridge"] <= 0.05
        and last["cost"] <= 0.10
        and last["ols_gap"] <= 0.10
        and last["train_ridge"] < first["train_ridge"]
        and last["cost"] < first["cost"]
        and last["ols_gap"] < first["ols_gap"]
    )
    _report(
        8, "finite-sample convergence",
        ok,
        "deviations at n=800: train {:.3f} cost {:.3f} gap {:.3f} (all below caps, "
        "all smaller than at n=200)".format(
            last["train_ridge"], last["cost"], last["ols_gap"]
        ),
        time.time() - t0, 180.0,
    )


def test_criterion_09_extreme_eigenvalues():
    t0 = time.time()
    law = MPLaw(2.0)
    results = {}
    for dist in (EntryDist.GAUSSIAN, EntryDist.RADEMACHER):
        devs_hi, devs_lo = [], []
        for seed in range(10):
            config = ExperimentConfig(
                n=1000, d=2000, sigma2=1.0, seed=seed, trials=1, entry_dist=dist, rho=0.0
            )
            spec = esd_from_design(sample_design(config, 0).X)
            hi, lo = bai_yin_check(spec, law)
            devs_hi.append(hi)
            devs_lo.append(lo)
        results[dist.value] = (float(np.mean(devs_hi)), float(np.mean(devs_lo)))
    ok = all(hi <= 0.03 and lo <= 0.03 for hi, lo in results.values())
    detail = ", ".join(
        f"{name}: upper {hi:.4f}, lower {lo:.4f}" for name, (hi, lo) in results.items()
    )
    _report(9, "extreme eigenvalue convergence", ok, detail + " (caps 0.03)", time.time() - t0, 60.0)


def test_criterion_10_deformed_law():
    t0 = time.time()
    # degenerate population reduces to the isotropic transform
    worst_reduction = 0.0
    iso = PopulationSpectrum.isotropic()
    for gamma in (1.5, 2.0, 4.0):
        for s2 in (1e-2, 0.1, 1.0):
            m = DeformedReduction(gamma, s2, iso).m_def
            worst_reduction = max(worst_reduction, abs(m - mp_stieltjes_neg(MPLaw(gamma), s2)))

    # two-atom fixed point against a simulated spectrum at n=2000
    config = ExperimentConfig(
        n=2000, d=4000, sigma2=0.1, seed=99, trials=1, population=TWO_ATOM, rho=0.0
    )
    spec = esd_from_design(sample_design(config, 0).X)
    simulated = float(np.mean(1.0 / (spec + 0.1)))
    m = DeformedReduction(2.0, 0.1, TWO_ATOM).m_def
    sim_dev = abs(m - simulated) / simulated

    # condition-number bound on the deformed threshold over the test spectra
    bound_ok = True
    for pop in (
        TWO_ATOM,
        PopulationSpectrum(atoms=((1.0, 0.3), (0.25, 0.7))),
        PopulationSpectrum(atoms=((1.0, 0.2), (0.6, 0.5), (0.1, 0.3))),
    ):
        kappa = pop.kappa
        for gamma in (1.5, 2.0, 4.0):
            for s2 in (1e-2, 0.1, 1.0):
                val = DeformedReduction(gamma, s2, pop).eps_def2
                cap = kappa * s2 * s2 * mp_stieltjes_neg(MPLaw(gamma), kappa * s2)
                bound_ok &= val <= cap * (1.0 + 1e-12)

    # growth-control margins at n=200
    config = ExperimentConfig(
        n=200, d=400, sigma2=0.1, seed=7, trials=1, population=TWO_ATOM, rho=0.0
    )
    oracle = DesignOracle(sample_design(config, 0), 0.1, TWO_ATOM)
    worst_margin = 0.0
    rng = np.random.default_rng(17)
    for frac in (0.0, *rng.uniform(0.1, 0.9, 3)):
        worst_margin = min(worst_margin, *oracle.growth_margins(float(frac) * oracle.rho_max))

    ok = (
        worst_reduction <= 1e-10
        and sim_dev <= 0.02
        and bound_ok
        and worst_margin >= -1e-10
    )
    _report(
        10, "deformed law",
        ok,
        f"reduction dev {worst_reduction:.1e} <= 1e-10, simulated-spectrum dev "
        f"{sim_dev:.4f} <= 0.02, threshold bound ok={bool(bound_ok)}, "
        f"worst growth margin {worst_margin:.1e} >= -1e-10",
        time.time() - t0, 120.0,
    )


def test_criterion_11_reproducibility(tmp_path, capsys):
    t0 = time.time()
    args = [
        "simulate", "--n", "400", "--d", "800", "--sigma2", "0.1",
        "--rho", "0", "--trials", "20", "--seed", "7",
    ]
    assert cli.main(args + ["--out", str(tmp_path / "run1")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "run2")]) == 0
    capsys.readouterr()
    digests = []
    for run in ("run1", "run2"):
        parts = []
        for name in ("trials.csv", "summary.json"):
            parts.append(hashlib.sha256((tmp_path / run / name).read_bytes()).hexdigest())
        digests.append(parts)
    ok = digests[0] == digests[1]
    with capsys.disabled():
        _report(
            11, "reproducibility",
            ok, f"two runs, byte-identical outputs: {digests[0][0][:12]}.../{digests[0][1][:12]}...",
            time.time() - t0, 120.0,
        )
