import itertools
import tracemalloc

import numpy as np
import pytest

from memcost import finite_n_lab
from memcost.cost_engine import LimitReduction
from memcost.deformed import PopulationSpectrum
from memcost.errors import ConsistencyError, DomainError, FeasibilityError, RankError, RegimeError
from memcost.finite_n_lab import (
    AsymptoticTargets,
    DesignSample,
    EntryDist,
    ExperimentConfig,
    apportion_atoms,
    sample_design,
    splitmix64,
    summarize,
    trial_metrics,
    trial_seed,
)
from memcost.finite_n_lab import esd_from_design
from memcost.oracle import (
    DesignOracle,
    ErrorReport,
    build_estimator,
    pred_error_direct,
    train_error_direct,
)

from lab_helpers import convergence_report, monte_carlo_response_check

TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))


def _design(n=120, d=240, seed=42, dist=EntryDist.GAUSSIAN, pop=None):
    config = ExperimentConfig(
        n=n, d=d, sigma2=0.1, seed=seed, trials=1, entry_dist=dist,
        population=pop or PopulationSpectrum.isotropic(), rho=0.0,
    )
    return sample_design(config, 0)


def _oracle(design, pop=None, sigma2=0.1):
    return DesignOracle(design, sigma2, pop or PopulationSpectrum.isotropic())


def max_feasible_rho(Z):
    """1 / top eigenvalue of ZZ^T/d, from the Gram eigenvalues."""
    return 1.0 / float(esd_from_design(Z)[0])


def test_splitmix64_mixes_and_is_deterministic():
    assert splitmix64(0) == splitmix64(0)
    assert splitmix64(0) != splitmix64(1)
    assert 0 <= splitmix64(2**64 - 1) < 2**64
    assert trial_seed(7, 3) == 7 ^ splitmix64(3)


def test_config_validation():
    with pytest.raises(RegimeError):
        ExperimentConfig(n=400, d=300, sigma2=0.1, seed=0, rho=0.0)
    with pytest.raises(DomainError):
        ExperimentConfig(n=10, d=20, sigma2=0.1, seed=0)  # neither rho nor eps2
    with pytest.raises(DomainError):
        ExperimentConfig(n=10, d=20, sigma2=0.1, seed=0, rho=0.0, eps2=0.1)
    for bad in (-1.0, 0.0, float("inf"), float("nan"), 1e-101, 1e101):
        with pytest.raises(DomainError):
            ExperimentConfig(n=10, d=20, sigma2=bad, seed=0, rho=0.0)


def test_config_refuses_a_design_past_the_largest_array():
    # 5 x 10^18 float64 entries are 4e19 bytes, past sys.maxsize; numpy would
    # raise "array is too big" at the first draw
    with pytest.raises(DomainError, match=r"needs 40000000000000000000 bytes"):
        ExperimentConfig(n=5, d=10**18, sigma2=0.1, seed=0, rho=0.0)
    ExperimentConfig(n=5, d=10**12, sigma2=0.1, seed=0, rho=0.0)  # refused, if at all, when allocated


def test_apportionment_largest_remainder():
    pop = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))
    vals = apportion_atoms(pop, 5)
    assert len(vals) == 5
    assert np.sum(vals == 1.0) == 3  # 2.5 rounds up on the larger remainder tie (first atom)
    pop2 = PopulationSpectrum(atoms=((1.0, 0.3), (0.5, 0.7)))
    vals2 = apportion_atoms(pop2, 10)
    assert np.sum(vals2 == 1.0) == 3 and np.sum(vals2 == 0.5) == 7


def test_rademacher_entries_are_signs():
    design = _design(dist=EntryDist.RADEMACHER)
    assert set(np.unique(design.Z)) == {-1.0, 1.0}


def test_isotropic_population_gives_identity_diagonal():
    design = _design()
    assert np.all(design.sigma_sqrt == 1.0)
    # X = Z diag(1) is Z exactly, so the isotropic design is one array
    assert design.X is design.Z and not design.Z.flags.writeable
    aniso = _design(pop=TWO_ATOM)
    assert aniso.X is not aniso.Z
    assert np.array_equal(aniso.X, aniso.Z * aniso.sigma_sqrt[None, :])


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
def test_rademacher_signs_match_the_out_of_place_map(seed):
    # (31, 71): an odd number of entries, half a 64-bit draw left over
    for n, d in ((30, 70), (31, 71)):
        config = ExperimentConfig(
            n=n, d=d, sigma2=0.1, seed=seed, trials=3, entry_dist=EntryDist.RADEMACHER, rho=0.0
        )
        for t in range(config.trials):
            rng = np.random.default_rng(trial_seed(seed, t))
            expected = 2.0 * rng.integers(0, 2, size=(n, d)).astype(np.float64) - 1.0
            assert np.array_equal(sample_design(config, t).Z, expected)


@pytest.mark.parametrize("dist", list(EntryDist))
def test_isotropic_reduction_weights_equal_the_identity_rotation(dist):
    sigma2 = 0.1
    design = _design(n=50, d=90, seed=5, dist=dist)
    red = finite_n_lab._reduce(design, sigma2)
    n = design.Z.shape[0]
    expected = (sigma2 * sigma2 / n) * (np.eye(n) @ (1.0 / (red.s + sigma2)))
    assert np.array_equal(red.a, expected)


def test_isotropic_trial_allocates_one_design_array():
    # the draw, the Gram matrix and n-vectors: about (1 + n/d) n d 8 bytes;
    # a second n x d array (X as a copy of Z) would put the peak past 2 n d 8
    n, d = 200, 800
    config = ExperimentConfig(n=n, d=d, sigma2=0.1, seed=3, trials=1, rho=0.3)
    trial_metrics(config, 0)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        trial_metrics(config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * n * d * 8


def test_rademacher_trial_draws_its_signs_at_four_bytes():
    # the 4-byte draw and its float cast, one n x d array each, then the Gram
    # matrix: an 8-byte integer draw would put the peak at 2 n d 8
    n, d = 200, 800
    config = ExperimentConfig(
        n=n, d=d, sigma2=0.1, seed=3, trials=1, entry_dist=EntryDist.RADEMACHER, rho=0.3
    )
    trial_metrics(config, 0)  # imports and caches outside the traced call
    tracemalloc.start()
    try:
        trial_metrics(config, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.55 * n * d * 8


def test_design_is_deterministic_per_seed_and_trial():
    a = _design(seed=9)
    b = _design(seed=9)
    assert np.array_equal(a.X, b.X)
    c = _design(seed=10)
    assert not np.array_equal(a.X, c.X)


def test_trials_differ():
    config = ExperimentConfig(n=20, d=40, sigma2=0.1, seed=1, trials=2, rho=0.0)
    assert not np.array_equal(sample_design(config, 0).Z, sample_design(config, 1).Z)
    with pytest.raises(DomainError):
        sample_design(config, 2)


@pytest.mark.parametrize("trial", [-1, -3])
def test_negative_trial_index_is_refused(trial):
    # trial_seed would take the index mod 2^64, a stream no trial of the run uses
    config = ExperimentConfig(n=20, d=40, sigma2=0.1, seed=1, trials=2, rho=0.0)
    with pytest.raises(DomainError, match="out of range"):
        sample_design(config, trial)
    with pytest.raises(DomainError, match="out of range"):
        trial_metrics(config, trial)


def test_ridge_estimator_at_zero_multiplier():
    design = _design(n=60, d=120)
    X = design.X
    d = X.shape[1]
    A = build_estimator(X, design.sigma_sqrt, 0.1, 0.0).A
    expected = np.linalg.solve(X.T @ X + d * 0.1 * np.eye(d), X.T)
    assert np.linalg.norm(A - expected) <= 1e-10 * np.linalg.norm(expected)


def test_estimator_feasibility_boundary():
    oracle = _oracle(_design())
    assert oracle.rho_max == max_feasible_rho(oracle.design.Z)
    oracle.estimator(0.99 * oracle.rho_max)
    with pytest.raises(FeasibilityError) as info:
        oracle.estimator(1.01 * oracle.rho_max)
    info.match(r"min eigenvalue of the constraint matrix is -\d\.\d{3}e[-+]\d+$")


def test_estimator_rejects_far_infeasible_rho():
    design = _design()
    d = design.X.shape[1]
    lam1sq = float(np.linalg.svd(design.Z, compute_uv=False)[0]) ** 2
    with pytest.raises(FeasibilityError):
        build_estimator(design.X, design.sigma_sqrt, 0.1, 2.0 * d / lam1sq)


def test_pred_error_of_zero_estimator():
    design = _design()
    n, d = design.X.shape
    A = np.zeros((d, n))
    assert abs(pred_error_direct(A, design.X, design.sigma_sqrt, 0.1) - 1.0) < 1e-14
    aniso = _design(pop=TWO_ATOM)
    val = pred_error_direct(np.zeros((d, n)), aniso.X, aniso.sigma_sqrt, 0.1)
    assert abs(val - np.mean(aniso.sigma_sqrt**2)) < 1e-14


def test_train_error_of_zero_estimator():
    design = _design()
    n, d = design.X.shape
    A = np.zeros((d, n))
    expected = np.sum(design.X**2) / (n * d) + 0.1
    assert abs(train_error_direct(A, design.X, 0.1) - expected) < 1e-12


def test_interpolant_train_error_is_zero():
    design = _design()
    A_ols = np.linalg.pinv(design.X)
    assert train_error_direct(A_ols, design.X, 0.1) <= 1e-16


def test_ridge_prediction_error_closed_form():
    # direct Frobenius route against the projection-free spectral expansion
    design = _design(n=100, d=200)
    X = design.X
    n, d = X.shape
    s2 = 0.1
    A0 = build_estimator(X, design.sigma_sqrt, s2, 0.0).A
    direct = pred_error_direct(A0, X, design.sigma_sqrt, s2)
    XXt = X @ X.T
    closed = 1.0 - np.trace(XXt @ np.linalg.inv(XXt + d * s2 * np.eye(n))) / d
    assert abs(direct - closed) <= 1e-10 * closed


def test_growth_trace_zero_at_zero_multiplier():
    red = _oracle(_design()).reduction
    edge = red.delta(0.0)
    assert red.growth(edge) == 0.0
    assert red.train(edge) > 0


@pytest.mark.parametrize("dist", [EntryDist.GAUSSIAN, EntryDist.RADEMACHER])
@pytest.mark.parametrize("pop", [None, TWO_ATOM])
def test_trace_identities_match_direct(dist, pop):
    oracle = _oracle(_design(dist=dist, pop=pop), pop)
    X, ss = oracle.design.X, oracle.design.sigma_sqrt
    rng = np.random.default_rng(5)
    rho_max = max_feasible_rho(oracle.design.Z)
    pred0 = pred_error_direct(oracle.estimator(0.0).A, X, ss, 0.1)
    assert pred0 == oracle.pred_ridge
    red = oracle.reduction
    for rho in rng.uniform(0.05, 0.9, 3) * rho_max:
        rho = float(rho)
        A = oracle.estimator(rho).A
        delta, train = red.growth(red.delta(rho)), red.train(red.delta(rho))
        direct_train = train_error_direct(A, X, 0.1)
        direct_delta = pred_error_direct(A, X, ss, 0.1) - pred0
        assert abs(train - direct_train) <= 1e-9 * direct_train
        assert abs(delta - direct_delta) <= 1e-9 * abs(direct_delta)


def test_growth_trace_requires_full_rank():
    X = np.zeros((10, 20))
    oracle = _oracle(DesignSample(Z=X, sigma_sqrt=np.ones(20), X=X))
    with pytest.raises(RankError):
        oracle.reduction
    with pytest.raises(RankError):
        oracle.interpolant()


def test_stationarity_at_optimum_and_perturbed():
    oracle = _oracle(_design())
    est = oracle.estimator(0.4 * max_feasible_rho(oracle.design.Z))
    assert est.stationarity() <= 1e-8
    bump = np.random.default_rng(0).standard_normal(est.A.shape)
    bump /= np.linalg.norm(bump)
    assert est.stationarity(est.A + 1e-2 * bump) > 1e-4


def test_stationarity_of_ridge_at_zero():
    assert _oracle(_design()).estimator(0.0).stationarity() <= 1e-8


def test_residual_identity_zero_multiplier_isotropic():
    design = _design(n=80, d=160)
    X = design.X
    n, d = X.shape
    A0 = build_estimator(X, design.sigma_sqrt, 0.1, 0.0).A
    lhs = A0 @ X - np.eye(d)
    rhs = -d * 0.1 * np.linalg.inv(X.T @ X + d * 0.1 * np.eye(d))
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


@pytest.mark.parametrize("pop", [None, TWO_ATOM])
def test_residual_identities_random_multiplier(pop):
    oracle = _oracle(_design(n=100, d=200, pop=pop), pop)
    rho = 0.6 * max_feasible_rho(oracle.design.Z)
    assert max(oracle.estimator(rho).identity_devs()) <= 1e-9


def test_min_norm_interpolant_report_spectral_form():
    design = _design(n=100, d=200)
    pred_ols, gap = _oracle(design).interpolant()
    n, d = design.X.shape
    XXt = design.X @ design.X.T
    expected_pred = (d - n) / d + 0.1 * np.trace(np.linalg.inv(XXt))
    assert abs(pred_ols - expected_pred) <= 1e-10 * expected_pred
    assert gap > 0


def test_min_norm_interpolant_gap_shrinks_with_noise():
    design = _design(n=100, d=200)
    gaps = [_oracle(design, sigma2=s2).interpolant()[1] for s2 in (0.1, 0.01, 0.001)]
    assert gaps[0] > gaps[1] > gaps[2] > 0


@pytest.mark.parametrize("pop", [PopulationSpectrum.isotropic(), TWO_ATOM], ids=["isotropic", "kappa2"])
def test_min_norm_interpolant_gap_holds_down_to_the_smallest_noise(pop):
    # a gap taken as the difference of two errors of about 0.5 cancels and
    # fails the 1e-9 route check from sigma2 = 1e-4 down
    config = ExperimentConfig(n=100, d=200, sigma2=0.1, seed=1, trials=1, population=pop, rho=0.0)
    design = sample_design(config, 0)
    for k in [*range(1, 11), *range(15, 101, 5)]:
        s2 = 10.0**-k
        _, gap = _oracle(design, pop, sigma2=s2).interpolant()
        reduced = finite_n_lab._reduce(design, s2).gap
        assert abs(gap - reduced) <= 1e-9 * reduced


def test_monte_carlo_matches_exact_errors():
    design = _design(n=100, d=200)
    X, ss = design.X, design.sigma_sqrt
    A = build_estimator(X, ss, 0.1, 0.0).A
    exact_pred = pred_error_direct(A, X, ss, 0.1)
    exact_train = train_error_direct(A, X, 0.1)
    samples = 10_000
    mc_pred, mc_train = monte_carlo_response_check(X, ss, 0.1, A, samples, seed=3)
    # loose 5-sigma band from the law of large numbers
    assert abs(mc_pred - exact_pred) <= 5 * exact_pred / np.sqrt(samples) * 3
    assert abs(mc_train - exact_train) <= 5 * exact_train / np.sqrt(samples) * 3


def test_monte_carlo_interpolant_train_is_pathwise_zero():
    design = _design(n=60, d=120)
    A_ols = np.linalg.pinv(design.X)
    _, mc_train = monte_carlo_response_check(design.X, design.sigma_sqrt, 0.1, A_ols, 200, seed=4)
    assert mc_train <= 1e-24


def test_monte_carlo_noiseless_interpolant_projects():
    design = _design(n=60, d=120)
    n, d = design.X.shape
    A_ols = np.linalg.pinv(design.X)
    mc_pred, _ = monte_carlo_response_check(design.X, design.sigma_sqrt, 0.0, A_ols, 4000, seed=5)
    # theta has prior scale 1/d per coordinate, so the residual projection has mean (d-n)/d
    assert abs(mc_pred - (d - n) / d) <= 0.05


def test_growth_bounds_isotropic_equality():
    oracle = _oracle(_design())
    pred_margin, train_margin = oracle.growth_margins(0.5 * max_feasible_rho(oracle.design.Z))
    assert abs(pred_margin) <= 1e-10
    assert train_margin >= -1e-10


def test_growth_bounds_two_atom_margins():
    oracle = _oracle(_design(n=200, d=400, pop=TWO_ATOM), TWO_ATOM)
    rng = np.random.default_rng(8)
    for rho in rng.uniform(0.1, 0.9, 3) * max_feasible_rho(oracle.design.Z):
        pred_margin, train_margin = oracle.growth_margins(float(rho))
        assert pred_margin >= -1e-10
        assert train_margin >= -1e-10


def test_growth_bounds_zero_multiplier():
    pred_margin, train_margin = _oracle(_design(pop=TWO_ATOM), TWO_ATOM).growth_margins(0.0)
    assert abs(pred_margin) <= 1e-14
    assert abs(train_margin) <= 1e-14


def test_growth_bounds_precondition():
    oracle = _oracle(_design())
    with pytest.raises(RegimeError):
        oracle.growth_margins(1.5 * max_feasible_rho(oracle.design.Z))


def test_error_report_validates_identities():
    with pytest.raises(ConsistencyError):
        ErrorReport(
            pred_direct=1.0,
            train_direct=0.5,
            pred_ridge=0.9,
            pred_growth_trace=0.1,
            train_trace=0.6,
            duality_residual=0.0,
        )


def test_error_report_route_dev_is_the_validated_margin():
    fields = dict(pred_direct=1.0, train_direct=0.5, pred_ridge=0.9, duality_residual=0.0)
    report = ErrorReport(pred_growth_trace=0.1 * (1 + 1e-10), train_trace=0.5, **fields)
    assert report.route_dev == pytest.approx(1e-10, rel=1e-4)
    with pytest.raises(ConsistencyError):
        ErrorReport(pred_growth_trace=0.1, train_trace=float("nan"), **fields)


def test_evaluate_design_full_report():
    design = _design()
    est = _oracle(design).estimator(0.3 * max_feasible_rho(design.Z))
    report = est.report()
    mc_pred, mc_train = monte_carlo_response_check(
        design.X, design.sigma_sqrt, 0.1, est.A, samples=500, seed=1
    )
    assert report.duality_residual <= 1e-8
    assert abs(mc_pred - report.pred_direct) / report.pred_direct < 0.3
    # the reduction's training error against the response draws
    assert abs(mc_train - report.train_trace) / report.train_trace < 0.3


@pytest.mark.parametrize("pop", [PopulationSpectrum.isotropic(), TWO_ATOM], ids=["isotropic", "kappa2"])
def test_trial_metrics_eps2_solve_hits_target(pop):
    th = LimitReduction(2.0, 0.1).threshold
    target = 3.0 * th
    config = ExperimentConfig(
        n=150, d=300, sigma2=0.1, seed=3, trials=1, population=pop, eps2=target
    )
    m = trial_metrics(config, 0)
    assert m.rho > 0
    design = sample_design(config, 0)
    A = build_estimator(design.X, design.sigma_sqrt, 0.1, m.rho).A
    assert abs(train_error_direct(A, design.X, 0.1) - target) <= 1e-10 * target
    # inactive below the finite-sample ridge training error
    low = ExperimentConfig(n=150, d=300, sigma2=0.1, seed=3, trials=1, population=pop, eps2=1e-6)
    assert trial_metrics(low, 0).rho == 0.0


def test_trial_metrics_by_rho_and_by_eps2_agree_at_solution():
    th = LimitReduction(2.0, 0.1).threshold
    by_eps = ExperimentConfig(n=150, d=300, sigma2=0.1, seed=3, trials=1, eps2=2 * th)
    m = trial_metrics(by_eps, 0)
    by_rho = ExperimentConfig(n=150, d=300, sigma2=0.1, seed=3, trials=1, rho=m.rho)
    m2 = trial_metrics(by_rho, 0)
    assert abs(m.cost - m2.cost) <= 1e-12
    assert m.train_ridge == m2.train_ridge


def test_trial_metrics_refuses_infeasible_fixed_rho():
    # just past, well past and far past each design's own feasibility cap,
    # which is set by Z for every population
    for seed, pop in itertools.product((1, 2, 3), (PopulationSpectrum.isotropic(), TWO_ATOM)):
        config = ExperimentConfig(
            n=60, d=120, sigma2=0.1, seed=seed, trials=1, population=pop, rho=0.0
        )
        rho_max = max_feasible_rho(sample_design(config, 0).Z)
        for mult in (1.001, 1.5, 3.0):
            infeasible = ExperimentConfig(
                n=60, d=120, sigma2=0.1, seed=seed, trials=1, population=pop, rho=mult * rho_max
            )
            with pytest.raises(RegimeError):
                trial_metrics(infeasible, 0)
        feasible = ExperimentConfig(
            n=60, d=120, sigma2=0.1, seed=seed, trials=1, population=pop, rho=0.999 * rho_max
        )
        assert np.isfinite(trial_metrics(feasible, 0).cost)


def test_trial_metrics_anisotropic_path():
    config = ExperimentConfig(
        n=100, d=200, sigma2=0.1, seed=4, trials=1, population=TWO_ATOM, rho=0.2
    )
    m = trial_metrics(config, 0)
    assert m.cost > 0 and m.train_ridge > 0 and m.ols_gap > 0


def test_run_trials_is_trial_metrics_in_trial_order(capsys):
    # simulate runs trial_metrics for each trial, in trial order
    from memcost import cli

    config = ExperimentConfig(n=40, d=80, sigma2=0.1, seed=5, trials=4, rho=0.0)
    code = cli.main(["simulate", "--n", "40", "--d", "80", "--sigma2", "0.1", "--seed", "5",
                     "--trials", "4", "--rho", "0"])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if not line.startswith("#")]
    rows = [line.split(",") for line in lines[1:]]
    names = ("rho", "train_ridge", "cost", "ols_gap")
    expected = [trial_metrics(config, t) for t in range(config.trials)]
    assert [(int(t), name) for t, name, _ in rows] == [(m.trial, name) for m in expected for name in names]
    assert [float(v) for _, _, v in rows] == [getattr(m, name) for m in expected for name in names]


def test_convergence_report_rows():
    th = LimitReduction(2.0, 0.1).threshold
    configs = [
        ExperimentConfig(n=n, d=2 * n, sigma2=0.1, seed=11, trials=4, eps2=2 * th)
        for n in (50, 100)
    ]
    rows = convergence_report(configs, AsymptoticTargets(train_ridge=th, cost=None, ols_gap=None))
    assert [r["n"] for r in rows] == [50, 100]
    assert rows[0]["metrics"]["train_ridge"]["rel_dev"] is not None
    assert "rel_dev" not in rows[0]["metrics"]["cost"]
    assert all(r["metrics"]["train_ridge"]["se"] > 0 for r in rows)


def test_convergence_report_zero_cost_target():
    # at rho = 0 the asymptotic cost is 0; the deviation is then |mean|
    config = ExperimentConfig(n=40, d=80, sigma2=0.1, seed=5, trials=3, rho=0.0)
    (row,) = convergence_report([config], AsymptoticTargets(cost=0.0))
    metrics = row["metrics"]
    assert metrics["cost"]["mean"] == 0.0
    assert metrics["cost"]["rel_dev"] == 0.0
    assert "rel_dev" not in metrics["train_ridge"] and "rel_dev" not in metrics["ols_gap"]


def test_summarize_se_of_tiny_values_does_not_underflow():
    # squared deviations of values near 1e-200 underflow to zero unless scaled
    tiny = summarize([1e-200, 1.5e-200, 1.25e-200])
    unit = summarize([1.0, 1.5, 1.25])
    assert abs(tiny["se"] - unit["se"] * 1e-200) <= 1e-15 * unit["se"] * 1e-200
    assert summarize([0.0, 0.0]) == {"mean": 0.0, "se": 0.0}


@pytest.mark.filterwarnings("error")
def test_summarize_values_near_the_float_maximum_do_not_overflow():
    # the sum of three values near 1.6e308 overflows unless scaled
    huge = summarize([1.7e308, 1.6e308, 1.5e308])
    unit = summarize([1.7, 1.6, 1.5])
    assert huge["mean"] == pytest.approx(1.6e308, rel=1e-15)
    assert huge["se"] == pytest.approx(unit["se"] * 1e308, rel=1e-15)


def test_summarize_mean_se_and_deviation():
    assert summarize([2.0]) == {"mean": 2.0, "se": 0.0}
    stats = summarize([1.0, 2.0, 3.0], target=4.0)
    assert stats["mean"] == 2.0
    assert stats["se"] == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-15)
    assert stats["target"] == 4.0 and stats["rel_dev"] == 0.5
    assert summarize([-0.5, 0.5, -0.3], target=0.0)["rel_dev"] == pytest.approx(0.1, rel=1e-15)


def test_stationarity_twenty_random_multipliers_per_design():
    rng = np.random.default_rng(23)
    for dist, pop in [
        (EntryDist.GAUSSIAN, PopulationSpectrum.isotropic()),
        (EntryDist.RADEMACHER, TWO_ATOM),
    ]:
        oracle = _oracle(_design(n=80, d=160, seed=31, dist=dist, pop=pop), pop)
        rho_max = max_feasible_rho(oracle.design.Z)
        for frac in rng.uniform(0.0, 0.9, 20):
            assert oracle.estimator(float(frac) * rho_max).stationarity() <= 1e-8


def test_train_error_strictly_increasing_in_multiplier():
    design = _design(n=100, d=200)
    red = _oracle(design).reduction
    trains = [
        red.train(red.delta(float(r)))
        for r in np.linspace(0.0, 0.9 * max_feasible_rho(design.Z), 8)
    ]
    assert all(b > a for a, b in zip(trains, trains[1:]))


def test_fixed_multiplier_train_error_approaches_limit():
    from memcost.spectra import MPLaw, mp_shrinkage

    rho, s2 = 0.2, 0.1
    config = ExperimentConfig(n=500, d=1000, sigma2=s2, seed=77, trials=1, rho=rho)
    red = _oracle(sample_design(config, 0), sigma2=s2).reduction
    train = red.train(red.delta(rho))
    law = MPLaw(2.0)
    limit = s2**2 * mp_shrinkage(law, s2)(1.0 - rho * law.lambda_plus)[0]
    assert abs(train - limit) / limit <= 0.05


# ---------------------------------------------------------------- reduction

KAPPA4 = PopulationSpectrum(atoms=((1.0, 0.5), (0.25, 0.5)))


@pytest.mark.parametrize(
    "pop", [PopulationSpectrum.isotropic(), TWO_ATOM, KAPPA4], ids=["isotropic", "kappa2", "kappa4"]
)
@pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0])
def test_reduction_matches_direct_route(gamma, pop):
    n = 60
    design = _design(n=n, d=int(gamma * n), seed=11, pop=pop)
    X, ss = design.X, design.sigma_sqrt
    pinv = np.linalg.pinv(X)
    for s2 in (1e-3, 0.1, 2.0):
        oracle = _oracle(design, pop, sigma2=s2)
        A0 = oracle.estimator(0.0).A
        pred0 = pred_error_direct(A0, X, ss, s2)
        # differences of direct errors cancel; ErrorReport's convention floors
        # their scale at 1e-6 of the ridge prediction error
        floor = 1e-6 * pred0
        gap = pred_error_direct(pinv, X, ss, s2) - pred0
        _, reduced_gap = oracle.interpolant()
        assert abs(reduced_gap - gap) <= 1e-9 * max(abs(gap), floor)
        red = oracle.reduction
        for frac in (0.0, 0.3, 0.9):
            rho = frac * max_feasible_rho(design.Z)
            A = oracle.estimator(rho).A
            growth, train = red.growth(red.delta(rho)), red.train(red.delta(rho))
            direct_train = train_error_direct(A, X, s2)
            direct_growth = pred_error_direct(A, X, ss, s2) - pred0
            assert abs(train - direct_train) <= 1e-9 * direct_train
            assert abs(growth - direct_growth) <= 1e-9 * max(abs(direct_growth), floor)


def _duplicate_row_design(n, d, pop):
    Z = np.random.default_rng(n).standard_normal((n, d))
    Z[-1] = Z[0]
    sigma_sqrt = np.sqrt(apportion_atoms(pop, d))
    return DesignSample(Z=Z, sigma_sqrt=sigma_sqrt, X=Z * sigma_sqrt)


@pytest.mark.parametrize("pop", [PopulationSpectrum.isotropic(), TWO_ATOM], ids=["isotropic", "kappa2"])
@pytest.mark.parametrize("n, d", [(100, 200), (200, 300)])
def test_duplicate_row_design_is_rank_error(monkeypatch, n, d, pop):
    design = _duplicate_row_design(n, d, pop)
    with pytest.raises(RankError):
        _oracle(design, pop).reduction
    monkeypatch.setattr(finite_n_lab, "sample_design", lambda config, trial: design)
    config = ExperimentConfig(n=n, d=d, sigma2=0.1, seed=0, trials=1, population=pop, rho=0.0)
    with pytest.raises(RankError):
        trial_metrics(config, 0)


def test_near_square_design_runs_and_gram_spectrum_matches_svd():
    config = ExperimentConfig(n=200, d=201, sigma2=0.1, seed=5, trials=1, rho=0.0)
    Z = sample_design(config, 0).Z
    gram = esd_from_design(Z)
    svd = np.linalg.svd(Z, compute_uv=False) ** 2 / Z.shape[1]
    assert np.max(np.abs(gram - svd) / svd) <= 1e-10
    m = trial_metrics(config, 0)
    assert np.isfinite(m.train_ridge) and np.isfinite(m.ols_gap) and m.ols_gap > 0


@pytest.mark.parametrize("pop", [PopulationSpectrum.isotropic(), TWO_ATOM], ids=["isotropic", "kappa2"])
def test_trial_metrics_never_forms_a_d_by_d_matrix(monkeypatch, pop):
    def refuse(*args, **kwargs):
        raise AssertionError("d x d route called from trial_metrics")

    monkeypatch.setattr(np.linalg, "cholesky", refuse)
    monkeypatch.setattr(DesignOracle, "__init__", refuse)
    th = LimitReduction(2.0, 0.1).threshold
    for constraint in ({"rho": 0.2}, {"eps2": 3.0 * th}):
        config = ExperimentConfig(
            n=100, d=200, sigma2=0.1, seed=4, trials=1, population=pop, **constraint
        )
        m = trial_metrics(config, 0)
        assert all(np.isfinite([m.rho, m.train_ridge, m.cost, m.ols_gap]))
        assert m.rho > 0


@pytest.mark.parametrize("field", ["rho", "eps2"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1e-3])
def test_config_rejects_non_finite_or_negative_multiplier(field, value):
    with pytest.raises(DomainError):
        ExperimentConfig(n=10, d=20, sigma2=0.1, seed=0, **{field: value})


@pytest.mark.parametrize("sigma2", [1e-8, 1e-10, 1e-12, 1e-20])
def test_small_noise_eps2_trial_reaches_eps2(sigma2):
    # eps2 ~ sigma2^2 is tiny, and the per-design solve must still reach it to rounding
    eps2 = 1.5 * LimitReduction(2.0, sigma2).threshold
    config = ExperimentConfig(n=50, d=100, sigma2=sigma2, seed=3, trials=1, eps2=eps2)
    metrics = trial_metrics(config, 0)
    assert metrics.rho > 0.0
    red = _oracle(sample_design(config, 0), sigma2=sigma2).reduction
    train = red.train(red.delta(metrics.rho))
    assert abs(train - eps2) <= 1e-12 * eps2


@pytest.mark.parametrize("pop", [PopulationSpectrum.isotropic(), TWO_ATOM], ids=["iso", "two-atom"])
@pytest.mark.parametrize("sigma2", [1e-1, 1e-6, 1e-15, 1e-30, 1e-100])
def test_build_estimator_routes_agree_at_small_noise(pop, sigma2):
    # the d-side route is the thin-SVD form V diag(lambda/(lambda^2 + d sigma2)) U^T;
    # the d x d ridge Gram it replaced missed the 1e-10 route check from sigma2 = 1e-6
    config = ExperimentConfig(n=100, d=200, sigma2=0.1, seed=1, trials=1, rho=0.0, population=pop)
    design = sample_design(config, 0)
    X, ss = design.X, design.sigma_sqrt
    n, d = X.shape
    ridge_n = np.linalg.solve(X @ X.T + d * sigma2 * np.eye(n), X).T
    for rho in (0.0, 0.5 * max_feasible_rho(design.Z)):
        A = build_estimator(X, ss, sigma2, rho).A
        M = np.diag(ss**2) - (rho / d) * (X.T @ X)
        expected = ridge_n - rho * sigma2 * np.linalg.solve(M, ridge_n)
        assert np.linalg.norm(A - expected) <= 1e-14 * np.linalg.norm(expected)


def _mp_trace_errors(Z, X, sigma2, rho, dps=40):
    """40-digit train and growth of one design from their trace forms.

    train = (sigma2^2/n) tr[(I - rho G_z)^-2 (G_x + sigma2 I)^-1] and
    growth = rho^2 (sigma2^2/d) tr[G_z (I - rho G_z)^-2 (G_x + sigma2 I)^-1],
    with G_z = ZZ^T/d and G_x = XX^T/d, each entry taken exactly from its float.
    """
    import mpmath as mp

    n, d = Z.shape
    with mp.workdps(dps):
        Zm, Xm = mp.matrix(Z.tolist()), mp.matrix(X.tolist())
        Gz, Gx = Zm * Zm.T / d, Xm * Xm.T / d
        eye = mp.eye(n)
        shrink = (eye - mp.mpf(rho) * Gz) ** -1
        R = shrink * shrink * (Gx + mp.mpf(sigma2) * eye) ** -1
        s4 = mp.mpf(sigma2) ** 2
        train = s4 / n * sum(R[k, k] for k in range(n))
        GzR = Gz * R
        growth = mp.mpf(rho) ** 2 * s4 / d * sum(GzR[k, k] for k in range(n))
        return train, growth


@pytest.mark.parametrize("sigma2", [1e-6, 10.0])
@pytest.mark.parametrize("kappa", [4.0, 1000.0])
@pytest.mark.parametrize("d", [15, 24])
def test_anisotropic_reduction_matches_40_digit_trace_form(d, kappa, sigma2):
    import mpmath as mp

    pop = PopulationSpectrum(atoms=((1.0, 0.5), (1.0 / kappa, 0.5)))
    design = _design(n=12, d=d, seed=3, pop=pop)
    red = finite_n_lab._reduce(design, sigma2)
    delta = 0.5
    rho = (1.0 - delta) / red.s[0]
    train, growth = _mp_trace_errors(design.Z, design.X, sigma2, rho)
    with mp.workdps(40):
        assert float(abs(red.train(delta) - train) / train) <= 1e-14
        assert float(abs(red.growth(delta) - growth) / growth) <= 1e-14
