import dataclasses
import math
import sys

import numpy as np
import pytest

from memcost import cost_engine as ce
from memcost import deformed
from memcost import finite_n_lab as lab
from memcost.deformed import PopulationSpectrum
from memcost.errors import BracketError, DomainError, NearDivergenceError, RegimeError
from memcost.numerics import solve_level, solve_multiplier
from memcost.cost_engine import LimitReduction
from memcost.oracle import _cheb_transfer, sym_eigvals
from memcost.spectra import MPLaw, mp_stieltjes_neg

import mp_reference as ref

TINY = sys.float_info.min


def test_interval_validation():
    # a bracket is two floats; solve_level refuses an empty or infinite one
    calls = []
    level = _counted(lambda x: x, calls)
    for lo, hi in ((1.0, 1.0), (2.0, 1.0), (0.0, float("inf"))):
        with pytest.raises(DomainError, match="finite ends lo < hi"):
            solve_level(level, 1.0, lo, hi)
    assert calls == []  # refused before any evaluation
    assert solve_level(level, 1.0, 0.0, 2.0) == (1.0, 1.0)


def _within_one_float(x, root):
    return math.nextafter(root, -math.inf) <= x <= math.nextafter(root, math.inf)


# The test_bisect_* names are kept as stable test ids; each checks
# solve_level, on a positive level where a test's first function was not one.


def test_bisect_sqrt2():
    root, _ = solve_level(lambda x: x * x, 2.0, 1.0, 2.0)
    assert _within_one_float(root, math.sqrt(2.0))


def test_bisect_odd_function():
    # a level that is a straight line in log-log: the first secant point is
    # the root itself
    assert solve_level(lambda x: x, 1.0, 0.5, 2.0) == (1.0, 1.0)


def test_bisect_deterministic():
    import mpmath as mp

    f = lambda x: x**3 - 2 * x
    with mp.workdps(40):
        true = float(mp.findroot(lambda x: x**3 - 2 * x - 5, 2.1))
    a = solve_level(f, 5.0, 2.0, 3.0)
    b = solve_level(f, 5.0, 2.0, 3.0)
    assert a == b  # bit-identical
    assert _within_one_float(a[0], true)


@pytest.mark.parametrize("root", [1e-30, 1e-300, 5e-324, 0.3, 1e20, 1e300])
def test_bisect_resolves_any_scale(root):
    # no absolute tolerance: a root far from 1 is found to the last float
    hi = 1.5 * root if root > 1.0 else 1.0
    calls = []

    def f(x):
        calls.append(x)
        return x

    assert _within_one_float(solve_level(f, root, 0.0, hi)[0], root)
    # level(0) = 0 allows only midpoint steps until the lower end moves
    assert len(calls) <= 2 + 1100


def test_bisect_decreasing_function():
    root, _ = solve_level(lambda x: math.pi / 7 / x, 1.0, 0.1, 1.0)
    assert _within_one_float(root, math.pi / 7)


def test_bisect_rejects_bad_bracket():
    with pytest.raises(BracketError) as info:
        solve_level(lambda x: x * x + 1.0, 0.5, -1.0, 1.0)
    info.match(r"over \[-1\.0, 1\.0\]")


def test_bisect_endpoint_roots():
    assert solve_level(lambda x: x + 1.0, 1.0, 0.0, 1.0)[0] == 0.0
    assert solve_level(lambda x: x + 1.0, 2.0, 0.0, 1.0)[0] == 1.0


def _counted(level, calls):
    def counted(x):
        calls.append(x)
        return level(x)

    return counted


@pytest.mark.parametrize("jump", [0.3, 1e-300, 1e300])
@pytest.mark.parametrize("lo", [0.0, TINY])
def test_solve_level_terminates_on_a_step_level(jump, lo):
    # no secant point helps a step; the midpoint rule still halves the
    # bracket at least every third step
    calls = []
    level = _counted(lambda x: 2.0 if x < jump else 0.5, calls)
    x, v = solve_level(level, 1.0, lo, 1.5e300)
    assert x == math.nextafter(jump, 0.0) and v == 2.0
    assert len(calls) <= 3300


@pytest.mark.parametrize("root", [1e-150, 1e-3, 0.7])
@pytest.mark.parametrize("lo", [0.0, TINY])
def test_solve_level_terminates_on_a_level_inf_below_a_cutoff(root, lo):
    # a level that overflows to inf short of the edge, as a sampled
    # design's training error does at the smallest edge distances
    calls = []
    level = _counted(lambda x: math.inf if x < 1e-200 else root / x, calls)
    x, v = solve_level(level, 1.0, lo, 1.0)
    assert _within_one_float(x, root) and v >= 1.0
    assert len(calls) <= 3300


@pytest.mark.parametrize("k", [0.5, 1.0, 2.0, 4.0])
def test_solve_level_finds_the_root_of_a_power_law_to_one_float(k):
    cases = 0
    for c in (1.0, 2.0**-600, 2.0**600):
        for target in (1e-300, 1e-100, 1e-10, 0.3, 1.0, 7.0, 1e10, 1e100, 1e300):
            # x^-k = target/c must be a normal float at the root, or the float
            # level is not c x^-k there
            root = ref.power_root(c, k, target)
            if not (1e-300 < root < 1e300 and 1e-300 < target / c < 1e300):
                continue

            def level(x):
                try:
                    return c * x**-k
                except OverflowError:
                    return math.inf

            for lo, hi in ((TINY, 1e308), (root / 3.0, 5.0 * root)):
                x, v = solve_level(level, target, lo, hi)
                assert _within_one_float(x, root) and v == level(x)
            cases += 1
    assert cases >= 10


def test_solve_rho_level_evaluations_on_the_edge_grid(monkeypatch):
    # every evaluation of train in a solve: the inactive and cap checks, the
    # solve itself and the plugged-back residual
    calls, train = [], ce.LimitReduction.train
    monkeypatch.setattr(ce.LimitReduction, "train", lambda red, x: calls.append(x) or train(red, x))
    counts = []
    for gamma in (1.05, 2.0, 4.0):
        for sigma2 in (1e-6, 0.01, 0.1):
            threshold = LimitReduction(gamma, sigma2).threshold
            for factor in (1.5, 3.0, 10.0, 100.0):
                calls.clear()
                LimitReduction(gamma, sigma2).solve(factor * threshold)
                counts.append(len(calls))
    assert max(counts) <= 36 and np.median(counts) <= 14


@pytest.mark.parametrize("n", [200, 400])
def test_lab_eps2_trial_level_evaluations(monkeypatch, n):
    calls = []
    monkeypatch.setattr(
        ce, "solve_multiplier",
        lambda level, target, what, bracket: solve_multiplier(_counted(level, calls), target, what, bracket),
    )
    for seed in (1, 2):
        for sigma2 in (0.01, 0.1, 1.0):
            threshold = LimitReduction(2.0, sigma2).threshold
            for factor in (1.2, 2.0, 4.0):
                calls.clear()
                config = lab.ExperimentConfig(
                    n=n, d=2 * n, sigma2=sigma2, seed=seed, trials=1, eps2=factor * threshold
                )
                lab.trial_metrics(config, 0)
                assert 0 < len(calls) <= 20


def test_silverstein_level_evaluations(monkeypatch):
    calls = []
    monkeypatch.setattr(
        deformed, "solve_level", lambda level, target, lo, hi: solve_level(_counted(level, calls), target, lo, hi)
    )
    rng = np.random.default_rng(7)
    counts = []
    for _ in range(100):
        k = int(rng.integers(1, 6))
        values = np.concatenate([[1.0], rng.uniform(0.01, 1.0, k - 1)])
        pop = PopulationSpectrum(atoms=tuple(zip(values.tolist(), rng.dirichlet(np.ones(k)).tolist())))
        calls.clear()
        LimitReduction(float(rng.uniform(1.05, 10.0)), float(10 ** rng.uniform(-4, 2)), pop).m_def
        counts.append(len(calls))
    assert np.median(counts) <= 16


def test_lab_eps2_level_evaluations_up_to_1e300(monkeypatch):
    # the bracket from a_0/delta^2 <= train <= sum(a)/delta^2 keeps every
    # target, however far past the threshold, a few secant steps from its root
    calls = []
    monkeypatch.setattr(
        ce, "solve_multiplier",
        lambda level, target, what, bracket: solve_multiplier(_counted(level, calls), target, what, bracket),
    )
    config = lab.ExperimentConfig(n=100, d=200, sigma2=0.1, seed=1, trials=1, eps2=1.0)
    threshold = LimitReduction(2.0, 0.1).threshold
    for eps2 in [factor * threshold for factor in (1.01, 1.5, 3.0)] + [10.0**k for k in range(0, 301, 10)]:
        calls.clear()
        lab.trial_metrics(dataclasses.replace(config, eps2=eps2), 0)
        assert 0 < len(calls) <= 20


def test_lab_eps2_reaches_a_root_whose_bracket_underflows():
    # sigma2 = 1e-10 puts sum(a) near 1e-20, so sum(a)/eps2 rounds to 0 at
    # eps2 = 1e305, while the root near sqrt(a_0/eps2) is a normal float
    config = lab.ExperimentConfig(n=20, d=40, sigma2=1e-10, seed=1, trials=1, eps2=1e305)
    red = lab._reduce(lab.sample_design(config, 0), config.sigma2)
    assert np.sum(red.a) / config.eps2 == 0.0 and red.bracket(config.eps2) is None
    # as trial_metrics solves it: the level overflows to inf near tiny
    with np.errstate(over="ignore"):
        delta = red.solve(config.eps2).delta
    assert sys.float_info.min < delta < 1e-150
    assert math.isclose(red.train(delta), config.eps2, rel_tol=1e-12)
    metrics = lab.trial_metrics(config, 0)
    assert metrics.cost == red.growth(delta) and 1e300 < metrics.cost < math.inf


def test_solve_multiplier_refuses_a_bracket_that_misses_the_root():
    level = lambda x: 1.0 / x
    expected = solve_multiplier(level, 4.0, "probe")
    assert _within_one_float(expected[0], 0.25)
    # a bracket around the root, and one past [tiny, 1], which is cut to it
    for bracket in ((0.2, 0.3), (0.0, 2.0)):
        assert solve_multiplier(level, 4.0, "probe", bracket) == expected
    # a bracket is the caller's proof: one above or below the root, an empty
    # one and one with a nan end are refused, and no wider interval is tried
    for target, bracket in ((4.0, (0.5, 0.9)), (4.0, (0.1, 0.2)), (4.0, (0.3, 0.2)),
                            (4.0, (math.nan, 0.3)), (1e308, (0.5, 0.9))):
        with pytest.raises(NearDivergenceError, match=r"^probe: .*float range"):
            solve_multiplier(level, target, "probe", bracket)


def test_solve_multiplier_refuses_a_level_that_overflows_short_of_the_target():
    # a small scale times a sum that overflows near the edge: the level is inf
    # at tiny, yet every finite value it takes is below the target
    level = lambda x: 1e-122 * (1e300 / x)
    with pytest.raises(NearDivergenceError, match=r"^probe: .*float range"):
        solve_multiplier(level, 1e187, "probe")
    assert _within_one_float(solve_multiplier(level, 1e186, "probe")[0], 1e-8)


def test_silverstein_level_evaluations_over_the_sigma2_range(monkeypatch):
    # the bracket [1/(sigma2 + int tau dT), 1/sigma2] has a finite log level
    # ratio at both ends, so small sigma2 costs no midpoint walk; past about
    # sigma2 = 1e16 its ends round onto the root and (0, 2/sigma2] is used
    calls = []
    monkeypatch.setattr(
        deformed, "solve_level", lambda level, target, lo, hi: solve_level(_counted(level, calls), target, lo, hi)
    )
    pop = PopulationSpectrum(atoms=((1.0, 0.5), (0.25, 0.5)))
    for k in range(-100, 101):
        calls.clear()
        LimitReduction(2.0, 10.0**-k, pop).m_def
        assert 0 < len(calls) <= 20


@pytest.mark.parametrize("target", [0.5, 3.0, math.nan])
def test_solve_level_refuses_a_bracket_without_a_sign_change(target):
    with pytest.raises(BracketError) as info:
        solve_level(lambda x: 1.0 / x, target, 0.5, 1.0)
    info.match(r"level 2\.0 and 1\.0")


def _scan_rho_oracle(gamma, sigma2, eps2, lattice_size=10**6, nodes=10**4):
    """Independent root location: monotone scan of a fine rho lattice.

    The residual is evaluated with a fixed (non-adaptive) endpoint-absorbing
    rule built from scratch here.  Monotonicity lets the scan walk the
    million-point lattice hierarchically: a stride-1000 pass picks the
    bracketing coarse cell, a unit-stride pass inside it picks the
    bracketing lattice cell, and the root is linearly interpolated there.
    """
    lm = (1.0 - 1.0 / math.sqrt(gamma)) ** 2
    lp = (1.0 + 1.0 / math.sqrt(gamma)) ** 2
    k = nodes
    i = np.arange(1, k + 1)
    x = np.cos((2 * i - 1) * np.pi / (2 * k))
    c, r = (lp + lm) / 2, (lp - lm) / 2
    s = c + r * x
    w = (gamma * r * r / (2 * k)) * (1 - x * x) / s
    coef = w * sigma2**2 / (s + sigma2)

    def residual(rhos):
        return coef @ (1.0 / (1.0 - np.outer(s, rhos)) ** 2) - eps2

    cap = (1.0 - 1e-8) / lp
    lattice = np.linspace(0.0, cap, lattice_size + 1)
    stride = 1000
    coarse = lattice[::stride]
    rc = residual(coarse)
    j = int(np.searchsorted(rc > 0, True)) - 1
    fine = lattice[j * stride : (j + 1) * stride + 1]
    rf = residual(fine)
    m = int(np.searchsorted(rf > 0, True)) - 1
    # linear interpolation of the residual inside the bracketing cell
    r0, r1 = rf[m], rf[m + 1]
    return fine[m] + (fine[m + 1] - fine[m]) * (-r0) / (r1 - r0)


def test_bisect_against_fine_grid_scan_oracle():
    gamma, sigma2 = 2.0, 0.1
    eps2 = 2.0 * LimitReduction(gamma, sigma2).threshold
    rho_scan = _scan_rho_oracle(gamma, sigma2, eps2)
    rho_solver = LimitReduction(gamma, sigma2).solve(eps2).rho
    assert abs(rho_solver - rho_scan) <= 1e-8


# The Chebyshev-Gauss rule of the first kind behind the mp_integrate oracle:
# nodes cos((2i-1)pi/(2k)) ascending, every weight pi/k, transfer factors
# 1 - x_i^2 for the sqrt(1-x^2) weight.



def test_solve_multiplier_inactive_and_refusal():
    level = lambda x: 1.0 / x  # diverges at the edge delta = 0
    assert solve_multiplier(level, 1.0, "probe") == (1.0, 0.0)
    assert solve_multiplier(level, 0.5, "probe") == (1.0, 0.0)
    delta, residual = solve_multiplier(level, 4.0, "probe")
    assert _within_one_float(delta, 0.25) and residual <= 1e-15
    # the bracket reaches down to the smallest normal float, and no further
    delta, _ = solve_multiplier(level, 0.5 * level(TINY), "probe")
    assert _within_one_float(delta, 2.0 * TINY)
    for past in (level(TINY), 1e308):
        with pytest.raises(NearDivergenceError, match=r"^probe: .*float range"):
            solve_multiplier(level, past, "probe")


def test_edge_distance_is_the_one_rho_conversion():
    # the shared delta of a limit law and a design, here a design whose top is 4
    red = lab._Reduction(s=np.array([4.0, 1.0]), a=np.ones(2), b=np.ones(2), gap=0.0)
    assert red.delta(0.0) == 1.0
    assert red.delta(0.125) == 0.5
    assert red.delta(math.nextafter(0.25, 0.0)) == 2.0**-53
    for bad in (-1e-300, 0.25, 1.0, math.inf, math.nan):
        with pytest.raises(RegimeError, match=r"^rho with top = top_eig\(ZZ\^T\)/d requires 0 <= rho \* top < 1"):
            red.delta(bad)


_SIGMA2 = 0.1
_TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))
# every route is solved at a target whose root lies this close to the edge
_EDGE_DELTA = 1e-12


def _route_rho(monkeypatch):
    # level: train; output: the cost at the solved delta
    def solve(target):
        return ce.LimitReduction(2.0, _SIGMA2).cost(target).cost

    return lambda x: ref.train(2.0, 0.1, x), lambda x: ref.cost(2.0, 0.1, x), solve


def _route_rho_ols(monkeypatch):
    # rho_ols takes no target: its right-hand side, the inverse moment, is set instead
    def solve(target):
        monkeypatch.setattr(ce, "_inverse_moment", lambda law, a: target)
        return ce.LimitReduction(2.0, _SIGMA2).ols.target_eps2

    return lambda x: ref.ols_level(2.0, 0.1, x), lambda x: ref.train(2.0, 0.1, x), solve


def _route_rho_def(monkeypatch):
    ks2 = _TWO_ATOM.kappa * 0.1
    j0 = mp_stieltjes_neg(MPLaw(2.0), ks2)
    thresh = LimitReduction(2.0, 0.1, _TWO_ATOM).eps_def2

    def level(delta):
        return _TWO_ATOM.kappa * 0.01 * (ref.shrinkage(2.0, delta, ks2)[0] - j0)

    def solve(target):
        return ce.LimitReduction(2.0, _SIGMA2, _TWO_ATOM).bound(thresh + target)

    # thresh + target rounds, so the level reached is that of the rounded sum
    return level, lambda x: ref.cost(2.0, 0.1, x), solve, lambda t: (thresh + t) - thresh


def _route_lab_trial(monkeypatch):
    def config(eps2):
        return lab.ExperimentConfig(n=100, d=200, sigma2=0.1, seed=1, trials=1, eps2=eps2)

    design = lab.sample_design(config(1.0), 0)
    red = lab._reduce(design, 0.1)
    s, a, b = ([ref.mp.mpf(float(v)) for v in vec] for vec in (red.s, red.a, red.b))

    def weighted(w, delta):
        return ref.mp.fsum(wk / (delta + (1 - delta) * (1 - sk / s[0])) ** 2 for wk, sk in zip(w, s))

    def cost(delta):
        return ((1 - delta) / s[0]) ** 2 * weighted(b, delta)

    def solve(target):
        return lab.trial_metrics(config(target), 0).cost

    return lambda x: weighted(a, x), cost, solve


@pytest.mark.parametrize(
    "route", [_route_rho, _route_rho_ols, _route_rho_def, _route_lab_trial],
    ids=["solve_rho", "solve_rho_ols", "solve_rho_def", "eps2_trial"],
)
def test_every_multiplier_solve_shares_one_cap(route, monkeypatch):
    # one contract for every solve: the bracket [TINY, 1] in delta, a refusal
    # only past the level at TINY, and full accuracy up to the edge
    level, output, solve, *reach = route(monkeypatch)
    with ref.mp.workdps(ref.DPS):
        # the lab's level overflows at TINY, so every finite target is reached
        top = float(level(TINY))
        if math.isfinite(top):
            with pytest.raises(NearDivergenceError, match="float range"):
                solve((1 + 1e-12) * top)
            assert math.isfinite(solve((1 - 1e-12) * top))
        target = float(level(_EDGE_DELTA))
        delta = ref.edge_root(level, reach[0](target) if reach else target)
        assert delta < 1e-10
        assert ref.rel(solve(target), output(delta)) <= 1e-14


def test_chebyshev_rule_k1_midpoint():
    nodes, one_minus_x2 = _cheb_transfer(1)
    assert len(nodes) == 1
    assert abs(nodes[0]) < 1e-16
    assert abs(one_minus_x2[0] - 1.0) < 1e-16


def test_chebyshev_rule_semicircle_area():
    nodes, one_minus_x2 = _cheb_transfer(2)
    # weight transfer: int sqrt(1-x^2) dx = sum (pi/k) (1 - x_i^2)
    area = float(np.sum(math.pi / 2 * one_minus_x2))
    assert abs(area - math.pi / 2) < 1e-14


def test_chebyshev_rule_beta_integral_oracle():
    # analytic value of int x^2 sqrt(1-x^2) dx on [-1, 1] is pi/8
    nodes, one_minus_x2 = _cheb_transfer(64)
    val = float(np.sum(math.pi / 64 * nodes**2 * one_minus_x2))
    assert abs(val - math.pi / 8) < 1e-13


@pytest.mark.parametrize("k", [1, 2, 5, 64, 513])
def test_chebyshev_rule_structure(k):
    nodes, one_minus_x2 = _cheb_transfer(k)
    i = np.arange(1, k + 1)
    assert np.array_equal(nodes, np.cos((2 * i - 1) * np.pi / (2 * k))[::-1])
    assert np.all(np.diff(nodes) > 0)
    assert np.all(nodes > -1) and np.all(nodes < 1)
    assert np.allclose(one_minus_x2, 1.0 - nodes**2, rtol=0, atol=1e-15)


def test_chebyshev_rule_rejects_bad_k():
    with pytest.raises(DomainError):
        _cheb_transfer(0)


def test_sym_eig_identity():
    assert np.allclose(sym_eigvals(np.eye(5)), 1.0, atol=1e-14)


def test_sym_eig_diag_ascending():
    assert np.allclose(sym_eigvals(np.diag([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0], atol=1e-14)


def test_sym_eigvals_wishart_trace_and_logdet():
    rng = np.random.default_rng(11)
    B = rng.standard_normal((50, 50))
    M = B @ B.T / 50
    vals = sym_eigvals(M)
    assert np.all(np.diff(vals) >= 0)
    # eigenvalue sum/product tie to trace and determinant
    assert abs(vals.sum() - np.trace(M)) <= 1e-10 * abs(np.trace(M))
    sign, logdet = np.linalg.slogdet(M)
    assert sign > 0
    assert abs(np.sum(np.log(vals)) - logdet) <= 1e-8 * max(abs(logdet), 1.0)


def test_sym_eig_rejects_asymmetric():
    M = np.array([[1.0, 2.0], [0.0, 1.0]])
    with pytest.raises(DomainError):
        sym_eigvals(M)
