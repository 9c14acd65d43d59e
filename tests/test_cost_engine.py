import inspect
import math
import sys

import numpy as np
import pytest

from memcost import cost_engine as ce
from memcost import deformed
from memcost.cost_engine import BoundConstants, LimitReduction, Regime
from memcost.deformed import DeformedReduction, PopulationSpectrum
from memcost.errors import DomainError, NearDivergenceError, RegimeError
from memcost.oracle import mp_integrate
from memcost.spectra import MPLaw, mp_shrinkage, mp_stieltjes_neg

import mp_reference as ref

SIGMA2 = 0.1
TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))
GRID = [(g, s2) for g in (1.5, 2.0, 4.0, 10.0) for s2 in (1e-3, 1e-2, 1e-1, 1.0)]


# every public number of LimitReduction and DeformedReduction, keyed by the
# quantity it computes and called with valid other arguments; e is an eps2 for
# the rho_def routes
PUBLIC_CALLS = {
    "memorization_threshold": lambda g, s2, e: LimitReduction(g, s2).threshold,
    "threshold_approx": lambda g, s2, e: LimitReduction(g, s2).approx,
    "solve_rho": lambda g, s2, e: LimitReduction(g, s2).solve(0.0),
    "asymptotic_cost": lambda g, s2, e: LimitReduction(g, s2).cost(0.0),
    "cost_linear_bound": lambda g, s2, e: LimitReduction(g, s2).linear_bound(),
    "ols_gap": lambda g, s2, e: LimitReduction(g, s2).gap,
    "solve_rho_ols": lambda g, s2, e: LimitReduction(g, s2).ols,
    "threshold_report": lambda g, s2, e: LimitReduction(g, s2).report(),
    "deformed_threshold": lambda g, s2, e: DeformedReduction(g, s2, TWO_ATOM).eps_def2,
    "solve_rho_def": lambda g, s2, e: DeformedReduction(g, s2, TWO_ATOM).solve_def(e),
    "anisotropic_cost_lower_bound": lambda g, s2, e: DeformedReduction(g, s2, TWO_ATOM).bound(e),
    "deformed_linear_bound": lambda g, s2, e: DeformedReduction(g, s2, TWO_ATOM).linear_bound(),
    "deformed_threshold_report": lambda g, s2, e: DeformedReduction(g, s2, TWO_ATOM).report(),
}


def test_sigma2_calls_cover_every_public_function_of_sigma2():
    # LimitReduction and DeformedReduction are the only public callables that
    # take sigma2, and each of their numbers, LimitReduction's own or the shared
    # constrained law's, is called once above (report and linear_bound once on
    # each class); delta, train, growth and bracket are the constraint's
    # interface, and m_def is read by eps_def2
    takes_sigma2 = [
        name for module in (ce, deformed) for name in module.__all__
        if callable(getattr(module, name))
        and "sigma2" in inspect.signature(getattr(module, name)).parameters
    ]
    assert takes_sigma2 == ["LimitReduction", "DeformedReduction"]
    members = {
        (cls, name) for cls in (LimitReduction, DeformedReduction)
        for name in dir(cls) if not name.startswith("_")
    }
    numbers = {(cls, name) for cls, name in members
               if name not in {"delta", "train", "growth", "bracket", "m_def"}}
    assert len(numbers) == len(PUBLIC_CALLS) == 13


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_sigma2_outside_the_range_is_refused(name):
    call = PUBLIC_CALLS[name]
    for bad in (0.0, math.inf, math.nan, -math.inf, 1e-101, 1e101, 1e-300, 1e300):
        with pytest.raises(DomainError, match=r"^sigma2 must lie in \[1e-100, 1e100\], got "):
            call(2.0, bad, 1.0)
    # the ends of the accepted range are valid; at the deformed threshold rho_def = 0
    for good in (1e-100, 1e100):
        call(2.0, good, DeformedReduction(2.0, good, TWO_ATOM).eps_def2)


@pytest.mark.parametrize("name", list(PUBLIC_CALLS))
def test_gamma_outside_the_regime_is_refused(name):
    # threshold_approx used to return a value at gamma = inf
    for bad in (0.5, 1.0, math.nan, math.inf):
        with pytest.raises(RegimeError, match="overparameterized regime requires gamma > 1"):
            PUBLIC_CALLS[name](bad, SIGMA2, 1.0)


def test_anisotropic_bound_builds_one_reduction_and_solves_one_level(monkeypatch):
    eps2 = 2.0 * DeformedReduction(2.0, SIGMA2, TWO_ATOM).eps_def2
    built, solves = [], []
    init, solve_level = LimitReduction.__init__, deformed.solve_level
    monkeypatch.setattr(LimitReduction, "__init__", lambda red, *a: built.append(a) or init(red, *a))
    monkeypatch.setattr(deformed, "solve_level", lambda *a: solves.append(a) or solve_level(*a))
    DeformedReduction(2.0, SIGMA2, TWO_ATOM).bound(eps2)
    assert (len(built), len(solves)) == (1, 1)


def test_no_population_is_given_the_isotropic_cost():
    # the limit law took a population and answered solve and cost for the
    # isotropic law, 2.1x the lab's cost at 1.5 eps_def2 for this spectrum
    with pytest.raises(TypeError):
        LimitReduction(2.0, 0.1, TWO_ATOM)
    red = DeformedReduction(2.0, 0.1, TWO_ATOM)
    assert not [name for name in ("train", "growth", "solve", "cost") if hasattr(red, name)]
    assert not isinstance(red, ce._ConstrainedLaw)


def test_threshold_value_gamma2():
    val = LimitReduction(2.0, SIGMA2).threshold
    assert abs(val - 0.014833147735478828) < 1e-12
    # quadrature cross-check of the closed form
    quad = 0.01 * mp_integrate(MPLaw(2.0), lambda s: 1.0 / (s + 0.1))
    assert abs(val - quad) <= 1e-10


def test_threshold_approx_direct_substitution():
    val = LimitReduction(2.0, 0.01).approx
    assert abs(val - 1e-4 / 0.51) < 1e-18


def test_threshold_approx_large_gamma():
    val = LimitReduction(1e12, 0.5).approx
    assert abs(val - 0.25 / 1.5) < 1e-9


def test_threshold_ratio_converges_monotonically():
    ratios = []
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        red = LimitReduction(2.0, s2)
        ratios.append(red.threshold / red.approx)
    deviations = [abs(1.0 - r) for r in ratios]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] <= 0.05


def test_deformed_path_matches_isotropic_threshold():
    iso = PopulationSpectrum.isotropic()
    for gamma in (1.5, 2.0, 4.0):
        a = LimitReduction(gamma, SIGMA2).threshold
        b = DeformedReduction(gamma, SIGMA2, iso).eps_def2
        assert abs(a - b) < 1e-10


def test_solve_rho_at_threshold_is_inactive():
    red = LimitReduction(2.0, SIGMA2)
    sol = red.solve(red.threshold)
    assert sol.rho == 0.0
    assert sol.regime is Regime.BELOW_THRESHOLD
    assert sol.residual == 0.0


def test_solve_rho_below_threshold():
    red = LimitReduction(2.0, SIGMA2)
    eps2 = 0.5 * red.threshold
    sol = red.solve(eps2)
    assert sol.rho == 0.0 and sol.regime is Regime.BELOW_THRESHOLD
    assert red.cost(eps2).cost == 0.0


def test_solve_rho_rejects_negative_eps2():
    red = LimitReduction(2.0, SIGMA2)
    with pytest.raises(DomainError):
        red.solve(-1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            red.solve(bad)


def test_solve_rho_near_divergence():
    # train at the smallest normal delta is about 3e151 at sigma2 = 0.1
    with pytest.raises(NearDivergenceError, match="float range"):
        LimitReduction(2.0, SIGMA2).solve(1e300)


TINY = sys.float_info.min


def test_train_at_zero_is_the_threshold_bit_for_bit():
    for gamma, s2 in GRID:
        j0, _ = mp_shrinkage(MPLaw(gamma), s2)(1.0)
        assert s2**2 * j0 == LimitReduction(gamma, s2).threshold


def test_solve_rho_near_divergence_boundary():
    # the last reachable target is train at the smallest normal delta
    top = SIGMA2**2 * mp_shrinkage(MPLaw(2.0), SIGMA2)(TINY)[0]
    red = LimitReduction(2.0, SIGMA2)
    with pytest.raises(NearDivergenceError):
        red.solve(top)
    target = (1.0 - 1e-9) * top
    sol = red.solve(target)
    # delta is about 1e-308, so rho is 1/lambda_plus to rounding
    assert sol.regime is Regime.ABOVE_THRESHOLD
    assert sol.rho == 1.0 / MPLaw(2.0).lambda_plus
    assert sol.residual <= 1e-14 * target
    point = red.cost(target)
    assert math.isfinite(point.cost) and point.cost > 0


def test_solve_rho_def_near_divergence_boundary():
    ks2 = TWO_ATOM.kappa * SIGMA2
    law = MPLaw(2.0)
    red = DeformedReduction(2.0, SIGMA2, TWO_ATOM)
    thresh = red.eps_def2
    scale = TWO_ATOM.kappa * SIGMA2**2
    top_lhs = scale * (mp_shrinkage(law, ks2)(TINY)[0] - mp_stieltjes_neg(law, ks2))
    with pytest.raises(NearDivergenceError):
        red.solve_def(thresh + (1.0 + 1e-12) * top_lhs)
    eps2 = thresh + (1.0 - 1e-6) * top_lhs
    sol = red.solve_def(eps2)
    assert sol.regime is Regime.ABOVE_THRESHOLD
    assert sol.rho == 1.0 / law.lambda_plus
    assert sol.residual <= 1e-14 * eps2
    assert math.isfinite(red.bound(eps2))


def test_solve_rho_ols_near_divergence_boundary():
    # as gamma -> 1+ the right-hand side grows like 1/(sigma2 (1 - 1/gamma))
    # and the root approaches the edge (delta 3.7e-19, 4.0e-9 and 1.7e-8 here);
    # the solve reaches it to rounding
    for gamma in (1.0000001, 1.01, 1.02):
        sol = LimitReduction(gamma, SIGMA2).ols
        lp = MPLaw(gamma).lambda_plus
        assert 1.0 / (2.0 * lp) < sol.rho <= 1.0 / lp
        delta, exact = ref.rho_ols(gamma, SIGMA2)
        assert delta < 1e-7
        assert ref.rel(sol.target_eps2, exact) <= 1e-14


def test_limit_growth_domain_and_zero():
    red = LimitReduction(2.0, SIGMA2)
    assert red.growth(red.delta(0.0)) == 0.0
    with pytest.raises(RegimeError):
        red.delta(1.0 / MPLaw(2.0).lambda_plus)


def test_solve_rho_monotone_in_eps2():
    red = LimitReduction(2.0, SIGMA2)
    th = red.threshold
    rhos = [red.solve(float(e)).rho for e in np.linspace(0.5 * th, 6 * th, 25)]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    above = [r for r in rhos if r > 0]
    assert all(b > a for a, b in zip(above, above[1:]))


def test_cost_is_monotone_and_zero_below_threshold():
    red = LimitReduction(2.0, SIGMA2)
    th = red.threshold
    points = [red.cost(float(e)) for e in np.linspace(0.2 * th, 5 * th, 15)]
    costs = [p.cost for p in points]
    assert all(c == 0.0 for p, c in zip(points, costs) if p.eps2 <= th)
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    assert costs[-1] > 0


def test_costbar_below_threshold_is_minus_gap():
    red = LimitReduction(2.0, SIGMA2)
    point = red.cost(0.5 * red.threshold)
    gap = red.gap
    assert point.cost == 0.0
    assert abs(point.costbar + gap) < 1e-15
    assert point.costbar < 0


def test_ols_gap_two_routes_and_small_sigma_law():
    ratios = []
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        gap = LimitReduction(2.0, s2).gap
        quad = s2 * s2 / 2.0 * mp_integrate(MPLaw(2.0), lambda s: 1.0 / (s * (s + s2)))
        assert abs(gap - quad) <= 1e-10 * gap
        ratios.append(gap / s2**2)
    # limit constant 1/(gamma (1-1/gamma)^3) = 4 at gamma = 2
    deviations = [abs(r - 4.0) for r in ratios]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] / 4.0 <= 0.05


def test_rho_ols_lower_bound_and_residual():
    for gamma, s2 in GRID:
        sol = LimitReduction(gamma, s2).ols
        lp = MPLaw(gamma).lambda_plus
        assert sol.rho >= 1.0 / (2.0 * lp)
        assert sol.rho < 1.0 / lp
        assert sol.residual <= 1e-10


@pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("s2", [1e-12, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e4])
def test_rho_ols_equation_by_quadrature(gamma, s2):
    # both sides of the rho_ols equation re-evaluated by the quadrature oracle
    law = MPLaw(gamma)
    rho = LimitReduction(gamma, s2).ols.rho
    lhs = rho * rho * mp_integrate(law, lambda s: s / ((1.0 - rho * s) ** 2 * (s + s2)))
    rhs = mp_integrate(law, lambda s: 1.0 / (s * (s + s2)))
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_rho_ols_large_sigma2_stays_interior():
    sol = LimitReduction(2.0, 100.0).ols
    lp = MPLaw(2.0).lambda_plus
    assert 1.0 / (2.0 * lp) < sol.rho < 1.0 / lp


def test_threshold_ordering_on_grid():
    for gamma, s2 in GRID:
        red = LimitReduction(gamma, s2)
        eps_s2, eps_ols2 = red.threshold, red.ols.target_eps2
        law = MPLaw(gamma)
        cap = (2.0 * law.lambda_plus / law.lambda_minus) ** 2 * eps_s2
        assert eps_s2 < eps_ols2 <= cap * (1 + 1e-12)


def test_costbar_zero_at_ols_threshold_and_sign_flip():
    for gamma, s2 in [(1.5, 0.1), (2.0, 0.1), (4.0, 1e-2)]:
        red = LimitReduction(gamma, s2)
        eps_ols2 = red.ols.target_eps2
        assert abs(red.cost(eps_ols2).costbar) <= 1e-8
        assert red.cost(0.95 * eps_ols2).costbar < 0
        assert red.cost(1.05 * eps_ols2).costbar > 0


def test_linear_bound_constants_isotropic():
    law = MPLaw(2.0)
    bc = LimitReduction(2.0, SIGMA2).linear_bound()
    assert abs(bc.c_small - 2.0 / (law.lambda_minus**2 + 0.1)) < 1e-14
    shrink = (1 - 1 / math.sqrt(2)) ** 2
    assert abs(bc.C_growth - shrink * law.lambda_minus / (law.lambda_plus**2 * 2.0)) < 1e-16
    assert bc.kappa == 1.0


def test_linear_bound_families_differ_at_unit_kappa():
    iso = LimitReduction(2.0, SIGMA2).linear_bound()
    mitigated = DeformedReduction(2.0, SIGMA2, PopulationSpectrum.isotropic()).linear_bound()
    law = MPLaw(2.0)
    assert abs(mitigated.c_small - 2.0 / (law.lambda_minus + 0.1)) < 1e-13
    assert iso.c_small != mitigated.c_small
    assert abs(iso.C_growth - mitigated.C_growth) < 1e-18


def test_linear_bound_family_follows_the_population():
    law = MPLaw(2.0)
    bc = DeformedReduction(2.0, SIGMA2, TWO_ATOM).linear_bound()
    assert bc.kappa == TWO_ATOM.kappa == 2.0
    assert bc.c_small == 2.0 * 2.0 / (law.lambda_minus + 2.0 * SIGMA2)
    shrink = (1 - 1 / math.sqrt(2)) ** 2
    assert bc.C_growth == law.lambda_minus * shrink / (2.0 * law.lambda_plus**2 * 2.0)
    assert DeformedReduction(2.0, SIGMA2, PopulationSpectrum.isotropic()).linear_bound().kappa == 1.0


def test_linear_bound_vanishes_like_inverse_gamma():
    c1 = LimitReduction(1e8, SIGMA2).linear_bound().C_growth
    c2 = LimitReduction(2e8, SIGMA2).linear_bound().C_growth
    assert abs(c1 / c2 - 2.0) < 1e-3


def test_linear_bound_stays_positive_at_the_largest_gamma():
    # kappa lp^2 gamma overflows past 1.8e308, but C itself is a positive subnormal
    shrink = (1 - 1 / math.sqrt(2)) ** 2
    for kappa in (2.0, 4.0):
        pop = PopulationSpectrum(atoms=((1.0, 0.5), (1.0 / kappa, 0.5)))
        for s2 in (1e-3, 0.1, 1.0):
            bc = DeformedReduction(1e308, s2, pop).linear_bound()
            assert bc.kappa == kappa and 0.0 < bc.c_small < math.inf
            assert 0.0 < bc.C_growth < math.inf
            assert bc.C_growth == pytest.approx(shrink / kappa / 1e308, rel=1e-9)


def test_linear_bound_stays_positive_where_kappa_sigma2_overflows():
    # c = 2 kappa/(lambda_minus + kappa sigma2) read 2e300/inf = 0, and so
    # BoundConstants refused a valid population; c is about 2/sigma2 here
    pop = PopulationSpectrum(atoms=((1.0, 0.9), (1e-300, 0.1)))
    bc = DeformedReduction(2.0, 1e10, pop).linear_bound()
    assert bc.kappa == pop.kappa and bc.c_small == pytest.approx(2e-10, rel=1e-15)
    assert 0.0 < bc.C_growth < math.inf


def test_linear_growth_guarantee_pointwise():
    for gamma in (1.5, 2.0, 4.0):
        for s2 in (0.01, 0.1):
            red = LimitReduction(gamma, s2)
            bc = red.linear_bound()
            floor = bc.c_small * s2**2
            for eps2 in np.linspace(floor, 20 * floor, 6):
                point = red.cost(float(eps2))
                assert point.cost >= bc.C_growth * eps2


def test_bound_constants_validation():
    with pytest.raises(DomainError):
        BoundConstants(c_small=0.0, C_growth=1.0)


def test_bound_constants_refuse_nan():
    for c, C in ((math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(DomainError, match="bound constants must be positive"):
            BoundConstants(c_small=c, C_growth=C)


def test_solve_rho_def_at_threshold():
    red = DeformedReduction(2.0, SIGMA2, TWO_ATOM)
    sol = red.solve_def(red.eps_def2)
    assert sol.rho == 0.0 and sol.regime is Regime.BELOW_THRESHOLD


def test_solve_rho_def_below_threshold_is_regime_error():
    red = DeformedReduction(2.0, SIGMA2, TWO_ATOM)
    with pytest.raises(RegimeError):
        red.solve_def(0.5 * red.eps_def2)


@pytest.mark.parametrize("eps2", [math.nan, math.inf, -math.inf])
def test_solve_rho_def_refuses_a_nonfinite_eps2(eps2):
    # these were reported as a NearDivergenceError past the float range
    red = DeformedReduction(2.0, SIGMA2, TWO_ATOM)
    for member in (red.solve_def, red.bound, LimitReduction(2.0, SIGMA2).solve):
        with pytest.raises(DomainError, match=r"^eps2 must be finite and nonnegative, got "):
            member(eps2)


def test_solve_rho_def_plug_back_residual():
    red = DeformedReduction(2.0, SIGMA2, TWO_ATOM)
    thresh = red.eps_def2
    sol = red.solve_def(2.0 * thresh)
    assert sol.regime is Regime.ABOVE_THRESHOLD
    assert sol.residual <= 1e-10
    # independent plug-back with the quadrature route
    law = MPLaw(2.0)
    kappa = TWO_ATOM.kappa
    ks2 = kappa * SIGMA2
    lhs = kappa * SIGMA2**2 * (
        mp_integrate(law, lambda s: 1.0 / ((1.0 - sol.rho * s) ** 2 * (s + ks2)))
        - mp_stieltjes_neg(law, ks2)
    )
    assert abs(lhs - (2.0 * thresh - thresh)) <= 1e-9


def test_solve_rho_def_degenerate_matches_isotropic():
    iso = PopulationSpectrum.isotropic()
    th = LimitReduction(2.0, SIGMA2).threshold
    for mult in (1.5, 2.0, 4.0):
        a = DeformedReduction(2.0, SIGMA2, iso).solve_def(mult * th).rho
        b = LimitReduction(2.0, SIGMA2).solve(mult * th).rho
        assert abs(a - b) < 1e-12


def test_anisotropic_bound_zero_at_threshold():
    red = DeformedReduction(2.0, SIGMA2, TWO_ATOM)
    assert red.bound(red.eps_def2) == 0.0


def test_anisotropic_bound_linear_growth():
    for gamma in (1.5, 2.0):
        for s2 in (0.01, 0.1):
            red = DeformedReduction(gamma, s2, TWO_ATOM)
            bc = red.linear_bound()
            floor = bc.c_small * s2**2
            for eps2 in np.linspace(floor, 10 * floor, 4):
                bound = red.bound(float(eps2))
                assert bound >= bc.C_growth * eps2


def test_anisotropic_bound_reduces_to_isotropic_cost():
    iso = PopulationSpectrum.isotropic()
    for s2 in (0.01, 0.1):
        th = LimitReduction(2.0, s2).threshold
        for mult in (1.5, 3.0):
            bound = DeformedReduction(2.0, s2, iso).bound(mult * th)
            exact = LimitReduction(2.0, s2).cost(mult * th).cost
            assert abs(bound - exact) <= 1e-9 * max(exact, 1e-12)


def test_threshold_report_assembles_family():
    report = DeformedReduction(2.0, SIGMA2, TWO_ATOM).report()
    assert report.eps_sigma2 < report.eps_ols2
    assert report.eps_def2 is not None
    assert report.eps_def2 > report.eps_sigma2  # larger condition number raises it here
    kappa = TWO_ATOM.kappa
    bound = kappa * 0.1**2 * mp_stieltjes_neg(MPLaw(2.0), kappa * 0.1)
    assert report.eps_def2_upper_bound == pytest.approx(bound, rel=1e-15)
    assert report.eps_def2 <= report.eps_def2_upper_bound
    plain = LimitReduction(2.0, SIGMA2).report()
    assert plain.eps_def2 is None and plain.eps_def2_upper_bound is None


def test_deformed_threshold_upper_bound_holds_past_overflow():
    # m(-x) squared 1 - 1/gamma + x, and so the bound read 0 or nan from
    # kappa sigma2 = 1.3e154 (0 at gamma = 2, sigma2 = 0.1, smallest atom 1e-300).
    # Both sides tend to sigma2 as it grows, and their exact gap, about
    # E[tau]/sigma2 relative, is far below rounding: allow the bound 2 ulps under.
    for gamma in (1.05, 2.0, 10.0):
        for k in (6, 20, 100, 154, 155, 200, 300):
            pop = PopulationSpectrum(atoms=((1.0, 0.5), (10.0**-k, 0.5)))
            for j in range(-100, 101, 10):
                report = DeformedReduction(gamma, 10.0**j, pop).report()
                assert math.isfinite(report.eps_def2_upper_bound)
                assert report.eps_def2_upper_bound >= report.eps_def2 * (1.0 - 4e-16)
    pop = PopulationSpectrum(atoms=((1.0, 0.5), (1e-300, 0.5)))
    report = DeformedReduction(2.0, SIGMA2, pop).report()
    assert report.eps_def2 < report.eps_def2_upper_bound == pytest.approx(0.1, rel=1e-15)


def test_ols_gap_matches_mpmath_down_to_tiny_noise():
    # ols_gap also passes its own 1e-10 quadrature check at every point
    import mpmath as mp

    for gamma in (1.05, 2.0, 10.0, 100.0):
        for s2 in (1e-12, 1e-8, 1e-4, 1.0, 1e4):
            with mp.workdps(60):
                g, a = mp.mpf(gamma), mp.mpf(s2)
                b = 1 - 1 / g + a
                m = (mp.sqrt(b * b + 4 * a / g) - b) / (2 * a / g)
                exact = float(a / g * (1 / (1 - 1 / g) - m))
            assert abs(LimitReduction(gamma, s2).gap - exact) <= 1e-10 * exact


@pytest.mark.parametrize("s2", [1e-8, 1e-10, 1e-12, 1e-20])
@pytest.mark.parametrize("multiple", [1.5, 3.0])
def test_small_noise_rho_solves_reach_eps2(s2, multiple):
    # eps2 ~ sigma2^2 is tiny, and the solves must still reach it to rounding
    law = MPLaw(2.0)
    red = LimitReduction(2.0, s2)
    eps2 = multiple * red.threshold
    rho = red.solve(eps2).rho
    train = s2 * s2 * mp_shrinkage(law, s2)(1.0 - rho * law.lambda_plus)[0]
    assert abs(train - eps2) <= 1e-12 * eps2

    pop = PopulationSpectrum(atoms=((1.0, 0.5), (0.25, 0.5)))
    red = DeformedReduction(2.0, s2, pop)
    thresh = red.eps_def2
    eps2_def = multiple * thresh
    rho_def = red.solve_def(eps2_def).rho
    ks2 = pop.kappa * s2
    reached = thresh + pop.kappa * s2 * s2 * (
        mp_shrinkage(law, ks2)(1.0 - rho_def * law.lambda_plus)[0]
        - mp_stieltjes_neg(law, ks2)
    )
    assert abs(reached - eps2_def) <= 1e-12 * eps2_def
