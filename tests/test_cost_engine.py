import math
import sys

import numpy as np
import pytest

from memcost.cost_engine import (
    BoundConstants,
    NoiseLevel,
    Regime,
    anisotropic_cost_lower_bound,
    asymptotic_cost,
    cost_at_rho,
    cost_linear_bound,
    memorization_threshold,
    ols_gap,
    solve_rho,
    solve_rho_def,
    solve_rho_ols,
    threshold_approx,
    threshold_report,
)
from memcost.deformed import DeformedLaw, PopulationSpectrum, deformed_threshold
from memcost.errors import DomainError, NearDivergenceError, RegimeError
from memcost.spectra import MPLaw, mp_integrate, mp_shrinkage_integrals, mp_stieltjes_neg

import mp_reference as ref

NOISE = NoiseLevel(0.1)
TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))
GRID = [(g, s2) for g in (1.5, 2.0, 4.0, 10.0) for s2 in (1e-3, 1e-2, 1e-1, 1.0)]


def test_noise_level_rejects_nonpositive():
    with pytest.raises(DomainError):
        NoiseLevel(0.0)
    for bad in (math.inf, math.nan, -math.inf, 1e-101, 1e101, 1e-300, 1e300):
        with pytest.raises(DomainError):
            NoiseLevel(bad)
    # the ends of the accepted range are valid
    NoiseLevel(1e-100)
    NoiseLevel(1e100)


def test_threshold_value_gamma2():
    val = memorization_threshold(2.0, NOISE)
    assert abs(val - 0.014833147735478828) < 1e-12
    # quadrature cross-check of the closed form
    quad = 0.01 * mp_integrate(MPLaw(2.0), lambda s: 1.0 / (s + 0.1))
    assert abs(val - quad) <= 1e-10


def test_threshold_approx_direct_substitution():
    val = threshold_approx(2.0, NoiseLevel(0.01))
    assert abs(val - 1e-4 / 0.51) < 1e-18


def test_threshold_approx_large_gamma():
    val = threshold_approx(1e12, NoiseLevel(0.5))
    assert abs(val - 0.25 / 1.5) < 1e-9


def test_threshold_ratio_converges_monotonically():
    ratios = []
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        noise = NoiseLevel(s2)
        ratios.append(memorization_threshold(2.0, noise) / threshold_approx(2.0, noise))
    deviations = [abs(1.0 - r) for r in ratios]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] <= 0.05


def test_deformed_path_matches_isotropic_threshold():
    iso = PopulationSpectrum.isotropic()
    for gamma in (1.5, 2.0, 4.0):
        a = memorization_threshold(gamma, NOISE)
        b = deformed_threshold(DeformedLaw(gamma, iso), NOISE.sigma2)
        assert abs(a - b) < 1e-10


def test_solve_rho_at_threshold_is_inactive():
    eps2 = memorization_threshold(2.0, NOISE)
    sol = solve_rho(2.0, NOISE, eps2)
    assert sol.rho == 0.0
    assert sol.regime is Regime.BELOW_THRESHOLD
    assert sol.residual == 0.0


def test_solve_rho_below_threshold():
    eps2 = 0.5 * memorization_threshold(2.0, NOISE)
    sol = solve_rho(2.0, NOISE, eps2)
    assert sol.rho == 0.0 and sol.regime is Regime.BELOW_THRESHOLD
    assert asymptotic_cost(2.0, NOISE, eps2).cost == 0.0


def test_solve_rho_rejects_negative_eps2():
    with pytest.raises(DomainError):
        solve_rho(2.0, NOISE, -1.0)
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError):
            solve_rho(2.0, NOISE, bad)


def test_solve_rho_near_divergence():
    # train at the smallest normal delta is about 3e151 at sigma2 = 0.1
    with pytest.raises(NearDivergenceError, match="float range"):
        solve_rho(2.0, NOISE, 1e300)


TINY = sys.float_info.min


def test_train_at_zero_is_the_threshold_bit_for_bit():
    for gamma, s2 in GRID:
        j0, _ = mp_shrinkage_integrals(MPLaw(gamma), 1.0, s2)
        assert s2**2 * j0 == memorization_threshold(gamma, NoiseLevel(s2))


def test_solve_rho_near_divergence_boundary():
    # the last reachable target is train at the smallest normal delta
    top = NOISE.sigma2**2 * mp_shrinkage_integrals(MPLaw(2.0), TINY, NOISE.sigma2)[0]
    with pytest.raises(NearDivergenceError):
        solve_rho(2.0, NOISE, top)
    target = (1.0 - 1e-9) * top
    sol = solve_rho(2.0, NOISE, target)
    # delta is about 1e-308, so rho is 1/lambda_plus to rounding
    assert sol.regime is Regime.ABOVE_THRESHOLD
    assert sol.rho == 1.0 / MPLaw(2.0).lambda_plus
    assert sol.residual <= 1e-14 * target
    point = asymptotic_cost(2.0, NOISE, target)
    assert math.isfinite(point.cost) and point.cost > 0


def test_solve_rho_def_near_divergence_boundary():
    ks2 = TWO_ATOM.kappa * NOISE.sigma2
    law = MPLaw(2.0)
    thresh = deformed_threshold(DeformedLaw(2.0, TWO_ATOM), NOISE.sigma2)
    scale = TWO_ATOM.kappa * NOISE.sigma2**2
    top_lhs = scale * (mp_shrinkage_integrals(law, TINY, ks2)[0] - mp_stieltjes_neg(law, ks2))
    with pytest.raises(NearDivergenceError):
        solve_rho_def(2.0, TWO_ATOM, NOISE, thresh + (1.0 + 1e-12) * top_lhs)
    eps2 = thresh + (1.0 - 1e-6) * top_lhs
    sol = solve_rho_def(2.0, TWO_ATOM, NOISE, eps2)
    assert sol.regime is Regime.ABOVE_THRESHOLD
    assert sol.rho == 1.0 / law.lambda_plus
    assert sol.residual <= 1e-14 * eps2
    assert math.isfinite(anisotropic_cost_lower_bound(2.0, TWO_ATOM, NOISE, eps2))


def test_solve_rho_ols_near_divergence_boundary():
    # as gamma -> 1+ the right-hand side grows like 1/(sigma2 (1 - 1/gamma))
    # and the root approaches the edge (delta 3.7e-19, 4.0e-9 and 1.7e-8 here);
    # the solve reaches it to rounding
    for gamma in (1.0000001, 1.01, 1.02):
        sol = solve_rho_ols(gamma, NOISE)
        lp = MPLaw(gamma).lambda_plus
        assert 1.0 / (2.0 * lp) < sol.rho <= 1.0 / lp
        delta, exact = ref.rho_ols(gamma, NOISE.sigma2)
        assert delta < 1e-7
        assert ref.rel(sol.target_eps2, exact) <= 1e-14


def test_cost_at_rho_domain_and_zero():
    assert cost_at_rho(2.0, NOISE, 0.0) == 0.0
    with pytest.raises(DomainError):
        cost_at_rho(2.0, NOISE, 1.0 / MPLaw(2.0).lambda_plus)


def test_solve_rho_monotone_in_eps2():
    th = memorization_threshold(2.0, NOISE)
    rhos = [solve_rho(2.0, NOISE, float(e)).rho for e in np.linspace(0.5 * th, 6 * th, 25)]
    assert all(b >= a for a, b in zip(rhos, rhos[1:]))
    above = [r for r in rhos if r > 0]
    assert all(b > a for a, b in zip(above, above[1:]))


def test_cost_is_monotone_and_zero_below_threshold():
    th = memorization_threshold(2.0, NOISE)
    points = [asymptotic_cost(2.0, NOISE, float(e)) for e in np.linspace(0.2 * th, 5 * th, 15)]
    costs = [p.cost for p in points]
    assert all(c == 0.0 for p, c in zip(points, costs) if p.eps2 <= th)
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    assert costs[-1] > 0


def test_costbar_below_threshold_is_minus_gap():
    th = memorization_threshold(2.0, NOISE)
    point = asymptotic_cost(2.0, NOISE, 0.5 * th)
    gap = ols_gap(2.0, NOISE)
    assert point.cost == 0.0
    assert abs(point.costbar + gap) < 1e-15
    assert point.costbar < 0


def test_ols_gap_two_routes_and_small_sigma_law():
    ratios = []
    for s2 in (1e-1, 1e-2, 1e-3, 1e-4):
        gap = ols_gap(2.0, NoiseLevel(s2))
        quad = s2 * s2 / 2.0 * mp_integrate(MPLaw(2.0), lambda s: 1.0 / (s * (s + s2)))
        assert abs(gap - quad) <= 1e-10 * gap
        ratios.append(gap / s2**2)
    # limit constant 1/(gamma (1-1/gamma)^3) = 4 at gamma = 2
    deviations = [abs(r - 4.0) for r in ratios]
    assert all(a > b for a, b in zip(deviations, deviations[1:]))
    assert deviations[-1] / 4.0 <= 0.05


def test_rho_ols_lower_bound_and_residual():
    for gamma, s2 in GRID:
        sol = solve_rho_ols(gamma, NoiseLevel(s2))
        lp = MPLaw(gamma).lambda_plus
        assert sol.rho >= 1.0 / (2.0 * lp)
        assert sol.rho < 1.0 / lp
        assert sol.residual <= 1e-10


@pytest.mark.parametrize("gamma", [1.5, 2.0, 4.0, 10.0])
@pytest.mark.parametrize("s2", [1e-12, 1e-8, 1e-3, 0.1, 1.0, 10.0, 1e4])
def test_rho_ols_equation_by_quadrature(gamma, s2):
    # both sides of the rho_ols equation re-evaluated by the quadrature oracle
    law = MPLaw(gamma)
    rho = solve_rho_ols(gamma, NoiseLevel(s2)).rho
    lhs = rho * rho * mp_integrate(law, lambda s: s / ((1.0 - rho * s) ** 2 * (s + s2)))
    rhs = mp_integrate(law, lambda s: 1.0 / (s * (s + s2)))
    assert abs(lhs - rhs) <= 1e-10 * rhs


def test_rho_ols_large_sigma2_stays_interior():
    sol = solve_rho_ols(2.0, NoiseLevel(100.0))
    lp = MPLaw(2.0).lambda_plus
    assert 1.0 / (2.0 * lp) < sol.rho < 1.0 / lp


def test_threshold_ordering_on_grid():
    for gamma, s2 in GRID:
        noise = NoiseLevel(s2)
        eps_s2 = memorization_threshold(gamma, noise)
        eps_ols2 = solve_rho_ols(gamma, noise).target_eps2
        law = MPLaw(gamma)
        cap = (2.0 * law.lambda_plus / law.lambda_minus) ** 2 * eps_s2
        assert eps_s2 < eps_ols2 <= cap * (1 + 1e-12)


def test_costbar_zero_at_ols_threshold_and_sign_flip():
    for gamma, s2 in [(1.5, 0.1), (2.0, 0.1), (4.0, 1e-2)]:
        noise = NoiseLevel(s2)
        eps_ols2 = solve_rho_ols(gamma, noise).target_eps2
        assert abs(asymptotic_cost(gamma, noise, eps_ols2).costbar) <= 1e-8
        assert asymptotic_cost(gamma, noise, 0.95 * eps_ols2).costbar < 0
        assert asymptotic_cost(gamma, noise, 1.05 * eps_ols2).costbar > 0


def test_linear_bound_constants_isotropic():
    law = MPLaw(2.0)
    bc = cost_linear_bound(2.0, NOISE)
    assert abs(bc.c_small - 2.0 / (law.lambda_minus**2 + 0.1)) < 1e-14
    shrink = (1 - 1 / math.sqrt(2)) ** 2
    assert abs(bc.C_growth - shrink * law.lambda_minus / (law.lambda_plus**2 * 2.0)) < 1e-16
    assert bc.kappa == 1.0


def test_linear_bound_families_differ_at_unit_kappa():
    iso = cost_linear_bound(2.0, NOISE, kappa=1.0)
    mitigated = cost_linear_bound(2.0, NOISE, kappa=1.0, anisotropic=True)
    law = MPLaw(2.0)
    assert abs(mitigated.c_small - 2.0 / (law.lambda_minus + 0.1)) < 1e-13
    assert iso.c_small != mitigated.c_small
    assert abs(iso.C_growth - mitigated.C_growth) < 1e-18


def test_linear_bound_vanishes_like_inverse_gamma():
    c1 = cost_linear_bound(1e8, NOISE).C_growth
    c2 = cost_linear_bound(2e8, NOISE).C_growth
    assert abs(c1 / c2 - 2.0) < 1e-3


def test_linear_growth_guarantee_pointwise():
    for gamma in (1.5, 2.0, 4.0):
        for s2 in (0.01, 0.1):
            noise = NoiseLevel(s2)
            bc = cost_linear_bound(gamma, noise)
            floor = bc.c_small * s2**2
            for eps2 in np.linspace(floor, 20 * floor, 6):
                point = asymptotic_cost(gamma, noise, float(eps2))
                assert point.cost >= bc.C_growth * eps2


def test_bound_constants_validation():
    with pytest.raises(DomainError):
        BoundConstants(c_small=0.0, C_growth=1.0)
    with pytest.raises(DomainError):
        cost_linear_bound(2.0, NOISE, kappa=0.5)


def test_solve_rho_def_at_threshold():
    eps2 = deformed_threshold(DeformedLaw(2.0, TWO_ATOM), NOISE.sigma2)
    sol = solve_rho_def(2.0, TWO_ATOM, NOISE, eps2)
    assert sol.rho == 0.0 and sol.regime is Regime.BELOW_THRESHOLD


def test_solve_rho_def_below_threshold_is_regime_error():
    eps2 = 0.5 * deformed_threshold(DeformedLaw(2.0, TWO_ATOM), NOISE.sigma2)
    with pytest.raises(RegimeError):
        solve_rho_def(2.0, TWO_ATOM, NOISE, eps2)


def test_solve_rho_def_plug_back_residual():
    thresh = deformed_threshold(DeformedLaw(2.0, TWO_ATOM), NOISE.sigma2)
    sol = solve_rho_def(2.0, TWO_ATOM, NOISE, 2.0 * thresh)
    assert sol.regime is Regime.ABOVE_THRESHOLD
    assert sol.residual <= 1e-10
    # independent plug-back with the quadrature route
    law = MPLaw(2.0)
    kappa = TWO_ATOM.kappa
    ks2 = kappa * NOISE.sigma2
    lhs = kappa * NOISE.sigma2**2 * (
        mp_integrate(law, lambda s: 1.0 / ((1.0 - sol.rho * s) ** 2 * (s + ks2)))
        - mp_stieltjes_neg(law, ks2)
    )
    assert abs(lhs - (2.0 * thresh - thresh)) <= 1e-9


def test_solve_rho_def_degenerate_matches_isotropic():
    iso = PopulationSpectrum.isotropic()
    th = memorization_threshold(2.0, NOISE)
    for mult in (1.5, 2.0, 4.0):
        a = solve_rho_def(2.0, iso, NOISE, mult * th).rho
        b = solve_rho(2.0, NOISE, mult * th).rho
        assert abs(a - b) < 1e-12


def test_anisotropic_bound_zero_at_threshold():
    eps2 = deformed_threshold(DeformedLaw(2.0, TWO_ATOM), NOISE.sigma2)
    assert anisotropic_cost_lower_bound(2.0, TWO_ATOM, NOISE, eps2) == 0.0


def test_anisotropic_bound_linear_growth():
    kappa = TWO_ATOM.kappa
    for gamma in (1.5, 2.0):
        for s2 in (0.01, 0.1):
            noise = NoiseLevel(s2)
            bc = cost_linear_bound(gamma, noise, kappa=kappa)
            floor = bc.c_small * s2**2
            for eps2 in np.linspace(floor, 10 * floor, 4):
                bound = anisotropic_cost_lower_bound(gamma, TWO_ATOM, noise, float(eps2))
                assert bound >= bc.C_growth * eps2


def test_anisotropic_bound_reduces_to_isotropic_cost():
    iso = PopulationSpectrum.isotropic()
    for s2 in (0.01, 0.1):
        noise = NoiseLevel(s2)
        th = memorization_threshold(2.0, noise)
        for mult in (1.5, 3.0):
            bound = anisotropic_cost_lower_bound(2.0, iso, noise, mult * th)
            exact = asymptotic_cost(2.0, noise, mult * th).cost
            assert abs(bound - exact) <= 1e-9 * max(exact, 1e-12)


def test_threshold_report_assembles_family():
    report = threshold_report(2.0, NOISE, TWO_ATOM)
    assert report.eps_sigma2 < report.eps_ols2
    assert report.eps_def2 is not None
    assert report.eps_def2 > report.eps_sigma2  # larger condition number raises it here
    kappa = TWO_ATOM.kappa
    bound = kappa * 0.1**2 * mp_stieltjes_neg(MPLaw(2.0), kappa * 0.1)
    assert report.eps_def2_upper_bound == pytest.approx(bound, rel=1e-15)
    assert report.eps_def2 <= report.eps_def2_upper_bound
    plain = threshold_report(2.0, NOISE)
    assert plain.eps_def2 is None and plain.eps_def2_upper_bound is None


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
            assert abs(ols_gap(gamma, NoiseLevel(s2)) - exact) <= 1e-10 * exact


@pytest.mark.parametrize("s2", [1e-8, 1e-10, 1e-12, 1e-20])
@pytest.mark.parametrize("multiple", [1.5, 3.0])
def test_small_noise_rho_solves_reach_eps2(s2, multiple):
    # eps2 ~ sigma2^2 is tiny, and the solves must still reach it to rounding
    law = MPLaw(2.0)
    noise = NoiseLevel(s2)
    eps2 = multiple * memorization_threshold(2.0, noise)
    rho = solve_rho(2.0, noise, eps2).rho
    train = s2 * s2 * mp_shrinkage_integrals(law, 1.0 - rho * law.lambda_plus, s2)[0]
    assert abs(train - eps2) <= 1e-12 * eps2

    pop = PopulationSpectrum(atoms=((1.0, 0.5), (0.25, 0.5)))
    thresh = deformed_threshold(DeformedLaw(2.0, pop), s2)
    eps2_def = multiple * thresh
    rho_def = solve_rho_def(2.0, pop, noise, eps2_def).rho
    ks2 = pop.kappa * s2
    reached = thresh + pop.kappa * s2 * s2 * (
        mp_shrinkage_integrals(law, 1.0 - rho_def * law.lambda_plus, ks2)[0]
        - mp_stieltjes_neg(law, ks2)
    )
    assert abs(reached - eps2_def) <= 1e-12 * eps2_def
