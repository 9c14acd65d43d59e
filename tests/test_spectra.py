import sys

import mpmath as mp
import numpy as np
import pytest

from memcost.errors import DomainError, RegimeError
from memcost.spectra import (
    EmpiricalSpectrum,
    MPLaw,
    bai_yin_check,
    esd_from_design,
    kolmogorov_distance,
    mp_cdf,
    mp_integrate,
    mp_shrinkage_integrals,
    mp_stieltjes_neg,
)

import mp_reference

GAMMAS = [1.5, 2.0, 4.0, 10.0]


def test_support_gamma_2():
    iv = MPLaw(2.0).support
    assert abs(iv.lo - 0.0857864376269049) < 1e-15
    assert abs(iv.hi - 2.9142135623730951) < 1e-15


def test_support_gamma_4():
    iv = MPLaw(4.0).support
    assert abs(iv.lo - 0.25) < 1e-15
    assert abs(iv.hi - 2.25) < 1e-15


def test_support_large_gamma_limit():
    iv = MPLaw(1e10).support
    assert abs(iv.lo - 1.0) < 1e-4
    assert abs(iv.hi - 1.0) < 1e-4


def test_support_rejects_low_gamma():
    with pytest.raises(RegimeError):
        MPLaw(1.0).support
    with pytest.raises(RegimeError):
        MPLaw(0.5).support


def test_endpoint_product_identity():
    for gamma in GAMMAS:
        law = MPLaw(gamma)
        assert abs(law.lambda_minus * law.lambda_plus - (1 - 1 / gamma) ** 2) < 1e-14


@pytest.mark.parametrize("gamma", GAMMAS)
def test_moments(gamma):
    law = MPLaw(gamma)
    assert abs(mp_integrate(law, lambda s: np.ones_like(s)) - 1.0) < 1e-10
    assert abs(mp_integrate(law, lambda s: s) - 1.0) < 1e-10


def test_inverse_moment_gamma_2():
    # support bounded away from zero gives int (1/s) dH = 1/(1 - 1/gamma)
    assert abs(mp_integrate(MPLaw(2.0), lambda s: 1.0 / s) - 2.0) < 1e-10


def test_integrate_linearity():
    law = MPLaw(3.0)
    rng = np.random.default_rng(3)
    cf = rng.uniform(-1, 1, 5)
    cg = rng.uniform(-1, 1, 5)
    f = lambda s: sum(c * s**i for i, c in enumerate(cf))
    g = lambda s: sum(c * s**i for i, c in enumerate(cg))
    combo = mp_integrate(law, lambda s: 2.0 * f(s) + 3.0 * g(s))
    parts = 2.0 * mp_integrate(law, f) + 3.0 * mp_integrate(law, g)
    assert abs(combo - parts) < 1e-10


def test_integrate_rejects_nonfinite():
    law = MPLaw(2.0)
    with pytest.raises(DomainError):
        mp_integrate(law, lambda s: np.where(s > 1.0, np.inf, 1.0))


def test_stieltjes_closed_form_value():
    assert abs(mp_stieltjes_neg(MPLaw(2.0), 0.1) - 1.4833147735478828) < 1e-12


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("sigma2", [1e-3, 1e-2, 0.1, 1.0])
def test_stieltjes_matches_quadrature(gamma, sigma2):
    law = MPLaw(gamma)
    quad = mp_integrate(law, lambda s: 1.0 / (s + sigma2))
    closed = mp_stieltjes_neg(law, sigma2)
    assert abs(quad - closed) <= 1e-9 * closed


def test_stieltjes_large_sigma2_tail():
    law = MPLaw(2.0)
    s2 = 1e8
    assert abs(mp_stieltjes_neg(law, s2) * s2 - 1.0) < 1e-6


def test_stieltjes_small_sigma2_limit():
    law = MPLaw(2.0)
    assert abs(mp_stieltjes_neg(law, 1e-12) - 2.0) < 1e-5


def test_stieltjes_monotone_in_sigma2():
    law = MPLaw(2.0)
    vals = [mp_stieltjes_neg(law, s2) for s2 in np.logspace(-4, 1, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_stieltjes_rejects_nonpositive():
    with pytest.raises(DomainError):
        mp_stieltjes_neg(MPLaw(2.0), 0.0)


def test_cdf_boundaries_and_monotonicity():
    law = MPLaw(2.0)
    assert mp_cdf(law, law.lambda_minus - 0.1) == 0.0
    assert mp_cdf(law, law.lambda_plus + 0.1) == 1.0
    grid = np.linspace(law.lambda_minus, law.lambda_plus, 25)
    vals = [mp_cdf(law, float(x)) for x in grid]
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - 1.0) < 1e-8


def test_cdf_against_trapezoid_oracle():
    law = MPLaw(2.0)
    lm, lp = law.lambda_minus, law.lambda_plus
    x = 1.3
    # dense clustered grid; the density vanishes like a square root at both edges
    t = np.linspace(0.0, np.pi, 400001)
    s = lm + (x - lm) * (1 - np.cos(t)) / 2
    dens = law.gamma / (2 * np.pi) * np.sqrt((lp - s) * (s - lm)) / s
    oracle = float(np.trapezoid(dens, s))
    assert abs(mp_cdf(law, x) - oracle) < 1e-6


def _mp_cdf(gamma, x):
    """H(x) by 40-digit quadrature; s = c - h cos(t) smooths both square-root edges."""
    with mp.workdps(40):
        g = mp.mpf(gamma)
        a, b = (1 - 1 / mp.sqrt(g)) ** 2, (1 + 1 / mp.sqrt(g)) ** 2
        c, h = (a + b) / 2, (b - a) / 2
        top = mp.acos((c - mp.mpf(x)) / h)
        return mp.quad(lambda t: g / (2 * mp.pi) * (h * mp.sin(t)) ** 2 / (c - h * mp.cos(t)), [0, top])


@pytest.mark.parametrize("gamma", [1.05, 1.5, 2.0, 4.0, 10.0, 100.0])
def test_cdf_closed_form_matches_mpmath(gamma):
    law = MPLaw(gamma)
    lm, lp = law.lambda_minus, law.lambda_plus
    for t in (1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-3, 1 - 1e-6, 1 - 1e-9):
        x = lm + t * (lp - lm)
        assert abs(mp_cdf(law, x) - _mp_cdf(gamma, x)) <= 1e-12


def test_esd_padded_identity():
    n, d = 2, 4
    X = np.sqrt(d) * np.hstack([np.eye(n), np.zeros((n, d - n))])
    spec = esd_from_design(X)
    assert np.allclose(spec.values, [1.0, 1.0], atol=1e-14)


def test_esd_zero_matrix():
    spec = esd_from_design(np.zeros((3, 6)))
    assert np.allclose(spec.values, 0.0)


def test_esd_clips_rounding_negatives_of_rank_deficient_designs():
    # a duplicated row makes XX^T singular; its Gram eigenvalue rounds to
    # about +-1e-15 and must come out as a valid (nonnegative) spectrum
    for seed in range(10):
        X = np.random.default_rng(seed).standard_normal((50, 100))
        X[-1] = X[0]
        spec = esd_from_design(X)
        assert 0.0 <= spec.values[-1] <= 1e-13 * spec.values[0]


def test_esd_rejects_tall():
    with pytest.raises(DomainError):
        esd_from_design(np.zeros((6, 3)))


def test_esd_kolmogorov_close_to_limit():
    rng = np.random.default_rng(1234)
    X = rng.standard_normal((1000, 2000))
    spec = esd_from_design(X)
    assert kolmogorov_distance(spec, MPLaw(2.0)) <= 0.03


def test_bai_yin_exact_endpoints():
    law = MPLaw(2.0)
    spec = EmpiricalSpectrum(
        values=np.array([law.lambda_plus, 1.0, law.lambda_minus]), n=3, d=6
    )
    hi, lo = bai_yin_check(spec, law)
    assert hi == 0.0 and lo == 0.0


def test_bai_yin_zero_design_flags_unit_deviation():
    spec = esd_from_design(np.zeros((3, 6)))
    hi, lo = bai_yin_check(spec, MPLaw(2.0))
    assert hi == 1.0 and lo == 1.0


def test_empirical_spectrum_validation():
    with pytest.raises(DomainError):
        EmpiricalSpectrum(values=np.array([1.0, 2.0]), n=2, d=4)  # ascending
    with pytest.raises(DomainError):
        EmpiricalSpectrum(values=np.array([2.0, -1.0]), n=2, d=4)
    with pytest.raises(DomainError):
        EmpiricalSpectrum(values=np.array([2.0, 1.0]), n=2, d=1)


# closed-form resolvent integrals against the quadrature oracle and mpmath

# edge distances delta = 1 - rho lambda_plus, from rho near 0 to near the edge
EDGE_DELTAS = [1 - 1e-6, 0.9, 0.5, 0.1, 1e-3, 1e-6]


@pytest.mark.parametrize("gamma", GAMMAS)
@pytest.mark.parametrize("sigma2", [1e-3, 1e-2, 0.1, 1.0])
def test_shrinkage_integrals_match_quadrature(gamma, sigma2):
    law = MPLaw(gamma)
    kappa_s2 = 4.0 * sigma2  # the rho_def integrals run at kappa sigma2
    worst = 0.0
    for delta in EDGE_DELTAS:
        rho = (1.0 - delta) / law.lambda_plus
        for a in (sigma2, kappa_s2):
            j0, j1 = mp_shrinkage_integrals(law, delta, a)
            q0 = mp_integrate(law, lambda s: 1.0 / ((1.0 - rho * s) ** 2 * (s + a)))
            q1 = mp_integrate(law, lambda s: s / ((1.0 - rho * s) ** 2 * (s + a)))
            worst = max(worst, abs(j0 - q0) / q0, abs(j1 - q1) / q1)
            # rho_ols left-hand side rho^2 int s/((1 - rho s)^2 (s + sigma2)) dH
            lhs = rho * rho * j1
            worst = max(worst, abs(lhs - rho * rho * q1) / (rho * rho * q1))
    assert worst <= 1e-10


def _mp_shrinkage(gamma, delta, a, dps=30):
    """30-digit tanh-sinh values of both integrals, split at the edge peak."""
    with mp.workdps(dps):
        g, delta, a = mp.mpf(gamma), mp.mpf(delta), mp.mpf(a)
        lp, lm = (1 + 1 / mp.sqrt(g)) ** 2, (1 - 1 / mp.sqrt(g)) ** 2
        rho = (1 - delta) / lp
        c, r = (lp + lm) / 2, (lp - lm) / 2
        width = mp.sqrt(delta / (rho * r))
        pts = [mp.mpf(0)] + [k * width for k in (1, 10, 100) if k * width < mp.pi] + [mp.pi]

        def integral(power):
            def h(t):
                s = c + r * mp.cos(t)
                return s**power / ((1 - rho * s) ** 2 * (s + a)) * mp.sin(t) ** 2 / s

            return g * r * r / (2 * mp.pi) * mp.quad(h, pts, maxdegree=10)

        return float(integral(0)), float(integral(1))


@pytest.mark.parametrize("frac", [1e-6, 0.5, 0.999])
@pytest.mark.parametrize("gamma,a", [(1.5, 1e-2), (4.0, 1.0), (10.0, 0.1)])
def test_shrinkage_integrals_mpmath_spot_checks(frac, gamma, a):
    # rho = frac/lambda_plus
    got = mp_shrinkage_integrals(MPLaw(gamma), 1.0 - frac, a)
    ref = _mp_shrinkage(gamma, 1.0 - frac, a)
    for g, r in zip(got, ref):
        assert abs(g - r) / r <= 1e-11


@pytest.mark.parametrize("delta", [1e-8, 1e-12, 1e-16, 1e-100, sys.float_info.min])
@pytest.mark.parametrize("gamma,a", [(1.01, 1e-4), (2.0, 0.1), (10.0, 10.0)])
def test_shrinkage_integrals_keep_full_precision_at_the_edge(delta, gamma, a):
    # the edge gap delta lp/(1 - delta) is exact in delta, so no digits are
    # lost however close delta is to 0
    got = mp_shrinkage_integrals(MPLaw(gamma), delta, a)
    for g, r in zip(got, mp_reference.shrinkage(gamma, delta, a)):
        assert mp_reference.rel(g, r) <= 1e-14


def test_shrinkage_integrals_at_zero_are_exact():
    # rho = 0 is delta = 1
    law = MPLaw(2.0)
    for a in (1e-3, 0.1, 4.0):
        m = mp_stieltjes_neg(law, a)
        assert mp_shrinkage_integrals(law, 1.0, a) == (m, 1.0 - a * m)


def test_shrinkage_integrals_continuous_at_zero():
    law = MPLaw(2.0)
    j0, j1 = mp_shrinkage_integrals(law, 1.0, 0.1)
    k0, k1 = mp_shrinkage_integrals(law, 1.0 - 1e-12 * law.lambda_plus, 0.1)
    assert abs(k0 - j0) <= 1e-10 * j0 and abs(k1 - j1) <= 1e-10 * j1


def test_shrinkage_integrals_domain():
    law = MPLaw(2.0)
    for delta in (-1e-3, 0.0, 1.0 + 1e-15, 2.0, float("nan")):
        with pytest.raises(DomainError):
            mp_shrinkage_integrals(law, delta, 0.1)
    with pytest.raises(DomainError):
        mp_shrinkage_integrals(law, 0.1, 0.0)
