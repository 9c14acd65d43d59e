import math

import numpy as np
import pytest

from memcost import cost_engine as ce
from memcost import finite_n_lab as lab
from memcost.deformed import DeformedLaw, PopulationSpectrum, deformed_threshold
from memcost.errors import BracketError, DomainError, NearDivergenceError
from memcost.numerics import RHO_CAP_MARGIN, Interval, bisect, solve_multiplier, sym_eigvals
from memcost.cost_engine import NoiseLevel, memorization_threshold, solve_rho
from memcost.spectra import MPLaw, _cheb_transfer, mp_shrinkage_integrals, mp_stieltjes_neg


def test_interval_validation():
    with pytest.raises(DomainError):
        Interval(1.0, 1.0)
    with pytest.raises(DomainError):
        Interval(2.0, 1.0)
    with pytest.raises(DomainError):
        Interval(0.0, float("inf"))
    assert Interval(0.0, 2.0).width == 2.0


def _within_one_float(x, root):
    return math.nextafter(root, -math.inf) <= x <= math.nextafter(root, math.inf)


def test_bisect_sqrt2():
    root = bisect(lambda x: x * x - 2.0, Interval(1.0, 2.0))
    assert _within_one_float(root, math.sqrt(2.0))


def test_bisect_odd_function():
    # the first midpoint is the root itself
    assert bisect(lambda x: x, Interval(-1.0, 1.0)) == 0.0


def test_bisect_deterministic():
    import mpmath as mp

    f = lambda x: x**3 - 2 * x - 5
    with mp.workdps(40):
        true = float(mp.findroot(lambda x: x**3 - 2 * x - 5, 2.1))
    a = bisect(f, Interval(2.0, 3.0))
    b = bisect(f, Interval(2.0, 3.0))
    assert a == b  # bit-identical
    assert _within_one_float(a, true)


@pytest.mark.parametrize("root", [1e-30, 1e-300, 5e-324, 0.3, 1e20, 1e300])
def test_bisect_resolves_any_scale(root):
    # no absolute tolerance: a root far from 1 is found to the last float
    hi = 1.5 * root if root > 1.0 else 1.0
    calls = []

    def f(x):
        calls.append(x)
        return x - root

    assert _within_one_float(bisect(f, Interval(0.0, hi)), root)
    # the bracket halves until its midpoint rounds to an endpoint
    assert len(calls) <= 2 + 1100


def test_bisect_decreasing_function():
    root = bisect(lambda x: math.pi / 7 - x, Interval(0.0, 1.0))
    assert _within_one_float(root, math.pi / 7)


def test_bisect_rejects_bad_bracket():
    with pytest.raises(BracketError) as info:
        bisect(lambda x: x * x + 1.0, Interval(-1.0, 1.0))
    assert info.value.lo == -1.0 and info.value.hi == 1.0


def test_bisect_endpoint_roots():
    assert bisect(lambda x: x, Interval(0.0, 1.0)) == 0.0
    assert bisect(lambda x: x - 1.0, Interval(0.0, 1.0)) == 1.0


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
    eps2 = 2.0 * memorization_threshold(gamma, NoiseLevel(sigma2))
    rho_scan = _scan_rho_oracle(gamma, sigma2, eps2)
    rho_solver = solve_rho(gamma, NoiseLevel(sigma2), eps2).rho
    assert abs(rho_solver - rho_scan) <= 1e-8


# The Chebyshev-Gauss rule of the first kind behind the mp_integrate oracle:
# nodes cos((2i-1)pi/(2k)) ascending, every weight pi/k, transfer factors
# 1 - x_i^2 for the sqrt(1-x^2) weight.


def test_solve_multiplier_inactive_and_refusal():
    level = lambda r: 1.0 / (1.0 - 2.0 * r)  # diverges at 1/top with top = 2
    assert solve_multiplier(level, 2.0, 1.0, "probe") == (0.0, 0.0)
    assert solve_multiplier(level, 2.0, 0.5, "probe") == (0.0, 0.0)
    rho, residual = solve_multiplier(level, 2.0, 4.0, "probe")
    assert _within_one_float(rho, 0.375) and residual <= 1e-15
    cap = (1.0 - RHO_CAP_MARGIN) / 2.0
    with pytest.raises(NearDivergenceError, match=r"^probe: .*cap") as err:
        solve_multiplier(level, 2.0, level(cap), "probe")
    assert repr(cap) in str(err.value)


_NOISE = NoiseLevel(0.1)
_TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))


def _shared_cap(top):
    return (1.0 - RHO_CAP_MARGIN) / top


def _route_rho(monkeypatch):
    law = MPLaw(2.0)
    cap = _shared_cap(law.lambda_plus)
    level = 0.1**2 * mp_shrinkage_integrals(law, cap, 0.1)[0]
    return cap, level, lambda target: ce.solve_rho(2.0, _NOISE, target).rho


def _route_rho_ols(monkeypatch):
    # rho_ols takes no target: its right-hand side, the inverse moment, is set instead
    law = MPLaw(2.0)
    cap = _shared_cap(law.lambda_plus)
    level = cap * cap * mp_shrinkage_integrals(law, cap, 0.1)[1]

    def solve(target):
        monkeypatch.setattr(ce, "_inverse_moment", lambda law, a: target)
        return ce.solve_rho_ols(2.0, _NOISE).rho

    return cap, level, solve


def _route_rho_def(monkeypatch):
    law = MPLaw(2.0)
    cap = _shared_cap(law.lambda_plus)
    ks2 = _TWO_ATOM.kappa * 0.1
    thresh = deformed_threshold(DeformedLaw(2.0, _TWO_ATOM), 0.1)
    level = _TWO_ATOM.kappa * 0.1 * 0.1 * (
        mp_shrinkage_integrals(law, cap, ks2)[0] - mp_stieltjes_neg(law, ks2)
    )
    return cap, level, lambda target: ce.solve_rho_def(2.0, _TWO_ATOM, _NOISE, thresh + target).rho


def _route_lab_trial(monkeypatch):
    def config(eps2):
        return lab.ExperimentConfig(n=100, d=200, sigma2=0.1, seed=1, trials=1, eps2=eps2)

    design = lab.sample_design(config(1.0), 0)
    red = lab._reduce(design.Z, design.sigma_sqrt, 0.1)
    cap = _shared_cap(red.s[0])
    return cap, red.train(cap), lambda target: lab.trial_metrics(config(target), 0).rho


@pytest.mark.parametrize(
    "route", [_route_rho, _route_rho_ols, _route_rho_def, _route_lab_trial],
    ids=["solve_rho", "solve_rho_ols", "solve_rho_def", "eps2_trial"],
)
def test_every_multiplier_solve_shares_one_cap(route, monkeypatch):
    cap, level, solve = route(monkeypatch)
    with pytest.raises(NearDivergenceError, match="cap"):
        solve(level)
    rho = solve((1.0 - 1e-6) * level)
    assert 0.99 * cap < rho < cap


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
