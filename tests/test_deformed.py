import math

import numpy as np
import pytest

from memcost.deformed import DeformedReduction, PopulationSpectrum, parse_population_spectrum
from memcost.errors import DomainError, RegimeError, SpectrumFormatError
from memcost.spectra import MPLaw, mp_stieltjes_neg

TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))


def test_population_normalizes_weights_with_warning():
    with pytest.warns(UserWarning) as rec:
        pop = PopulationSpectrum(atoms=((1.0, 2.0), (0.5, 2.0)))
    assert rec[0].filename == __file__  # the caller, not the constructor
    assert np.allclose(pop.weights, [0.5, 0.5])


def test_population_rescales_top_value_with_warning():
    with pytest.warns(UserWarning) as rec:
        pop = PopulationSpectrum(atoms=((2.0, 0.5), (1.0, 0.5)))
    assert rec[0].filename == __file__
    assert pop.values.max() == 1.0
    assert abs(pop.kappa - 2.0) < 1e-15


def test_population_sorted_descending():
    pop = PopulationSpectrum(atoms=((0.25, 0.25), (1.0, 0.75)))
    assert pop.atoms[0][0] == 1.0
    assert abs(pop.kappa - 4.0) < 1e-15


def test_population_rejects_bad_atoms():
    with pytest.raises(DomainError):
        PopulationSpectrum(atoms=((0.0, 1.0),))
    with pytest.raises(DomainError):
        PopulationSpectrum(atoms=((1.0, -0.5),))
    with pytest.raises(DomainError):
        PopulationSpectrum(atoms=())


@pytest.mark.parametrize(
    "atom",
    [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.nan), (1.0, math.inf)],
    ids=["value-nan", "value-inf", "weight-nan", "weight-inf"],
)
def test_population_rejects_non_finite_atoms(atom):
    with pytest.raises(DomainError, match="finite and positive"):
        PopulationSpectrum(atoms=((1.0, 0.5), atom))
    text = "1.0 0.5\n{!r} {!r}\n".format(*atom)
    with pytest.raises(SpectrumFormatError, match="finite and positive") as info:
        parse_population_spectrum(text)
    assert info.value.line == 2


def test_population_refuses_a_value_whose_reciprocal_overflows():
    # kappa = 1/min(value) is inf below about 5.6e-309; 1e-300 is still a condition number
    with pytest.raises(DomainError, match="overflows"):
        PopulationSpectrum(atoms=((1.0, 0.5), (1e-320, 0.5)))
    with pytest.warns(UserWarning, match="rescaling"), pytest.raises(DomainError, match="overflows"):
        PopulationSpectrum(atoms=((4.0, 0.5), (1e-308, 0.5)))
    with pytest.raises(SpectrumFormatError, match="1/value finite") as info:
        parse_population_spectrum("1.0 0.5\n1e-320 0.5\n")
    assert info.value.line == 2
    # 1/1e-308 is finite, but the value is 2.5e-309 once the top 4.0 is rescaled to 1
    with pytest.raises(SpectrumFormatError, match=r"^<string>:3: 1/value overflows") as info:
        parse_population_spectrum("4.0 0.5\n# comment\n1e-308 0.5\n")
    assert info.value.line == 3
    assert parse_population_spectrum("1.0 0.5\n1e-300 0.5\n").kappa == 1.0 / 1e-300


def test_parse_population_file_format():
    text = "# condition number two\n1.0 0.5\n\n0.5 0.5  # tail atom\n"
    pop = parse_population_spectrum(text)
    assert pop.atoms == ((1.0, 0.5), (0.5, 0.5))


def test_parse_population_reports_line_numbers():
    with pytest.raises(SpectrumFormatError) as info:
        parse_population_spectrum("1.0 0.5\noops\n")
    assert info.value.line == 2
    with pytest.raises(SpectrumFormatError) as info:
        parse_population_spectrum("1.0 0.5\n0.5 0.5 0.5\n")
    assert info.value.line == 2
    with pytest.raises(SpectrumFormatError):
        parse_population_spectrum("# nothing here\n")


def test_silverstein_degenerate_reduces_to_isotropic():
    for gamma in (1.5, 2.0, 4.0):
        for sigma2 in (1e-2, 0.1, 1.0):
            m = DeformedReduction(gamma, sigma2, PopulationSpectrum.isotropic()).m_def
            assert abs(m - mp_stieltjes_neg(MPLaw(gamma), sigma2)) < 1e-10


def test_silverstein_large_sigma2_leading_order():
    s2 = 1e8
    mean_tau = float(np.sum(TWO_ATOM.weights * TWO_ATOM.values))
    m = DeformedReduction(2.0, s2, TWO_ATOM).m_def
    assert abs(m * (s2 + mean_tau) - 1.0) < 1e-6


def test_silverstein_fixed_point_residual():
    for sigma2 in (1e-3, 0.1, 1.0):
        m = DeformedReduction(2.0, sigma2, TWO_ATOM).m_def
        tau, w = TWO_ATOM.values, TWO_ATOM.weights
        rhs = 1.0 / (sigma2 + float(np.sum(w * tau / (1 + tau * m / 2.0))))
        assert abs(m - rhs) <= 1e-12


def test_silverstein_monotone_in_sigma2():
    vals = [DeformedReduction(2.0, s2, TWO_ATOM).m_def for s2 in np.logspace(-3, 1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_silverstein_stochastic_ordering():
    # pointwise larger population atoms push the law right, shrinking the transform
    small = PopulationSpectrum(atoms=((1.0, 0.5), (0.4, 0.5)))
    large = PopulationSpectrum(atoms=((1.0, 0.5), (0.8, 0.5)))
    for sigma2 in (0.01, 0.1, 1.0):
        m_small = DeformedReduction(2.0, sigma2, small).m_def
        m_large = DeformedReduction(2.0, sigma2, large).m_def
        assert m_small > m_large


def test_silverstein_rejects_nonpositive_sigma2():
    with pytest.raises(DomainError):
        DeformedReduction(2.0, 0.0, TWO_ATOM)


def test_deformed_law_rejects_low_gamma():
    with pytest.raises(RegimeError):
        DeformedReduction(1.0, 0.1, TWO_ATOM)


def test_deformed_threshold_degenerate_reduction():
    for gamma in (1.5, 2.0, 4.0):
        for sigma2 in (1e-2, 0.1):
            iso = DeformedReduction(gamma, sigma2, PopulationSpectrum.isotropic()).eps_def2
            direct = sigma2**2 * mp_stieltjes_neg(MPLaw(gamma), sigma2)
            assert abs(iso - direct) < 1e-10


def test_deformed_threshold_is_condition_number_bounded():
    # threshold under the deformed law never exceeds the rescaled isotropic one
    spectra = [
        TWO_ATOM,
        PopulationSpectrum(atoms=((1.0, 0.3), (0.25, 0.7))),
        PopulationSpectrum(atoms=((1.0, 0.2), (0.6, 0.5), (0.1, 0.3))),
    ]
    for pop in spectra:
        kappa = pop.kappa
        for gamma in (1.5, 2.0, 4.0):
            for sigma2 in (1e-2, 0.1, 1.0):
                val = DeformedReduction(gamma, sigma2, pop).eps_def2
                bound = kappa * sigma2**2 * mp_stieltjes_neg(MPLaw(gamma), kappa * sigma2)
                assert val <= bound * (1 + 1e-12)


def test_deformed_threshold_is_sigma4_times_transform():
    sigma2 = 0.1
    m = DeformedReduction(2.0, sigma2, TWO_ATOM).m_def
    assert abs(DeformedReduction(2.0, sigma2, TWO_ATOM).eps_def2 - sigma2**2 * m) < 1e-15


def _mp_silverstein(gamma, pop, sigma2):
    """The fixed point at 40 digits, by bisection on (0, 2/sigma2)."""
    import mpmath as mp

    with mp.workdps(40):
        s2, g = mp.mpf(sigma2), mp.mpf(gamma)
        atoms = [(mp.mpf(t), mp.mpf(w)) for t, w in pop.atoms]

        def residual(m):
            return m * (s2 + sum(w * t / (1 + t * m / g) for t, w in atoms)) - 1

        lo, hi = mp.mpf(0), 2 / s2
        for _ in range(200):
            mid = (lo + hi) / 2
            if residual(mid) < 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


@pytest.mark.parametrize("sigma2", [1e4, 1e8, 1e12, 1e14, 1e16, 1e30, 1e100])
def test_silverstein_large_sigma2_matches_mpmath(sigma2):
    # m ~ 1/sigma2, so only a relative stopping rule keeps every digit; past
    # sigma2 ~ 1e16 the residual at 1/sigma2 rounds below zero, so the
    # bracket must end beyond it
    pop = PopulationSpectrum(atoms=((1.0, 0.5), (0.25, 0.5)))
    oracle = _mp_silverstein(2.0, pop, sigma2)
    assert abs(DeformedReduction(2.0, sigma2, pop).m_def - oracle) <= 1e-14 * oracle
