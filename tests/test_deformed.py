import math

import numpy as np
import pytest

from memcost.deformed import (
    DeformedLaw,
    PopulationSpectrum,
    deformed_threshold,
    parse_population_spectrum,
    silverstein_solve,
)
from memcost.errors import DomainError, RegimeError, SpectrumFormatError
from memcost.spectra import MPLaw, mp_stieltjes_neg

TWO_ATOM = PopulationSpectrum(atoms=((1.0, 0.5), (0.5, 0.5)))


def test_population_normalizes_weights_with_warning():
    with pytest.warns(UserWarning):
        pop = PopulationSpectrum(atoms=((1.0, 2.0), (0.5, 2.0)))
    assert np.allclose(pop.weights, [0.5, 0.5])


def test_population_rescales_top_value_with_warning():
    with pytest.warns(UserWarning):
        pop = PopulationSpectrum(atoms=((2.0, 0.5), (1.0, 0.5)))
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
            law = DeformedLaw(gamma, PopulationSpectrum.isotropic())
            m = silverstein_solve(law, sigma2)
            assert abs(m - mp_stieltjes_neg(MPLaw(gamma), sigma2)) < 1e-10


def test_silverstein_large_sigma2_leading_order():
    law = DeformedLaw(2.0, TWO_ATOM)
    s2 = 1e8
    mean_tau = float(np.sum(TWO_ATOM.weights * TWO_ATOM.values))
    m = silverstein_solve(law, s2)
    assert abs(m * (s2 + mean_tau) - 1.0) < 1e-6


def test_silverstein_fixed_point_residual():
    law = DeformedLaw(2.0, TWO_ATOM)
    for sigma2 in (1e-3, 0.1, 1.0):
        m = silverstein_solve(law, sigma2)
        tau, w = TWO_ATOM.values, TWO_ATOM.weights
        rhs = 1.0 / (sigma2 + float(np.sum(w * tau / (1 + tau * m / law.gamma))))
        assert abs(m - rhs) <= 1e-12


def test_silverstein_monotone_in_sigma2():
    law = DeformedLaw(2.0, TWO_ATOM)
    vals = [silverstein_solve(law, s2) for s2 in np.logspace(-3, 1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_silverstein_stochastic_ordering():
    # pointwise larger population atoms push the law right, shrinking the transform
    small = PopulationSpectrum(atoms=((1.0, 0.5), (0.4, 0.5)))
    large = PopulationSpectrum(atoms=((1.0, 0.5), (0.8, 0.5)))
    for sigma2 in (0.01, 0.1, 1.0):
        m_small = silverstein_solve(DeformedLaw(2.0, small), sigma2)
        m_large = silverstein_solve(DeformedLaw(2.0, large), sigma2)
        assert m_small > m_large


def test_silverstein_rejects_nonpositive_sigma2():
    with pytest.raises(DomainError):
        silverstein_solve(DeformedLaw(2.0, TWO_ATOM), 0.0)


def test_deformed_law_rejects_low_gamma():
    with pytest.raises(RegimeError):
        DeformedLaw(1.0, TWO_ATOM)


def test_deformed_threshold_degenerate_reduction():
    for gamma in (1.5, 2.0, 4.0):
        for sigma2 in (1e-2, 0.1):
            iso = deformed_threshold(DeformedLaw(gamma, PopulationSpectrum.isotropic()), sigma2)
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
                val = deformed_threshold(DeformedLaw(gamma, pop), sigma2)
                bound = kappa * sigma2**2 * mp_stieltjes_neg(MPLaw(gamma), kappa * sigma2)
                assert val <= bound * (1 + 1e-12)


def test_deformed_threshold_is_sigma4_times_transform():
    law = DeformedLaw(2.0, TWO_ATOM)
    sigma2 = 0.1
    m = silverstein_solve(law, sigma2)
    assert abs(deformed_threshold(law, sigma2) - sigma2**2 * m) < 1e-15


def _mp_silverstein(law, sigma2):
    """The fixed point at 40 digits, by bisection on (0, 2/sigma2)."""
    import mpmath as mp

    with mp.workdps(40):
        s2, g = mp.mpf(sigma2), mp.mpf(law.gamma)
        atoms = [(mp.mpf(t), mp.mpf(w)) for t, w in law.population.atoms]

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
    law = DeformedLaw(2.0, PopulationSpectrum(atoms=((1.0, 0.5), (0.25, 0.5))))
    oracle = _mp_silverstein(law, sigma2)
    assert abs(silverstein_solve(law, sigma2) - oracle) <= 1e-14 * oracle
