"""60-digit mpmath evaluations of the multiplier equations, for agreement tests.

``shrinkage`` is ``spectra.mp_shrinkage_integrals`` restated in mpmath, and
``edge_root`` solves a level equation by bisection in log delta, so every
reference value here carries far more digits than a float.
"""

import mpmath as mp

DPS = 60


def _stieltjes(c, a):
    """int 1/(s + a) dH for c = 1/gamma."""
    big = 1 - c + a
    return 2 / (mp.sqrt(big * big + 4 * a * c) + big)


def shrinkage(gamma, delta, a):
    """Both shrinkage integrals of the Marchenko-Pastur law at edge distance delta."""
    with mp.workdps(DPS):
        g, delta, a = mp.mpf(gamma), mp.mpf(delta), mp.mpf(a)
        c = 1 / g
        lp, lm = (1 + mp.sqrt(c)) ** 2, (1 - mp.sqrt(c)) ** 2
        m_a = _stieltjes(c, a)
        inv_rho = lp / (1 - delta)
        gap = delta * inv_rho
        root = mp.sqrt((gap + (lp - lm)) * gap)
        m = -2 / ((inv_rho - 1 + c) + root)
        dm = -m * (c * m + 1) / root
        q = 1 + a / inv_rho
        pole = (m_a - m) / (q * q)
        return dm * inv_rho / q + pole, dm * inv_rho**2 / q - a * pole


def _rho2(gamma, delta):
    return ((1 - mp.mpf(delta)) / (1 + 1 / mp.sqrt(mp.mpf(gamma))) ** 2) ** 2


def train(gamma, sigma2, delta):
    with mp.workdps(DPS):
        return mp.mpf(sigma2) ** 2 * shrinkage(gamma, delta, sigma2)[0]


def cost(gamma, sigma2, delta):
    with mp.workdps(DPS):
        return _rho2(gamma, delta) / gamma * mp.mpf(sigma2) ** 2 * shrinkage(gamma, delta, sigma2)[1]


def ols_level(gamma, sigma2, delta):
    """Left-hand side rho^2 int s/((1 - rho s)^2 (s + sigma2)) dH of the rho_ols equation."""
    with mp.workdps(DPS):
        return _rho2(gamma, delta) * shrinkage(gamma, delta, sigma2)[1]


def inverse_moment(gamma, a):
    """int 1/(s (s + a)) dH, the right-hand side of the rho_ols equation."""
    with mp.workdps(DPS):
        g, a = mp.mpf(gamma), mp.mpf(a)
        return (1 / (1 - 1 / g) - _stieltjes(1 / g, a)) / a


def edge_root(level, target, lo=-710):
    """delta in (e^lo, 1) with level(delta) = target, for a level decreasing in delta."""
    with mp.workdps(DPS):
        lo, hi = mp.mpf(lo), mp.mpf(0)
        for _ in range(260):
            mid = (lo + hi) / 2
            if level(mp.exp(mid)) > target:
                lo = mid
            else:
                hi = mid
        return mp.exp((lo + hi) / 2)


def rho_ols(gamma, sigma2):
    """(delta, eps_ols2) at the rho_ols root."""
    delta = edge_root(lambda x: ols_level(gamma, sigma2, x), inverse_moment(gamma, sigma2))
    return delta, train(gamma, sigma2, delta)


def rel(got, exact):
    """|got - exact|/|exact| as a float."""
    with mp.workdps(DPS):
        return float(abs(mp.mpf(got) - exact) / abs(exact))
