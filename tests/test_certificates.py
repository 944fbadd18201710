"""Solved points checked by oracles that share no code with the solvers.

The limiting critical density ``a_star_min(kappa1)`` is certified against
a 30-digit real-space lattice sum: the v1 -> inf double-Yukawa member is
f(r) = e^{-kappa r} (1/r - (1+kappa)/kappa) in lattice units
r^2 = A (j^2 + k^2), and the curvature condition of the square lattice is

    sum' [F''(s) (k^2 - j^2)^2 + F'(s) s] = 0,   F(s) = f(sqrt(A s)),

over the lattice points (j, k) != 0, s = j^2 + k^2.  The error a root
implies is |g(A) / g'(A)| / A with g that sum.
"""

import mpmath as mp
import pytest

from rectlat.critical import a_star_min


def _curvature_condition(kappa, area):
    """The lattice sum g(A) at 30 digits, cut 80 e-foldings of e^{-kappa r}
    below the nearest shell, r = sqrt(A)."""
    with mp.workdps(30):
        k, a = mp.mpf(kappa), mp.mpf(area)
        c = (1 + k) / k
        s_max = (80 / k + mp.sqrt(a)) ** 2 / a
        n = int(mp.sqrt(s_max)) + 1
        total = mp.mpf(0)
        # one octant 0 <= j <= m, each point weighted by its images
        for j in range(n + 1):
            for m in range(max(j, 1), n + 1):
                s = j * j + m * m
                if s > s_max:
                    break
                images = (1 if j == 0 else 2) * 2 * (1 if j == m else 2)
                r = mp.sqrt(a * s)
                e = mp.exp(-k * r)
                f1 = e * (k * c - k / r - 1 / r**2)
                f2 = e * (k**2 / r - k**2 * c + 2 * k / r**2 + 2 / r**3)
                d1 = f1 * a / (2 * r)  # dF/ds
                d2 = a**2 / (4 * r) * (f2 / r - f1 / r**2)  # d2F/ds2
                total += images * (d2 * (m * m - j * j) ** 2 + d1 * s)
        return total


def _implied_error(kappa, area):
    """|g(A) / g'(A)| / A, g' by a central difference at 30 digits."""
    with mp.workdps(30):
        a = mp.mpf(area)
        h = a * mp.mpf("1e-10")
        slope = (_curvature_condition(kappa, a + h) - _curvature_condition(kappa, a - h)) / (2 * h)
        return float(abs(_curvature_condition(kappa, a) / slope) / a)


_A_STAR_MIN = {5.0: 1.4590912262884195, 20.0: 1.1022994467057909, 50.0: 1.0403849167939165}


@pytest.mark.parametrize("kappa1", sorted(_A_STAR_MIN))
def test_a_star_min_is_certified(kappa1, q):
    area = a_star_min(kappa1, q)
    assert area == _A_STAR_MIN[kappa1]
    assert _implied_error(kappa1, area) <= 1e-13


@pytest.mark.parametrize("kappa1", sorted(_A_STAR_MIN))
def test_certificate_refuses_a_perturbed_root(kappa1):
    # the certificate resolves far below the perturbation it must catch
    assert _implied_error(kappa1, _A_STAR_MIN[kappa1] * (1.0 + 1e-11)) > 1e-13
