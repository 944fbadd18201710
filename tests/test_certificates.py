"""Solved points checked by oracles that share no code with the solvers.

The limiting critical density ``a_star_min(kappa1)`` is certified against
a 30-digit real-space lattice sum: the v1 -> inf double-Yukawa member is
f(r) = e^{-kappa r} (1/r - (1+kappa)/kappa) in lattice units
r^2 = A (j^2 + k^2), and the curvature condition of the square lattice is

    sum' [F''(s) (k^2 - j^2)^2 + F'(s) s] = 0,   F(s) = f(sqrt(A s)),

over the lattice points (j, k) != 0, s = j^2 + k^2.  The error a root
implies is |g(A) / g'(A)| / A with g that sum.

The Yukawa-Coulomb tricritical point (A_t, kappa1_t) is certified on the
theta side, since the real-space sum diverges for the Coulomb tail: the
30-digit (E2, E4) of ``conftest.mp_rows`` (mpmath brackets and
``mpmath.quad``) at the solved point, against the solver's own
central-difference Jacobian, imply the error |J^-1 F| relative to each
unknown.
"""

import mpmath as mp
import numpy as np
import pytest

from conftest import mp_rows
from rectlat import critical
from rectlat.critical import a_star_min, find_tricritical
from rectlat.potentials import derive_yukawa_coulomb


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


_YC_TRICRITICAL = (2.7954339501894836, 2.0365177601065243)


def _tricritical_implied_error(area, q):
    """|J^-1 (E2, E4)| relative to (A_t, kappa1_t), with (E2, E4) from the
    oracle at ``area`` and J the production stencil Jacobian at the point."""
    z = np.array(_YC_TRICRITICAL)
    points, h = critical._stencil(z, critical._RELATIVE_STEPS)
    rows = critical._evaluator(derive_yukawa_coulomb, q)(points)
    jac = np.column_stack([(rows[2 * i] - rows[2 * i + 1]) / (2.0 * h[i]) for i in range(2)])
    f = np.array(mp_rows(derive_yukawa_coulomb(z[1]), area)[:2])
    return np.abs(np.linalg.solve(jac, f)) / z


def test_yukawa_coulomb_tricritical_is_certified(q):
    tc = find_tricritical("yukawa-coulomb", q=q)
    assert (tc.a_t, tc.param_t) == _YC_TRICRITICAL
    assert np.all(_tricritical_implied_error(tc.a_t, q) <= 1e-13)


def test_tricritical_certificate_refuses_a_perturbed_root(q):
    assert np.max(_tricritical_implied_error(_YC_TRICRITICAL[0] * (1.0 + 1e-11), q)) > 1e-13
