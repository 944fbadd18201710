import math

import mpmath
import numpy as np
import pytest

from rectlat.theta import (
    SPLIT,
    _derivs_direct,
    _derivs_transformed,
    theta3,
    theta3_deriv,
    theta3_derivs,
    theta_product,
    theta_product_gap,
)


def brute_theta_deriv(t, n, jmax=400):
    """Independent oracle: raw term summation of sum_j (-j^2)^n e^{-j^2 t}."""
    total = 1.0 if n == 0 else 0.0
    for j in range(1, jmax + 1):
        term = 2.0 * (-(j * j)) ** n * math.exp(-(j * j) * t)
        total += term
        if abs(term) < 1e-18 * max(abs(total), 1.0):
            break
    return total


def test_large_t_limit():
    # only the constant mode survives: 2 e^-100 is far below one ulp of 1
    assert theta3(100.0) == pytest.approx(1.0, abs=1e-15)
    assert theta3(20.0) == pytest.approx(1.0 + 2.0 * math.exp(-20.0), rel=1e-15)
    assert theta3(20.0) > 1.0


def test_value_at_pi_against_brute_sum():
    assert theta3(math.pi) == pytest.approx(brute_theta_deriv(math.pi, 0), abs=1e-14)


def test_modular_identity_both_sides():
    t = 0.1
    lhs = theta3(t)
    rhs = math.sqrt(math.pi / t) * brute_theta_deriv(math.pi**2 / t, 0)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def test_deriv_order_zero_is_theta3():
    for t in (0.05, 0.7, 3.0, 12.0):
        assert theta3_deriv(t, 0) == theta3(t)


def test_first_deriv_against_term_sum():
    assert theta3_deriv(1.0, 1) == pytest.approx(brute_theta_deriv(1.0, 1), rel=1e-14)
    # value quoted from the explicit terms -2(e^-1 + 4e^-4 + 9e^-9 + ...)
    assert theta3_deriv(1.0, 1) == pytest.approx(-0.884508971746323, abs=1e-12)


def test_second_deriv_positive():
    for t in (0.02, 0.4, 1.0, 6.0):
        assert theta3_deriv(t, 2) > 0.0


def test_first_deriv_negative_everywhere():
    for t in np.geomspace(1e-3, 50, 20):
        assert theta3_deriv(t, 1) < 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        theta3(0.0)
    with pytest.raises(ValueError):
        theta3(-1.0)
    with pytest.raises(ValueError):
        theta3_deriv(1.0, 5)
    with pytest.raises(ValueError):
        theta3_deriv(1.0, -1)


def _theta_minus_one(t):
    # raw fluctuation sum 2 sum_j e^{-j^2 t}; keeps full relative precision at
    # large t, where theta3 itself rounds to 1 + O(ulp)
    j = np.arange(1.0, math.ceil(math.sqrt(50.0 / t)) + 2.0)
    return 2.0 * float(np.exp(-j * j * t).sum())


def test_finite_difference_consistency():
    # derivatives n=1,2 against central differences, step 1e-4*t; the constant
    # mode drops out of the differences exactly
    for t in np.geomspace(1e-3, 50, 50):
        h = 1e-4 * t
        d1 = (_theta_minus_one(t + h) - _theta_minus_one(t - h)) / (2 * h)
        assert theta3_deriv(t, 1) == pytest.approx(d1, rel=1e-6)
        d2 = (_theta_minus_one(t + h) - 2 * _theta_minus_one(t) + _theta_minus_one(t - h)) / h**2
        assert theta3_deriv(t, 2) == pytest.approx(d2, rel=1e-6)


def test_higher_derivs_against_brute_sum():
    for t in (0.3, 1.3, math.pi, 7.0):
        vals = theta3_derivs(t, nmax=4)
        for n in range(5):
            assert vals[n] == pytest.approx(brute_theta_deriv(t, n), rel=1e-13)


def test_modular_consistency_at_switch_point():
    t = np.array([SPLIT])
    direct = _derivs_direct(t, 4)
    transformed = _derivs_transformed(t, 4)
    for n in range(5):
        assert direct[n][0] == pytest.approx(transformed[n][0], rel=1e-13)


def test_stability_positivity():
    # t T T' + t^2 T T'' - t^2 (T')^2 > 0; assembled from the derivative
    # values where the combination keeps enough leading digits (below
    # t ~ 0.5 it cancels to an exponentially small remainder and the
    # rescaled bracket in the expansion module takes over)
    for t in np.geomspace(0.5, 50, 40):
        t0, t1, t2 = theta3_derivs(t, nmax=2)
        assert t * t0 * t1 + t * t * (t0 * t2 - t1 * t1) > 0.0


def test_product_symmetry_and_gap():
    u = np.geomspace(0.05, 40.0, 25)
    eps = 0.37
    p_plus = theta_product(u, eps)
    p_minus = theta_product(u, -eps)
    np.testing.assert_allclose(p_plus, p_minus, rtol=1e-14)
    gap = theta_product_gap(u, eps)
    # the explicit difference carries float noise ~ ulp(P); compare up to it
    diff = p_plus - theta_product(u, 0.0)
    assert np.all(np.abs(gap - diff) <= 2e-13 * np.abs(gap) + 1e-13 * p_plus)


def test_gap_relative_accuracy_for_tiny_eps():
    # the termwise difference must resolve gaps far below float cancellation
    u = np.array([1.0, math.pi, 10.0])
    eps = 1e-7
    gap = theta_product_gap(u, eps)
    # quadratic onset: gap(eps) ~ eps^2 * curvature
    gap2 = theta_product_gap(u, 2e-7)
    np.testing.assert_allclose(gap2 / gap, 4.0, rtol=1e-9)


def test_gap_modular_rescaling():
    u = 0.2
    eps = 0.8
    lhs = theta_product_gap(u, eps)
    rhs = (math.pi / u) * theta_product_gap(math.pi**2 / u, eps)
    assert lhs == pytest.approx(rhs, rel=1e-14)


def _mp_gap(u, eps):
    """P(u, eps) - P(u, 0) at 60 digits, assembled from T - 1 = 2 sum_j e^{-j^2 t}
    so that neither the constant mode nor the square-lattice value cancels."""
    with mpmath.workdps(60):
        u, eps = mpmath.mpf(u), mpmath.mpf(eps)

        def tau(t):
            jmax = int(mpmath.sqrt(200 / t)) + 2
            return 2 * mpmath.fsum(mpmath.exp(-j * j * t) for j in range(1, jmax + 1))

        tm, tp, t0 = tau(u * mpmath.exp(-eps)), tau(u * mpmath.exp(eps)), tau(u)
        return float((tm + tp - 2 * t0) + (tm * tp - t0 * t0))


@pytest.mark.parametrize("eps", [1e-7, 1e-3, 0.3, math.log(4.0), 2.5])
def test_gap_against_high_precision_oracle(eps):
    # u on both sides of the modular branch point; eps = 2.5 needs more
    # series terms than |eps| <= ln 4 does
    u = np.array([0.3, 1.0, 2.5, SPLIT, 4.0, 30.0, 300.0])
    want = np.array([_mp_gap(x, eps) for x in u])
    gap, mirrored = theta_product_gap(u, eps), theta_product_gap(u, -eps)
    np.testing.assert_allclose(gap, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mirrored, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mirrored, gap, rtol=1e-15, atol=0.0)
