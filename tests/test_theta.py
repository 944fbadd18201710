import math

import mpmath
import numpy as np
import pytest

import rectlat.theta
from rectlat.energy import GAP_LATTICE
from rectlat.quadrature import grid_for
from rectlat.theta import (
    SPLIT,
    theta3,
    theta3_deriv,
    theta3_derivs,
    theta_product_excess,
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


def theta_product(u, eps):
    """P(u, eps) = T(u e^-eps) T(u e^eps), elementwise on ``u``."""
    u = np.asarray(u, dtype=float)
    return theta3(u * math.exp(-eps)) * theta3(u * math.exp(eps))


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
    for t in (SPLIT, 3.5, 12.0, 40.0):
        assert theta3_deriv(t, 0) == theta3(t)


def test_first_deriv_against_term_sum():
    assert theta3_deriv(4.0, 1) == pytest.approx(brute_theta_deriv(4.0, 1), rel=1e-14)
    # value quoted from the explicit terms -2(e^-4 + 4e^-16 + 9e^-36 + ...)
    assert theta3_deriv(4.0, 1) == pytest.approx(-0.03663217805887029, abs=1e-15)


def test_second_deriv_positive():
    for t in (SPLIT, 4.0, 6.0, 40.0):
        assert theta3_deriv(t, 2) > 0.0


def test_first_deriv_negative_everywhere():
    for t in np.geomspace(SPLIT, 50, 20):
        assert theta3_deriv(t, 1) < 0.0


def test_domain_errors():
    with pytest.raises(ValueError):
        theta3(0.0)
    with pytest.raises(ValueError):
        theta3(-1.0)
    with pytest.raises(ValueError):
        theta3_deriv(4.0, 5)
    with pytest.raises(ValueError):
        theta3_deriv(4.0, -1)


@pytest.mark.parametrize(
    "t", [1.0, np.nextafter(SPLIT, 0.0), np.array([SPLIT, 3.0]), math.nan],
    ids=["one", "below-pi", "array", "nan"],
)
def test_derivatives_refuse_t_below_pi(t):
    # the brackets reach small t only through modular_reduce
    with pytest.raises(ValueError, match="t >= pi"):
        theta3_derivs(t, nmax=0)


@pytest.mark.parametrize(
    "eps", [math.nan, math.inf, 13.0, -13.0, np.array([0.1, 13.0]), np.array([0.1, math.nan])]
)
def test_product_gap_refuses_eps_off_its_bound(monkeypatch, eps):
    # a node at u = pi takes sqrt(45 e^|eps| / pi + 1) terms: 1.2e7 at
    # eps = 30; a stack is refused for any one entry, before any array
    def no_series(*args):
        raise AssertionError("a series was started")

    monkeypatch.setattr(rectlat.theta, "modular_reduce", no_series)
    with pytest.raises(ValueError, match="at most 12"):
        theta_product_gap(np.geomspace(0.1, 100.0, 240), eps)


@pytest.mark.parametrize("u", [0.0, -1.0, math.nan], ids=["zero", "negative", "nan"])
def test_product_gap_refuses_a_node_off_its_domain(u):
    with pytest.raises(ValueError, match="must be positive"):
        theta_product_gap(np.array([3.0, u]), np.array([0.3, 1.0]))


def _theta_minus_one(t):
    # raw fluctuation sum 2 sum_j e^{-j^2 t}; keeps full relative precision at
    # large t, where theta3 itself rounds to 1 + O(ulp)
    j = np.arange(1.0, math.ceil(math.sqrt(50.0 / t)) + 2.0)
    return 2.0 * float(np.exp(-j * j * t).sum())


def test_finite_difference_consistency():
    # derivatives n=1,2 against central differences, step 1e-4*t; the constant
    # mode drops out of the differences exactly
    for t in np.geomspace(SPLIT, 50, 50):
        h = 1e-4 * t
        d1 = (_theta_minus_one(t + h) - _theta_minus_one(t - h)) / (2 * h)
        assert theta3_deriv(t, 1) == pytest.approx(d1, rel=1e-6)
        d2 = (_theta_minus_one(t + h) - 2 * _theta_minus_one(t) + _theta_minus_one(t - h)) / h**2
        assert theta3_deriv(t, 2) == pytest.approx(d2, rel=1e-6)


def test_higher_derivs_against_brute_sum():
    for t in (SPLIT, 4.0, 7.0, 15.0):
        vals = theta3_derivs(t, nmax=4)
        for n in range(5):
            assert vals[n] == pytest.approx(brute_theta_deriv(t, n), rel=1e-13)


def test_modular_consistency_at_switch_point():
    # T just below pi comes from the modular identity, T at pi from the series
    below = np.nextafter(SPLIT, 0.0)
    t = np.array([below, SPLIT])
    assert theta3(below) == pytest.approx(theta3(SPLIT), rel=1e-15)
    np.testing.assert_allclose(theta3(t) - 1.0, [_theta_minus_one(x) for x in t], rtol=1e-14)


def test_stability_positivity():
    # t T T' + t^2 T T'' - t^2 (T')^2 > 0 on the derivatives' domain t >= pi;
    # below it the rescaled bracket in the expansion module takes over
    for t in np.geomspace(SPLIT, 50, 40):
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


def _mp_tau(t):
    """T(t) - 1 = 2 sum_j e^{-j^2 t}, at the working precision."""
    jmax = int(mpmath.sqrt(200 / t)) + 2
    return 2 * mpmath.fsum(mpmath.exp(-j * j * t) for j in range(1, jmax + 1))


def _mp_gap(u, eps):
    """P(u, eps) - P(u, 0) at 60 digits, assembled from T - 1 so that
    neither the constant mode nor the square-lattice value cancels."""
    with mpmath.workdps(60):
        u, eps = mpmath.mpf(u), mpmath.mpf(eps)
        tm, tp, t0 = _mp_tau(u * mpmath.exp(-eps)), _mp_tau(u * mpmath.exp(eps)), _mp_tau(u)
        return float((tm + tp - 2 * t0) + (tm * tp - t0 * t0))


@pytest.mark.parametrize("eps", [0.0, 0.3, 1.0, math.log(4.0)])
def test_product_excess_against_high_precision_oracle(eps):
    # P(u, eps) - 1 keeps its relative accuracy where it is far below 1,
    # where the plain difference P - 1 has none left (0.0 at u = 300)
    u = np.array([0.3, 1.0, 2.5, SPLIT, 4.0, 30.0, 300.0])
    with mpmath.workdps(60):
        e = mpmath.mpf(eps)
        want = []
        for x in map(mpmath.mpf, u):
            tm, tp = _mp_tau(x * mpmath.exp(-e)), _mp_tau(x * mpmath.exp(e))
            want.append(float(tm + tp + tm * tp))
    np.testing.assert_allclose(theta_product_excess(u, eps), want, rtol=1e-14, atol=0.0)
    assert theta_product(300.0, eps) - 1.0 == 0.0 < want[-1]


@pytest.mark.parametrize("eps", [1e-7, 1e-3, 0.3, math.log(4.0), 2.5, math.log(64.0), 12.0])
def test_gap_against_high_precision_oracle(eps):
    # u on both sides of the modular branch point; the larger eps take
    # more series terms per node, up to 1,526 at eps = 12 and u = pi
    u = np.array([0.3, 1.0, 2.5, SPLIT, 4.0, 30.0, 300.0])
    want = np.array([_mp_gap(x, eps) for x in u])
    gap, mirrored = theta_product_gap(u, eps), theta_product_gap(u, -eps)
    np.testing.assert_allclose(gap, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mirrored, want, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(mirrored, gap, rtol=1e-15, atol=0.0)


#: Node sets of the stacked-gap tests: a level-0 grid above pi, as at the
#: default split, and nodes on both sides of the modular branch point.
STACK_NODES = {
    "grid": grid_for(SPLIT, 135.0, 0).nodes,
    "both-sides": np.geomspace(0.3, 300.0, 97),
}


@pytest.mark.parametrize("nodes", STACK_NODES.values(), ids=STACK_NODES.keys())
def test_every_lattice_suffix_is_a_slice_of_the_lattice_table(nodes):
    # the direct-gap scans slice their rows from the lattice's table: each
    # suffix, computed as a stack of its own, is that slice bit for bit
    table = theta_product_gap(nodes, GAP_LATTICE)
    assert table.shape == (GAP_LATTICE.size, nodes.size)
    for start in range(GAP_LATTICE.size):
        suffix = theta_product_gap(nodes, GAP_LATTICE[start:].copy())
        assert suffix.tobytes() == table[start:].tobytes()


@pytest.mark.parametrize("nodes", STACK_NODES.values(), ids=STACK_NODES.keys())
def test_stacked_rows_are_their_own_rows(nodes):
    # a row's series cut depends on its own eps only: in any stack, in any
    # order, it is the row its eps gives alone
    eps = np.array([12.0, -0.3, 1e-7, math.log(4.0), 0.0, 2.5, math.log(64.0), -12.0])
    stack = theta_product_gap(nodes, eps)
    for e, row in zip(eps, stack):
        assert row.tobytes() == theta_product_gap(nodes, e).tobytes()
    rng = np.random.default_rng(7)
    many = rng.permutation(np.concatenate([eps, rng.uniform(-3.0, 3.0, 33)]))
    rows = theta_product_gap(nodes, many)
    for e, row in zip(many, rows):
        assert row.tobytes() == theta_product_gap(nodes, e).tobytes()
    assert isinstance(theta_product_gap(3.0, 0.4), float)
    assert theta_product_gap(3.0, eps).shape == eps.shape
