import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectlat.powerseries import TRUNCATION_ORDER, exp_coeffs_batch


def ps(*coeffs, order=TRUNCATION_ORDER):
    c = np.zeros(order + 1)
    c[: len(coeffs)] = coeffs
    return c


def truncated_product(a, b):
    """Cauchy product of two coefficient vectors, truncated at their order."""
    return np.convolve(a, b)[: a.size]


def test_exp_of_zero_is_one():
    out = exp_coeffs_batch(ps())
    assert out[0] == 1.0
    assert np.all(out[1:] == 0.0)


def test_exp_of_identity_gives_factorials():
    out = exp_coeffs_batch(ps(0.0, 1.0))
    expected = [1.0 / math.factorial(k) for k in range(TRUNCATION_ORDER + 1)]
    np.testing.assert_allclose(out, expected, rtol=1e-15)


@pytest.mark.parametrize("t", [0.3, 1.0, 2.7])
def test_exp_of_quadratic_matches_closed_form(t):
    # exp(-t x^2) has Taylor coefficients (-t)^k/k! at even positions
    out = exp_coeffs_batch(ps(0.0, 0.0, -t))
    expected = np.zeros(TRUNCATION_ORDER + 1)
    for k in range(TRUNCATION_ORDER // 2 + 1):
        expected[2 * k] = (-t) ** k / math.factorial(k)
    np.testing.assert_allclose(out, expected, rtol=1e-14, atol=1e-16)


def test_exp_nonzero_constant_term():
    out = exp_coeffs_batch(ps(1.5, 1.0))
    expected = [math.exp(1.5) / math.factorial(k) for k in range(TRUNCATION_ORDER + 1)]
    np.testing.assert_allclose(out, expected, rtol=1e-14)


def test_symmetric_exponent_series_has_even_exp():
    # the (j, k) = (1, 1) exponent series -u(e^-x + e^x) is even, so
    # its exponential must be even as well
    u = 0.8
    coeffs = [-u * ((-1) ** m + 1) / math.factorial(m) for m in range(TRUNCATION_ORDER + 1)]
    out = exp_coeffs_batch(np.array(coeffs))
    assert np.all(out[1::2] == 0.0)


bounded_series = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    min_size=TRUNCATION_ORDER + 1,
    max_size=TRUNCATION_ORDER + 1,
).map(np.array)


@settings(max_examples=100, deadline=None)
@given(bounded_series, bounded_series)
def test_exp_is_a_homomorphism(a, b):
    lhs = exp_coeffs_batch(a + b)
    rhs = truncated_product(exp_coeffs_batch(a), exp_coeffs_batch(b))
    scale = np.max(np.abs(lhs)) or 1.0
    np.testing.assert_allclose(lhs, rhs, rtol=0.0, atol=1e-13 * scale)


def test_batch_exp_matches_scalar_path():
    # every row of a batch is the exponential of that row on its own
    rng = np.random.default_rng(7)
    batch = rng.uniform(-1, 1, size=(5, 3, TRUNCATION_ORDER + 1))
    out = exp_coeffs_batch(batch)
    assert out.shape == batch.shape
    for row_in, row_out in zip(batch.reshape(-1, batch.shape[-1]), out.reshape(-1, out.shape[-1])):
        np.testing.assert_array_equal(exp_coeffs_batch(row_in), row_out)


def test_evaluation_horner():
    # the truncated series of exp(x), summed by Horner's rule near x = 0
    acc = 0.0
    for c in exp_coeffs_batch(ps(0.0, 1.0))[::-1]:
        acc = acc * 0.01 + c
    assert acc == pytest.approx(math.exp(0.01), rel=1e-12)
