"""The Brent ports replay scipy's iterates exactly, and refuse what they cannot solve.

scipy is the oracle here only: the package itself runs without it.
"""

import math

import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from rectlat.energy import energy_gap
from rectlat.errors import BracketError, NonconvergenceError, ParameterDomainError
from rectlat.expansion import e2_closed
from rectlat.potentials import derive_yukawa_coulomb
from rectlat.solvers import RTOL_MIN, brentq, minimize_scalar, sign_change


def recorded(f):
    """``f`` and the list of the points it is evaluated at, as hex strings."""
    xs = []

    def g(x):
        xs.append(float(x).hex())
        return f(x)

    return g, xs


def flat_then_steep(x):
    return max(-1.0, 1e3 * (x - 0.6))


ROOT_CASES = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0, 1e-15),
    "three-roots": (lambda x: (x - 1.0) * (x + 2.0) * (x - 3.0), 0.0, 2.5, 1e-15),
    "sqrt2": (lambda x: x * x - 2.0, 0.0, 2.0, 2e-12),
    "flat-then-steep": (flat_then_steep, 0.0, 1.0, 1e-15),
    # the extrapolation's denominator underflows to 0: C divides to a NaN
    # and bisects, Python raises ZeroDivisionError
    "tiny-cubic": (lambda x: 1e-120 * (x**3 - 2.0 * x - 5.0), 2.0, 3.0, 1e-15),
    "steep-exponential": (lambda x: math.expm1(50.0 * (x - 0.9)), 0.0, 1.0, 1e-15),
    "root-at-a": (lambda x: x - 1.0, 1.0, 2.0, 1e-15),
    "root-at-b": (lambda x: x - 1.0, 0.0, 1.0, 1e-15),
}


@pytest.mark.parametrize("case", sorted(ROOT_CASES))
def test_brentq_replays_scipy(case):
    f, a, b, xtol = ROOT_CASES[case]
    g_port, xs_port = recorded(f)
    g_scipy, xs_scipy = recorded(f)
    root = brentq(g_port, a, b, xtol=xtol, rtol=RTOL_MIN)
    want = scipy_optimize.brentq(g_scipy, a, b, xtol=xtol, rtol=RTOL_MIN)
    assert root.hex() == float(want).hex()
    assert xs_port == xs_scipy


def test_brentq_replays_scipy_on_e2(dy98, q):
    f = lambda a: e2_closed(dy98, a, q)
    g_port, xs_port = recorded(f)
    g_scipy, xs_scipy = recorded(f)
    root = brentq(g_port, 2.0, 3.2, xtol=1e-15, rtol=RTOL_MIN)
    want = scipy_optimize.brentq(g_scipy, 2.0, 3.2, xtol=1e-15, rtol=RTOL_MIN)
    assert root.hex() == float(want).hex()
    assert xs_port == xs_scipy
    assert len(xs_port) > 4


def _scipy_bounded(f, lo, hi, xatol):
    res = scipy_optimize.minimize_scalar(
        f, bounds=(lo, hi), method="bounded", options={"xatol": xatol}
    )
    return float(res.x), float(res.fun)


MIN_CASES = {
    "parabola": (lambda x: (x - 0.3) ** 2, 0.0, 1.0, 1e-12),
    "cosine": (math.cos, 2.0, 4.0, 1e-10),
    "quartic": (lambda x: x**4 - x, -1.0, 2.0, 1e-12),
    "cusp": (lambda x: abs(x - 0.2) ** 0.5, -1.0, 1.0, 1e-12),
    "pinned-at-lo": (lambda x: x, 0.0, 1.0, 1e-12),
    "pinned-at-hi": (lambda x: -x, 0.0, 1.0, 1e-12),
}


@pytest.mark.parametrize("case", sorted(MIN_CASES))
def test_minimize_scalar_replays_scipy(case):
    f, lo, hi, xatol = MIN_CASES[case]
    g_port, xs_port = recorded(f)
    g_scipy, xs_scipy = recorded(f)
    x, fx = minimize_scalar(g_port, lo, hi, xatol)
    want_x, want_f = _scipy_bounded(g_scipy, lo, hi, xatol)
    assert (float(x).hex(), float(fx).hex()) == (want_x.hex(), want_f.hex())
    assert xs_port == xs_scipy


def test_minimize_scalar_replays_scipy_on_the_gap(q):
    # the Yukawa-Coulomb broken branch at kappa1 = 2, at its crossing density
    spec = derive_yukawa_coulomb(2.0)
    f = lambda e: energy_gap(spec, 2.8135288115610155, e, q)
    g_port, xs_port = recorded(f)
    g_scipy, xs_scipy = recorded(f)
    x, fx = minimize_scalar(g_port, 0.4, 1.2, 1e-11)
    want_x, want_f = _scipy_bounded(g_scipy, 0.4, 1.2, 1e-11)
    assert (float(x).hex(), float(fx).hex()) == (want_x.hex(), want_f.hex())
    assert xs_port == xs_scipy
    assert 0.4 < x < 1.2


def test_same_sign_bracket_is_a_bracket_error():
    with pytest.raises(BracketError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=RTOL_MIN)


def test_nan_value_is_a_value_error():
    f = lambda x: x - 0.7 if abs(x - 0.7) > 0.1 else math.nan
    with pytest.raises(ValueError, match="NaN") as err:
        brentq(f, 0.0, 1.0, xtol=1e-15, rtol=RTOL_MIN)
    assert not isinstance(err.value, BracketError)


def test_tolerances_below_scipys_floor_are_refused():
    with pytest.raises(ParameterDomainError):
        brentq(lambda x: x, -1.0, 1.0, xtol=1e-15, rtol=RTOL_MIN / 2)
    with pytest.raises(ParameterDomainError):
        brentq(lambda x: x, -1.0, 1.0, xtol=0.0, rtol=RTOL_MIN)
    with pytest.raises(ParameterDomainError):
        minimize_scalar(lambda x: x, 1.0, 0.0, 1e-12)


def test_brentq_iteration_cap():
    # a jump at 0 across a bracket of width 2e300: about 2000 halvings
    # would be needed to reach xtol, and the cap is 100 iterations
    f = lambda x: -1.0 if x < 0.0 else 1.0
    g_port, xs_port = recorded(f)
    g_scipy, xs_scipy = recorded(f)
    with pytest.raises(NonconvergenceError, match="100 iterations"):
        brentq(g_port, -1e300, 1e300, xtol=1e-300, rtol=RTOL_MIN)
    with pytest.raises(RuntimeError, match="converge"):
        scipy_optimize.brentq(g_scipy, -1e300, 1e300, xtol=1e-300, rtol=RTOL_MIN)
    assert xs_port == xs_scipy
    assert len(xs_port) == 102


def test_minimize_scalar_evaluation_cap():
    # the cusp at 0 needs about 1400 golden-section steps to reach xatol
    f = lambda x: abs(x) ** 0.5
    g_port, xs_port = recorded(f)
    g_scipy, xs_scipy = recorded(f)
    with pytest.raises(NonconvergenceError, match="500 evaluations"):
        minimize_scalar(g_port, -1.0, 1.0, 1e-300)
    _scipy_bounded(g_scipy, -1.0, 1.0, 1e-300)
    assert xs_port == xs_scipy
    assert len(xs_port) == 500


def test_sign_change_returns_the_first_pair_and_stops_there():
    f, xs = recorded(lambda x: (x - 2.5) * (x - 5.5))
    assert sign_change(f, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) == (2.0, 3.0)
    assert xs == [x.hex() for x in (1.0, 2.0, 3.0)]


def test_sign_change_skips_zero_and_nan_values():
    values = {0.0: 1.0, 1.0: 0.0, 2.0: math.nan, 3.0: 2.0, 4.0: -0.0, 5.0: -1.0}
    assert sign_change(values.get, sorted(values)) == (3.0, 5.0)
    assert sign_change(lambda x: 0.0, [1.0, 2.0]) is None
    assert sign_change(lambda x: math.nan, [1.0, 2.0]) is None


def test_sign_change_without_a_change_is_none():
    f, xs = recorded(lambda x: x * x + 1.0)
    assert sign_change(f, [-1.0, 0.0, 1.0]) is None
    assert len(xs) == 3
    assert sign_change(f, []) is None


def test_sign_change_takes_a_generator_lazily():
    def points():
        x = 1.0
        while True:  # endless: only the stop at the change ends the scan
            yield x
            x *= 2.0

    assert sign_change(lambda x: 100.0 - x, points()) == (64.0, 128.0)
