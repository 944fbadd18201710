"""The Brent port replays scipy's iterates exactly, the minimiser built on
it finds known minima, and both refuse what they cannot solve.  The 2x2
condition number's closed form agrees with numpy's SVD.

scipy is the oracle here only: the package itself runs without it.
"""

import math

import numpy as np
import pytest

scipy_optimize = pytest.importorskip("scipy.optimize")

from rectlat.energy import energy_gap
from rectlat.errors import BracketError, NonconvergenceError, ParameterDomainError
from rectlat.expansion import e2_closed
from rectlat.potentials import derive_yukawa_coulomb
from rectlat.solvers import RTOL_MIN, brentq, cond2, minimize_scalar, sign_change

from conftest import gap_slope_root


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


MIN_CASES = {  # (f on a list of points, lo, hi, xatol, the minimiser)
    "parabola": (lambda x: (np.asarray(x) - 0.3) ** 2, 0.0, 1.0, 1e-12, 0.3),
    "cosine": (np.cos, 2.0, 4.0, 1e-10, math.pi),
    "quartic": (lambda x: np.asarray(x) ** 4 - x, -1.0, 2.0, 1e-12, 4.0 ** (-1.0 / 3.0)),
    "cusp": (lambda x: np.abs(np.asarray(x) - 0.2) ** 0.5, -1.0, 1.0, 1e-12, 0.2),
    "pinned-at-lo": (lambda x: np.asarray(x, dtype=float), 0.0, 1.0, 1e-12, 0.0),
    "pinned-at-hi": (lambda x: -np.asarray(x, dtype=float), 0.0, 1.0, 1e-12, 1.0),
}


@pytest.mark.parametrize("case", sorted(MIN_CASES))
def test_minimize_scalar_finds_the_minimiser(case):
    # the root of the central difference lies within h^2 f'''/(6 f'') of the
    # minimiser (about 5e-11 for the quartic); a pinned one is the end itself
    f, lo, hi, xatol, want = MIN_CASES[case]
    x, fx = minimize_scalar(f, lo, hi, xatol)
    assert abs(x - want) <= 1e-10
    assert x == want if case.startswith("pinned") else lo < x < hi
    assert fx == f(x)


def test_minimize_scalar_on_the_gap(q):
    # the Yukawa-Coulomb broken branch at kappa1 = 2, at its crossing
    # density, past the barrier's maximum near eps = 0.45 (at 0.4 the gap
    # still rises: a local minimum on the bracket's end); the differences
    # are two-row stacks, the value one scalar call
    spec, area = derive_yukawa_coulomb(2.0), 2.8135288115610155
    calls = []

    def f(e):
        calls.append(len(e) if isinstance(e, list) else "scalar")
        return energy_gap(spec, area, e, q)

    x, fx = minimize_scalar(f, 0.5, 1.2, 1e-11)
    assert 0.5 < x < 1.2
    assert abs(x - gap_slope_root(spec, area, x, q)) <= 3e-10
    assert fx == energy_gap(spec, area, x, q)
    assert calls[-1] == "scalar" and set(calls[:-1]) == {2}
    assert len(calls) <= 15  # bisection would need about 40


def test_same_sign_bracket_is_a_bracket_error():
    with pytest.raises(BracketError, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-15, rtol=RTOL_MIN)


def test_nan_value_is_a_value_error():
    f = lambda x: x - 0.7 if abs(x - 0.7) > 0.1 else math.nan
    with pytest.raises(ParameterDomainError, match="NaN") as err:
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


def _rotation(t):
    return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])


@pytest.mark.parametrize("log_cond", [0, 2, 4, 6, 8])
def test_cond2_matches_numpy(rng, log_cond):
    # rotated and scaled diag(1, 10^-log_cond).  Both numpy's SVD and the
    # closed form err by up to about eps * cond (the smallest singular
    # value, and the determinant, cancel): against the exact value on 500
    # such matrices per condition, numpy erred up to 4.5 eps at cond 1 and
    # 1.3 eps * cond above, the closed form 2.9 eps and 0.2 eps * cond.  So
    # the two agree to 1e-13 relative up to cond ~ 100, and to 4 eps * cond
    # beyond it
    eps = np.finfo(float).eps
    for _ in range(200):
        t = rng.uniform(0.0, 2.0 * math.pi, 2)
        scale = rng.uniform(0.1, 10.0)
        m = _rotation(t[0]) @ np.diag([1.0, 10.0**-log_cond]) @ _rotation(t[1]).T * scale
        want = np.linalg.cond(m)
        assert cond2(m.tolist()) == pytest.approx(want, rel=max(1e-13, 4 * eps * want), abs=0)


def test_cond2_exact_cases():
    assert cond2([[1.0, 0.0], [0.0, 1.0]]) == 1.0
    assert cond2([[0.0, -3.0], [0.5, 0.0]]) == 6.0
    assert cond2([[1.0, 2.0], [2.0, 4.0]]) == math.inf
    assert cond2([[0.0, 0.0], [0.0, 0.0]]) == math.inf
