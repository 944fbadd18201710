import mpmath
import numpy as np
import pytest

import rectlat.quadrature
from rectlat import derive_double_yukawa, derive_yukawa_coulomb
from rectlat.energy import split_integral
from rectlat.errors import check_domain
from rectlat.expansion import _p2_p4_table
from rectlat.quadrature import DEFAULT_CONFIG, QuadratureConfig
from rectlat.theta import _theta_excess


@pytest.fixture(scope="session")
def q():
    return QuadratureConfig()


@pytest.fixture(scope="session")
def dy98():
    """The double-Yukawa member used throughout: v1=9.8, kappa1=2."""
    return derive_double_yukawa(9.8, 2.0)


@pytest.fixture(scope="session")
def yc_near_tricritical():
    """Yukawa-Coulomb member just below its tricritical screening."""
    return derive_yukawa_coulomb(2.0365)


@pytest.fixture()
def count_calls(monkeypatch):
    """``count_calls(module, name)`` wraps the module attribute and returns
    the list each call appends to; by default it counts the quadrature
    passes, ``rectlat.quadrature.integrate``, which every caller reaches
    through the module attribute."""

    def count(module=rectlat.quadrature, name="integrate"):
        calls, real = [], getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(1) or real(*a, **k))
        return calls

    return count


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


def rel_or_abs(a, b, rel, abs_tol=1e-12):
    """Relative comparison that degrades to absolute near zeros."""
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_tol)


def theta3(t):
    """theta3(exp(-t)) for t > 0, elementwise; scalar in, scalar out: one
    plus the package's ``theta._theta_excess``, as an oracle for the
    products and brackets built from it."""
    t = np.asarray(t, dtype=float)
    check_domain(bool(np.all(t > 0.0)), "theta argument t must be positive")
    out = 1.0 + _theta_excess(np.atleast_1d(t))
    return float(out[0]) if t.ndim == 0 else out


def p4_table(grid):
    """The eps^4 bracket on the grid's nodes: row 1 of the cached closed table."""
    return _p2_p4_table(grid)[1]


def e4_closed(spec, area, q=DEFAULT_CONFIG):
    """E4 alone: the eps^4 row of the closed table, integrated on its own."""
    return split_integral(spec, area, p4_table, q)


# Stirling numbers of the second kind, S(m, n) for n = 1..m: the m-th power of
# the operator u d/du is sum_n S(m, n) u^n (d/du)^n.
_STIRLING2 = {
    1: (1,),
    2: (1, 1),
    3: (1, 3, 1),
    4: (1, 7, 6, 1),
    5: (1, 15, 25, 10, 1),
    6: (1, 31, 90, 65, 15, 1),
    7: (1, 63, 301, 350, 140, 21, 1),
    8: (1, 127, 966, 1701, 1050, 266, 28, 1),
}
MP_ORDERS = (2, 4, 6, 8)


def mp_brackets(u):
    """eps^2, eps^4, eps^6 and eps^8 coefficients of T(u e^-eps) T(u e^eps)
    in mpmath.

    T(u e^eps) = sum_m a_m eps^m with a_m = (u d/du)^m T / m!, and the
    mirrored factor has coefficients (-1)^m a_m, so the product's m-th
    coefficient is sum_i (-1)^(m-i) a_i a_(m-i): 2 a0 a2 - a1^2 at m = 2.
    Below pi the exact rescaling B(u) = (pi/u) B(pi^2/u) keeps the theta
    series short.
    """
    if u < mpmath.pi:
        return [mpmath.pi / u * b for b in mp_brackets(mpmath.pi**2 / u)]
    terms = [(j * j, mpmath.exp(-j * j * u)) for j in range(1, int(mpmath.sqrt(120 / u)) + 3)]
    derivs = [2 * mpmath.fsum((-c) ** n * e for c, e in terms) for n in range(9)]
    derivs[0] += 1
    a = [derivs[0]] + [
        mpmath.fsum(s * u**n * derivs[n] for n, s in enumerate(_STIRLING2[m], start=1))
        / mpmath.factorial(m)
        for m in range(1, 9)
    ]
    return [
        mpmath.fsum((-1) ** (m - i) * a[i] * a[m - i] for i in range(m + 1)) for m in MP_ORDERS
    ]


_MP_ROWS = {}


def mp_rows(spec, area):
    """(E2, E4, E6, E8) = 1/2 integral rho(t) (B2, B4, B6, B8)(A t) dt at 30 digits."""
    key = (spec, area)
    if key in _MP_ROWS:
        return _MP_ROWS[key]
    with mpmath.workdps(30):
        area = mpmath.mpf(area)
        terms = [(mpmath.mpf(spec.v1), mpmath.mpf(spec.kappa1)),
                 (-mpmath.mpf(spec.v2), mpmath.mpf(spec.kappa2))]
        memo = {}

        def integrand(u, row):
            if u not in memo:
                weight = mpmath.fsum(v * mpmath.exp(-k * k * area / (4 * u)) for v, k in terms)
                memo[u] = [weight / mpmath.sqrt(u) * b for b in mp_brackets(u)]
            return memo[u][row]

        front = 1 / (2 * mpmath.sqrt(mpmath.pi * area))
        points = [0, 1, mpmath.pi, 10, 40, mpmath.inf]
        rows = tuple(
            float(front * mpmath.quad(lambda u: integrand(u, row), points))
            for row in range(len(MP_ORDERS))
        )
    _MP_ROWS[key] = rows
    return rows
