import math

import mpmath
import numpy as np
import pytest

import rectlat.quadrature
from rectlat import derive_double_yukawa, derive_yukawa_coulomb
from rectlat import potentials as pot
from rectlat.energy import energy_gap, split_integral
from rectlat.errors import check_domain
from rectlat.expansion import _p2_p4_table
from rectlat.quadrature import DEFAULT_CONFIG, QuadratureConfig
from rectlat.solvers import RTOL_MIN, brentq
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


def gap_slope_root(spec, area, eps, q=DEFAULT_CONFIG):
    """The root within 1e-3 of ``eps`` of d gap/d eps, the 4-point
    Richardson difference (step 3e-4) of ``energy_gap``, to 1e-14."""
    h = 3e-4

    def slope(e):
        g = energy_gap(spec, area, [e + 2 * h, e + h, e - h, e - 2 * h], q)
        return (8.0 * (g[1] - g[2]) - (g[0] - g[3])) / (12.0 * h)

    return brentq(slope, eps - 1e-3, eps + 1e-3, xtol=1e-14, rtol=RTOL_MIN)


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


# ---------------------------------------------------------------------------
# direct-sum oracle: the literal lattice sum, sharing no code with the
# integral path
# ---------------------------------------------------------------------------


def potential_value(spec, r):
    """Point value f(r); the Yukawa-Coulomb case returns the bare pair term."""
    r = np.asarray(r, dtype=float)
    check_domain(not np.any(r <= 0), "separation r must be positive")
    if spec.family == pot.RIESZ:
        return r ** (-spec.s)
    if spec.family == pot.YUKAWA:
        return spec.v * np.exp(-spec.kappa * r) / r
    if spec.family == pot.DOUBLE_YUKAWA:
        return (spec.v1 * np.exp(-spec.kappa1 * r) - spec.v2 * np.exp(-spec.kappa2 * r)) / r
    check_domain(spec.family == pot.YUKAWA_COULOMB, f"unknown family {spec.family!r}")
    return (spec.v1 * np.exp(-spec.kappa1 * r) - spec.v2) / r


#: Most shells ``direct_lattice_sum`` sums (about 1e8 pair terms).
SHELL_CAP = 5_000


def _shell_points(m: int):
    """Integer pairs with max(|j|,|k|) == m."""
    side = np.arange(-m, m + 1)
    j = np.concatenate([np.full(side.size, m), np.full(side.size, -m), side[1:-1], side[1:-1]])
    k = np.concatenate([side, side, np.full(side.size - 2, m), np.full(side.size - 2, -m)])
    return j, k


def direct_lattice_sum(spec, state, cutoff_tol: float = 1e-14) -> float:
    """Literal shell-by-shell lattice sum, for validating the integral path.

    Supported for potentials whose tail makes the sum absolutely
    convergent with a computable shell bound: Yukawa, double Yukawa
    (kappa2 > 0) and Riesz with s > 2; any other is refused with a
    ``ValueError``.  The number of shells is predicted from that bound
    before summing; a sum that would need more than ``SHELL_CAP`` shells
    is refused too.
    """
    message = f"cutoff_tol must be positive, got {cutoff_tol}"
    check_domain(cutoff_tol > 0, message, cutoff_tol=cutoff_tol)
    if spec.family == pot.YUKAWA_COULOMB:
        raise ValueError(
            "direct sum of the Yukawa-Coulomb potential is only conditionally "
            "convergent; use the background-regularized integral representation"
        )
    if spec.family == pot.RIESZ and spec.s <= 2.0:
        raise ValueError("direct Riesz sum requires s > 2")

    area, delta = state.area, state.delta
    dmin = math.sqrt(area) * min(math.sqrt(delta), 1.0 / math.sqrt(delta))

    # The shells m' >= m lie at r >= dmin m' with 8 m' points each, and T(m)
    # bounds their sum; shells 1..n are summed, n = floor(reach) the last
    # shell before T falls below cutoff_tol (T(reach) = cutoff_tol).
    if spec.family == pot.RIESZ:
        s = spec.s
        # T(m) = 8 dmin^-s m^(2-s) / (s-2), the integral bound; the log is
        # clipped where the count overflows, far above any cap
        log_reach = (math.log(8.0 / ((s - 2.0) * cutoff_tol)) - s * math.log(dmin)) / (s - 2.0)
        reach = math.exp(min(log_reach, 700.0))
    else:
        if spec.family == pot.YUKAWA:
            strength, decay = spec.v, spec.kappa
        else:
            strength, decay = spec.v1 + spec.v2, spec.kappa2
        # T(m) = 16 strength e^{-x m} / (dmin (1 - e^{-x})), x = decay dmin:
        # twice the geometric envelope of 8 m' strength e^{-decay r} / r
        x = decay * dmin
        reach = math.log(16.0 * strength / (dmin * -math.expm1(-x) * cutoff_tol)) / x
    if not reach <= SHELL_CAP:
        raise ValueError(
            f"direct lattice sum needs about {reach:.6g} shells to reach cutoff "
            f"{cutoff_tol:g}, above the cap of {SHELL_CAP}"
        )
    acc = 0.0
    for m in range(1, max(1, math.floor(reach)) + 1):
        j, k = _shell_points(m)
        r = np.sqrt(area * (j * j / delta + k * k * delta))
        acc += 0.5 * float(np.sum(potential_value(spec, r)))
    return acc
