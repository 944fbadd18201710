"""Coefficients of the even expansion of E(A, e^eps) around the square lattice.

With ``delta = exp(eps)`` the energy is even in ``eps`` and expands as

    E(A, e^eps) = E0(A) + E2(A) eps^2 + E4(A) eps^4 + E6(A) eps^6 + ...

The sign of ``E2`` decides the local stability of the square lattice and
its root locates the structural transition; ``E4`` and ``E6`` control
the transition order and the tricritical asymptotics.

Two independent evaluation routes are provided.

* Closed form: the eps^2 and eps^4 coefficients of the theta product
  reduce to explicit combinations of ``theta3`` and its t-derivatives
  (``_p2_direct``, ``_p4_direct``); integrating them against the
  potential measure gives ``e2_closed`` / ``e4_closed``, or both at once
  from ``e2_e4_closed``.  All three read rows of one table of the two
  brackets cached on each grid.
* Series: at every quadrature node each 1D factor ``T(u e^(+-eps))`` of
  the theta product is built as a truncated power series in eps, its
  terms ``exp(-j^2 u e^eps)`` by series-exponentiation, and the rows are
  the Cauchy product of the factor and its mirror, whose coefficients
  carry ``(-1)^m``.  The coefficient rows are integrated against the
  same measure.  This route needs no hand-derived integrands and no theta
  derivatives, and is the authority for the sixth-order coefficient, for
  which no closed bracket is carried.

Both routes exploit the exact rescaling ``B(t) = (pi/t) B(pi^2/t)``
obeyed by every eps-coefficient of the theta product; ``theta.modular_reduce``
keeps all series arguments at or above pi.  Every coefficient is one row of
``energy.split_integral`` (the split kernel against the potential's
measure): stacked rows (E2 with E4, or all series orders) share one
quadrature grid and one set of measure weights, and a stacked row is
bit-for-bit the coefficient integrated alone.  Stacked points
(``e2_e4_stack``: a Newton step's candidate and its Jacobian stencil)
share one grid and one table the same way, one row of weights each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import LatticeState, lattice_energy, split_integral, split_stack
from .powerseries import TRUNCATION_ORDER, exp_coeffs_batch
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .theta import modular_reduce, theta3_derivs


@dataclass(frozen=True)
class ExpansionCoefficients:
    """Even expansion coefficients of the energy at fixed inverse density."""

    area: float
    e0: float
    e2: float
    e4: float
    e6: Optional[float]
    method: str


def _p2_direct(u):
    t0, t1, t2 = theta3_derivs(u, nmax=2)
    return u * t0 * t1 - u**2 * t1**2 + u**2 * t0 * t2


def _p4_direct(u):
    t0, t1, t2, t3, t4 = theta3_derivs(u, nmax=4)
    return (
        u * t0 * t1
        - u**2 * t1**2
        + 7 * u**2 * t0 * t2
        + 6 * u**3 * t0 * t3
        - 6 * u**3 * t1 * t2
        + u**4 * t0 * t4
        - 4 * u**4 * t1 * t3
        + 3 * u**4 * t2**2
    ) / 12.0


def curvature_bracket(u):
    """eps^2 coefficient of the theta product; strictly positive on (0, inf)."""
    return modular_reduce(u, _p2_direct)


def quartic_bracket(u):
    """eps^4 coefficient of the theta product."""
    return modular_reduce(u, _p4_direct)


_FACT = np.array([math.factorial(m) for m in range(TRUNCATION_ORDER + 1)])
# exponent series of exp(-j^2 u e^eps), j = 1..5, per unit u: exp(-25 pi)
# ~ 1e-34 decides the cut
_EXPONENTS = -np.arange(1.0, 6.0)[:, None] ** 2 / _FACT


def _series_rows_direct(u: np.ndarray) -> np.ndarray:
    """Coefficient rows c_m(u) of the theta-product eps-series, u >= pi.

    ``T(u e^eps) = 1 + 2 sum_j exp(-j^2 u e^eps)``, each term the exp of
    the series with m-th coefficient ``-j^2 u / m!``.  The mirrored factor
    ``T(u e^-eps)`` has the coefficients times ``(-1)^m``, and the rows
    are the truncated Cauchy product of the two.
    """
    orders = np.arange(TRUNCATION_ORDER + 1)
    a = 2.0 * exp_coeffs_batch(np.multiply.outer(u, _EXPONENTS)).sum(axis=-2)
    a[:, 0] += 1.0
    b = a * (-1.0) ** orders
    return np.stack([(a[:, : m + 1] * b[:, m::-1]).sum(axis=-1) for m in orders])


def _series_rows(u: np.ndarray) -> np.ndarray:
    return modular_reduce(u, _series_rows_direct)


def _p2_p4_table(grid):
    """The eps^2 and eps^4 brackets on the grid's nodes, one table cached
    on the grid; E2 alone and E4 alone integrate one row of it."""
    return grid.cached("p2p4", lambda u: np.stack([curvature_bracket(u), quartic_bracket(u)]))


def curvature_table(grid):
    """The curvature bracket on the grid's nodes: row 0 of the cached table."""
    return _p2_p4_table(grid)[0]


def _p4_table(grid):
    return _p2_p4_table(grid)[1]


def _series_table(grid):
    return grid.cached("series", _series_rows)[1:]


def e0(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Square-lattice energy; identical to the full energy at eps = 0."""
    return lattice_energy(spec, LatticeState(area, 0.0), q)


def e2_closed(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return split_integral(spec, area, curvature_table, q)


def e4_closed(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    return split_integral(spec, area, _p4_table, q)


def e2_e4_closed(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG) -> tuple:
    """``(e2_closed, e4_closed)`` from one shared quadrature pass."""
    e2, e4 = split_integral(spec, area, _p2_p4_table, q)
    return e2, e4


def e2_e4_stack(points, q: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """``e2_e4_closed`` at each ``(spec, area)`` of ``points``, one row per
    point, the points on one grid in one pass (``energy.split_stack``)."""
    return split_stack(points, _p2_p4_table, q)


def landau_series(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG) -> np.ndarray:
    """All series-route expansion coefficients e[m], m = 0..TRUNCATION_ORDER.

    Entry ``m`` multiplies ``eps**m``; odd entries vanish up to roundoff.
    Entry 0 is left at 0 (the square-lattice energy carries the
    self-term/background constants and is evaluated by ``e0``).
    """
    out = np.zeros(TRUNCATION_ORDER + 1)
    out[1:] = split_integral(spec, area, _series_table, q)
    return out


def expansion_series(
    spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG
) -> ExpansionCoefficients:
    """Expansion coefficients via the power-series route (orders 0-6)."""
    rows = landau_series(spec, area, q)
    return ExpansionCoefficients(
        area=area, e0=e0(spec, area, q), e2=rows[2], e4=rows[4], e6=rows[6], method="series"
    )


def expansion_closed(
    spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG
) -> ExpansionCoefficients:
    """Expansion coefficients via the closed-form brackets (orders 0-4)."""
    e2, e4 = e2_e4_closed(spec, area, q)
    return ExpansionCoefficients(
        area=area, e0=e0(spec, area, q), e2=e2, e4=e4, e6=None, method="closed_form"
    )
