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
  from ``e2_e4_closed``.
* Series: at every quadrature node the product
  ``sum_{j,k} exp(-(j^2 e^-eps + k^2 e^eps) t)`` is built as a truncated
  power series in eps by series-exponentiation over (j, k) shells, and
  the coefficient rows are integrated against the same measure.  This
  route needs no hand-derived integrands and is the authority for the
  sixth-order coefficient, for which no closed bracket is carried.

Both routes exploit the exact rescaling ``B(t) = (pi/t) B(pi^2/t)``
obeyed by every eps-coefficient of the theta product; ``theta.modular_reduce``
keeps all series arguments at or above pi.  Every coefficient is one row of
``energy.split_integral`` (the split kernel against the potential's
measure): stacked rows (E2 with E4, or all series orders) share one
quadrature ladder and one set of measure weights per grid, and each row
stops at its own convergence level, so a stacked row is bit-for-bit the
coefficient integrated alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .energy import LatticeState, lattice_energy, split_integral
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


# (j, k) shells entering the series route; exp(-(j^2+k^2) pi) decides the cut
_JS = 5
_SH_J, _SH_K = [a.ravel().astype(float) for a in np.meshgrid(np.arange(_JS + 1), np.arange(_JS + 1))]
_sh_keep = (_SH_J + _SH_K) > 0
_SH_J, _SH_K = _SH_J[_sh_keep], _SH_K[_sh_keep]
_SH_MULT = (2.0 - (_SH_J == 0)) * (2.0 - (_SH_K == 0))
_FACT = np.array([math.factorial(m) for m in range(TRUNCATION_ORDER + 1)])


def _series_rows_direct(u: np.ndarray) -> np.ndarray:
    """Coefficient rows c_m(u) of the theta-product eps-series, u >= ~1.

    Each (j, k) term contributes exp of the series of
    ``-(j^2 e^-eps + k^2 e^eps) u``, whose m-th coefficient is
    ``-u (j^2 (-1)^m + k^2) / m!``.
    """
    j2 = _SH_J**2
    k2 = _SH_K**2
    m = np.arange(TRUNCATION_ORDER + 1)
    signs = (-1.0) ** m
    # exponent series, shape (pairs, nodes, order+1)
    coef = (j2[:, None] * signs[None, :] + k2[:, None]) / _FACT[None, :]
    s = -u[None, :, None] * coef[:, None, :]
    e = exp_coeffs_batch(s)
    rows = np.einsum("p,pno->on", _SH_MULT, e)
    rows[0] += 1.0  # the (0,0) pair: exp of the zero series
    return rows


def _series_rows(u: np.ndarray) -> np.ndarray:
    return modular_reduce(u, _series_rows_direct)


def curvature_table(grid):
    """The curvature bracket on the grid's nodes, cached on the grid."""
    return grid.cached("p2", curvature_bracket)


def _p4_table(grid):
    return grid.cached("p4", quartic_bracket)


def _p2_p4_table(grid):
    return grid.cached("p2p4", lambda u: np.stack([curvature_table(grid), _p4_table(grid)]))


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
