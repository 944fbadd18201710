"""Deterministic adaptive quadrature for the lattice-energy integrals.

Every integral in this package is a self-rescaling theta bracket against
a measure.  The one split kernel ``integrate_split`` splits it at
``split_point`` and maps the part below through ``t -> pi^2/t``, which
leaves semi-infinite integrals of smooth integrands that decay at least
like ``exp(-u)`` with at most a mild polynomial factor.  They are
evaluated on composite Gauss-Legendre panels laid out geometrically in
``log u``; refinement doubles the panel count and the run is accepted
once two consecutive levels agree to tolerance.

A piece may return arrays: a stack of integrands against the same
measure then shares one ladder (the same grids, the same measure
weights), and each component is frozen at the first level where it
passes its own test.  Every component is therefore bit-for-bit the value
its own ladder would give.

Node placement is a pure function of the integration window, so results
are bit-reproducible run to run and independent of evaluation order.
Grids (and expensive node-wise bracket tables attached to them) are
cached process-wide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError, check_domain

_GL_ORDER = 24
_BASE_HI = 90.0  # tail cutoff for unit-rate decay with poly factors up to u^8


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and domain split for the energy integrals.

    ``split_point`` is the boundary between the directly-evaluated part
    of the t-integral and the part mapped through t -> pi^2/t.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    split_point: float = math.pi
    max_refinements: int = 6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "split_point"):
            x = getattr(self, name)
            check_domain(x > 0, f"{name} must be finite and positive, got {x}", **{name: x})
        check_domain(self.max_refinements >= 1, "max_refinements must be at least 1")


DEFAULT_CONFIG = QuadratureConfig()


class Grid:
    """Gauss-Legendre panels on (lo, hi], geometric in log u.

    ``cached(key, builder)`` memoizes node-wise tables (theta brackets,
    series coefficient matrices) so that repeated integrals against
    different measures reuse them.
    """

    __slots__ = ("lo", "hi", "level", "nodes", "weights", "_tables")

    def __init__(self, lo: float, hi: float, level: int):
        span = math.log(hi / lo)
        n_panels = max(8, math.ceil(2.5 * span)) * 2**level
        x, w = leggauss(_GL_ORDER)
        edges = np.linspace(0.0, span, n_panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        y = (mid[:, None] + half[:, None] * x[None, :]).ravel()
        u = lo * np.exp(y)
        self.lo = lo
        self.hi = hi
        self.level = level
        self.nodes = u
        self.weights = (half[:, None] * w[None, :]).ravel() * u  # du = u dy
        self._tables: dict = {}

    def cached(self, key, builder):
        tab = self._tables.get(key)
        if tab is None:
            tab = builder(self.nodes)
            self._tables[key] = tab
        return tab


_GRID_CACHE: dict[tuple, Grid] = {}


def _tail_cutoff(decay_scale: float) -> float:
    """Upper limit beyond which exp(-u - p/u) is negligible relative to
    its peak exp(-2 sqrt(p)), with ~40 extra e-foldings of margin; bucketed
    so that nearby decay scales share grids (and their tables)."""
    p = max(decay_scale, 0.0)
    d = 2.0 * math.sqrt(p) + _BASE_HI
    hi = 0.5 * (d + math.sqrt(d * d - 4.0 * p))
    return _BASE_HI * 1.5 ** max(0, math.ceil(math.log(hi / _BASE_HI, 1.5)))


def grid_for(lo: float, hi: float, level: int) -> Grid:
    """The cached grid on (lo, hi] at refinement ``level``."""
    key = (round(lo, 12), hi, level)
    g = _GRID_CACHE.get(key)
    if g is None:
        g = Grid(lo, hi, level)
        _GRID_CACHE[key] = g
    return g


def integrate(pieces, decay_scale: float, q: QuadratureConfig = DEFAULT_CONFIG):
    """Sum of semi-infinite integrals with a shared refinement ladder.

    ``pieces`` is a sequence of ``(lo, fn)`` where ``fn(grid)`` returns
    ``(value, abs_scale)``: the panel-weighted sum of the integrand and
    of its absolute value, as scalars or as arrays of one shape.  A
    component is accepted at the first level where it agrees with the
    previous level within ``max(rel_tol * abs_scale, abs_tol)``; its
    value is frozen there while the others refine.
    """
    hi = _tail_cutoff(decay_scale)
    prev = kept = None  # kept: components accepted at an earlier level
    for level in range(q.max_refinements + 1):
        value = 0.0
        scale = 0.0
        for lo, fn in pieces:
            v, s = fn(grid_for(lo, hi, level))
            value += v
            scale += s
        if prev is not None:
            if kept is not None:
                value = np.where(kept, prev, value)
            change = abs(value - prev)
            passed = change <= np.maximum(q.rel_tol * scale, q.abs_tol)
            if passed.all():
                return value
            kept = passed if passed.any() else None
        prev = value
    raise QuadratureError(
        f"quadrature did not converge after {q.max_refinements} refinements "
        f"(last change {np.max(change):.3e} against scale {np.max(scale):.3e})",
        residual=float(np.max(change)),
    )


def integrate_split(table_of, w_direct, w_transformed, decay_scale: float, q, front: float):
    """``front * int_0^inf B(t) w(t) dt`` for a bracket ``B(t) = (pi/t) B(pi^2/t)``.

    ``table_of(grid)`` gives ``B`` on the nodes, one table or a stack (last
    axis = nodes); ``w_direct`` and ``w_transformed`` give the measure
    weights on ``[a, inf)`` and on ``(0, a)`` mapped to ``[pi^2/a, inf)``.
    """
    a = q.split_point
    b = math.pi**2 / a

    def side(weight):
        def piece(grid):
            contrib = front * grid.weights * table_of(grid) * weight(grid.nodes)
            return contrib.sum(axis=-1), np.abs(contrib).sum(axis=-1)

        return piece

    return integrate([(a, side(w_direct)), (b, side(w_transformed))], decay_scale, q)
