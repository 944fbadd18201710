"""Deterministic adaptive quadrature for the lattice-energy integrals.

Every integral in this package is a self-rescaling theta bracket against
a measure.  The one split kernel ``integrate_split`` splits it at
``split_point`` and maps the part below through ``t -> pi^2/t``, which
leaves semi-infinite integrals of smooth integrands that decay at least
like ``exp(-u)`` with at most a mild polynomial factor.  They are
evaluated on composite 24-node Gauss-Legendre panels laid out
geometrically in ``log u``; refinement doubles the panel count.

Each level is one grid and one pass, and carries its own error estimate:
a null rule (Berntsen & Espelid, ACM TOMS 17, 1991) that needs no extra
nodes.  On every panel it takes the degree-22 and degree-23 Legendre
content of the contributions (one fixed ``(24, 2)`` matrix product); the
estimate is their absolute sum over the panels of every piece.  A level
is accepted once that estimate is at most ``max(rel_tol * scale,
abs_tol)``, where ``scale`` is the sum of the absolute contributions, so
a smooth integrand stops at level 0 on one grid.  The 24-node rule
integrates every degree below 48 exactly, and a smooth integrand's
Legendre coefficients fall off geometrically, so the content at degrees 22
and 23 overstates a panel's error by a wide margin.  Roundoff in the
contributions keeps the estimate at about 5e-15 of the scale (up to 2e-14
where the two halves of a split integral cancel), so a ``rel_tol`` below
that, with a smaller ``abs_tol``, is not met at any level.

At the default split (``pi^2/pi = pi``) both halves start at ``pi`` and
share one grid, so they are one piece: the bracket table is formed once
per grid and multiplied by the sum of the two measure weights.  At any
other split the halves are two pieces on two grids.

A piece may return arrays: a stack of integrands against the same
measure then shares one ladder (the same grids, the same measure
weights), and each component is frozen at the first level where it
passes its own test.  Every component is therefore bit-for-bit the value
its own ladder would give.

Node placement is a pure function of the integration window, so results
are bit-reproducible run to run and independent of evaluation order.
Grids (and expensive node-wise bracket tables attached to them) are
cached process-wide: the curvature and series tables, and the pair-gap
table of the eps lattice that every direct-gap scan evaluates
(``energy.GAP_LATTICE``), each built once per grid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss, legval

from .errors import QuadratureError, check_domain

_GL_ORDER = 24
_GL_NODES, _GL_WEIGHTS = leggauss(_GL_ORDER)
_BASE_HI = 90.0  # tail cutoff for unit-rate decay with poly factors up to u^8

# Column k maps a panel's contributions c_j = (h/2) w_j g(x_j) to (h/2) a_k,
# a_k the degree-k Legendre coefficient of g on the panel, for the two
# highest degrees that 24 nodes represent.
_NULL_RULE = np.stack(
    [(k + 0.5) * legval(_GL_NODES, np.eye(k + 1)[k]) for k in (22, 23)], axis=1
)

#: Largest ``max_refinements``: a level-8 grid holds 8 * 2^8 * 24 = 49,152
#: nodes or more, and a stacked table one row of that per integrand.
MAX_REFINEMENTS = 8


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and domain split for the energy integrals.

    An integral (each component of a stack) is accepted at the first
    level whose null-rule error estimate is at most ``max(rel_tol *
    scale, abs_tol)``, ``scale`` being the integral of the absolute
    integrand on that level.  ``max_refinements`` (an integer from 1 to
    ``MAX_REFINEMENTS``) is the last level tried.  ``split_point`` is the
    boundary between the directly-evaluated part of the t-integral and
    the part mapped through t -> pi^2/t.
    """

    rel_tol: float = 1e-12
    abs_tol: float = 1e-14
    split_point: float = math.pi
    max_refinements: int = 6

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "split_point"):
            x = getattr(self, name)
            check_domain(x > 0, f"{name} must be finite and positive, got {x}", **{name: x})
        n = self.max_refinements
        check_domain(
            isinstance(n, numbers.Integral)
            and not isinstance(n, bool)
            and 1 <= n <= MAX_REFINEMENTS,
            f"max_refinements must be an integer from 1 to {MAX_REFINEMENTS}, got {n!r}",
        )


DEFAULT_CONFIG = QuadratureConfig()


class Grid:
    """Gauss-Legendre panels on (lo, hi], geometric in log u, at one
    refinement ``level``; ``root`` holds ``sqrt(nodes)``.

    ``cached(key, builder)`` memoizes node-wise tables (theta brackets,
    series coefficient matrices) so that repeated integrals against
    different measures reuse them; ``builder`` is a function of the nodes.
    """

    __slots__ = ("lo", "hi", "level", "nodes", "root", "weights", "_tables")

    def __init__(self, lo: float, hi: float, level: int):
        span = math.log(hi / lo)
        n_panels = max(8, math.ceil(2.5 * span)) * 2**level
        edges = np.linspace(0.0, span, n_panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        y = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        u = lo * np.exp(y)
        self.lo = lo
        self.hi = hi
        self.level = level
        self.nodes = u
        self.root = np.sqrt(u)
        self.weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel() * u  # du = u dy
        self._tables: dict = {}

    def cached(self, key, builder):
        tab = self._tables.get(key)
        if tab is None:
            tab = self._tables[key] = builder(self.nodes)
        return tab


_GRID_CACHE: dict[tuple, Grid] = {}


def _tail_cutoff(decay_scale: float, eps_max: float = 0.0) -> float:
    """Upper limit beyond which exp(-u - p/u) is negligible relative to
    its peak exp(-2 sqrt(p)), with ~40 extra e-foldings of margin; bucketed
    so that nearby decay scales share grids (and their tables).  A bracket
    that decays only like exp(-u e^-eps_max) against a weight without
    exponential decay (Riesz, eps != 0) takes ``ceil(eps_max / ln 1.5)``
    more buckets, a factor of at least e^eps_max."""
    p = max(decay_scale, 0.0)
    d = 2.0 * math.sqrt(p) + _BASE_HI
    hi = 0.5 * (d + math.sqrt(d * d - 4.0 * p))
    buckets = max(0, math.ceil(math.log(hi / _BASE_HI, 1.5)))
    return _BASE_HI * 1.5 ** (buckets + math.ceil(eps_max / math.log(1.5)))


def grid_for(lo: float, hi: float, level: int) -> Grid:
    """The cached grid on (lo, hi] at refinement ``level``."""
    key = (round(lo, 12), hi, level)
    g = _GRID_CACHE.get(key)
    if g is None:
        g = Grid(lo, hi, level)
        _GRID_CACHE[key] = g
    return g


def _level_sums(pieces, hi: float, level: int):
    """``(value, scale, error)`` of one level: the pieces' sums (added in
    order, starting from 0.0), absolute sums and null-rule estimates."""
    value = scale = error = 0.0
    for lo, fn in pieces:
        contrib = fn(grid_for(lo, hi, level))
        value += contrib.sum(axis=-1)
        scale += np.abs(contrib).sum(axis=-1)
        panels = contrib.reshape(*contrib.shape[:-1], -1, _GL_ORDER)
        error += np.abs(panels @ _NULL_RULE).sum(axis=(-2, -1))
    return value, scale, error


def integrate(
    pieces, decay_scale: float, q: QuadratureConfig = DEFAULT_CONFIG, eps_max: float = 0.0
):
    """Sum of semi-infinite integrals with a shared refinement ladder.

    ``pieces`` is a sequence of ``(lo, fn)`` where ``fn(grid)`` returns
    the node-wise contributions (integrand times panel weights) on the
    grid's nodes, one array or a stack of them (last axis = nodes).  Each
    level's value is their sum, its scale the sum of their absolute
    values and its error the null-rule estimate.  A component is accepted
    at the first level where the error is at most ``max(rel_tol * scale,
    abs_tol)``; its value is frozen there while the others refine.
    ``eps_max`` widens the tail cutoff for slowly decaying brackets
    (``_tail_cutoff``).
    """
    hi = _tail_cutoff(decay_scale, eps_max)
    frozen = None  # components accepted at an earlier level, their values in kept
    for level in range(q.max_refinements + 1):
        value, scale, error = _level_sums(pieces, hi, level)
        passed = error <= np.maximum(q.rel_tol * scale, q.abs_tol)
        if frozen is not None:
            value = np.where(frozen, kept, value)
            passed = passed | frozen
        if passed.all():
            return value
        if passed.any():
            frozen, kept = passed, value
    raise QuadratureError(
        f"quadrature did not converge after {q.max_refinements} refinements "
        f"(error estimate {np.max(error):.3e} against scale {np.max(scale):.3e})",
        residual=float(np.max(error)),
    )


def integrate_split(
    table_of, w_direct, w_transformed, decay_scale: float, q, front: float, eps_max: float = 0.0
):
    """``front * int_0^inf B(t) w(t) dt`` for a bracket ``B(t) = (pi/t) B(pi^2/t)``.

    ``table_of(grid)`` gives ``B`` on the nodes, one table or a stack (last
    axis = nodes); ``w_direct(u, root)`` and ``w_transformed(u, root)``
    give the measure weights on ``[a, inf)`` and on ``(0, a)`` mapped to
    ``[pi^2/a, inf)``, from the nodes ``u`` and their square roots.
    ``eps_max`` is passed to ``integrate``.
    """
    a = q.split_point

    def piece(weight):
        return lambda grid: (front * grid.weights * weight(grid.nodes, grid.root)) * table_of(grid)

    if a == math.pi:  # both halves start at pi: one piece on one grid
        both = lambda u, root: w_direct(u, root) + w_transformed(u, root)
        return integrate([(a, piece(both))], decay_scale, q, eps_max)
    pieces = [(a, piece(w_direct)), (math.pi**2 / a, piece(w_transformed))]
    return integrate(pieces, decay_scale, q, eps_max)
