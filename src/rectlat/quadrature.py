"""Deterministic adaptive quadrature for the lattice-energy integrals.

Every integral in this package is a self-rescaling theta bracket against
a measure.  The one split kernel ``integrate_split`` splits it at
``split_point`` and maps the part below through ``t -> pi^2/t``, which
leaves semi-infinite integrals of smooth integrands that decay at least
like ``exp(-u)`` with at most a mild polynomial factor.  They are
evaluated on composite Gauss-Legendre panels laid out geometrically in
``log u``; refinement doubles the panel count and the run is accepted
once two consecutive levels agree to tolerance.

Every integral needs levels 0 and 1 before it can stop, so they run as
one vector pass: their nodes and weights are concatenated into one
cached joint grid, each piece is evaluated once on it, and each level's
sums are taken over its own contiguous span of nodes.  From level 2 on,
each level is a pass of its own.  In ``integrate_split`` both sides
resolve to the same grid at the default split (``pi^2/pi = pi``), so the
bracket table, scaled by the front factor and the panel weights, is
formed once per grid and shared by the two measure weights.

A piece may return arrays: a stack of integrands against the same
measure then shares one ladder (the same grids, the same measure
weights), and each component is frozen at the first level where it
passes its own test.  Every component is therefore bit-for-bit the value
its own ladder would give, and the joint pass and the shared table leave
every node product, every sum and its order as a level-by-level ladder
with one table per side would have them.

``estimate_split`` runs the same split kernel on the level-0 grids
alone, without a convergence test, for callers that only rank a stack
of integrands by value.

Node placement is a pure function of the integration window, so results
are bit-reproducible run to run and independent of evaluation order.
Grids (and expensive node-wise bracket tables attached to them) are
cached process-wide: the curvature and series tables, and the pair-gap
table of the eps lattice that every direct-gap scan ranks
(``energy.GAP_LATTICE``), each built once per grid.
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

    ``Grid(lo, hi, level)`` is one refinement level; ``Grid.joined`` puts
    several levels' nodes one after another, and ``spans[i]`` is the
    slice of its ``i``-th level (a one-level grid has one span).
    ``level`` is the finest level a grid holds.

    ``cached(key, builder)`` memoizes node-wise tables (theta brackets,
    series coefficient matrices) so that repeated integrals against
    different measures reuse them.  ``builder`` is a function of the
    nodes alone: it is called on one level's nodes at a time, and the
    levels' tables are concatenated along the last axis.
    """

    __slots__ = ("lo", "hi", "level", "nodes", "weights", "spans", "_tables")

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
        self.spans = (slice(0, u.size),)
        self._tables: dict = {}

    @classmethod
    def joined(cls, grids) -> "Grid":
        """One grid holding the nodes and weights of ``grids`` in turn."""
        g = cls.__new__(cls)
        g.lo, g.hi, g.level = grids[0].lo, grids[0].hi, grids[-1].level
        g.nodes = np.concatenate([p.nodes for p in grids])
        g.weights = np.concatenate([p.weights for p in grids])
        ends = np.cumsum([p.nodes.size for p in grids])
        g.spans = tuple(slice(e - p.nodes.size, e) for p, e in zip(grids, ends))
        g._tables = {}
        return g

    def cached(self, key, builder):
        tab = self._tables.get(key)
        if tab is None:
            parts = [builder(self.nodes[s]) for s in self.spans]
            tab = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
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


_JOINT_CACHE: dict[tuple, Grid] = {}


def _joint_grid(lo: float, hi: float) -> Grid:
    """Levels 0 and 1 on (lo, hi] joined into one cached grid."""
    levels = (grid_for(lo, hi, 0), grid_for(lo, hi, 1))
    g = _JOINT_CACHE.get(levels)
    if g is None:
        g = Grid.joined(levels)
        _JOINT_CACHE[levels] = g
    return g


def _level_sums(pieces, hi: float, max_level: int):
    """``(value, scale)`` of each level in turn: levels 0 and 1 from one
    pass over their joint grids, every later level from a pass of its own.
    The pieces' sums are added in order, starting from 0.0."""
    for level in (0, *range(2, max_level + 1)):
        grids = [
            _joint_grid(lo, hi) if level == 0 else grid_for(lo, hi, level) for lo, _ in pieces
        ]
        contribs = [fn(g) for g, (_, fn) in zip(grids, pieces)]
        for i in range(len(grids[0].spans)):
            value = 0.0
            scale = 0.0
            for g, contrib in zip(grids, contribs):
                part = contrib[..., g.spans[i]]
                value += part.sum(axis=-1)
                scale += np.abs(part).sum(axis=-1)
            yield value, scale


def integrate(pieces, decay_scale: float, q: QuadratureConfig = DEFAULT_CONFIG):
    """Sum of semi-infinite integrals with a shared refinement ladder.

    ``pieces`` is a sequence of ``(lo, fn)`` where ``fn(grid)`` returns
    the node-wise contributions (integrand times panel weights) on the
    grid's nodes, one array or a stack of them (last axis = nodes).  Each
    level's value is their sum over that level's span and its scale the
    sum of their absolute values.  A component is accepted at the first
    level where it agrees with the previous level within
    ``max(rel_tol * abs_scale, abs_tol)``; its value is frozen there while
    the others refine.
    """
    prev = kept = None  # kept: components accepted at an earlier level
    for value, scale in _level_sums(pieces, _tail_cutoff(decay_scale), q.max_refinements):
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


def _split_pieces(table_of, w_direct, w_transformed, q, front: float):
    """The two sides of a split integral as ``integrate`` pieces.

    ``front * weights * B`` is formed once per grid: the two sides share
    it whenever they resolve to the same grid (always at ``a = pi``).
    """
    a = q.split_point
    last = [None, None]  # the last grid seen and front * weights * B on it

    def side(weight):
        def piece(grid):
            if last[0] is not grid:
                last[:] = grid, front * grid.weights * table_of(grid)
            return last[1] * weight(grid.nodes)

        return piece

    return [(a, side(w_direct)), (math.pi**2 / a, side(w_transformed))]


def integrate_split(table_of, w_direct, w_transformed, decay_scale: float, q, front: float):
    """``front * int_0^inf B(t) w(t) dt`` for a bracket ``B(t) = (pi/t) B(pi^2/t)``.

    ``table_of(grid)`` gives ``B`` on the nodes, one table or a stack (last
    axis = nodes); ``w_direct`` and ``w_transformed`` give the measure
    weights on ``[a, inf)`` and on ``(0, a)`` mapped to ``[pi^2/a, inf)``.
    """
    return integrate(_split_pieces(table_of, w_direct, w_transformed, q, front), decay_scale, q)


def estimate_split(table_of, w_direct, w_transformed, decay_scale: float, q, front: float):
    """``integrate_split`` on its level-0 grids alone: one pass, no
    convergence test, a third of the nodes of the ladder's first pass.

    For ranking a stack of integrands by value, where only their order is
    used and level 0 is already close to the converged value.  Arguments
    as for ``integrate_split``.
    """
    hi = _tail_cutoff(decay_scale)
    value = 0.0
    for lo, piece in _split_pieces(table_of, w_direct, w_transformed, q, front):
        value += piece(grid_for(lo, hi, 0)).sum(axis=-1)
    return value
