"""Deterministic quadrature for the lattice-energy integrals.

Every integral in this package is a self-rescaling theta bracket against
a measure.  The one kernel, ``integrate``, takes the bracket table, the
measure weights of the two halves and the grid's upper end; it splits the
integral at ``split_point`` and maps the part below through
``t -> pi^2/t``, which leaves semi-infinite integrals of smooth integrands
that decay at least like ``exp(-u)`` with at most a mild polynomial
factor.  They are evaluated on composite 24-node Gauss-Legendre panels
laid out geometrically in ``log u``: one grid per half, one pass.

The pass carries its own error estimate: a null rule (Berntsen & Espelid,
ACM TOMS 17, 1991) that needs no extra nodes.  On every panel it takes the
degree-22 and degree-23 Legendre content of the contributions (one fixed
``(24, 2)`` matrix product); the estimate is their absolute sum over the
panels of every grid.  The integral is accepted when that estimate is at
most ``max(rel_tol * scale, abs_tol)``, where ``scale`` is the sum of the
absolute contributions, and refused with a ``QuadratureError`` otherwise.
The 24-node rule integrates every degree below 48 exactly, and a smooth
integrand's Legendre coefficients fall off geometrically, so the content
at degrees 22 and 23 overstates a panel's error by a wide margin, and a
smooth integrand passes on its one grid.  Roundoff in the contributions
keeps the estimate at about 5e-15 of the scale (up to 2e-14 where the two
halves of a split integral cancel), so a ``rel_tol`` below that, with a
smaller ``abs_tol``, is refused.

At the default split (``pi^2/pi = pi``) both halves start at ``pi`` and
share one grid: the bracket table is formed once and multiplied by the
sum of the two measure weights.  At any other split the halves are two
grids.

The table and the weights may be stacks: a stack of brackets against the
same measure then shares one pass (the same grids, the same measure
weights), and so does a stack of measures on the same grid (one row of
weights per measure, e.g. the points of a Newton step and its Jacobian
stencil) against the same brackets.  The stack is accepted only when every
component passes its own test, and each component is then bit-for-bit
the value it would have alone.

Node placement is a pure function of the integration window, so results
are bit-reproducible run to run and independent of evaluation order.
Grids (and expensive node-wise bracket tables attached to them) are
cached process-wide: the curvature and series tables, and the pair-gap
table of the eps lattice that every direct-gap scan evaluates
(``energy.GAP_LATTICE``), each built once per grid.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import QuadratureError, check_domain

_GL_ORDER = 24
# The upper half (x > 0, ascending) of numpy's ``leggauss(24)``, which is
# exactly symmetric, stored so that no import of ``numpy.polynomial`` is
# needed: node x, weight w, and the null rule's two columns (k + 1/2) P_k(x)
# for k = 22, 23.  Column k maps a panel's contributions c_j = (h/2) w_j
# g(x_j) to (h/2) a_k, a_k the degree-k Legendre coefficient of g on the
# panel, for the two highest degrees that 24 nodes represent.  P_22 is even
# and P_23 odd, and ``legval`` keeps those parities bit for bit.
_GL_HALF = np.array(
    [
        (0.06405689286260563, 0.12793819534675202, -0.48420492752859634, -3.863479907547753),
        (0.1911188674736163, 0.12583745634682825, 1.432764454668657, 3.8316564035065537),
        (0.3150426796961634, 0.1216704729278033, -2.3223879566415535, -3.767738041381902),
        (0.4337935076260451, 0.11550566805372552, 3.115791749981327, 3.671137892401631),
        (0.5454214713888396, 0.10744427011596556, -3.778546985861693, -3.5408531743564002),
        (0.6480936519369755, 0.09761865210411393, 4.2798855371717295, 3.3752792452053515),
        (0.7401241915785544, 0.0861901615319532, -4.59309150421996, -3.1718732192091936),
        (0.820001985973903, 0.07334648141108016, 4.695170260811955, 2.9265218010530747),
        (0.8864155270044011, 0.05929858491543636, -4.565093227631958, -2.632252934225961),
        (0.9382745520027328, 0.04427743881741941, 4.178638103361198, 2.276250975134576),
        (0.9747285559713095, 0.02853138862893356, -3.4925872434196346, -1.831381809531447),
        (0.9951872199970213, 0.01234122979998869, 2.3783277271722465, 1.2214683858429836),
    ]
)
_GL_NODES = np.concatenate([-_GL_HALF[::-1, 0], _GL_HALF[:, 0]])
_GL_WEIGHTS = np.concatenate([_GL_HALF[::-1, 1], _GL_HALF[:, 1]])
_NULL_RULE = np.concatenate([_GL_HALF[::-1, 2:] * (1.0, -1.0), _GL_HALF[:, 2:]])
_BASE_HI = 90.0  # tail cutoff for unit-rate decay with poly factors up to u^8
_LOG_BUCKET = math.log(1.5)  # log of the ratio between neighbouring grid ends

#: Largest grid end before bucketing (``_tail_cutoff``): the brackets' u^4
#: factors overflow near u = 1e77, and bucketing adds at most a factor 2.25.
END_MAX = 1e75
_SPAN_MAX = math.log(END_MAX / _BASE_HI)


class QuadratureConfig(
    NamedTuple("QuadratureConfig", [("rel_tol", float), ("abs_tol", float), ("split_point", float)])
):
    """Tolerances and domain split for the energy integrals.

    An integral (each component of a stack) is accepted when its null-rule
    error estimate is at most ``max(rel_tol * scale, abs_tol)``, ``scale``
    being the integral of the absolute integrand.  ``split_point`` is the
    boundary between the directly-evaluated part of the t-integral and
    the part mapped through t -> pi^2/t.  Each field must be finite and
    positive, in a new record as in one from ``_make`` or ``_replace``,
    and both half-grids must start below the smallest grid end, 90.
    """

    __slots__ = ()

    def __new__(cls, rel_tol=1e-12, abs_tol=1e-14, split_point=math.pi):
        for name, x in zip(cls._fields, (rel_tol, abs_tol, split_point)):
            check_domain(x > 0, f"{name} must be finite and positive, got {x}", **{name: x})
        message = f"split_point must lie in (pi^2/{_BASE_HI:g}, {_BASE_HI:g}), got {split_point}"
        check_domain(split_point < _BASE_HI and math.pi**2 / split_point < _BASE_HI, message)
        return super().__new__(cls, rel_tol, abs_tol, split_point)

    _make = classmethod(lambda cls, fields: cls(*fields))


DEFAULT_CONFIG = QuadratureConfig()


class Grid:
    """Gauss-Legendre panels on (lo, hi], geometric in log u; ``root``
    holds ``sqrt(nodes)``.

    ``cached(key, builder)`` memoizes node-wise tables (theta brackets,
    series coefficient matrices) so that repeated integrals against
    different measures reuse them; ``builder`` is a function of the nodes.
    """

    __slots__ = ("nodes", "root", "weights", "_tables")

    def __init__(self, lo: float, hi: float):
        span = math.log(hi / lo)
        n_panels = max(8, math.ceil(2.5 * span))
        edges = np.linspace(0.0, span, n_panels + 1)
        mid = 0.5 * (edges[1:] + edges[:-1])
        half = 0.5 * (edges[1:] - edges[:-1])
        y = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        u = lo * np.exp(y)
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


def _tail_cutoff(p: float, eps_max: float = 0.0) -> float:
    """Upper limit beyond which exp(-u - p/u) is negligible relative to
    its peak exp(-2 sqrt(p)), with ~40 extra e-foldings of margin; bucketed
    so that nearby scales ``p`` (``potentials.tail_scale``) share grids
    (and their tables).  A bracket that decays only like exp(-u e^-eps_max)
    against a weight without exponential decay (Riesz, eps != 0) takes
    ``ceil(eps_max / ln 1.5)`` more buckets, a factor of at least
    e^eps_max.  An end above ``END_MAX`` before bucketing (a ``p`` or an
    ``eps_max`` too large, infinite or NaN) is refused."""
    p = max(p, 0.0)
    root = math.sqrt(p)
    d = 2.0 * root + _BASE_HI
    hi = 0.5 * (d + math.sqrt(360.0 * root + 8100.0))  # d^2 - 4p, without the cancellation
    span = math.log(hi / _BASE_HI)
    if not span + eps_max <= _SPAN_MAX:  # the message is formatted only for a refusal
        message = (
            f"the integrals' grid would end past {END_MAX:g}: the tail scale "
            f"kappa^2 A / 4 = {p:.3g} or |eps| = {eps_max:.3g} is too large"
        )
        check_domain(span + eps_max <= _SPAN_MAX, message)
    buckets = max(0, math.ceil(span / _LOG_BUCKET))  # log base 1.5
    return _BASE_HI * 1.5 ** (buckets + math.ceil(eps_max / _LOG_BUCKET))


def grid_for(lo: float, hi: float, level: int) -> Grid:
    """The cached grid on (lo, hi].

    ``integrate`` passes ``level`` 0, which selects nothing: the benchmark's
    tracer (``perfbench/tracer.py``) reads the argument, positionally, for
    its ``quadrature.level_max`` and ``quadrature.grid_units`` counts.
    """
    key = (round(lo, 12), hi)
    g = _GRID_CACHE.get(key)
    if g is None:
        g = _GRID_CACHE[key] = Grid(lo, hi)
    return g


def integrate(table_of, w_direct, w_transformed, hi: float, q=DEFAULT_CONFIG, front=1.0):
    """``front * int_0^inf B(t) w(t) dt`` for a bracket ``B(t) = (pi/t) B(pi^2/t)``,
    on grids that end at ``hi`` (``_tail_cutoff``).

    ``table_of(grid)`` gives ``B`` on the nodes, one table or a stack (last
    axis = nodes); ``w_direct(u, root)`` and ``w_transformed(u, root)``
    give the measure weights on ``[a, inf)`` and on ``(0, a)`` mapped to
    ``[pi^2/a, inf)``, from the nodes ``u`` and their square roots: a row
    per measure for a stack of them, with ``front`` a ``(k, 1)`` column.
    The value is the sum over the grids' nodes of the contributions
    ``front * weights * w * B`` (one grid from ``pi`` with the two weights
    summed at the default split, one grid per half elsewhere), the scale
    the sum of their absolute values and the error the null-rule estimate.
    The value is returned when every component's error is at most
    ``max(rel_tol * scale, abs_tol)``; otherwise a ``QuadratureError``
    carries the largest error as its residual.
    """
    a = q.split_point
    if a == math.pi:  # both halves start at pi: one grid, the two weights summed
        value, error, scale = _sums(table_of, grid_for(a, hi, 0), front, w_direct, w_transformed)
    else:
        value, error, scale = _sums(table_of, grid_for(a, hi, 0), front, w_direct)
        v, e, s = _sums(table_of, grid_for(math.pi**2 / a, hi, 0), front, w_transformed)
        value, error, scale = value + v, error + e, scale + s
    if (error <= np.maximum(q.rel_tol * scale, q.abs_tol)).all():
        return value
    raise QuadratureError(
        "quadrature did not converge on its grid "
        f"(error estimate {np.max(error):.3e} against scale {np.max(scale):.3e})",
        residual=float(np.max(error)),
    )


def _sums(table_of, grid, front, weight, added=None):
    """``(value, error, scale)`` of one grid's contributions (``integrate``)."""
    u, root = grid.nodes, grid.root
    w = front * grid.weights  # a row per measure for a column ``front``
    w *= weight(u, root) if added is None else weight(u, root) + added(u, root)
    table = table_of(grid)
    # (k, n) weights against (m, n) brackets: (k, m, n)
    contrib = (w[:, None] if w.ndim > 1 and table.ndim > 1 else w) * table
    value = np.add.reduce(contrib, -1)
    null = contrib.reshape(contrib.shape[:-1] + (-1, _GL_ORDER)) @ _NULL_RULE
    error = np.add.reduce(np.abs(null, out=null), (-2, -1))
    return value, error, np.add.reduce(np.abs(contrib, out=contrib), -1)
