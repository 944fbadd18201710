"""Lattice energy per particle of 2D rectangular lattices.

A rectangular lattice is described by its cell area ``A`` (inverse
particle density) and log aspect ratio ``eps`` (``delta = exp(eps)``;
``eps = 0`` is the square lattice).  The energy per particle is

    E(A, delta) = 1/2 * sum'_{j,k} f(sqrt(A (j^2/delta + k^2 delta)))

with the self term omitted.  The production evaluation path rewrites the
sum through the Gaussian-superposition measure of ``f`` as an integral
of ``theta3(e^{-t delta}) theta3(e^{-t/delta}) - 1`` against the
measure, splits the integral at ``split_point``, and maps the lower part
through ``t -> pi^2/t`` so that both halves have smooth, exponentially
decaying integrands: the one kernel ``quadrature.integrate``, which
``split_stack`` calls once per grid end.  The pieces whose bracket does
not vanish at infinity (the "-1", and the neutralizing-background
``-pi/t`` of the unscreened Coulomb term) integrate in closed form via
``erfc``.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import potentials as pot, quadrature
from .errors import check_domain
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _tail_cutoff
from .theta import GAP_EPS_BOUND, theta_product_excess, theta_product_gap


class LatticeState(NamedTuple("LatticeState", [("area", float), ("eps", float)])):
    """Inverse density and log aspect ratio of a rectangular lattice; the
    area is checked in ``_make`` and ``_replace`` as in a new record."""

    __slots__ = ()

    def __new__(cls, area: float, eps: float = 0.0):
        check_domain(area > 0, f"inverse density A must be positive, got {area}", A=area, eps=eps)
        return super().__new__(cls, area, eps)

    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def delta(self) -> float:
        return math.exp(self.eps)


def _analytic_tail(spec, area: float, a: float, b: float) -> float:
    """Closed-form part of the reduced energy integral (before the front
    factor): the '+1' restored on the transformed side, and the
    background subtraction for an unscreened Coulomb term."""
    if spec.family == pot.RIESZ:
        sg = spec.s / 2.0
        return (
            math.pi ** (2 * sg - 1.0) * b ** (1.0 - sg) / (sg - 1.0)
            - math.pi ** (2 * sg) * b ** (-sg) / sg
        )
    total = 0.0
    for vs, k in pot.laplace_pairs(spec):
        if k > 0.0:
            c = k * k * area / (4.0 * math.pi**2)
            message = f"kappa^2 A / (4 pi^2) = {c:.3g} is too small, kappa={k}"
            check_domain(c > 0.0 and math.pi / c < math.inf, message)  # sqrt(pi / c) a double
            cb = c * b
            erfc = math.erfc(math.sqrt(cb))
            k1 = math.sqrt(math.pi / c) * erfc
            k3 = 2.0 * math.exp(-cb) / math.sqrt(b) - 2.0 * math.sqrt(c * math.pi) * erfc
            total += vs * (k1 - math.pi * k3)
        else:
            check_domain(
                spec.needs_background,
                "unscreened Coulomb term has a divergent lattice sum without "
                "a neutralizing background",
            )
            total += vs * (-2.0 * math.pi / math.sqrt(a) - 2.0 * math.pi / math.sqrt(b))
    return total


def _grid_end(spec, area: float, eps_max: float) -> float:
    """The end of the point's grid; ``eps_max`` counts for Riesz only (``split_stack``)."""
    if not 0 < area < math.inf:  # the message is formatted only for a refusal
        check_domain(area > 0, f"area must be finite and positive, got {area}", area=area)
    eps_max = eps_max if spec.family == pot.RIESZ else 0.0
    return _tail_cutoff(pot.tail_scale(spec, area), eps_max)


def _pass(spec, area, table_of, q, hi, front):
    """``quadrature.integrate`` on the grid that ends at ``hi`` against the
    measure of one point, or of a sequence of points with ``front`` their
    column of prefactors."""
    w_direct = functools.partial(pot.weight_direct, spec, area)
    w_transformed = functools.partial(pot.weight_transformed, spec, area)
    return quadrature.integrate(table_of, w_direct, w_transformed, hi, q, front)


def split_integral(spec, area: float, table_of, q=DEFAULT_CONFIG, eps_max: float = 0.0):
    """``quadrature.integrate`` against the potential's measure, with float
    weights and prefactor: the stack of one point of ``split_stack``."""
    hi = _grid_end(spec, area, eps_max)
    return _pass(spec, area, table_of, q, hi, pot.front_factor(spec, area))


def split_stack(points, table_of, q: QuadratureConfig = DEFAULT_CONFIG, eps_max: float = 0.0):
    """``split_integral`` at each ``(spec, area)`` of ``points`` (one family),
    one leading row per point; ``table_of(grid)`` gives one bracket or a
    stack (last axis = nodes).  The points on one grid (one tail-cutoff
    bucket, the end ``quadrature.integrate`` takes) share a pass, each row
    bit for bit its point alone.  ``eps_max`` is the largest ``|eps|`` of
    the brackets: a Riesz weight has no exponential decay, so a bracket
    falling like ``exp(-u e^-|eps|)`` needs a wider tail cutoff."""
    if len(points) == 1:  # a lone point: no grouping
        return split_integral(*points[0], table_of, q, eps_max)[None]
    grids = {}  # tail cutoff (the grid's end) -> indices of its points
    for i, (spec, area) in enumerate(points):
        grids.setdefault(_grid_end(spec, area, eps_max), []).append(i)
    out = None
    for hi, idx in grids.items():
        if len(idx) == 1:  # a point alone on its grid: float weights and prefactor
            rows = split_integral(*points[idx[0]], table_of, q, eps_max)[None]
        else:
            specs, areas = zip(*(points[i] for i in idx))
            front = np.array([pot.front_factor(s, a) for s, a in zip(specs, areas)])[:, None]
            rows = _pass(specs, areas, table_of, q, hi, front)
        if len(idx) == len(points):  # one grid: its rows are the result
            return rows
        if out is None:
            out = np.empty((len(points),) + rows.shape[1:])
        out[idx] = rows
    return out


def lattice_energy(
    spec: pot.PotentialSpec, state: LatticeState, q: QuadratureConfig = DEFAULT_CONFIG
) -> float:
    """Energy per particle via the theta-product integral representation."""
    check_domain(
        spec.family != pot.RIESZ or spec.s > 2.0,
        f"Riesz lattice energy requires s > 2 (got s={spec.s}); "
        "the sum is not absolutely convergent otherwise",
    )
    area, eps = state.area, state.eps
    value = split_integral(spec, area, lambda g: theta_product_excess(g.nodes, eps), q, abs(eps))
    a = q.split_point
    return value + pot.front_factor(spec, area) * _analytic_tail(spec, area, a, math.pi**2 / a)


def energy_gap(spec: pot.PotentialSpec, area, eps, q: QuadratureConfig = DEFAULT_CONFIG):
    """E(A, e^eps) - E(A, 1), evaluated as a single integral.

    The aspect-dependent and square-lattice theta products are
    differenced inside the integrand through the factorised form
    ``T(u) (d- + d+) + d- d+`` of 1D theta differences
    ``d(+-) = T(u e^(+-eps)) - T(u)``, each summed termwise via expm1, each
    node's series cut at its last significant term (see ``theta``).  The
    result keeps absolute accuracy near the machine level even when the
    gap itself is many orders below the energies.  Background and
    self-term constants cancel identically in the difference.

    A 1-D array of ``eps`` gives one gap per entry from one stacked
    integral (one grid, one set of measure weights); each entry equals
    the scalar call bit for bit.  Its table is one ``theta_product_gap``
    call per grid through ``_gap_rows``.  A sequence of ``area`` gives one
    leading row per density from one ``split_stack``: the densities on one
    grid share its pass and its table.  An ``eps`` that is not finite, or
    above ``GAP_EPS_BOUND`` in size, is refused before any table is built.
    """
    eps_max = float(np.max(np.abs(eps), initial=0.0))
    if not eps_max <= GAP_EPS_BOUND:  # the message is formatted only for a refusal
        message = f"|eps| must be at most {GAP_EPS_BOUND}, got {eps_max}"
        check_domain(eps_max <= GAP_EPS_BOUND, message, eps=eps_max)
    if np.ndim(area) == 0:
        return split_integral(spec, area, _gap_rows(eps), q, eps_max)
    return split_stack([(spec, a) for a in area], _gap_rows(eps), q, eps_max)


#: Search cap of the aspect minimization (delta <= 4).
EPS_CAP = math.log(4.0)

#: The eps lattice of the direct-gap scans: 129 equal steps over the
#: aspect range [0, EPS_CAP].  Its pair-gap table is built once per grid
#: and cached there like the other bracket tables.
GAP_LATTICE = np.linspace(0.0, EPS_CAP, 129)


def _gap_rows(eps):
    """``table_of(grid)`` for the pair-gap rows of ``eps``, a scalar or a
    1-D array (last axis = nodes), one ``theta_product_gap`` call per table.

    A suffix of ``GAP_LATTICE`` is sliced from the lattice's table
    (``Grid.cached``); any other ``eps`` is built on each call.  Either way
    every row is bit for bit a fresh one.
    """
    rows = np.asarray(eps, dtype=float)
    start = GAP_LATTICE.size - rows.size
    if rows.ndim and start >= 0 and np.array_equal(rows, GAP_LATTICE[start:]):
        lattice = lambda u: theta_product_gap(u, GAP_LATTICE)
        return lambda g: g.cached("pair_gap_lattice", lattice)[start:]
    return lambda g: theta_product_gap(g.nodes, eps)

