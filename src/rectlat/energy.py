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
decaying integrands.  The pieces whose bracket does not vanish at
infinity (the "-1", and the neutralizing-background ``-pi/t`` of the
unscreened Coulomb term) integrate in closed form via ``erfc``.

``direct_lattice_sum`` keeps the literal shell-by-shell sum as an
independent oracle for testing the integral path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import potentials as pot
from .errors import ParameterDomainError, UnsupportedOracleError, check_domain
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, _tail_cutoff, integrate_split
from .theta import GAP_EPS_BOUND, theta_product_excess, theta_product_gap


@dataclass(frozen=True)
class LatticeState:
    """Inverse density and log aspect ratio of a rectangular lattice."""

    area: float
    eps: float = 0.0

    def __post_init__(self):
        a = self.area
        check_domain(a > 0, f"inverse density A must be positive, got {a}", A=a, eps=self.eps)

    @property
    def delta(self) -> float:
        return math.exp(self.eps)

    def mirrored(self) -> "LatticeState":
        return LatticeState(self.area, -self.eps)


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
            cb = c * b
            erfc = math.erfc(math.sqrt(cb))
            k1 = math.sqrt(math.pi / c) * erfc
            k3 = 2.0 * math.exp(-cb) / math.sqrt(b) - 2.0 * math.sqrt(c * math.pi) * erfc
            total += vs * (k1 - math.pi * k3)
        else:
            if not spec.needs_background:
                raise ParameterDomainError(
                    "unscreened Coulomb term has a divergent lattice sum without "
                    "a neutralizing background"
                )
            total += vs * (-2.0 * math.pi / math.sqrt(a) - 2.0 * math.pi / math.sqrt(b))
    return total


def split_integral(spec, area: float, table_of, q=DEFAULT_CONFIG, eps_max: float = 0.0):
    """``quadrature.integrate_split`` against the potential's measure: the
    stack of one point of ``split_stack``."""
    return split_stack([(spec, area)], table_of, q, eps_max)[0]


def split_stack(points, table_of, q: QuadratureConfig = DEFAULT_CONFIG, eps_max: float = 0.0):
    """``split_integral`` at each ``(spec, area)`` of ``points`` (one family),
    one leading row per point; ``table_of(grid)`` gives one bracket or a
    stack (last axis = nodes).  The points on one grid (one tail-cutoff
    bucket) share a pass, each row bit for bit its point alone.  ``eps_max``
    is the largest ``|eps|`` of the brackets: a Riesz weight has no
    exponential decay, so a bracket falling like ``exp(-u e^-|eps|)`` needs
    a wider tail cutoff."""
    eps_max = eps_max if points[0][0].family == pot.RIESZ else 0.0
    grids = {}  # tail cutoff -> (decay scale, indices of its points)
    for i, (spec, area) in enumerate(points):
        if not 0 < area < math.inf:  # the message is formatted only for a refusal
            check_domain(area > 0, f"area must be finite and positive, got {area}", area=area)
        scale = pot.tail_scale(spec, area)
        grids.setdefault(_tail_cutoff(scale, eps_max), (scale, []))[1].append(i)
    out = None
    for scale, idx in grids.values():
        specs, areas = zip(*(points[i] for i in idx))
        # a point alone on its grid keeps float weights and prefactor
        fronts = [pot.front_factor(s, a) for s, a in zip(specs, areas)]
        front = fronts[0] if len(idx) == 1 else np.array(fronts)[:, None]
        w_direct = lambda u, root: pot.weight_direct(specs, areas, u, root)
        w_transformed = lambda u, root: pot.weight_transformed(specs, areas, u, root)
        rows = integrate_split(table_of, w_direct, w_transformed, scale, q, front, eps_max)
        rows = rows if len(idx) > 1 else rows[None]
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
    if spec.family == pot.RIESZ and spec.s <= 2.0:
        raise ParameterDomainError(
            f"Riesz lattice energy requires s > 2 (got s={spec.s}); "
            "the sum is not absolutely convergent otherwise"
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


# ---------------------------------------------------------------------------
# direct-sum oracle
# ---------------------------------------------------------------------------

#: Most shells ``direct_lattice_sum`` sums (about 1e8 pair terms).
SHELL_CAP = 5_000


def _shell_points(m: int):
    """Integer pairs with max(|j|,|k|) == m."""
    side = np.arange(-m, m + 1)
    j = np.concatenate([np.full(side.size, m), np.full(side.size, -m), side[1:-1], side[1:-1]])
    k = np.concatenate([side, side, np.full(side.size - 2, m), np.full(side.size - 2, -m)])
    return j, k


def direct_lattice_sum(
    spec: pot.PotentialSpec, state: LatticeState, cutoff_tol: float = 1e-14
) -> float:
    """Literal shell-by-shell lattice sum, for validating the integral path.

    Supported for potentials whose tail makes the sum absolutely
    convergent with a computable shell bound: Yukawa, double Yukawa
    (kappa2 > 0) and Riesz with s > 2.  The number of shells is predicted
    from that bound before summing; a sum that would need more than
    ``SHELL_CAP`` shells is refused with ``UnsupportedOracleError``.
    """
    message = f"cutoff_tol must be positive, got {cutoff_tol}"
    check_domain(cutoff_tol > 0, message, cutoff_tol=cutoff_tol)
    if spec.family == pot.YUKAWA_COULOMB:
        raise UnsupportedOracleError(
            "direct sum of the Yukawa-Coulomb potential is only conditionally "
            "convergent; use the background-regularized integral representation"
        )
    if spec.family == pot.RIESZ and spec.s <= 2.0:
        raise UnsupportedOracleError("direct Riesz sum requires s > 2")

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
        raise UnsupportedOracleError(
            f"direct lattice sum needs about {reach:.6g} shells to reach cutoff "
            f"{cutoff_tol:g}, above the cap of {SHELL_CAP}"
        )
    acc = 0.0
    for m in range(1, max(1, math.floor(reach)) + 1):
        j, k = _shell_points(m)
        r = np.sqrt(area * (j * j / delta + k * k * delta))
        acc += 0.5 * float(np.sum(pot.potential_value(spec, r)))
    return acc
