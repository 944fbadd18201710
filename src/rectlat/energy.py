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
from scipy.special import erfc

from . import potentials as pot
from .errors import NonconvergenceError, ParameterDomainError, UnsupportedOracleError
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate
from .theta import theta3, theta_product_gap


@dataclass(frozen=True)
class LatticeState:
    """Inverse density and log aspect ratio of a rectangular lattice."""

    area: float
    eps: float = 0.0

    def __post_init__(self):
        if not self.area > 0:
            raise ParameterDomainError(f"inverse density A must be positive, got {self.area}")

    @property
    def delta(self) -> float:
        return math.exp(self.eps)

    def mirrored(self) -> "LatticeState":
        return LatticeState(self.area, -self.eps)


def _product_minus_one(u: np.ndarray, eps: float) -> np.ndarray:
    return theta3(u * math.exp(-eps)) * theta3(u * math.exp(eps)) - 1.0


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
            k1 = math.sqrt(math.pi / c) * erfc(math.sqrt(cb))
            k3 = 2.0 * math.exp(-cb) / math.sqrt(b) - 2.0 * math.sqrt(c * math.pi) * erfc(
                math.sqrt(cb)
            )
            total += vs * (k1 - math.pi * k3)
        else:
            if not spec.needs_background:
                raise ParameterDomainError(
                    "unscreened Coulomb term has a divergent lattice sum without "
                    "a neutralizing background"
                )
            total += vs * (-2.0 * math.pi / math.sqrt(a) - 2.0 * math.pi / math.sqrt(b))
    return total


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
    a = q.split_point
    b = math.pi**2 / a
    front = pot.front_factor(spec, area)
    tail = front * _analytic_tail(spec, area, a, b)

    def direct(grid):
        contrib = (
            front
            * grid.weights
            * _product_minus_one(grid.nodes, eps)
            * pot.weight_direct(spec, area, grid.nodes)
        )
        return contrib.sum(), np.abs(contrib).sum()

    def transformed(grid):
        contrib = (
            front
            * grid.weights
            * _product_minus_one(grid.nodes, eps)
            * pot.weight_transformed(spec, area, grid.nodes)
        )
        return contrib.sum(), np.abs(contrib).sum()

    value = integrate([(a, direct), (b, transformed)], pot.tail_scale(spec, area), q)
    return value + tail


def energy_gap(
    spec: pot.PotentialSpec,
    area: float,
    eps: float,
    q: QuadratureConfig = DEFAULT_CONFIG,
) -> float:
    """E(A, e^eps) - E(A, 1), evaluated as a single integral.

    The aspect-dependent and square-lattice theta products are
    differenced inside the integrand through the factorised form
    ``T(u) (d- + d+) + d- d+`` of 1D theta differences
    ``d(+-) = T(u e^(+-eps)) - T(u)``, each summed termwise via expm1 over
    a series whose length grows with ``|eps|`` (see ``theta``).  The
    result keeps absolute accuracy near the machine level even when the
    gap itself is many orders below the energies.  Background and
    self-term constants cancel identically in the difference.
    """
    a = q.split_point
    b = math.pi**2 / a
    front = pot.front_factor(spec, area)

    def direct(grid):
        contrib = (
            front
            * grid.weights
            * theta_product_gap(grid.nodes, eps)
            * pot.weight_direct(spec, area, grid.nodes)
        )
        return contrib.sum(), np.abs(contrib).sum()

    def transformed(grid):
        contrib = (
            front
            * grid.weights
            * theta_product_gap(grid.nodes, eps)
            * pot.weight_transformed(spec, area, grid.nodes)
        )
        return contrib.sum(), np.abs(contrib).sum()

    return integrate([(a, direct), (b, transformed)], pot.tail_scale(spec, area), q)


# ---------------------------------------------------------------------------
# direct-sum oracle
# ---------------------------------------------------------------------------

_MAX_SHELLS = 200_000


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
    (kappa2 > 0) and Riesz with s > 2.
    """
    if cutoff_tol <= 0:
        raise ParameterDomainError("cutoff_tol must be positive")
    if spec.family == pot.YUKAWA_COULOMB:
        raise UnsupportedOracleError(
            "direct sum of the Yukawa-Coulomb potential is only conditionally "
            "convergent; use the background-regularized integral representation"
        )
    if spec.family == pot.RIESZ and spec.s <= 2.0:
        raise UnsupportedOracleError("direct Riesz sum requires s > 2")

    area, delta = state.area, state.delta
    dmin = math.sqrt(area) * min(math.sqrt(delta), 1.0 / math.sqrt(delta))

    if spec.family == pot.RIESZ:
        s = spec.s

        def shell_tail(m, r_min):
            # sum_{m'>=m} 8 m' (dmin m')^-s, bounded by the integral
            return 8.0 * dmin ** (-s) * m ** (2.0 - s) / (s - 2.0)

    else:
        if spec.family == pot.YUKAWA:
            strength, decay = spec.v, spec.kappa
        else:
            strength, decay = spec.v1 + spec.v2, spec.kappa2

        def shell_tail(m, r_min):
            # geometric envelope of 8 m' strength e^{-decay r}/r over shells
            ratio = math.exp(-decay * dmin)
            return 8.0 * m * strength * math.exp(-decay * r_min) / r_min / (1.0 - ratio) * 2.0

    acc = 0.0
    for m in range(1, _MAX_SHELLS + 1):
        j, k = _shell_points(m)
        r = np.sqrt(area * (j * j / delta + k * k * delta))
        acc += 0.5 * float(np.sum(pot.potential_value(spec, r)))
        if shell_tail(m + 1, dmin * (m + 1)) < cutoff_tol:
            return acc
    raise NonconvergenceError(
        f"direct lattice sum did not reach cutoff {cutoff_tol:g} within "
        f"{_MAX_SHELLS} shells"
    )
