"""Admissible pair-potential families and their Gaussian-superposition measures.

Every potential here can be written as a superposition of Gaussians,

    f(r) = integral_0^inf exp(-r^2 t) rho(t) dt,

and the lattice-energy machinery only ever touches ``rho``.  Four
families are supported:

* ``riesz``: inverse power law ``r**-s``,
* ``yukawa``: screened Coulomb ``v * exp(-kappa r) / r``,
* ``double-yukawa``: difference of two Yukawa terms, normalized so the
  potential well sits at ``r = 1`` with depth ``-1``,
* ``yukawa-coulomb``: the limiting member with an unscreened attractive
  tail; its lattice sum only exists against a uniform neutralizing
  background, which the energy module applies.

For the normalized families the free parameters are ``(v1, kappa1)``
(double Yukawa) or ``kappa1`` alone (Yukawa-Coulomb); the remaining
parameters are derived once at construction and stored, since they sit
inside the innermost quadrature loops.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, asdict
from typing import Optional

import numpy as np

from .errors import ParameterDomainError, check_domain

RIESZ = "riesz"
YUKAWA = "yukawa"
DOUBLE_YUKAWA = "double-yukawa"
YUKAWA_COULOMB = "yukawa-coulomb"

FAMILIES = (RIESZ, YUKAWA, DOUBLE_YUKAWA, YUKAWA_COULOMB)

#: The free parameters of each family, in the order its constructor takes them.
FAMILY_PARAMETERS = {
    RIESZ: ("s",),
    YUKAWA: ("kappa", "v"),
    DOUBLE_YUKAWA: ("v1", "kappa1"),
    YUKAWA_COULOMB: ("kappa1",),
}

#: Construction-time bound on the relative normalization residuals.
NORMALIZATION_TOL = 1e-10

#: Largest repulsive screening kappa1 whose exp(kappa1) is a finite double.
KAPPA1_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class PotentialSpec:
    """One member of a potential family, with derived parameters attached."""

    family: str
    s: Optional[float] = None
    kappa: Optional[float] = None
    v: Optional[float] = None
    v1: Optional[float] = None
    kappa1: Optional[float] = None
    v2: Optional[float] = None
    kappa2: Optional[float] = None
    needs_background: bool = False
    norm_residuals: Optional[tuple] = None

    def to_json(self) -> str:
        data = {k: v for k, v in asdict(self).items() if v is not None and k != "norm_residuals"}
        if not data.get("needs_background"):
            data.pop("needs_background", None)
        return json.dumps(data)


def riesz(s: float) -> PotentialSpec:
    check_domain(s > 0, f"Riesz exponent must be positive, got {s}", s=s)
    return PotentialSpec(family=RIESZ, s=float(s))


def yukawa(kappa: float, v: float = 1.0) -> PotentialSpec:
    check_domain(kappa > 0, f"Yukawa screening kappa must be positive, got {kappa}", kappa=kappa)
    check_domain(v > 0, f"Yukawa strength v must be positive, got {v}", v=v)
    return PotentialSpec(family=YUKAWA, kappa=float(kappa), v=float(v))


def derive_double_yukawa(v1: float, kappa1: float) -> PotentialSpec:
    """Double Yukawa member with well at r=1 of depth -1.

    The admissible region is ``v1 > exp(kappa1)/kappa1``; on its border
    the screening of the attractive term vanishes.
    """
    _check_kappa1(kappa1)
    bound = math.exp(kappa1) / kappa1
    check_domain(
        v1 > bound,
        f"v1={v1} must exceed exp(kappa1)/kappa1={bound:.12g} for kappa1={kappa1}",
        v1=v1,
    )
    ek = math.exp(kappa1)
    kappa2 = (kappa1 * v1 - ek) / (v1 + ek)
    v2 = math.exp(kappa2 - kappa1) * (1.0 + kappa1) * v1 / (1.0 + kappa2)
    spec = PotentialSpec(
        family=DOUBLE_YUKAWA,
        v1=float(v1),
        kappa1=float(kappa1),
        v2=v2,
        kappa2=kappa2,
        norm_residuals=_normalization_residuals(v1, kappa1, v2, kappa2),
    )
    _check_normalization(spec)
    return spec


def derive_yukawa_coulomb(kappa1: float) -> PotentialSpec:
    """Yukawa-Coulomb member; the single parameter fixes both strengths."""
    _check_kappa1(kappa1)
    v1 = math.exp(kappa1) / kappa1
    v2 = (1.0 + kappa1) / kappa1
    spec = PotentialSpec(
        family=YUKAWA_COULOMB,
        v1=v1,
        kappa1=float(kappa1),
        v2=v2,
        kappa2=0.0,
        needs_background=True,
        norm_residuals=_normalization_residuals(v1, kappa1, v2, 0.0),
    )
    _check_normalization(spec)
    return spec


def make_spec(family, *, s=None, kappa=None, v=None, v1=None, kappa1=None) -> PotentialSpec:
    """The member of ``family`` with the given free parameters.

    The one place where user input (command-line flags, JSON) becomes a
    potential.  The Yukawa strength ``v`` defaults to 1; parameters the
    family does not use (see ``FAMILY_PARAMETERS``) are ignored.
    """
    build = {
        RIESZ: riesz,
        YUKAWA: yukawa,
        DOUBLE_YUKAWA: derive_double_yukawa,
        YUKAWA_COULOMB: derive_yukawa_coulomb,
    }.get(family)
    if build is None:
        raise ParameterDomainError(f"unknown potential family {family!r}")
    given = {"s": s, "kappa": kappa, "v": 1.0 if v is None else v, "v1": v1, "kappa1": kappa1}
    names = FAMILY_PARAMETERS[family]
    for name in names:
        if given[name] is None:
            raise ParameterDomainError(f"family {family} requires parameter {name}")
    return build(*(given[name] for name in names))


def _check_kappa1(kappa1):
    """Refuse a repulsive screening outside (0, KAPPA1_MAX] before any exp."""
    message = f"kappa1 must be positive and at most {KAPPA1_MAX:.12g}, got {kappa1}"
    check_domain(0 < kappa1 <= KAPPA1_MAX, message, kappa1=kappa1)


def _normalization_residuals(v1, k1, v2, k2):
    """``f(1)+1`` and ``f'(1)``, each relative to the size of the two Yukawa
    terms it is the difference of: at large v1 roundoff alone reaches
    machine epsilon times v1 exp(-k1)."""
    t1, t2 = v1 * math.exp(-k1), v2 * math.exp(-k2)
    # analytic derivative of v*exp(-k r)/r at r=1: -v exp(-k) (k + 1)
    d1, d2 = t1 * (k1 + 1.0), t2 * (k2 + 1.0)
    return ((t1 - t2 + 1.0) / (t1 + t2), (d2 - d1) / (d1 + d2))


def _check_normalization(spec: PotentialSpec):
    r1, r2 = spec.norm_residuals
    check_domain(
        abs(r1) <= NORMALIZATION_TOL and abs(r2) <= NORMALIZATION_TOL,
        f"relative normalization residuals too large for {spec.family}: "
        f"f(1)+1={r1:.3e}, f'(1)={r2:.3e}",
    )


def potential_value(spec: PotentialSpec, r):
    """Point value f(r); the Yukawa-Coulomb case returns the bare pair term."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ParameterDomainError("separation r must be positive")
    if spec.family == RIESZ:
        return r ** (-spec.s)
    if spec.family == YUKAWA:
        return spec.v * np.exp(-spec.kappa * r) / r
    if spec.family == DOUBLE_YUKAWA:
        return (spec.v1 * np.exp(-spec.kappa1 * r) - spec.v2 * np.exp(-spec.kappa2 * r)) / r
    if spec.family == YUKAWA_COULOMB:
        return (spec.v1 * np.exp(-spec.kappa1 * r) - spec.v2) / r
    raise ParameterDomainError(f"unknown family {spec.family!r}")


# ---------------------------------------------------------------------------
# quadrature-facing helpers
# ---------------------------------------------------------------------------


def laplace_pairs(spec: PotentialSpec):
    """Signed (strength, kappa) pairs of the exponential measure terms."""
    if spec.family == YUKAWA:
        return ((spec.v, spec.kappa),)
    if spec.family in (DOUBLE_YUKAWA, YUKAWA_COULOMB):
        return ((spec.v1, spec.kappa1), (-spec.v2, spec.kappa2))
    raise ParameterDomainError(f"{spec.family} has no finite exponential-term list")


def front_factor(spec: PotentialSpec, area: float) -> float:
    """Prefactor of the reduced integrals (the 1/2 of the energy included)."""
    if spec.family == RIESZ:
        return 0.5 / (math.gamma(spec.s / 2.0) * area ** (spec.s / 2.0))
    return 0.5 / math.sqrt(math.pi * area)


def tail_scale(spec: PotentialSpec, area: float) -> float:
    """Decay-shaping scale p = max(kappa^2 A / 4) passed to the grid builder."""
    if spec.family == RIESZ:
        return 0.0
    return max(k * k for _, k in laplace_pairs(spec)) * area / 4.0


def weight_direct(spec, area, u: np.ndarray, root=None) -> np.ndarray:
    """Measure weight against a self-transforming bracket, direct side.

    For exponential families this is ``sum_i s_i v_i exp(-p_i/u) / sqrt(u)``
    with ``p_i = kappa_i^2 A / 4``; the double-Yukawa pair is combined in a
    cancellation-free form so that nearly equal strengths (the large-v1
    regime) lose no precision.  ``root``, when given, is ``sqrt(u)``.

    ``spec`` and ``area`` may be sequences, points of one family: a row per
    point (of two or more), one broadcast over columns of their parameters,
    each row bit for bit the point's own.
    """
    return _weights(spec, area, u, root, False)


def weight_transformed(spec, area, u: np.ndarray, root=None) -> np.ndarray:
    """Measure weight on the (0, split) part mapped through t -> pi^2/t;
    ``root``, when given, is ``sqrt(u)``.  ``spec`` and ``area`` may be
    sequences, one row per point, as in ``weight_direct``."""
    return _weights(spec, area, u, root, True)


def _weights(spec, area, u, root, transformed):
    specs, areas = ((spec,), (area,)) if isinstance(spec, PotentialSpec) else (spec, area)
    if specs[0].family == RIESZ:  # float exponents keep numpy's scalar-power shortcuts
        w = [math.pi ** (s.s - 1.0) * u ** (-s.s / 2.0) if transformed else u ** (s.s / 2.0 - 1.0)
             for s in specs]
        return w[0] if len(w) == 1 else np.stack(w)
    # each point's floats as for the point alone (``_rates``), several as columns
    scale = 4.0 * math.pi**2 if transformed else 4.0
    rsq = np.sqrt(u) if root is None else root
    if len(specs) == 1:
        cols = _rates(specs[0], areas[0], scale)
    else:
        cols = np.array([_rates(s, a, scale) for s, a in zip(specs, areas)]).T[..., None]
    if specs[0].family == YUKAWA:
        return cols[1] * np.exp(cols[0] * u if transformed else cols[0] / u) / rsq
    p2, dp, v1, gap = cols
    if transformed:
        return np.exp(p2 * u) * (v1 * np.expm1(dp * u) + gap) / rsq
    return np.exp(p2 / u) * (v1 * np.expm1(dp / u) + gap) / rsq


def _rates(s, a, scale):  # with p = kappa^2 A / scale: (-p2, p2 - p1, v1, v1 - v2), Yukawa (-p, v)
    if s.family == YUKAWA:
        return -(s.kappa**2 * a / scale), s.v
    p1, p2 = s.kappa1**2 * a / scale, s.kappa2**2 * a / scale
    return -p2, p2 - p1, s.v1, _strength_gap(s)


def _strength_gap(spec: PotentialSpec) -> float:
    """v1 - v2 without cancellation; vanishes linearly as kappa2 -> kappa1."""
    dk = spec.kappa2 - spec.kappa1
    return spec.v1 * (dk - (1.0 + spec.kappa1) * math.expm1(dk)) / (1.0 + spec.kappa2)
