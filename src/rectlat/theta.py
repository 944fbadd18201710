"""Third Jacobi theta function on the real nome axis, with t-derivatives.

Everything here works with ``T(t) = theta3(exp(-t)) = sum_j exp(-j^2 t)``
on ``t in (0, inf)``, and its derivatives
``T^(n)(t) = sum_j (-j^2)^n exp(-j^2 t)`` for ``n <= 4`` on ``t >= pi``,
where the defining series converges after a handful of terms.  ``T``
itself is also needed below pi (the energy's theta product at
``u e^-eps``), where it goes through the modular identity::

    T(t) = sqrt(pi/t) * T(pi^2/t)

whose right-hand side again needs only a few terms.

The brackets the energy integrals use (the theta product's
eps-coefficients and its gap) obey ``B(u) = (pi/u) B(pi^2/u)``;
``modular_reduce`` applies that, so their series only see ``u >= pi``.

The module also evaluates the excess ``P - 1`` of the symmetric product
``P(u, e) = T(u exp(-e)) * T(u exp(e))`` over the constant mode, and, in
a cancellation-free form, its deviation from the square-lattice value
``P(u, 0)``.  That gap factorises into 1D theta differences
``d(+-) = T(u e^(+-e)) - T(u)``::

    P(u, e) - P(u, 0) = T(u) (d- + d+) + d- d+

Each difference is summed termwise as ``e^(-j^2 u) expm1(-j^2 u expm1(+-e))``
and the sum ``d- + d+`` per term as
``e^(-j^2 u) [expm1(x + y) - expm1(x) expm1(y)]`` with
``x + y = -j^2 u 4 sinh^2(e/2)``, so no first-order cancellation is left.
The series length grows with ``|e|`` (``j^2 pi e^-|e| >= 40``); it is 8
terms up to ``|e| = ln 4``.
"""

from __future__ import annotations

import math

import numpy as np

#: Branch point between the direct and modular-transformed series.
SPLIT = math.pi

# Term counts: every direct sum below is evaluated at an argument >= pi
# (by construction of the modular branch), where exp(-36*pi) ~ 1e-49
# already drowns below double precision even against j^8 weights.
_JMAX = 6
_JMAX_PAIR = 8

#: Largest ``|eps|`` of ``theta_product_gap``: the pair-gap series takes
#: ``ceil(sqrt(40 e^|eps| / pi))`` terms per node, 1,440 at this bound.
GAP_EPS_BOUND = 12.0

_J = np.arange(1, _JMAX + 1)
_JSQ = (_J * _J).astype(float)


def theta3_derivs(t, nmax: int = 4) -> list[np.ndarray]:
    """T(t) and its first ``nmax`` t-derivatives, elementwise on ``t >= pi``.

    Smaller ``t`` is refused: the brackets built from these derivatives
    reach it only through ``modular_reduce``, which maps it above pi."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= SPLIT):
        raise ValueError("theta derivatives take t >= pi; map smaller t through modular_reduce")
    ex = np.exp(-np.multiply.outer(np.atleast_1d(t), _JSQ))
    out = [1.0 + 2.0 * ex.sum(axis=-1)]
    out += [2.0 * np.sum((-_JSQ) ** n * ex, axis=-1) for n in range(1, nmax + 1)]
    return [float(v[0]) for v in out] if t.ndim == 0 else out


def theta3(t):
    """theta3(exp(-t)) for t > 0, elementwise; scalar in, scalar out."""
    t = np.asarray(t, dtype=float)
    if not np.all(t > 0.0):
        raise ValueError("theta argument t must be positive")
    out = 1.0 + _theta_excess(np.atleast_1d(t))
    return float(out[0]) if t.ndim == 0 else out


def theta3_deriv(t, n: int):
    """n-th t-derivative of theta3(exp(-t)), 0 <= n <= 4, at t >= pi."""
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= 4:
        raise ValueError(f"derivative order must be an integer in 0..4, got {n!r}")
    return theta3_derivs(t, nmax=n)[n]


def _excess_direct(t: np.ndarray) -> np.ndarray:
    return 2.0 * np.exp(-np.multiply.outer(t, _JSQ)).sum(axis=-1)


def _theta_excess(t: np.ndarray) -> np.ndarray:
    """T(t) - 1: the series without its leading 1 for t >= pi, where T is
    within 0.09 of 1; below pi the modular identity, where the difference
    is harmless."""
    out = np.empty_like(t)
    big = t >= SPLIT
    out[big] = _excess_direct(t[big])
    small = t[~big]
    theta = 1.0 + _excess_direct(math.pi**2 / small)
    out[~big] = math.sqrt(math.pi) * (small**-0.5 * theta) - 1.0
    return out


def theta_product_excess(u, eps: float):
    """P(u, eps) - 1 on an array ``u``, as ``a + b + a b`` from the excesses
    ``a, b`` of the two factors: the difference ``P - 1`` keeps only an
    absolute accuracy of about 1e-16, which a measure weight growing like
    a power of ``u`` (Riesz) would amplify far beyond the value."""
    u = np.asarray(u, dtype=float)
    a = _theta_excess(u * math.exp(-eps))
    b = _theta_excess(u * math.exp(eps))
    return a + b + a * b


def _theta_step(s: np.ndarray, base: np.ndarray, c: float):
    """Termwise e^{-s(1+c)} - e^{-s} and its near-mask: expm1 keeps accuracy
    where the exponents nearly coincide; the plain difference is already
    stable (and overflow-safe) once they are far apart."""
    arg = -s * c
    near = np.abs(arg) < 1.0
    em = np.expm1(np.where(near, arg, 0.0))
    return np.where(near, base * em, np.exp(-s * (1.0 + c)) - base), em, near


def _pair_gap_direct(u: np.ndarray, eps: float) -> np.ndarray:
    """P(u,eps) - P(u,0) = T(u) (d- + d+) + d- d+ without cancellation; u >= ~1."""
    # the smallest series argument is u e^-|eps| >= pi e^-|eps|, and
    # j^2 pi e^-|eps| >= 40 drops the tail below double precision
    jmax = max(_JMAX_PAIR, math.ceil(math.sqrt(40.0 * math.exp(abs(eps)) / math.pi)))
    s = np.multiply.outer(np.arange(1, jmax + 1, dtype=float) ** 2, u)
    base = np.exp(-s)
    dm, em, near_m = _theta_step(s, base, math.expm1(-eps))
    dp, ep, near_p = _theta_step(s, base, math.expm1(eps))
    # d- + d+ per term: e^x + e^y - 2 = expm1(x + y) - expm1(x) expm1(y),
    # with x + y = -s 4 sinh^2(eps/2) free of the first-order cancellation
    both = near_m & near_p
    exy = np.expm1(-s * (4.0 * math.sinh(0.5 * eps) ** 2))
    dsum = np.where(both, base * (exy - em * ep), dm + dp)
    theta = 1.0 + 2.0 * base.sum(axis=0)
    d_minus = 2.0 * dm.sum(axis=0)
    d_plus = 2.0 * dp.sum(axis=0)
    return theta * (2.0 * dsum.sum(axis=0)) + d_minus * d_plus


def modular_reduce(u, direct_fn):
    """A bracket ``B(u) = (pi/u) B(pi^2/u)`` from its series ``direct_fn(v)``,
    called only at ``v >= pi``; ``direct_fn`` may return a stack (last
    axis = nodes).  The result is a fresh C-contiguous array (a float for
    one bracket at a scalar ``u``)."""
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0.0):
        raise ValueError("theta argument must be positive")
    scalar = u.ndim == 0
    u = np.atleast_1d(u)
    big = u >= SPLIT
    parts = []
    if big.any() or u.size == 0:  # an empty u gives an empty result of the right shape
        parts.append((big, direct_fn(u[big])))
    if not big.all():
        us = u[~big]
        parts.append((~big, (math.pi / us) * direct_fn(math.pi**2 / us)))
    lead = parts[0][1].shape[:-1]
    out = np.empty(lead + u.shape)
    for mask, vals in parts:
        out[..., mask] = vals
    if scalar:
        return out[..., 0] if lead else float(out[0])
    return out


def theta_product_gap(u, eps: float):
    """P(u, eps) - P(u, 0), accurate in a relative sense even for tiny eps;
    it rescales like the product, P(t, eps) = (pi/t) P(pi^2/t, eps).
    An ``eps`` that is not finite or above ``GAP_EPS_BOUND`` is refused."""
    if not abs(eps) <= GAP_EPS_BOUND:
        raise ValueError(f"|eps| must be finite and at most {GAP_EPS_BOUND}, got {eps}")
    return modular_reduce(u, lambda v: _pair_gap_direct(v, eps))
