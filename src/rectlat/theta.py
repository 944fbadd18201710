"""Third Jacobi theta function on the real nome axis, with t-derivatives.

Everything here works with ``T(t) = theta3(exp(-t)) = sum_j exp(-j^2 t)``
and its derivatives ``T^(n)(t) = sum_j (-j^2)^n exp(-j^2 t)`` for
``n <= 4``, on ``t in (0, inf)``.

For ``t >= pi`` the defining series converges after a handful of terms.
For ``t < pi`` evaluation goes through the modular identity::

    T(t) = sqrt(pi/t) * T(pi^2/t)

whose right-hand side again needs only a few terms.  Derivatives on the
small-``t`` branch are obtained analytically (Leibniz on the prefactor,
Faa di Bruno through ``u = pi^2/t``), never by numerical differencing:
downstream integrands multiply them by powers of ``t`` up to ``t^4`` and
would amplify differencing noise.

The brackets the energy integrals use (the theta product's
eps-coefficients and its gap) obey ``B(u) = (pi/u) B(pi^2/u)``;
``modular_reduce`` applies that, so their series only see ``u >= pi``.

The module also evaluates the symmetric product
``P(u, e) = T(u exp(-e)) * T(u exp(e))``, its excess ``P - 1`` over the
constant mode, and, in a cancellation-free form, its deviation from the
square-lattice value ``P(u, 0)``.  That gap
factorises into 1D theta differences ``d(+-) = T(u e^(+-e)) - T(u)``::

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

_J = np.arange(1, _JMAX + 1)
_JSQ = (_J * _J).astype(float)


def _derivs_direct(t: np.ndarray, nmax: int) -> list[np.ndarray]:
    """Series evaluation of T and derivatives; valid for t >= ~1."""
    ex = np.exp(-np.multiply.outer(t, _JSQ))
    out = [1.0 + 2.0 * ex.sum(axis=-1)]
    for n in range(1, nmax + 1):
        out.append(2.0 * np.sum((-_JSQ) ** n * ex, axis=-1))
    return out


def _derivs_transformed(t: np.ndarray, nmax: int) -> list[np.ndarray]:
    """Analytic derivatives of sqrt(pi/t)*T(pi^2/t); valid for t < pi."""
    pi2 = math.pi**2
    u = pi2 / t
    tu = _derivs_direct(u, nmax)

    # chain-rule derivatives of u(t) = pi^2/t
    u1 = -pi2 / t**2
    h = [tu[0]]
    if nmax >= 1:
        h.append(tu[1] * u1)
    if nmax >= 2:
        u2 = 2 * pi2 / t**3
        h.append(tu[2] * u1**2 + tu[1] * u2)
    if nmax >= 3:
        u3 = -6 * pi2 / t**4
        h.append(tu[3] * u1**3 + 3 * tu[2] * u1 * u2 + tu[1] * u3)
    if nmax >= 4:
        u4 = 24 * pi2 / t**5
        h.append(
            tu[4] * u1**4
            + 6 * tu[3] * u1**2 * u2
            + tu[2] * (4 * u1 * u3 + 3 * u2**2)
            + tu[1] * u4
        )

    # Leibniz against the prefactor sqrt(pi) * t^(-1/2)
    root = math.sqrt(math.pi)
    p = [
        t**-0.5,
        -0.5 * t**-1.5,
        0.75 * t**-2.5,
        -1.875 * t**-3.5,
        6.5625 * t**-4.5,
    ]
    binom = ((1,), (1, 1), (1, 2, 1), (1, 3, 3, 1), (1, 4, 6, 4, 1))
    out = []
    for n in range(nmax + 1):
        acc = np.zeros_like(t)
        for k in range(n + 1):
            acc = acc + binom[n][k] * p[k] * h[n - k]
        out.append(root * acc)
    return out


def theta3_derivs(t, nmax: int = 4) -> list[np.ndarray]:
    """T(t) and its first ``nmax`` t-derivatives, elementwise on ``t``."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("theta argument t must be positive")
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    out = [np.empty_like(t) for _ in range(nmax + 1)]
    big = t >= SPLIT
    if big.any():
        vals = _derivs_direct(t[big], nmax)
        for n in range(nmax + 1):
            out[n][big] = vals[n]
    if (~big).any():
        vals = _derivs_transformed(t[~big], nmax)
        for n in range(nmax + 1):
            out[n][~big] = vals[n]
    if scalar:
        out = [float(v[0]) for v in out]
    return out


def theta3(t):
    """theta3(exp(-t)) for t > 0; scalar in, scalar out."""
    return theta3_derivs(t, nmax=0)[0]


def theta3_deriv(t, n: int):
    """n-th t-derivative of theta3(exp(-t)), 0 <= n <= 4."""
    if not isinstance(n, (int, np.integer)) or not 0 <= n <= 4:
        raise ValueError(f"derivative order must be an integer in 0..4, got {n!r}")
    return theta3_derivs(t, nmax=n)[n]


def theta_product(u, eps: float):
    """P(u, eps) = T(u e^-eps) * T(u e^eps), elementwise on ``u``."""
    u = np.asarray(u, dtype=float)
    return theta3(u * math.exp(-eps)) * theta3(u * math.exp(eps))


def _theta_excess(t: np.ndarray) -> np.ndarray:
    """T(t) - 1: the series without its leading 1 for t >= pi, where T is
    within 0.09 of 1; the difference is harmless below that."""
    out = np.empty_like(t)
    big = t >= SPLIT
    out[big] = 2.0 * np.exp(-np.multiply.outer(t[big], _JSQ)).sum(axis=-1)
    out[~big] = theta3_derivs(t[~big], nmax=0)[0] - 1.0
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
    it rescales like the product, P(t, eps) = (pi/t) P(pi^2/t, eps)."""
    return modular_reduce(u, lambda v: _pair_gap_direct(v, eps))
