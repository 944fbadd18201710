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
Each node's series is cut at its own last significant term: term j >= 2
enters where it is above e^-45 of the node's leading term,
``(j^2 - 1) u e^-|e| < 45``.  At ``|e| = ln 4`` that is 7 terms at
``u = pi`` and one from ``u = 60`` on; at ``|e| = 12``, 1,526 at
``u = pi``.  ``theta_product_gap`` takes a stack of ``e`` in one call, and
each row is bit for bit the row its ``e`` gives alone.
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

#: Largest ``|eps|`` of ``theta_product_gap``: the pair-gap series of a
#: node at u = pi takes ``sqrt(45 e^|eps| / pi + 1)`` terms, 1,526 at this
#: bound, and fewer at larger u.
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


#: Term j >= 2 of a pair-gap row enters at a node only where it is above
#: e^-45 of the node's leading term: (j^2 - 1) v e^-|eps| < 45, computed
#: as j^2 v < 45 e^|eps| + v.
_PAIR_CUT = 45.0

#: Rows of one block of the pair-gap kernel: a stack of eps is evaluated
#: this many rows at a time, so its running sums stay a few rows in size.
_ROW_BLOCK = 16

#: Most (row, term, node) triples of one pass of the pair-gap kernel (one
#: term at least), so its temporaries keep their size at any eps.
_PASS_TRIPLES = 4096

# -j^2 up to past the last term any |eps| <= GAP_EPS_BOUND takes (at v = pi)
_PAIR_NEG_JSQ = -(
    np.arange(1.0, math.sqrt(_PAIR_CUT * math.exp(GAP_EPS_BOUND) / math.pi + 1.0) + 3) ** 2
)

# Exponents are clamped at -700: an exp within 8 of the bottom of the
# normal range, or below it, costs 5 to 150 times a normal one.  It reads
# e^-700 = 9.9e-305 instead, which reaches only sums below 1e-287.
_EXP_FLOOR = -700.0


def _pair_gap_rows(v: np.ndarray, theta: np.ndarray, eps: list, lim: list) -> np.ndarray:
    """P(v, e) - P(v, 0) = T(v) (d- + d+) + d- d+ for each ``e`` in ``eps``,
    without cancellation, from T(v) = ``theta`` on ascending ``v >= pi``;
    ``lim`` holds each row's 45 e^|e|, falling.

    Term j of a row enters at the nodes with j^2 v < lim + v, a prefix of
    ``v``, and the rows it enters a prefix of ``eps``.  A pass takes the
    terms from j0 on the prefixes of j0, about ``_PASS_TRIPLES`` (row,
    term, node) triples, and masks each later term to its own nodes: a
    masked term has the exponent 0, so both its differences are 0.  Each
    pass adds its terms onto the running sums in order, so every sum is
    the sequential sum of its own row's terms, however the passes fall."""
    nodes = v.size
    v0 = float(v[0])
    reach = -(np.array(lim)[:, None] + v)  # term j enters where -j^2 v > reach
    # per side (-, +): each term e^{-s e^-+e} - e^{-s}, with c = expm1(-+e);
    # e^-+e is its own exp, as 1 + c keeps only 1e-16 / e^-12 at e = 12
    c = [[math.expm1(-e) for e in eps], [math.expm1(e) for e in eps]]
    shrunk = np.array([[math.exp(-e) for e in eps], [math.exp(e) for e in eps]])[..., None]
    last = int(math.sqrt(lim[0] / v0 + 1.0))  # about the last term of row 0 at node 0
    total = None  # sums over j of: d-, d+, d- + d+
    j0 = 1
    while True:
        rows = sum(j0 * j0 * v0 < x + v0 for x in lim)
        if rows == 0:
            break
        n = nodes if j0 == 1 else int(np.count_nonzero(j0 * j0 * v < lim[0] + v))
        size = max(1, min(_PASS_TRIPLES // (rows * n), last + 1 - j0))
        j = slice(j0 - 1, j0 - 1 + size)
        s0 = -j0 * j0 * v0
        j0 += size
        s_neg = _PAIR_NEG_JSQ[j, None, None, None] * v[:n]  # -s, s = j^2 v
        s_neg = np.where(s_neg > reach[:rows, :n], s_neg, 0.0)
        base = np.exp(np.maximum(s_neg, _EXP_FLOOR))
        # after the first pass the running sums lead the terms, so each sum
        # adds its terms in order
        lead = 0 if total is None else 1
        terms = np.empty((lead + size, 3, rows, n))
        if lead:
            terms[0] = total[:, :rows, :n]
        t = terms[lead:]
        d = t[:, :2]
        np.multiply(s_neg, shrunk[:, :rows], out=d)
        np.maximum(d, _EXP_FLOOR, out=d)
        np.exp(d, out=d)
        d -= base  # stable once the exponents are far apart
        # expm1 keeps accuracy where they nearly coincide, |s c| < 1: a prefix
        # of the terms and of the nodes, as the rounded |s c| grows with j, v
        # and |c| (a masked term, s = 0, reads 0 on either branch)
        c_min = min(abs(x) for side in c for x in side[:rows])
        near_any = abs(s0 * c_min) < 1.0
        if near_any:
            j_near = np.count_nonzero(np.abs(_PAIR_NEG_JSQ[j] * v0 * c_min) < 1.0)
            v_near = np.count_nonzero(np.abs(_PAIR_NEG_JSQ[j.start] * v[:n] * c_min) < 1.0)
            pre = (slice(int(j_near)), Ellipsis, slice(int(v_near)))
            arg = s_neg[pre] * np.array(c)[:, :rows, None]
            near = np.abs(arg) < 1.0
            em = np.expm1(np.where(near, arg, 0.0))
            np.copyto(d[pre], base[pre] * em, where=near)
        np.add(d[:, 0], d[:, 1], out=t[:, 2])
        if near_any:
            # d- + d+ per term: e^x + e^y - 2 = expm1(x + y) - expm1(x) expm1(y),
            # with x + y = -s 4 sinh^2(e/2) free of the first-order cancellation
            sum_xy = np.array([4.0 * math.sinh(0.5 * e) ** 2 for e in eps[:rows]])[:, None]
            exy = np.expm1(s_neg[pre][:, 0] * sum_xy)
            both = near[:, 0] & near[:, 1]
            np.copyto(t[pre][:, 2], base[pre][:, 0] * (exy - em[:, 0] * em[:, 1]), where=both)
        if lead:
            np.add.reduce(terms, axis=0, out=total[:, :rows, :n])
        else:
            total = np.add.reduce(terms, axis=0)
    total *= 2.0
    return theta * total[2] + total[0] * total[1]


def _pair_gap_direct(v: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """The pair-gap rows, one per entry of ``eps``, at ``v >= pi``: on
    ascending nodes, by falling ``|eps|``, ``_ROW_BLOCK`` rows at a time."""
    out = np.empty((eps.size, v.size))
    if v.size == 0:
        return out
    nodes = None if np.all(v[1:] >= v[:-1]) else np.argsort(v, kind="stable")
    vs = v if nodes is None else v[nodes]
    theta = 1.0 + _excess_direct(vs)
    eps = eps.tolist()
    lim = [_PAIR_CUT * math.exp(abs(e)) for e in eps]
    order = sorted(range(len(eps)), key=lim.__getitem__, reverse=True)
    for lo in range(0, len(eps), _ROW_BLOCK):
        idx = order[lo : lo + _ROW_BLOCK]
        rows = _pair_gap_rows(vs, theta, [eps[i] for i in idx], [lim[i] for i in idx])
        if nodes is None:
            out[idx] = rows
        else:
            out[np.ix_(idx, nodes)] = rows
    return out


def modular_reduce(u, direct_fn):
    """A bracket ``B(u) = (pi/u) B(pi^2/u)`` from its series ``direct_fn(v)``,
    called only at ``v >= pi``; ``direct_fn`` may return a stack (last
    axis = nodes).  The result is a fresh C-contiguous array (a float for
    one bracket at a scalar ``u``)."""
    u = np.asarray(u, dtype=float)
    if not np.all(u > 0.0):  # NaN too
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


def theta_product_gap(u, eps):
    """P(u, eps) - P(u, 0), accurate in a relative sense even for tiny eps;
    it rescales like the product, P(t, eps) = (pi/t) P(pi^2/t, eps).

    ``eps`` is a scalar or a 1-D array; an array gives one row per entry
    (leading axis), each bit for bit the row its entry gives alone.  The
    series of each row is cut at each node after its last term above
    e^-45 of the node's leading term.  An entry that is not finite or
    above ``GAP_EPS_BOUND`` in size is refused before any array is built.
    """
    rows = np.atleast_1d(np.asarray(eps, dtype=float))
    if rows.ndim > 1:
        raise ValueError(f"eps must be a scalar or a 1-D array, got shape {rows.shape}")
    off = ~(np.abs(rows) <= GAP_EPS_BOUND)
    if off.any():
        raise ValueError(f"|eps| must be finite and at most {GAP_EPS_BOUND}, got {rows[off][0]}")
    gap = modular_reduce(u, lambda v: _pair_gap_direct(v, rows))
    if np.ndim(eps):
        return gap
    return float(gap[0]) if np.ndim(u) == 0 else gap[0]
