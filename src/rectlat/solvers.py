"""Bracketed root finding (Brent 1973, *Algorithms for Minimization
without Derivatives*, ch. 4).

A root is bracketed by the caller or at the first sign change of a scan
(``sign_change``).  ``brentq`` is scipy's ``brentq`` (its C core
``Zeros/brentq.c`` plus the checks of the Python wrapper, which refuse a
bracket without a sign change), ported operation for operation: it
evaluates the same points in the same order and returns the same
doubles, without the cost of importing scipy.  A bounded minimum is the
``brentq`` root of a central difference (``minimize_scalar``).  A failure
is a refusal: ``BracketError`` for a bracket without a sign change,
``ParameterDomainError`` for a NaN function value, ``NonconvergenceError``
at the iteration cap.  Closed forms give a cubic's real roots, each
polished by Newton (``real_roots``), and a 2x2 condition number (``cond2``).
"""

from __future__ import annotations

import math
import sys

from .errors import BracketError, NonconvergenceError, check_domain

#: Smallest relative tolerance ``brentq`` accepts (scipy's ``_rtol``).
RTOL_MIN = 4 * sys.float_info.epsilon

_BRENT_MAXITER = 100

# The half step of ``minimize_scalar``'s central difference.
_MIN_STEP = 1e-5


def sign_change(f, points):
    """The first pair ``(a, b)`` of the iterable ``points`` where ``f(b)``
    has the sign opposite to ``f(a)``, the last nonzero, non-NaN value
    before it, or ``None``; ``f`` is not evaluated past ``b``."""
    a = fa = None
    for x in points:
        fx = f(x)
        if fx == 0 or math.isnan(fx):
            continue
        if fa is not None and (fx > 0) != (fa > 0):
            return a, x
        a, fa = x, fx
    return None


def brentq(f, a, b, xtol, rtol):
    """Root of ``f`` on [a, b], where ``f(a)`` and ``f(b)`` differ in sign,
    to within ``xtol + rtol * |x|``."""
    message = f"root search tolerances too small: xtol={xtol}, rtol={rtol}"
    check_domain(xtol > 0 and rtol >= RTOL_MIN, message)

    def call(x):
        fx = float(f(x))
        if math.isnan(fx):  # the message is formatted only for a refusal
            message = f"the function value at x={x} is NaN; the root search cannot continue"
            check_domain(not math.isnan(fx), message)
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise BracketError(
            f"f(a) and f(b) must have different signs: f({xpre})={fpre:.6e}, f({xcur})={fcur:.6e}"
        )
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                # in C the step is then an infinity or a NaN, which fails the
                # test below, so the iteration bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise NonconvergenceError(
        f"root search did not converge in {_BRENT_MAXITER} iterations (last x={xcur!r})"
    )


def minimize_scalar(f, lo, hi, xatol):
    """``(x, f(x))`` at a local minimum of ``f`` on [lo, hi]: the root, to
    within ``xatol``, of the central difference ``f(x + h) - f(x - h)``
    (h = 1e-5), or the end where that difference does not change sign.

    Each difference is one call of ``f`` on the list ``[x + h, x - h]``,
    which gives the two values; ``brentq`` reuses the two end differences.
    """
    check_domain(lo <= hi, f"lower bound {lo} exceeds upper bound {hi}", lo=lo, hi=hi)

    def slope(x):
        up, down = f([x + _MIN_STEP, x - _MIN_STEP])
        return up - down

    ends = {lo: slope(lo), hi: slope(hi)}
    if ends[lo] >= 0:
        x = lo
    elif ends[hi] <= 0:
        x = hi
    else:
        x = brentq(lambda t: ends[t] if t in ends else slope(t), lo, hi, xatol, RTOL_MIN)
    return x, f(x)


def _horner(poly, x):
    """``(value, derivative)`` at ``x`` of ``poly`` (highest degree first)."""
    f = df = 0.0
    for c in poly:
        df = df * x + f
        f = f * x + c
    return f, df


def _polished(poly, x):
    """``x`` after Newton steps on ``poly`` (highest degree first) for as
    long as they move it and shrink the residual, at most three."""
    f, df = _horner(poly, x)
    for _ in range(3):
        if df == 0.0:
            break
        x_new = x - f / df
        if x_new == x:
            break
        f_new, df_new = _horner(poly, x_new)
        if not abs(f_new) < abs(f):
            break
        x, f, df = x_new, f_new, df_new
    return x


def _quadratic_roots(a, b, c):
    """Roots of ``a x^2 + b x + c`` (a != 0) without cancellation; a complex
    pair whose imaginary part is below 1e-10 of its real part (or of 1) is
    taken as a double root at that real part, and any other is dropped."""
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        re = -b / (2.0 * a)
        im = math.sqrt(-disc) / (2.0 * abs(a))
        return [re, re] if im <= 1e-10 * max(1.0, abs(re)) else []
    w = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [w / a, c / w] if w != 0.0 else [0.0, 0.0]


def _cubic_roots(poly):
    """Real roots of the cubic ``poly`` (highest degree first).

    One root comes in closed form, polished: the largest of the
    trigonometric solution where all three are real and distinct, else
    Cardano's real root.  The other two are the roots of the quadratic
    left by dividing it out, from the constant term down when it is the
    larger root and from the leading term down otherwise, so that the
    division does not lose the smaller roots to cancellation.
    """
    a, b, c, d = poly
    # the depressed cubic t^3 + p t + q in t = x + b / 3a
    s = b / (3.0 * a)
    p = c / a - 3.0 * s * s
    q = (2.0 * s * s - c / a) * s + d / a
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc < 0.0:  # so p < 0
        m = 2.0 * math.sqrt(-p / 3.0)
        phi = math.acos(max(-1.0, min(1.0, 1.5 * q / (p * math.sqrt(-p / 3.0))))) / 3.0
        t = m * math.cos(phi if s < 0.0 else phi + 2.0 * math.pi / 3.0)
    else:
        w = -0.5 * q - math.copysign(math.sqrt(disc), q)
        u = math.copysign(abs(w) ** (1.0 / 3.0), w)
        t = u - p / (3.0 * u) if u != 0.0 else 0.0
    x1 = _polished(poly, t - s)
    if abs(a * x1**3) > abs(d):
        q0 = -d / x1
        q1 = (q0 - c) / x1
    else:
        q1 = b + a * x1
        q0 = c + q1 * x1
    return [x1, *(_polished(poly, x) for x in _quadratic_roots(a, q1, q0))]


def real_roots(a, b, c, d):
    """Real roots of ``a x^3 + b x^2 + c x + d`` in closed form, one degree
    lower for each leading zero coefficient, each polished by Newton; a
    near-real complex pair counts as a double root (``_quadratic_roots``)."""
    if a != 0.0:
        return _cubic_roots((a, b, c, d))
    if b != 0.0:
        return [_polished((b, c, d), x) for x in _quadratic_roots(b, c, d)]
    return [-d / c] if c != 0.0 else []


def cond2(m):
    """The 2-norm condition number of the 2x2 matrix ``m`` (two rows): the
    singular values are (sp +- sm) / 2, sp = hypot(a + d, b - c) and
    sm = hypot(a - d, b + c), and their product is |det|; inf at det = 0."""
    (a, b), (c, d) = m
    det = a * d - b * c
    s = math.hypot(a + d, b - c) + math.hypot(a - d, b + c)
    return s * s / (4.0 * abs(det)) if det else math.inf
