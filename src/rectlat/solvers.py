"""Bracketed root finding and bounded scalar minimization (Brent 1973,
*Algorithms for Minimization without Derivatives*, ch. 4 and 5).

A root is bracketed by the caller or at the first sign change of a scan
(``sign_change``).  ``brentq`` is scipy's ``brentq`` (its C core
``Zeros/brentq.c`` plus the checks of the Python wrapper, which refuse a
bracket without a sign change) and ``minimize_scalar`` is scipy's
``minimize_scalar(method="bounded")``, ported operation for operation:
they evaluate the same points in the same order and return the same
doubles, without the cost of importing scipy.  A failure is a refusal:
``BracketError`` for a bracket without a sign change, ``ValueError`` for
a NaN function value, ``NonconvergenceError`` at the iteration cap.
"""

from __future__ import annotations

import math
import sys

from .errors import BracketError, NonconvergenceError, check_domain

#: Smallest relative tolerance ``brentq`` accepts (scipy's ``_rtol``).
RTOL_MIN = 4 * sys.float_info.epsilon

_BRENT_MAXITER = 100
_BOUNDED_MAXFUN = 500


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
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; the root search cannot continue")
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
    """``(x, f(x))`` at a local minimum of ``f`` on [lo, hi], located to
    within ``xatol`` plus about sqrt(machine eps) * |x|."""
    check_domain(lo <= hi, f"lower bound {lo} exceeds upper bound {hi}", lo=lo, hi=hi)
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = lo, hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        if num >= _BOUNDED_MAXFUN:
            raise NonconvergenceError(
                f"bounded minimization did not converge in {_BOUNDED_MAXFUN} evaluations "
                f"(last x={xf!r})"
            )
        golden = True
        if abs(e) > tol1:
            # parabolic fit through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = -tol1 if xm < xf else tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e

        step = max(abs(rat), tol1)
        x = xf - step if rat < 0 else xf + step
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
    return xf, fx
