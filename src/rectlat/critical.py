"""Locating and classifying structural transitions.

Second-order transitions are roots of the curvature coefficient E2(A);
their order is decided by the sign of E4 there.  Tricritical points are
joint roots of (E2, E4) in the (density, family-parameter) plane.  Where
E4 < 0 the transition is first order and is located as the density where
the square-lattice branch and the symmetry-broken branch exchange
stability; the branch energies are compared through the even expansion
of the energy gap, which stays numerically meaningful at gap sizes far
below double-precision energy differences.

Solvers are plain bracketed Brent iterations (1D) and a damped Newton
with finite-difference Jacobian (2D), with a nested 1D fallback.  All of
them consume the quadrature-backed coefficient evaluators, so a solve is
a few hundred vectorized integrand evaluations.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from . import potentials as pot
from .energy import LatticeState, energy_gap, lattice_energy
from .errors import (
    BracketError,
    ClassificationError,
    NonconvergenceError,
    ParameterDomainError,
    SearchFailureError,
)
from .expansion import curvature_bracket, e2_closed, e4_closed, landau_series
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate

#: Largest log-aspect the truncated expansion of the gap is trusted for.
SERIES_EPS_MAX = 0.15

#: Default search cap for aspect minimization (delta <= 4).
EPS_CAP = math.log(4.0)

# The bounded minimiser stops within about sqrt(machine eps) * x of a bound,
# so a minimum pinned at EPS_CAP reads ln 4 - 2e-8, not ln 4.
_CAP_RTOL = 1e-6

_BRENT_RTOL = 4 * np.finfo(float).eps


class PoorFitWarning(UserWarning):
    """Raised (as a warning) when a power-law fit falls below r^2 = 0.999."""


@dataclass(frozen=True)
class TransitionPoint:
    a_star: float
    order: str  # "second" | "first"
    e2_residual: float
    e4_at_a_star: float
    bracket: tuple


@dataclass(frozen=True)
class TricriticalPoint:
    a_t: float
    param_t: float  # v1 (double Yukawa) or kappa1 (Yukawa-Coulomb)
    residuals: tuple
    jacobian_condition: float


@dataclass(frozen=True)
class FitResult:
    beta: float
    amplitude: float
    r_squared: float
    window: tuple


# ---------------------------------------------------------------------------
# aspect minimization
# ---------------------------------------------------------------------------


def _gap_coefficients(spec, area, q):
    """Even gap coefficients (c2, c4, c6, c8) in x = eps^2.

    The eighth-order term is below the asymptotic statements' resolution
    but keeps the minimizer accurate across the fit windows, where the
    sixth-order truncation already biases the broken-branch location.
    """
    rows = landau_series(spec, area, q)
    return rows[2], rows[4], rows[6], rows[8]


def _stationary_points(coeffs):
    """Positive stationary points of sum_k c_{2k} x^k in x = eps^2,
    as (x, value, curvature) triples sorted by x."""
    c2, c4, c6, c8 = coeffs
    # roots of c2 + 2 c4 x + 3 c6 x^2 + 4 c8 x^3
    poly = np.array([4.0 * c8, 3.0 * c6, 2.0 * c4, c2])
    nz = np.flatnonzero(poly != 0.0)
    if nz.size == 0:
        return []
    roots = np.roots(poly[nz[0] :]) if nz[0] < 3 else np.array([])
    pts = []
    for r in sorted(roots, key=lambda z: z.real):
        if abs(r.imag) > 1e-10 * max(1.0, abs(r.real)) or not r.real > 0.0:
            continue
        x = float(r.real)
        val = (((c8 * x + c6) * x + c4) * x + c2) * x
        curv = 2.0 * c4 + 6.0 * c6 * x + 12.0 * c8 * x**2
        pts.append((x, val, curv))
    return pts


def _series_branch_minimum(coeffs, x_floor=0.0):
    """Deepest stationary minimum with x > x_floor, or None."""
    best = None
    for x, val, curv in _stationary_points(coeffs):
        if x > x_floor and curv > 0.0 and (best is None or val < best[1]):
            best = (x, val)
    return best


def _direct_minimum(spec, area, q, lo, hi, n_scan=129):
    """Coarse scan plus bounded refinement of the energy gap over eps."""
    grid = np.linspace(lo, hi, n_scan)
    vals = np.array([energy_gap(spec, area, e, q) for e in grid])
    i = int(np.argmin(vals))
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, n_scan - 1)]
    if left == right:
        return grid[i], vals[i]
    res = minimize_scalar(
        lambda e: energy_gap(spec, area, e, q),
        bounds=(left, right),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), float(res.fun)


def minimize_aspect(
    spec,
    area: float,
    q: QuadratureConfig = DEFAULT_CONFIG,
    eps_floor: float = 0.0,
    eps_cap: float = EPS_CAP,
):
    """Minimize E(A, e^eps) over eps in [eps_floor, eps_cap].

    Returns ``(eps_min, energy)``.  With ``eps_floor = 0`` this is the
    global minimum on the canonical branch (eps >= 0); a positive floor
    separates the symmetry-broken branch from the square one when
    scanning for first-order coexistence.
    """
    if eps_floor < 0 or eps_cap <= eps_floor:
        raise ParameterDomainError("need 0 <= eps_floor < eps_cap")

    coeffs = _gap_coefficients(spec, area, q)
    best = _series_branch_minimum(coeffs, x_floor=eps_floor**2)

    eps_min: Optional[float] = None
    if best is not None and math.sqrt(best[0]) <= SERIES_EPS_MAX:
        eps_c, val_c = math.sqrt(best[0]), best[1]
        if eps_c <= eps_cap:
            if eps_floor > 0.0:
                # interior stationary minimum vs the floor boundary
                c2, c4, c6, c8 = coeffs
                xf = eps_floor**2
                val_f = ((((c8 * xf + c6) * xf) + c4) * xf + c2) * xf
                eps_min = eps_c if val_c <= val_f else eps_floor
            else:
                eps_min = eps_c if val_c < 0.0 else 0.0
    elif best is None and eps_floor == 0.0 and coeffs[0] >= 0.0:
        eps_min = 0.0

    if eps_min is None:
        # outside the trusted series range (or floored without a series
        # minimum): minimize the directly-integrated gap
        lo = eps_floor if eps_floor > 0.0 else 0.0
        eps_d, val_d = _direct_minimum(spec, area, q, lo, eps_cap)
        if eps_floor == 0.0 and val_d >= 0.0:
            eps_d = 0.0
        eps_min = eps_d
    if eps_min is None:
        raise SearchFailureError("no interior or boundary minimizer found")

    return eps_min, lattice_energy(spec, LatticeState(area, eps_min), q)


# ---------------------------------------------------------------------------
# second-order transitions
# ---------------------------------------------------------------------------


def find_transition(spec, a_bracket, q: QuadratureConfig = DEFAULT_CONFIG) -> TransitionPoint:
    """Bracketed root of E2(A), classified by the sign of E4 there."""
    lo, hi = float(a_bracket[0]), float(a_bracket[1])
    f_lo = e2_closed(spec, lo, q)
    f_hi = e2_closed(spec, hi, q)
    if not (np.sign(f_lo) * np.sign(f_hi) < 0):
        raise BracketError(
            f"E2 does not change sign on [{lo}, {hi}] "
            f"(values {f_lo:.6e}, {f_hi:.6e})"
        )
    a_star = brentq(
        lambda a: e2_closed(spec, a, q), lo, hi, xtol=1e-15, rtol=_BRENT_RTOL
    )
    e4v = e4_closed(spec, a_star, q)
    return TransitionPoint(
        a_star=float(a_star),
        order="second" if e4v > 0 else "first",
        e2_residual=e2_closed(spec, a_star, q),
        e4_at_a_star=e4v,
        bracket=(lo, hi),
    )


def e2_slope(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG, rel_step: float = 1e-5):
    """dE2/dA by central differences (step rel_step * A)."""
    h = rel_step * area
    return (e2_closed(spec, area + h, q) - e2_closed(spec, area - h, q)) / (2.0 * h)


# ---------------------------------------------------------------------------
# tricritical points
# ---------------------------------------------------------------------------


def _dy_spec_unchecked(kappa1: float, kappa2: float) -> pot.PotentialSpec:
    """Double-Yukawa member from (kappa1, kappa2) without the border check;
    used only inside solvers whose finite differences may brush kappa2 <= 0."""
    v1 = math.exp(kappa1) * (1.0 + kappa2) / (kappa1 - kappa2)
    v2 = math.exp(kappa2 - kappa1) * (1.0 + kappa1) * v1 / (1.0 + kappa2)
    return pot.PotentialSpec(
        family=pot.DOUBLE_YUKAWA,
        v1=v1,
        kappa1=kappa1,
        v2=v2,
        kappa2=kappa2,
        norm_residuals=(0.0, 0.0),
    )


def _kappa2_of_v1(kappa1: float, v1: float) -> float:
    ek = math.exp(kappa1)
    return (kappa1 * v1 - ek) / (v1 + ek)


def _newton2(F, z0, in_domain, steps, scale, tol=1e-12, max_iter=60):
    """Damped 2D Newton with FD Jacobian; returns (z, residuals, cond, trace)."""
    z = np.array(z0, dtype=float)
    trace = []
    f = np.array(F(z))
    noise = 1e-12 * scale
    jac = np.eye(2)
    for _ in range(max_iter):
        jac = np.empty((2, 2))
        for i in range(2):
            h = steps[i](z)
            zp, zm = z.copy(), z.copy()
            zp[i] += h
            zm[i] -= h
            jac[:, i] = (np.array(F(zp)) - np.array(F(zm))) / (2.0 * h)
        try:
            dz = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        lam = 1.0
        accepted = False
        while lam >= 2.0**-10:
            z_new = z + lam * dz
            if in_domain(z_new):
                f_new = np.array(F(z_new))
                if np.linalg.norm(f_new) <= np.linalg.norm(f) or np.all(
                    np.abs(f_new) <= noise
                ):
                    z, f = z_new, f_new
                    accepted = True
                    break
            lam *= 0.5
        trace.append((z[0], z[1], float(np.linalg.norm(f))))
        if not accepted:
            break
        step_ok = np.max(np.abs(lam * dz) / np.maximum(np.abs(z), 1e-8)) < tol
        if step_ok and np.all(np.abs(f) <= 10 * noise):
            cond = float(np.linalg.cond(jac))
            return z, f, cond, trace
    raise NonconvergenceError("2D Newton did not converge", trace=trace)


def _residual_scale(F, z0):
    """Characteristic residual magnitudes: the variation of F under a
    few-percent density change, used to convert residuals to scaled units."""
    zp = np.array(z0, dtype=float)
    zp[0] *= 1.03
    zm = np.array(z0, dtype=float)
    zm[0] *= 0.97
    s = 0.5 * (np.abs(np.array(F(zp))) + np.abs(np.array(F(zm))))
    return np.maximum(s, 1e-300)


def find_tricritical(
    family: str,
    fixed_param: Optional[float] = None,
    initial_guess: Optional[tuple] = None,
    q: QuadratureConfig = DEFAULT_CONFIG,
) -> TricriticalPoint:
    """Joint root of (E2, E4).

    For the double-Yukawa family ``fixed_param`` is kappa1 and the
    reported parameter is v1; internally the solver walks (A, kappa2),
    which stays well-conditioned up to both ends of the tricritical
    locus.  For Yukawa-Coulomb the unknowns are (A, kappa1) directly.
    """
    if family == pot.DOUBLE_YUKAWA:
        if fixed_param is None:
            raise ParameterDomainError("double-yukawa tricritical solve needs kappa1")
        kappa1 = float(fixed_param)
        if initial_guess is None:
            initial_guess = (2.7, max(6.8, 1.8 * math.exp(kappa1) / kappa1))
        z0 = (initial_guess[0], _kappa2_of_v1(kappa1, initial_guess[1]))

        def F(z):
            spec = _dy_spec_unchecked(kappa1, z[1])
            return (e2_closed(spec, z[0], q), e4_closed(spec, z[0], q))

        def in_domain(z):
            return z[0] > 0.0 and -0.2 < z[1] < kappa1 * 0.999999

        steps = (lambda z: 1e-6 * z[0], lambda z: max(1e-7, 1e-6 * abs(z[1])))

        def result(z, f, cond):
            spec = _dy_spec_unchecked(kappa1, z[1])
            if not z[1] > 0.0:
                raise NonconvergenceError(
                    f"tricritical solve left the admissible region (kappa2={z[1]:.3e})"
                )
            return TricriticalPoint(float(z[0]), float(spec.v1), tuple(f), cond)

    elif family == pot.YUKAWA_COULOMB:
        if initial_guess is None:
            initial_guess = (2.8, 2.04)
        z0 = initial_guess

        def F(z):
            spec = pot.derive_yukawa_coulomb(z[1])
            return (e2_closed(spec, z[0], q), e4_closed(spec, z[0], q))

        def in_domain(z):
            return z[0] > 0.0 and z[1] > 0.0

        steps = (lambda z: 1e-6 * z[0], lambda z: 1e-6 * z[1])

        def result(z, f, cond):
            return TricriticalPoint(float(z[0]), float(z[1]), tuple(f), cond)

    else:
        raise ParameterDomainError(f"no tricritical solve for family {family!r}")

    scale = _residual_scale(F, z0)
    try:
        z, f, cond, _ = _newton2(F, z0, in_domain, steps, scale)
        return result(z, f, cond)
    except NonconvergenceError as err:
        z = _nested_fallback(F, z0, in_domain, q)
        if z is None:
            raise NonconvergenceError(
                "tricritical solve failed (Newton and nested fallback)",
                trace=err.trace,
            ) from err
        f = np.array(F(z))
        return result(np.array(z), f, float("nan"))


def _nested_fallback(F, z0, in_domain, q, widen=12):
    """Outer 1D root in the family parameter of E4 evaluated on the E2 root.

    Mirrors the picture of the critical curve terminating where E4
    changes sign along it; slower than Newton but very robust.
    """

    def a_root(w, a_hint):
        g = lambda a: F((a, w))[0]
        a, fa = a_hint, g(a_hint)
        step = 2e-3 * a_hint
        for _ in range(60):
            # E2 is decreasing in A near the transition: positive value
            # means the root lies to the right
            b = a + step if fa > 0 else a - step
            if b <= 0:
                return None
            fb = g(b)
            if np.sign(fa) * np.sign(fb) < 0:
                return brentq(g, min(a, b), max(a, b), xtol=1e-15, rtol=_BRENT_RTOL)
            a, fa = b, fb
            step *= 2.0
        return None

    def outer(w, state={"a": z0[0]}):
        a = a_root(w, state["a"])
        if a is None:
            return None
        state["a"] = a
        return F((a, w))[1]

    def outer_strict(w):
        g = outer(w)
        if g is None:
            raise NonconvergenceError("inner density root lost during fallback")
        return g

    w0 = z0[1]
    h = max(2e-3 * abs(w0), 2e-4)
    g0 = outer(w0)
    if g0 is None:
        return None
    for _ in range(widen):
        for w1 in (w0 + h, w0 - h):
            if not in_domain((z0[0], w1)):
                continue
            g1 = outer(w1)
            if g1 is not None and np.sign(g1) * np.sign(g0) < 0:
                try:
                    w_star = brentq(
                        outer_strict, min(w0, w1), max(w0, w1), xtol=1e-14, rtol=_BRENT_RTOL
                    )
                    a_star = a_root(w_star, z0[0])
                except NonconvergenceError:
                    return None
                return (a_star, w_star) if a_star is not None else None
        h *= 2.0
    return None


# ---------------------------------------------------------------------------
# first-order transitions
# ---------------------------------------------------------------------------


def _branch_gap(spec, area, q, eps_floor):
    """(-min branch gap, branch x, barrier present); gap via the even expansion."""
    pts = _stationary_points(_gap_coefficients(spec, area, q))
    minima = [p for p in pts if p[2] > 0.0 and p[0] > eps_floor**2]
    if not minima:
        return None
    x, val, _ = min(minima, key=lambda p: p[1])
    barrier = any(p[2] < 0.0 and p[0] < x for p in pts)
    return -val, x, barrier


def find_first_order(
    spec,
    a_bracket,
    q: QuadratureConfig = DEFAULT_CONFIG,
    eps_floor: float = 0.0,
):
    """Density where the square and symmetry-broken branch energies cross.

    Solves ``E(A, 1) = min_branch E(A, e^eps)`` with the branch energy
    taken from the sixth-order expansion of the gap, which resolves
    crossings far below the absolute precision of the energies
    themselves.  Returns ``(a_trans, eps_jump)``; raises
    ``SearchFailureError`` when the broken-branch minimum at the crossing
    sits on the aspect cap ``EPS_CAP``, where it is no coexistence point.
    """
    lo, hi = float(a_bracket[0]), float(a_bracket[1])

    def g(a):
        res = _branch_gap(spec, a, q, eps_floor)
        if res is None:
            return -1.0  # square branch unchallenged
        return res[0]

    g_lo, g_hi = g(lo), g(hi)
    if not (np.sign(g_lo) * np.sign(g_hi) < 0):
        raise BracketError(
            f"branch-energy crossing not bracketed on [{lo}, {hi}] "
            f"(gap signs {g_lo:.3e}, {g_hi:.3e})"
        )
    a_trans = brentq(g, lo, hi, xtol=1e-15, rtol=_BRENT_RTOL)
    res = _branch_gap(spec, a_trans, q, eps_floor)
    if res is None or not res[2]:
        raise ClassificationError(
            "no coexistence barrier at the crossing; transition is not first order"
        )
    eps_jump = math.sqrt(res[1])
    if eps_jump > SERIES_EPS_MAX:
        # deep first-order regime: the truncated expansion only seeds; relocate
        # the crossing against the directly-integrated gap, keeping the broken
        # branch separated by half the barrier location
        barriers = [p[0] for p in _stationary_points(_gap_coefficients(spec, a_trans, q)) if p[2] < 0.0]
        floor = max(eps_floor, 0.5 * math.sqrt(barriers[0]) if barriers else 0.5 * eps_jump)
        # the branch minimizer moves negligibly across the root window, so a
        # generous basin located once at the seed density stays valid
        eps_seed, _ = _direct_minimum(spec, a_trans, q, floor, EPS_CAP)
        lo_e = max(floor, 0.6 * eps_seed)
        hi_e = min(EPS_CAP, 1.6 * eps_seed)
        last = {"eps": eps_seed}

        def g_direct(a):
            res = minimize_scalar(
                lambda e: energy_gap(spec, a, e, q),
                bounds=(lo_e, hi_e),
                method="bounded",
                options={"xatol": 1e-11},
            )
            last["eps"] = float(res.x)
            return -float(res.fun)

        lo, hi = a_trans, a_trans
        width = 2e-3 * a_trans
        for _ in range(30):
            lo, hi = a_trans - width, a_trans + width
            if np.sign(g_direct(lo)) * np.sign(g_direct(hi)) < 0:
                break
            width *= 3.0
        else:
            raise BracketError("could not re-bracket the deep first-order crossing")
        a_trans = brentq(g_direct, lo, hi, xtol=1e-13, rtol=1e-12)
        g_direct(a_trans)
        eps_jump = last["eps"]
        if EPS_CAP - eps_jump <= _CAP_RTOL * EPS_CAP:
            raise SearchFailureError(
                f"broken-branch minimum pinned at the search cap eps={EPS_CAP:.6f} "
                f"(eps_jump={eps_jump:.9f} at A={a_trans:.9f}); "
                "the crossing is not a coexistence point"
            )
    return float(a_trans), float(eps_jump)


def first_order_bracket(spec, a_hint: float, q: QuadratureConfig = DEFAULT_CONFIG):
    """A small bracket around the branch-crossing density.

    Seeds from the root of the sixth-order coexistence condition
    E2 = E4^2 / (4 E6) and widens geometrically until the crossing
    changes sign; raises ``BracketError`` when either walk would reach a
    non-positive density first.
    """

    def coex(a):
        c2, c4, c6, _ = _gap_coefficients(spec, a, q)
        return c2 - c4 * c4 / (4.0 * c6)

    # walk left from the E2 root hint until the condition turns positive
    lo = hi = None
    a = a_hint
    step = 1e-6 * a_hint
    val = coex(a)
    for _ in range(80):
        if val > 0:
            lo, hi = a, a + step
            break
        a -= step
        step *= 2.0
        if a <= 0.0:
            break
        val = coex(a)
    if lo is None:
        raise BracketError("could not bracket the coexistence condition")
    while coex(hi) > 0:
        hi += step
    proxy = brentq(coex, lo, hi, xtol=1e-15, rtol=_BRENT_RTOL)
    width = max(1e-9 * proxy, 4.0 * abs(proxy - a_hint) * 1e-6)
    for _ in range(60):
        lo, hi = proxy - width, proxy + width
        if lo <= 0.0:
            break
        r_lo = _branch_gap(spec, lo, q, 0.0)
        r_hi = _branch_gap(spec, hi, q, 0.0)
        s_lo = -1.0 if r_lo is None else np.sign(r_lo[0])
        s_hi = -1.0 if r_hi is None else np.sign(r_hi[0])
        if s_lo * s_hi < 0:
            return lo, hi
        width *= 4.0
    raise BracketError("could not bracket the branch-energy crossing")


# ---------------------------------------------------------------------------
# critical-exponent fits
# ---------------------------------------------------------------------------

#: Default fit windows (relative to the reference density).  Chosen so the
#: minimizing aspect stays well inside the asymptotic regime; much wider
#: windows pick up analytic corrections that bias the fitted exponent.
SECOND_ORDER_WINDOW = (1e-7, 1e-5)
TRICRITICAL_WINDOW = (1e-10, 1e-8)


def fit_exponent(
    spec,
    a_ref: float,
    deltas: Optional[Sequence[float]] = None,
    q: QuadratureConfig = DEFAULT_CONFIG,
    n_points: int = 12,
) -> FitResult:
    """Least-squares slope of log(delta-1) against log(A - a_ref).

    ``a_ref`` must be a validated transition or tricritical density; the
    fit approaches it from above.  When ``deltas`` is omitted a geometric
    window is chosen by regime (sign of E4 at ``a_ref``).
    """
    if deltas is None:
        # classify the reference point by E4 measured against its own
        # variation scale: at a tricritical point the residual sign of an
        # (almost) vanishing E4 must not pick the window
        e4v = e4_closed(spec, a_ref, q)
        e4_scale = abs(
            e4_closed(spec, 1.01 * a_ref, q) - e4_closed(spec, 0.99 * a_ref, q)
        )
        if e4v < -0.05 * e4_scale:
            raise ClassificationError(
                "E4 < 0 at a_ref: first-order point, no power-law onset to fit"
            )
        window = SECOND_ORDER_WINDOW if e4v > 0.05 * e4_scale else TRICRITICAL_WINDOW
        deltas = np.geomspace(window[0], window[1], n_points) * a_ref
    else:
        deltas = np.asarray(deltas, dtype=float)
    if deltas.size < 8:
        raise ParameterDomainError("exponent fit needs at least 8 samples")
    if np.any(deltas <= 0) or np.any(np.diff(deltas) <= 0):
        raise ParameterDomainError("deltas must be positive and increasing")

    eps = np.empty(deltas.size)
    for i, d in enumerate(deltas):
        eps[i], _ = minimize_aspect(spec, a_ref + d, q)
    if np.any(eps <= 0.0):
        raise ClassificationError(
            "symmetric minimizer inside the fit window; a_ref is not a "
            "transition approached from above"
        )
    x = np.log(deltas)
    y = np.log(np.expm1(eps))
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - float(np.sum(resid**2)) / ss_tot
    if not r_squared > 0.999:
        warnings.warn(
            PoorFitWarning(
                f"power-law fit r^2={r_squared:.6f} below 0.999; residuals {resid}"
            )
        )
    return FitResult(
        beta=float(slope),
        amplitude=float(math.exp(intercept)),
        r_squared=r_squared,
        window=(float(deltas[0]), float(deltas[-1])),
    )


# ---------------------------------------------------------------------------
# the large-v1 limit of the critical density
# ---------------------------------------------------------------------------


def _a_star_min_condition(kappa1: float, area: float, q: QuadratureConfig) -> float:
    """Root condition for the limiting critical density as v1 -> inf.

    The double-Yukawa measure collapses onto
    ``exp(-kappa1^2 A / 4t) [1 - (1+kappa1) A / 2t]`` in that limit; the
    curvature coefficient against it must vanish.
    """
    a = q.split_point
    b = math.pi**2 / a
    k = kappa1
    p = k * k * area / 4.0
    c = p / math.pi**2

    def direct(grid):
        u = grid.nodes
        w = np.exp(-p / u) * (1.0 - (1.0 + k) * area / (2.0 * u)) / np.sqrt(u)
        contrib = grid.weights * grid.cached("p2", curvature_bracket) * w
        return contrib.sum(), np.abs(contrib).sum()

    def transformed(grid):
        u = grid.nodes
        w = np.exp(-c * u) * (1.0 - (1.0 + k) * area * u / (2.0 * math.pi**2)) / np.sqrt(u)
        contrib = grid.weights * grid.cached("p2", curvature_bracket) * w
        return contrib.sum(), np.abs(contrib).sum()

    return integrate([(a, direct), (b, transformed)], p, q)


def a_star_min(kappa1: float, q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Limiting transition density of the double-Yukawa family at v1 -> inf."""
    if kappa1 <= 0:
        raise ParameterDomainError("kappa1 must be positive")
    f = lambda a: _a_star_min_condition(kappa1, a, q)
    grid = np.geomspace(0.2, 20.0, 41)
    vals = [f(a) for a in grid]
    for i in range(len(grid) - 1):
        if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
            return brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=_BRENT_RTOL)
    if all(v == 0.0 for v in vals):
        raise BracketError(
            f"limiting condition underflows for kappa1={kappa1}: the overall "
            f"scale exp(-kappa1 sqrt(A)) is below double precision"
        )
    raise BracketError(f"no sign change of the limiting condition for kappa1={kappa1}")


def a_star_min_zero_limit(q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """kappa1 -> 0+ limit of a_star_min, as a ratio of two curvature moments."""
    a = q.split_point
    b = math.pi**2 / a

    def moment(power_direct, power_transformed):
        def direct(grid):
            contrib = (
                grid.weights
                * grid.cached("p2", curvature_bracket)
                * grid.nodes**power_direct
            )
            return contrib.sum(), np.abs(contrib).sum()

        def transformed(grid):
            scale = math.pi ** (-2.0 * power_transformed - 1.0)
            contrib = (
                grid.weights
                * grid.cached("p2", curvature_bracket)
                * scale
                * grid.nodes**power_transformed
            )
            return contrib.sum(), np.abs(contrib).sum()

        return integrate([(a, direct), (b, transformed)], 0.0, q)

    # numerator: 2 * integral sqrt(t) G dt; denominator: integral G/sqrt(t) dt,
    # with G the curvature bracket divided by t
    num = moment(-0.5, -0.5)
    den = moment(-1.5, 0.5)
    return 2.0 * num / den


# ---------------------------------------------------------------------------
# existence window of the tricritical locus
# ---------------------------------------------------------------------------


def _tricritical_chain(kappa1_values, q, seed=(2.7163619942, 0.4371973853)):
    """Warm-started tricritical solves along a kappa1 walk (double Yukawa).

    Yields (kappa1, A_t, kappa2_t) and raises NonconvergenceError from the
    solver only after losing the continuation entirely.
    """
    z = np.array(seed)
    out = []
    for k1 in kappa1_values:
        tp = find_tricritical(
            pot.DOUBLE_YUKAWA,
            k1,
            initial_guess=(z[0], _dy_spec_unchecked(k1, z[1]).v1),
            q=q,
        )
        z = np.array([tp.a_t, _kappa2_of_v1(k1, tp.param_t)])
        out.append((k1, tp.a_t, z[1], tp.param_t))
    return out


def kappa1_upper(q: QuadratureConfig = DEFAULT_CONFIG, tol: float = 1e-10) -> float:
    """Upper end of the tricritical window: the intersection of the
    tricritical strength v1^t(kappa1) with the admissibility border
    v1 = exp(kappa1)/kappa1 (equivalently, where the derived screening
    kappa2^t reaches zero)."""
    pts = _tricritical_chain([2.0, 2.02, 2.03], q)
    k_a, _, h_a, _ = pts[-2]
    k_b, _, h_b, _ = pts[-1]
    seed = (pts[-1][1], pts[-1][2])
    k_fail = None  # smallest kappa1 where the solve fell off the locus
    for _ in range(80):
        # secant step on kappa2^t(kappa1), clamped to a trust region
        k_c = k_b - h_b * (k_b - k_a) / (h_b - h_a)
        k_c = min(k_c, k_b + 8.0 * abs(k_b - k_a))
        if k_fail is not None:
            k_c = min(k_c, 0.5 * (k_b + k_fail))
        if abs(k_c - k_b) <= tol * k_b:
            return float(k_c)
        try:
            row = _tricritical_chain([k_c], q, seed=seed)[0]
        except NonconvergenceError:
            k_fail = k_c
            continue
        seed = (row[1], row[2])
        k_a, h_a = k_b, h_b
        k_b, h_b = k_c, row[2]
    raise NonconvergenceError("kappa1 upper bound iteration did not converge")


def kappa1_lower(
    q: QuadratureConfig = DEFAULT_CONFIG,
    v1_divergence: float = 1e4,
    tol: float = 1e-4,
) -> float:
    """Lower end of the tricritical window, declared where the tricritical
    strength v1^t exceeds ``v1_divergence`` under bisection on kappa1."""
    walk = [2.0, 1.9, 1.8, 1.7, 1.6, 1.5]
    pts = _tricritical_chain(walk, q)
    k_good, seed = walk[-1], (pts[-1][1], pts[-1][2])
    v1_good = pts[-1][3]
    step = 0.02
    k_bad = None
    while k_bad is None:
        k_try = k_good - step
        try:
            row = _tricritical_chain([k_try], q, seed=seed)[0]
        except NonconvergenceError:
            step *= 0.5
            if step < 1e-6:
                raise
            continue
        if row[3] > v1_divergence:
            k_bad = k_try
        else:
            k_good, seed, v1_good = k_try, (row[1], row[2]), row[3]
    while k_good - k_bad > tol:
        k_mid = 0.5 * (k_good + k_bad)
        try:
            row = _tricritical_chain([k_mid], q, seed=seed)[0]
            if row[3] > v1_divergence:
                k_bad = k_mid
            else:
                k_good, seed = k_mid, (row[1], row[2])
        except NonconvergenceError:
            k_bad = k_mid
    return 0.5 * (k_good + k_bad)
