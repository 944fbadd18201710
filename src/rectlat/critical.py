"""Locating and classifying structural transitions.

Second-order transitions are roots of the curvature coefficient E2(A);
their order is decided by the sign of E4 there.  Tricritical points are
joint roots of (E2, E4) in the (density, family-parameter) plane.  Where
E4 < 0 the transition is first order and is located as the density where
the square-lattice branch and the symmetry-broken branch exchange
stability; the branch energies are compared through the even expansion
of the energy gap, which stays numerically meaningful at gap sizes far
below double-precision energy differences.  Where the broken branch lies
beyond the expansion's range, the crossing is the joint root of
(gap, d gap/d eps) in (A, eps) of the directly integrated gap: by the
envelope theorem, the density where the branch minimum reaches zero.

Solvers are plain bracketed Brent iterations (1D), a damped Newton with
a central-difference Jacobian (2D) that gives up once its residual stalls
and hands the solve to a nested 1D fallback, and a plain Newton for the
deep crossing whose eps rows at two densities share one stacked integral
and one table per step; a 2D Newton step and its Jacobian stencil share
one pass (``_newton2``).  The branch crossing is bracketed on its own
sign, by a walk to lower densities from the E2 root, where the broken
branch lies below the square one; the gap series predicts its first step.
The series' stationary points are the roots of a cubic, in closed form.  All of them
consume the quadrature-backed coefficient evaluators, so a solve is a few
hundred vectorized integrand evaluations.
The eps scans that seed the direct-gap refinements are one stacked gap
each, over a suffix of one fixed 129-point lattice on [0, EPS_CAP]
(``energy.GAP_LATTICE``), whose pair-gap table is built once per grid and
shared by all of them.

The double-Yukawa tricritical locus ends where its derived screening
kappa2^t reaches zero, that is at the Yukawa-Coulomb tricritical kappa1
(``_window_end``, one solve per process and quadrature configuration).
A double-Yukawa tricritical solve at or above that end is refused as a
domain error before any integral.  Its lower end (``kappa1_lower``) is
where the tricritical strength v1^t reaches 1e4: one Newton solve of
(E2, E4) = 0 in (A, kappa1) at that v1.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import potentials as pot
from .energy import (
    EPS_CAP,
    GAP_LATTICE,
    LatticeState,
    energy_gap,
    lattice_energy,
    split_stack,
)
from .errors import (
    BracketError,
    ClassificationError,
    NonconvergenceError,
    ParameterDomainError,
    SearchFailureError,
    check_domain,
)
from .expansion import curvature_table, e2_closed, e2_e4_stack, landau_series
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate_split
from .solvers import RTOL_MIN, brentq, minimize_scalar, sign_change

#: Largest log-aspect the truncated expansion of the gap is trusted for.
SERIES_EPS_MAX = 0.15

# A deep crossing whose eps ends within this relative distance of EPS_CAP
# is pinned there, not interior.
_CAP_RTOL = 1e-6


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


@functools.lru_cache(maxsize=32)
def _gap_coefficients(spec, area, q):
    """Even gap coefficients (c2, c4, c6, c8) in x = eps^2.

    The eighth-order term is below the asymptotic statements' resolution
    but keeps the minimizer accurate across the fit windows, where the
    sixth-order truncation already biases the broken-branch location.
    Memoized: a first-order row asks for the series at the same densities
    again (its E2 root, the bracket walk's ends, the crossing).
    """
    rows = landau_series(spec, area, q)
    return rows[2], rows[4], rows[6], rows[8]


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


def _real_roots(a, b, c, d):
    """Real roots of ``a x^3 + b x^2 + c x + d`` in closed form, one degree
    lower for each leading zero coefficient, each polished by Newton; a
    near-real complex pair counts as a double root (``_quadratic_roots``)."""
    if a != 0.0:
        return _cubic_roots((a, b, c, d))
    if b != 0.0:
        return [_polished((b, c, d), x) for x in _quadratic_roots(b, c, d)]
    return [-d / c] if c != 0.0 else []


def _stationary_points(coeffs):
    """Positive stationary points of sum_k c_{2k} x^k in x = eps^2,
    as (x, value, curvature) triples sorted by x."""
    c2, c4, c6, c8 = (float(c) for c in coeffs)
    # roots of c2 + 2 c4 x + 3 c6 x^2 + 4 c8 x^3
    pts = []
    for x in sorted(_real_roots(4.0 * c8, 3.0 * c6, 2.0 * c4, c2)):
        if not x > 0.0:
            continue
        val = (((c8 * x + c6) * x + c4) * x + c2) * x
        curv = 2.0 * c4 + 6.0 * c6 * x + 12.0 * c8 * x**2
        pts.append((x, val, curv))
    return pts


def _series_branch(coeffs):
    """``(x, value, x_barrier)``: the deepest minimum of the gap series in
    x = eps^2 and the first maximum below it (None without a barrier);
    None when the series has no minimum."""
    pts = _stationary_points(coeffs)
    minima = [p for p in pts if p[2] > 0.0]
    if not minima:
        return None
    x, val, _ = min(minima, key=lambda p: p[1])
    x_barrier = next((p[0] for p in pts if p[2] < 0.0 and p[0] < x), None)
    return x, val, x_barrier


def _gap_scan(spec, area, q, lo):
    """``(grid, i)``: the points of ``GAP_LATTICE`` at or above ``lo`` and
    the index of the one where the directly integrated gap is lowest.

    The gaps are one stacked ``energy_gap``; the grid is a suffix of the
    lattice, so its pair-gap rows are sliced from the lattice's table,
    built once per grid.
    """
    grid = GAP_LATTICE[np.searchsorted(GAP_LATTICE, lo) :]
    return grid, int(np.argmin(energy_gap(spec, area, grid, q)))


def _direct_minimum(spec, area, q):
    """Minimum ``(eps, gap)`` of the energy gap over [0, EPS_CAP]: the
    bounded minimiser on ``energy_gap`` between the neighbours of the
    lowest point of the whole 129-point lattice (``_gap_scan``).  A
    minimum within ``_CAP_RTOL`` of the cap is refused with
    ``SearchFailureError``: the gap may fall further beyond it."""
    grid, i = _gap_scan(spec, area, q, 0.0)
    left = grid[max(i - 1, 0)]
    right = grid[min(i + 1, len(grid) - 1)]
    x, fx = minimize_scalar(lambda e: energy_gap(spec, area, e, q), left, right, 1e-12)
    if EPS_CAP - x <= _CAP_RTOL * EPS_CAP:
        raise _off_window(EPS_CAP, "cap", x, area, "eps_min", "the aspect has no minimum below it")
    return float(x), float(fx)


def minimize_aspect(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG):
    """Minimize E(A, e^eps) over eps in [0, EPS_CAP] (delta <= 4).

    Returns ``(eps_min, energy)``, the global minimum on the canonical
    branch (eps >= 0); ``eps_min = 0`` when the square lattice wins.  The
    gap series decides while its deepest minimum lies within
    ``SERIES_EPS_MAX``; elsewhere the directly integrated gap is scanned,
    and a minimum there that ends on the cap raises ``SearchFailureError``.
    """
    coeffs = _gap_coefficients(spec, area, q)
    branch = _series_branch(coeffs)
    if branch is not None and math.sqrt(branch[0]) <= SERIES_EPS_MAX:
        eps_min = math.sqrt(branch[0]) if branch[1] < 0.0 else 0.0
    elif branch is None and coeffs[0] >= 0.0:
        eps_min = 0.0
    else:
        # outside the trusted series range: minimize the directly-integrated gap
        eps_d, val_d = _direct_minimum(spec, area, q)
        eps_min = 0.0 if val_d >= 0.0 else eps_d
    return eps_min, lattice_energy(spec, LatticeState(area, eps_min), q)


# ---------------------------------------------------------------------------
# second-order transitions
# ---------------------------------------------------------------------------


def find_transition(spec, a_bracket, q: QuadratureConfig = DEFAULT_CONFIG) -> TransitionPoint:
    """Root of E2(A) on ``a_bracket``, classified by the sign of E4 there;
    a bracket without a sign change is refused with ``BracketError``."""
    lo, hi = float(a_bracket[0]), float(a_bracket[1])
    try:
        a_star = brentq(lambda a: e2_closed(spec, a, q), lo, hi, xtol=1e-15, rtol=RTOL_MIN)
    except BracketError as err:
        raise BracketError(f"E2 does not change sign on [{lo}, {hi}]: {err}") from err
    e2v, e4v = e2_e4_stack([(spec, a_star)], q)[0]
    return TransitionPoint(
        a_star=float(a_star),
        order="second" if e4v > 0 else "first",
        e2_residual=e2v,
        e4_at_a_star=e4v,
        bracket=(lo, hi),
    )


def e2_slope(spec, area: float, q: QuadratureConfig = DEFAULT_CONFIG):
    """dE2/dA by central differences (step 1e-5 * A), from one stacked pass."""
    h = 1e-5 * area
    up, down = split_stack([(spec, area + h), (spec, area - h)], curvature_table, q)
    return (up - down) / (2.0 * h)


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


# A 2D Newton solve gives up once its residual norm has not halved over
# this many accepted steps.  The slowest converging solve seen (kappa1 =
# 2.0365096913453264 in kappa1_upper's walk) goes 4 steps without halving
# (12 steps in all, the last five at the noise floor); 4 would hand it to
# the nested fallback.
_STALL_STEPS = 12


def _stencil(z, steps):
    """``(points, h)``: the central-difference points ``z +- h_i e_i`` and the steps."""
    h = [step(z) for step in steps]
    points = [z.copy() for _ in range(4)]
    for i in range(2):
        points[2 * i][i] += h[i]
        points[2 * i + 1][i] -= h[i]
    return points, h


def _newton2(F, z0, in_domain, steps):
    """Damped 2D Newton with a central-difference Jacobian; returns
    (z, residuals, cond, trace).

    ``F(points) -> rows`` is a batch evaluator (``_evaluator``), one pass
    per call: the start, its stencil and the residual scale's two points
    first; after a full step, the next full step's candidate with its
    stencil (speculatively), so a run of full steps costs one pass each.

    Raises ``NonconvergenceError`` (with the trace) naming the stop that
    fired: a singular Jacobian, an exhausted line search, a residual norm
    that did not halve over ``_STALL_STEPS`` accepted steps (the starting
    residual counts as step 0), or the cap of 60 steps.
    """
    z = np.array(z0, dtype=float)
    trace = []
    stencil, h = _stencil(z, steps)
    # residuals in scaled units: F's variation under a few-percent density change
    zp, zm = z.copy(), z.copy()
    zp[0] *= 1.03
    zm[0] *= 0.97
    rows = F([z, *stencil, zp, zm])
    f = rows[0]
    norms = [float(np.linalg.norm(f))]  # after each accepted step
    noise = 1e-12 * np.maximum(0.5 * (np.abs(rows[5]) + np.abs(rows[6])), 1e-300)
    full = False  # whether the last step was a full Newton step
    for _ in range(60):
        rows = F(stencil)
        jac = np.empty((2, 2))
        for i in range(2):
            jac[:, i] = (rows[2 * i] - rows[2 * i + 1]) / (2.0 * h[i])
        try:
            dz = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError as err:
            raise NonconvergenceError("2D Newton stopped: singular Jacobian", trace=trace) from err
        lam = 1.0
        accepted = False
        while lam >= 2.0**-10:
            z_new = z + lam * dz
            if in_domain(z_new):
                stencil_new, h_new = _stencil(z_new, steps)
                ahead = full and lam == 1.0  # speculative: its stencil may go unused
                f_new = F([z_new, *stencil_new] if ahead else [z_new])[0]
                if np.linalg.norm(f_new) <= np.linalg.norm(f) or np.all(
                    np.abs(f_new) <= noise
                ):
                    z, f, stencil, h = z_new, f_new, stencil_new, h_new
                    accepted, full = True, lam == 1.0
                    break
            lam *= 0.5
        trace.append((z[0], z[1], float(np.linalg.norm(f))))
        if not accepted:
            raise NonconvergenceError("2D Newton stopped: line search exhausted", trace=trace)
        step_ok = np.max(np.abs(lam * dz) / np.maximum(np.abs(z), 1e-8)) < 1e-12
        if step_ok and np.all(np.abs(f) <= 10 * noise):
            cond = float(np.linalg.cond(jac))
            return z, f, cond, trace
        norms.append(trace[-1][2])
        if len(norms) > _STALL_STEPS and norms[-1] > 0.5 * norms[-1 - _STALL_STEPS]:
            raise NonconvergenceError(
                f"2D Newton stopped: residual did not halve over {_STALL_STEPS} steps",
                trace=trace,
            )
    raise NonconvergenceError("2D Newton stopped: 60-step cap reached", trace=trace)


def _evaluator(spec_at, q):
    """The batch evaluator ``F(points) -> rows`` of (E2, E4) at z = (A, w) on the
    members ``spec_at(w)``: unseen points are one ``e2_e4_stack``, and each
    point (Newton and the fallback revisit points) and member is made once."""
    memo, spec_at = {}, functools.lru_cache(maxsize=None)(spec_at)

    def F(points):
        keys = [(float(z[0]), float(z[1])) for z in points]
        new = {key: None for key in keys if key not in memo}  # ordered, each once
        if new:
            memo.update(zip(new, e2_e4_stack([(spec_at(w), a) for a, w in new], q)))
        return [memo[key] for key in keys]

    return F


# The (A, kappa1) unknowns of the Yukawa-Coulomb tricritical solve and of
# kappa1_lower: their domain and finite-difference steps.
def _positive(z):
    return z[0] > 0.0 and z[1] > 0.0


_RELATIVE_STEPS = (lambda z: 1e-6 * z[0], lambda z: 1e-6 * z[1])


def _check_guess(guess):
    """Refuse an initial guess (A, param) unless both are finite and positive."""
    a, param = guess
    message = f"tricritical initial guess (A, param) must be positive, got {guess!r}"
    check_domain(a > 0 and param > 0, message, guess_a=a, guess_param=param)


def find_tricritical(
    family: str,
    fixed_param: Optional[float] = None,
    initial_guess: Optional[tuple] = None,
    q: QuadratureConfig = DEFAULT_CONFIG,
) -> TricriticalPoint:
    """Joint root of (E2, E4).

    For the double-Yukawa family ``fixed_param`` is kappa1 and the
    reported parameter is v1; internally the solver walks (A, kappa2).
    A kappa1 at or above the locus's upper end (``_window_end``, where
    kappa2^t reaches zero) is refused with ``ParameterDomainError``
    before any double-Yukawa integral.  For Yukawa-Coulomb the unknowns
    are (A, kappa1) directly, so a ``fixed_param`` is refused.  So is an
    ``initial_guess`` (A, v1 or kappa1) that is not finite and positive.

    Raises ``NonconvergenceError`` when Newton fails and the nested
    fallback then finds nothing or ends at kappa2 <= 0; either error
    carries Newton's trace and has Newton's error as its ``__cause__``.
    """
    if family == pot.DOUBLE_YUKAWA:
        if fixed_param is None:
            raise ParameterDomainError("double-yukawa tricritical solve needs kappa1")
        pot._check_kappa1(fixed_param)
        kappa1 = float(fixed_param)
        if initial_guess is None:
            initial_guess = (2.7, max(6.8, 1.8 * math.exp(kappa1) / kappa1))
        _check_guess(initial_guess)
        end = _window_end(q)
        check_domain(
            kappa1 < end,
            f"kappa1={kappa1!r} is at or above the tricritical window's upper end "
            f"{end!r} (the yukawa-coulomb tricritical kappa1), where kappa2^t <= 0",
        )
        z0 = (initial_guess[0], _kappa2_of_v1(kappa1, initial_guess[1]))
        F = _evaluator(lambda kappa2: _dy_spec_unchecked(kappa1, kappa2), q)

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
        message = f"the yukawa-coulomb tricritical solve finds kappa1; got kappa1={fixed_param}"
        check_domain(fixed_param is None, message)
        if initial_guess is None:
            initial_guess = (2.8, 2.04)
        _check_guess(initial_guess)
        z0 = initial_guess
        F = _evaluator(pot.derive_yukawa_coulomb, q)

        in_domain, steps = _positive, _RELATIVE_STEPS

        def result(z, f, cond):
            return TricriticalPoint(float(z[0]), float(z[1]), tuple(f), cond)

    else:
        raise ParameterDomainError(f"no tricritical solve for family {family!r}")

    try:
        z, f, cond, _ = _newton2(F, z0, in_domain, steps)
        return result(z, f, cond)
    except NonconvergenceError as err:
        z = _nested_fallback(F, z0, in_domain)
        try:
            if z is None:
                raise NonconvergenceError("tricritical solve failed (Newton and nested fallback)")
            return result(np.array(z), F([z])[0], float("nan"))
        except NonconvergenceError as refusal:
            # either refusal keeps Newton's reason and trace
            refusal.trace = err.trace
            raise refusal from err


@functools.lru_cache(maxsize=8)
def _window_end(q: QuadratureConfig) -> float:
    """Upper end of the double-Yukawa tricritical window, where kappa2^t
    reaches zero: the member there is the Yukawa-Coulomb potential, so the
    end is its tricritical kappa1.  One solve per process and
    configuration; an error of that solve propagates."""
    return find_tricritical(pot.YUKAWA_COULOMB, q=q).param_t


def _nested_fallback(F, z0, in_domain):
    """Outer 1D root in the family parameter of E4 evaluated on the E2 root.

    Mirrors the picture of the critical curve terminating where E4
    changes sign along it; slower than Newton but very robust.  ``F`` is
    the solve's batch evaluator, called with one point at a time.
    """

    def a_root(w, a_hint):
        g = lambda a: F([(a, w)])[0][0]
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
                return brentq(g, min(a, b), max(a, b), xtol=1e-15, rtol=RTOL_MIN)
            a, fa = b, fb
            step *= 2.0
        return None

    def outer(w, state={"a": z0[0]}):
        a = a_root(w, state["a"])
        if a is None:
            return None
        state["a"] = a
        return F([(a, w)])[0][1]

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
    for _ in range(12):
        for w1 in (w0 + h, w0 - h):
            if not in_domain((z0[0], w1)):
                continue
            g1 = outer(w1)
            if g1 is not None and np.sign(g1) * np.sign(g0) < 0:
                try:
                    w_star = brentq(
                        outer_strict, min(w0, w1), max(w0, w1), xtol=1e-14, rtol=RTOL_MIN
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


def _crossing_gap(spec, area, q):
    """Square-branch minus broken-branch energy from the gap series; -1
    where the series has no broken-branch minimum (square unchallenged)."""
    branch = _series_branch(_gap_coefficients(spec, area, q))
    return -1.0 if branch is None else -branch[1]


# Steps of the deep crossing's finite differences: eps for d gap/d eps
# (central), relative density for the Jacobian's A column (forward).  The
# stationary eps moves by about 2 h^2 with the eps step: -1.9e-6 at 1e-3,
# and flat to 2e-9 for steps between 3e-6 and 3e-5.
_EPS_STEP = 1e-5
_AREA_STEP = 1e-6


def _gap_and_slope(spec, area, eps, q):
    """``(f, d^2 gap/d eps^2, df/dA)`` at (area, eps), f = [gap, d gap/d eps], by
    differences over one 3-row stacked gap at area and area (1 + _AREA_STEP)."""
    h = _EPS_STEP
    a_up = area * (1.0 + _AREA_STEP)
    rows = energy_gap(spec, [area, a_up], np.array([eps - h, eps, eps + h]), q)
    f, f_up = (np.array([mid, (hi - lo) / (2.0 * h)]) for lo, mid, hi in rows)
    lo, mid, hi = rows[0]
    return f, (hi - 2.0 * mid + lo) / (h * h), (f_up - f) / (a_up - area)


def _off_window(
    bound, name, eps, area, label="eps_jump", verdict="the crossing is not a coexistence point"
):
    return SearchFailureError(
        f"broken-branch minimum pinned at the search {name} eps={bound:.6f} "
        f"({label}={eps:.9f} at A={area:.9f}); {verdict}"
    )


def _deep_crossing(spec, area, eps, floor, q):
    """Newton's method on ``(gap, d gap/d eps) = 0`` in (A, eps) from a seed.

    By the envelope theorem this is the density where the broken-branch
    minimum of the directly integrated gap reaches zero, at that minimum.
    Each step costs one stacked 3-row gap at A and at A (1 + 1e-6)
    (``_gap_and_slope``): one pass, and one table of its three eps rows,
    where the two densities share a grid.
    Stops once ``|dA| <= 1e-14 A`` and the eps step is at most 1e-9 or,
    below 1e-7, no longer halves: roundoff of about 1e-18 in the gap,
    divided by 2h and by d^2 gap/d eps^2, leaves eps steps of about 3e-10
    at eps ~ 0.8 and up to 1e-8 just above SERIES_EPS_MAX.
    Refuses with ``SearchFailureError`` when eps leaves (floor, EPS_CAP),
    naming the side it left through and quoting the last iterate inside,
    or when it ends on the cap; and with ``NonconvergenceError`` after 30
    steps.
    """
    trace = []
    last_step = math.inf
    left_from = "Newton left through it from eps_jump"
    for _ in range(30):
        f, f_ee, f_a = _gap_and_slope(spec, area, eps, q)
        try:
            d_area, d_eps = np.linalg.solve([[f_a[0], f[1]], [f_a[1], f_ee]], -f)
        except np.linalg.LinAlgError:
            break
        new_area, new_eps = area + d_area, eps + d_eps
        trace.append((new_area, new_eps, float(np.linalg.norm(f))))
        if not (0.0 < new_area < math.inf and math.isfinite(new_eps)):
            break
        if not new_eps < EPS_CAP:
            raise _off_window(EPS_CAP, "cap", eps, area, left_from)
        if not new_eps > floor:
            raise _off_window(floor, "floor", eps, area, left_from)
        area, eps = new_area, new_eps
        stalled = 0.5 * last_step <= abs(d_eps) <= 1e-7
        last_step = abs(d_eps)
        if abs(d_area) <= 1e-14 * area and (last_step <= 1e-9 or stalled):
            if EPS_CAP - eps <= _CAP_RTOL * EPS_CAP:
                raise _off_window(EPS_CAP, "cap", eps, area)
            return area, eps
    raise NonconvergenceError("deep first-order crossing did not converge", trace=trace)


def _series_window(spec, area, q):
    """``(eps, floor)`` of the gap series at ``area``: the eps of its
    broken-branch minimum, and the floor of a deep crossing's eps window,
    half the eps of the barrier below that minimum.  Raises
    ``ClassificationError`` when no barrier separates the branches."""
    branch = _series_branch(_gap_coefficients(spec, area, q))
    if branch is None or branch[2] is None:
        raise ClassificationError(
            "no coexistence barrier at the crossing; transition is not first order"
        )
    return math.sqrt(branch[0]), 0.5 * math.sqrt(branch[2])


def find_first_order(spec, a_bracket, q: QuadratureConfig = DEFAULT_CONFIG):
    """Density where the square and symmetry-broken branch energies cross.

    Solves ``E(A, 1) = min_branch E(A, e^eps)`` with the branch energy
    taken from the eighth-order expansion of the gap, which resolves
    crossings far below the absolute precision of the energies
    themselves.  When the branch minimum there lies beyond
    ``SERIES_EPS_MAX`` the crossing is relocated against the directly
    integrated gap by one Newton solve of ``(gap, d gap/d eps) = 0`` in
    (A, eps), seeded with the series crossing and the deepest point of
    the eps lattice (129 points on [0, ``EPS_CAP``], delta <= 4) at or
    above half the barrier location (``_gap_scan``).  Returns
    ``(a_trans, eps_jump)``; raises ``BracketError`` when the crossing gap
    does not change sign on ``a_bracket``, ``ClassificationError`` when no
    barrier separates the branches at the crossing, ``SearchFailureError``
    when the broken-branch minimum leaves that window or ends on the
    aspect cap, where it is no coexistence point, and
    ``NonconvergenceError`` when the Newton solve does not converge.
    """
    lo, hi = float(a_bracket[0]), float(a_bracket[1])
    g = lambda a: _crossing_gap(spec, a, q)
    try:
        a_trans = brentq(g, lo, hi, xtol=1e-15, rtol=RTOL_MIN)
    except BracketError as err:
        raise BracketError(f"branch-energy crossing not bracketed on [{lo}, {hi}]: {err}") from err
    eps_jump, floor = _series_window(spec, a_trans, q)
    if eps_jump > SERIES_EPS_MAX:
        # deep first-order regime: the truncated expansion only seeds the
        # density; eps starts from the deepest point of a scan that keeps the
        # broken branch above half the barrier location
        if not floor < EPS_CAP:
            raise _off_window(EPS_CAP, "cap", eps_jump, a_trans)
        grid, i = _gap_scan(spec, a_trans, q, floor)
        a_trans, eps_jump = _deep_crossing(spec, a_trans, grid[i], floor, q)
    return float(a_trans), float(eps_jump)


def first_order_bracket(spec, a_hint: float, q: QuadratureConfig = DEFAULT_CONFIG):
    """A bracket of the branch-energy crossing, walked left from the E2 root.

    At the E2 root ``a_hint`` (E2 = 0, E4 < 0) the broken branch lies
    below the square one, so the crossing gap g (``_crossing_gap``) is
    positive.  By the envelope theorem g falls to the left at the rate
    ``-E2'(A) x_min``, ``x_min`` the series branch's eps^2 there, which
    predicts the crossing ``D = g / (-E2' x_min)`` to the left (``e2_slope``
    costs two integrals).  The walk steps left, doubling from
    ``max(1e-6 * a_hint, D / 2)`` but at most ``0.1 * a_hint`` (from
    ``1e-6 * a_hint`` without a prediction), until g turns negative, and
    returns the last step: the first sign change left of the root.  A step
    past the crossing into densities without a broken minimum finds g = -1
    there, so the bracket still holds.  Raises ``BracketError`` when g is
    not positive at ``a_hint``, or when the walk reaches a non-positive
    density without a sign change (within 20 steps from ``1e-6 * a_hint``).
    """
    g = functools.lru_cache(maxsize=None)(lambda a: _crossing_gap(spec, a, q))
    hi = float(a_hint)
    if not g(hi) > 0:
        raise BracketError(
            f"branch-energy crossing gap {g(hi):.3e} is not positive at the E2 root A={hi}"
        )
    step = 1e-6 * hi
    branch = _series_branch(_gap_coefficients(spec, hi, q))
    if branch is not None:
        rate = -e2_slope(spec, hi, q) * branch[0]
        if rate > 0.0:  # no further than a tenth of the density, whatever the slope
            step = min(max(step, 0.5 * g(hi) / rate), 0.1 * hi)

    def walk(a, step):
        while a > 0.0:
            yield a
            a, step = a - step, 2.0 * step

    bracket = sign_change(g, walk(hi, step))
    if bracket is None:
        raise BracketError(f"could not bracket the branch-energy crossing below A={a_hint}")
    return bracket[::-1]  # the walk runs leftward


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
) -> FitResult:
    """Least-squares slope of log(delta-1) against log(A - a_ref).

    ``a_ref`` must be a validated transition or tricritical density; the
    fit approaches it from above.  When ``deltas`` is omitted, 12
    geometrically spaced offsets span the window of the regime (sign of
    E4 at ``a_ref``): ``SECOND_ORDER_WINDOW`` or ``TRICRITICAL_WINDOW``.
    """
    if deltas is None:
        # classify the reference point by E4 measured against its own
        # variation scale: at a tricritical point the residual sign of an
        # (almost) vanishing E4 must not pick the window (one stacked pass)
        points = [(spec, a_ref * f) for f in (1.0, 1.01, 0.99)]
        e4v, e4_up, e4_down = e2_e4_stack(points, q)[:, 1]
        e4_scale = abs(e4_up - e4_down)
        if e4v < -0.05 * e4_scale:
            raise ClassificationError(
                "E4 < 0 at a_ref: first-order point, no power-law onset to fit"
            )
        window = SECOND_ORDER_WINDOW if e4v > 0.05 * e4_scale else TRICRITICAL_WINDOW
        deltas = np.geomspace(window[0], window[1], 12) * a_ref
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
    k = kappa1
    p = k * k * area / 4.0
    c = p / math.pi**2
    return integrate_split(
        curvature_table,
        lambda u, root: np.exp(-p / u) * (1.0 - (1.0 + k) * area / (2.0 * u)) / root,
        lambda u, root: np.exp(-c * u) * (1.0 - (1.0 + k) * area * u / (2.0 * math.pi**2)) / root,
        p,
        q,
        front=1.0,
    )


def a_star_min(kappa1: float, q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Limiting transition density of the double-Yukawa family at v1 -> inf,
    bracketed at the first sign change on a 41-point grid over A in [0.2, 20]."""
    check_domain(kappa1 > 0, "kappa1 must be positive", kappa1=kappa1)
    f = lambda a: _a_star_min_condition(kappa1, a, q)
    grid = np.geomspace(0.2, 20.0, 41)
    bracket = sign_change(f, grid)
    if bracket is not None:
        return brentq(f, *bracket, xtol=1e-15, rtol=RTOL_MIN)
    if all(f(a) == 0.0 for a in grid):  # a refusal only: the values are taken again
        raise BracketError(
            f"limiting condition underflows for kappa1={kappa1}: the overall "
            f"scale exp(-kappa1 sqrt(A)) is below double precision"
        )
    raise BracketError(f"no sign change of the limiting condition for kappa1={kappa1}")


def a_star_min_zero_limit(q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """kappa1 -> 0+ limit of a_star_min, as a ratio of two curvature moments."""

    def moment(power_direct, power_transformed):
        scale = math.pi ** (-2.0 * power_transformed - 1.0)
        return integrate_split(
            curvature_table,
            lambda u, root: u**power_direct,
            lambda u, root: scale * u**power_transformed,
            0.0,
            q,
            front=1.0,
        )

    # numerator: 2 * integral sqrt(t) G dt; denominator: integral G/sqrt(t) dt,
    # with G the curvature bracket divided by t
    num = moment(-0.5, -0.5)
    den = moment(-1.5, 0.5)
    return 2.0 * num / den


# ---------------------------------------------------------------------------
# existence window of the tricritical locus
# ---------------------------------------------------------------------------


def _tricritical_chain(kappa1_values, q, seed=(2.7163619942, 0.4371973853)):
    """Warm-started tricritical solves along a kappa1 walk (double Yukawa),
    the steps of ``kappa1_upper``'s secant walk.

    Returns (kappa1, A_t, kappa2_t, v1_t) rows and raises
    NonconvergenceError from the solver only after losing the
    continuation entirely, or ParameterDomainError for a kappa1 at or
    above the window's upper end (``_window_end``).
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


def kappa1_upper(q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Upper end of the tricritical window: the intersection of the
    tricritical strength v1^t(kappa1) with the admissibility border
    v1 = exp(kappa1)/kappa1 (equivalently, where the derived screening
    kappa2^t reaches zero).  A trust-region secant walk on kappa2^t(kappa1)
    stops once its step falls below 1e-10 relative.  A solve refused at
    or above the exact end (``_window_end``) counts as a failed one, so
    it costs no integral and the walk takes the same steps.

    The value sits 1.98e-10 relative below the exact end: Newton's
    relative step test cannot pass as kappa2^t -> 0, and one such
    refused solve just below the end bounds the walk.  Returning
    ``_window_end`` itself would replace the walk."""
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
        if abs(k_c - k_b) <= 1e-10 * k_b:
            return float(k_c)
        try:
            row = _tricritical_chain([k_c], q, seed=seed)[0]
        except (NonconvergenceError, ParameterDomainError):
            k_fail = k_c
            continue
        seed = (row[1], row[2])
        k_a, h_a = k_b, h_b
        k_b, h_b = k_c, row[2]
    raise NonconvergenceError("kappa1 upper bound iteration did not converge")


#: Tricritical strength v1^t that marks the lower end of the window.
_LOWER_END_V1 = 1e4


def kappa1_lower(q: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Lower end of the tricritical window: the kappa1 where the tricritical
    strength v1^t reaches 1e4, on its way to diverging.

    One Newton solve of (E2, E4) = 0 in (A, kappa1) over the double-Yukawa
    members with v1 = 1e4, with the unknowns and finite-difference steps of
    the Yukawa-Coulomb tricritical solve.  There is no fallback: a failed
    solve raises Newton's ``NonconvergenceError`` with its trace.
    """
    F = _evaluator(lambda kappa1: pot.derive_double_yukawa(_LOWER_END_V1, kappa1), q)
    z, _, _, _ = _newton2(F, (2.56, 1.44), _positive, _RELATIVE_STEPS)
    return float(z[1])
