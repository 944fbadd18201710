"""Parameter sweeps: critical curves, first-order loci, tricritical loci.

Every scan runs in this process and walks its grid once, in order, each
row starting from the solved rows before it (predictor-corrector
continuation; Allgower & Georg, *Numerical Continuation Methods*, 1990):
an E2 root from the roots before it, a deep first-order crossing from the
crossings before it (``_scan_rows``), an a-star-min density from the
densities before it.  A row whose prediction is refused takes its own
search, so no status depends on a prediction.  Failures are recorded per
row and the scan continues; boundary regions of parameter space
legitimately fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import potentials as pot
from .critical import (
    EPS_CAP,
    GAP_LATTICE,
    SERIES_EPS_MAX,
    _a_star_min_condition,
    _deep_crossing,
    _gap_scan,
    _series_window,
    _window_start,
    find_first_order,
    find_tricritical,
    find_transition,
    first_order_bracket,
    kappa1_upper,
    a_star_min,
)
from .errors import (
    BracketError,
    NonconvergenceError,
    ParameterDomainError,
    RectlatError,
    SearchFailureError,
    check_domain,
)
from .expansion import e2_closed
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .solvers import RTOL_MIN, brentq, sign_change

SCAN_CSV_HEADER = (
    "family,kappa1,v1,a_star,order,eps_jump,e2_residual,e4_value,status"
)
LOCUS_CSV_HEADER = "kappa1,a_t,v1_t,status"
A_STAR_MIN_CSV_HEADER = "kappa1,a_star_min,status"


class PhaseDiagramRow(NamedTuple):
    family: str
    kappa1: float
    v1: Optional[float]
    a_star: Optional[float]
    order: str
    eps_jump: float
    e2_residual: Optional[float]
    e4_value: Optional[float]
    status: str


def _failure_status(err) -> str:
    return f"failed: {type(err).__name__}: {err}"


def _failed_row(family, point, err) -> PhaseDiagramRow:
    """The row of a scan point ``(v1, kappa1)`` that failed."""
    v1, kappa1 = point
    return PhaseDiagramRow(family, kappa1, v1, None, "", 0.0, None, None, _failure_status(err))


def _transition_rows(spec, tp, q, crossing=None) -> list[PhaseDiagramRow]:
    """Rows for one parameter point from its E2 root ``tp``: that root,
    plus (in the first-order regime) the branch-crossing row, with the E2
    root kept as the flagged artificial extension of the second-order
    curve.  The crossing is ``crossing`` where one was solved from the
    rows before (``_predicted_crossing``), else ``find_first_order``'s on
    the bracket walked from the E2 root.  A crossing that cannot be
    bracketed, whose broken branch is pinned at the aspect cap, or whose
    deep solve does not converge keeps its row, marked failed."""
    point, residuals = (spec.family, spec.kappa1, spec.v1), (tp.e2_residual, tp.e4_at_a_star)

    def row(a_star, order, eps_jump, status):
        return PhaseDiagramRow(*point, a_star, order, eps_jump, *residuals, status)

    if tp.order == "second":
        return [row(tp.a_star, "second", 0.0, "ok")]
    try:
        if crossing is None:
            crossing = find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)
        last = row(crossing[0], "first", crossing[1], "ok")
    except (BracketError, SearchFailureError, NonconvergenceError) as err:
        last = row(None, "first", 0.0, _failure_status(err))
    return [row(tp.a_star, "first", 0.0, "artificial-extension"), last]


def _coarse_e2_root(spec, q, hint=None):
    """Cheap warm-startable E2 root: Brent to 1e-3 relative on a bracket
    widened symmetrically around ``hint`` (40 tries), or else at the first
    sign change on a 25-point grid over A in [0.3, 20]; None without one."""
    f = lambda a: e2_closed(spec, a, q)
    bracket = None
    if hint is not None:
        a, b = hint * 0.9, hint * 1.1
        for _ in range(40):
            if np.sign(f(a)) * np.sign(f(b)) < 0:
                bracket = (a, b)
                break
            a, b = a * 0.85, b * 1.15
    else:
        bracket = sign_change(f, np.geomspace(0.3, 20.0, 25))
    return None if bracket is None else brentq(f, *bracket, xtol=sys.float_info.min, rtol=1e-3)


def _member(family, point):
    """The family member at a scan point ``(v1, kappa1)``; v1 is None for
    Yukawa-Coulomb, and for a double-Yukawa density the inversion missed."""
    v1, kappa1 = point
    if family == pot.DOUBLE_YUKAWA and v1 is None:
        raise BracketError("critical curve inversion failed")
    return pot.make_spec(family, v1=v1, kappa1=kappa1)


def _map_jobs(fn, jobs):
    """``[fn(job) for job in jobs]``, in order: the loop over a scan's
    first-order rows.  The benchmark's tracer times and counts this loop
    by its name."""
    return [fn(job) for job in jobs]


# Half-width of the bracket around a coarse E2 root (relative): the coarse
# root is Brent's to 1e-3 relative.
_COARSE_RTOL = 5e-3


def _around(a, r):
    return a * (1.0 - r), a * (1.0 + r)


def _prediction(solved, misses=()):
    """A scan row's root predicted from the rows before it, or None.

    ``solved`` holds the roots of the rows before (None where a row
    failed), ``misses`` the relative errors of their predictions (None
    where a row had none).  With the two rows before solved, the root is
    predicted linearly in the grid index, ``A = 2 A[k-1] - A[k-2]``, and
    bracketed as ``A (1 +- r)``: ``r = max(4 m, 1e-9)``, ``m`` the larger
    of the last two misses, or ``_COARSE_RTOL`` before there is one
    (predictor-corrector continuation).  Returns ``(A, bracket)``.
    """
    if len(solved) < 2 or None in solved[-2:]:
        return None
    pred = 2.0 * solved[-1] - solved[-2]
    m = max((m for m in misses[-2:] if m is not None), default=None)
    return pred, _around(pred, _COARSE_RTOL if m is None else max(4.0 * m, 1e-9))


def _miss(root, predicted):
    """The relative error of a prediction ``(A, bracket)``, or None."""
    return None if predicted is None else abs(root - predicted[0]) / root


def _e2_root(spec, q, solved, misses):
    """The E2 root of a scan row, bracketed from the rows before it.

    The bracket is ``_prediction(solved, misses)``'s.  Without a
    prediction, or when its solve is refused (its bracket has no sign
    change, or reaches A <= 0), the bracket is the coarse root
    (``_coarse_e2_root``, warm-started from the last solved root)
    ``+-_COARSE_RTOL``.  Returns ``(tp, miss)``, with the miss of this
    row's prediction or None.
    """
    predicted = _prediction(solved, misses)
    tp = None
    if predicted is not None:
        try:
            tp = find_transition(spec, predicted[1], q)
        except RectlatError:  # no sign change, or a bracket off the domain
            pass
    if tp is None:
        hint = next((a for a in reversed(solved) if a is not None), None)
        coarse = _coarse_e2_root(spec, q, hint)
        if coarse is None:
            raise BracketError("no sign change of E2 for the coarse root")
        tp = find_transition(spec, _around(coarse, _COARSE_RTOL), q)
    return tp, _miss(tp.a_star, predicted)


# A predicted crossing is solved from its prediction only where the gap
# series' minimum at the predicted density lies above this multiple of
# SERIES_EPS_MAX, else the row may be a series crossing: from the crossing
# to the E2 root the minimum's eps grows by up to sqrt(4/3) = 1.155 (at
# sixth order x = -c4 / 2 c6 at the crossing and -2 c4 / 3 c6 at the root),
# and a predicted density lies anywhere between them.
_DEEP_MARGIN = 1.2


def _predicted_crossing(spec, q, a_pred, eps_pred):
    """A deep crossing ``(a_trans, eps_jump)`` solved from a predicted
    ``(a_pred, eps_pred)``, or None where the row must take
    ``find_first_order``'s path.

    ``_deep_crossing`` starts at the prediction, with the floor from the
    gap series' barrier at ``a_pred``.  None where the series has no
    barrier there or its minimum lies within ``_DEEP_MARGIN`` of
    ``SERIES_EPS_MAX``, where ``eps_pred`` is outside the window, or where
    the solve is refused.  The eps lattice at or above the floor
    (``_gap_scan``) guards the global minimum: None unless its lowest point
    is next to the solved eps.
    """
    try:
        eps_series, floor = _series_window(spec, a_pred, q)
        if not (eps_series > _DEEP_MARGIN * SERIES_EPS_MAX and floor < eps_pred < EPS_CAP):
            return None
        a_trans, eps_jump = _deep_crossing(spec, a_pred, eps_pred, floor, q)
    except RectlatError:
        return None
    grid, i = _gap_scan(spec, a_trans, q, floor)
    if abs(grid[i] - eps_jump) > GAP_LATTICE[1]:
        return None
    return float(a_trans), float(eps_jump)


def _scan_rows(family, points, q, areas=None) -> list[PhaseDiagramRow]:
    """Transition rows over scan points, in grid order.

    One pass solves each row's E2 root, bracketed from the roots of the
    rows before it (``_e2_root``); a second-order row is then done.  A
    second pass, ``_map_jobs``, solves the first-order rows' crossings in
    grid order.  A row whose two rows before have ok deep crossings
    (``eps_jump > SERIES_EPS_MAX``) starts from the linear extrapolation
    of their crossings (``_predicted_crossing``): of ``A_trans`` as its
    distance from the row's E2 root, which must come out negative (the
    crossing lies left of the root), and of ``eps_jump``.  Any other row,
    and a predicted row refused there, walks its bracket from the E2 root.
    A point whose member or E2 root cannot be had keeps a failed row.

    With ``areas`` (a density sweep), each point's v1 is the strength
    whose transition density is its area (``_v1_on_critical_curve``),
    inverted inside the row's capture: a refused inversion fails its row
    alone.
    """
    done, jobs, solved, misses = [], [], [], []
    for k, point in enumerate(points):
        try:
            if areas is not None:
                point = (_v1_on_critical_curve(point[1], areas[k], q), point[1])
            spec = _member(family, point)
            tp, miss = _e2_root(spec, q, solved, misses)
        except RectlatError as err:
            done.append([_failed_row(family, point, err)])
            solved.append(None)
            misses.append(None)
            continue
        solved.append(tp.a_star)
        misses.append(miss)
        if tp.order == "second":
            done.append(_transition_rows(spec, tp, q))
        else:
            done.append(None)
            jobs.append((k, point, spec, tp))
    # per grid index, for a row with an ok deep crossing: A_trans less its E2 root, eps_jump
    shifts, jumps = [None] * len(points), [None] * len(points)

    def crossing_rows(job):
        k, point, spec, tp = job
        before = slice(max(k - 2, 0), k)
        shift, eps = _prediction(shifts[before]), _prediction(jumps[before])
        crossing = None
        if shift is not None and shift[0] < 0.0 and eps is not None:
            crossing = _predicted_crossing(spec, q, tp.a_star + shift[0], eps[0])
        try:
            rows = _transition_rows(spec, tp, q, crossing)
        except RectlatError as err:
            return [_failed_row(spec.family, point, err)]
        if rows[-1].status == "ok" and rows[-1].eps_jump > SERIES_EPS_MAX:
            shifts[k], jumps[k] = rows[-1].a_star - tp.a_star, rows[-1].eps_jump
        return rows

    crossings = iter(_map_jobs(crossing_rows, jobs))
    return [row for rows in done for row in (rows if rows is not None else next(crossings))]


def scan_critical_curve(
    kappa1: float,
    v1_grid: Optional[Sequence[float]] = None,
    a_grid: Optional[Sequence[float]] = None,
    q: QuadratureConfig = DEFAULT_CONFIG,
) -> list[PhaseDiagramRow]:
    """Transition points of the double-Yukawa family at fixed kappa1.

    Sweeps either the strength v1 directly, or a density grid that is
    converted to strengths by inverting the critical curve, row by row.
    """
    check_domain((v1_grid is None) != (a_grid is None), "provide exactly one of v1_grid or a_grid")
    if a_grid is None:
        return _scan_rows(pot.DOUBLE_YUKAWA, [(v1, kappa1) for v1 in v1_grid], q)
    pot._check_kappa1(kappa1)
    return _scan_rows(pot.DOUBLE_YUKAWA, [(None, kappa1)] * len(a_grid), q, a_grid)


def _v1_on_critical_curve(kappa1, area, q):
    """Strength whose transition density equals ``area`` (inverse sweep)."""
    border = math.exp(kappa1) / kappa1

    def g(v1):
        return e2_closed(pot.derive_double_yukawa(v1, kappa1), area, q)

    strengths = [border * 1.0005] + [border * 2.0**k for k in range(2, 42)]
    bracket = sign_change(g, strengths)
    return None if bracket is None else brentq(g, *bracket, xtol=1e-13, rtol=RTOL_MIN)


def scan_yukawa_coulomb(
    kappa1_grid: Sequence[float],
    q: QuadratureConfig = DEFAULT_CONFIG,
) -> list[PhaseDiagramRow]:
    """Transition rows of the Yukawa-Coulomb family over a kappa1 grid,
    with the tricritical point appended as its own row."""
    rows = _scan_rows(pot.YUKAWA_COULOMB, [(None, k1) for k1 in kappa1_grid], q)
    rows.append(tricritical_row(pot.YUKAWA_COULOMB, find_tricritical(pot.YUKAWA_COULOMB, q=q)))
    return rows


def tricritical_row(family, tc, kappa1=None) -> PhaseDiagramRow:
    """The phase-diagram row of a tricritical point ``tc``.

    ``kappa1`` is the fixed screening of a double-Yukawa solve, whose
    parameter is v1; a Yukawa-Coulomb solve finds kappa1 itself.
    """
    if family == pot.YUKAWA_COULOMB:
        kappa1, v1 = tc.param_t, pot.derive_yukawa_coulomb(tc.param_t).v1
    else:
        v1 = tc.param_t
    e2, e4 = tc.residuals
    return PhaseDiagramRow(family, kappa1, v1, tc.a_t, "tricritical", 0.0, e2, e4, "ok")


def scan_tricritical_locus(
    kappa1_grid: Sequence[float],
    q: QuadratureConfig = DEFAULT_CONFIG,
    with_bounds: bool = True,
):
    """Tricritical coordinates (kappa1, A_t, v1_t) along a kappa1 grid.

    Walks outward from the best-behaved interior anchor with warm
    starts; points outside the existence window (``find_tricritical``'s
    domain refusal) are marked out-of-domain, and a solve refused for any
    other reason ``failed: <Class>: <message>``.
    Returns ``(rows, bounds)`` where rows are
    ``(kappa1, a_t, v1_t, status)`` and bounds is ``(kappa1_lower,
    kappa1_upper)`` (or None when not requested); the bounds close the
    rows as ``kappa1-lower`` and ``kappa1-upper`` rows.
    """
    grid = np.asarray(sorted(kappa1_grid), dtype=float)
    anchor_idx = int(np.argmin(np.abs(grid - 2.0)))
    results: dict[int, tuple] = {}

    def walk(indices):
        guess = (2.72, 6.8)
        for i in indices:
            k1 = float(grid[i])
            try:
                tc = find_tricritical(pot.DOUBLE_YUKAWA, k1, initial_guess=guess, q=q)
                results[i] = (k1, tc.a_t, tc.param_t, "ok")
                guess = (tc.a_t, tc.param_t)
            except ParameterDomainError:
                results[i] = (k1, None, None, "out-of-domain")
            except RectlatError as err:
                results[i] = (k1, None, None, _failure_status(err))

    walk(range(anchor_idx, len(grid)))
    walk(range(anchor_idx - 1, -1, -1))
    rows = [results[i] for i in range(len(grid))]
    if not with_bounds:
        return rows, None
    bounds = (_window_start(q), kappa1_upper(q=q))
    rows.append((bounds[0], None, None, "kappa1-lower"))
    rows.append((bounds[1], None, None, "kappa1-upper"))
    return rows, bounds


def _a_star_min_on(kappa1, q, bracket):
    """``a_star_min(kappa1)`` sought on a predicted ``bracket``, with its
    tolerances, or None unless kappa1 is positive, the bracket ordered with
    both ends positive (a wide miss around a negative prediction puts ``hi``
    below zero), and the limiting condition nonzero at both ends and of
    opposite sign there: above kappa1 ~ 700 it underflows to 0.0 over whole
    ranges, where Brent would return an end.  Brent reuses the two end
    values."""
    lo, hi = bracket
    if not (kappa1 > 0.0 and 0.0 < lo < hi):
        return None
    f = lambda a: _a_star_min_condition(kappa1, a, q)
    ends = {lo: f(lo), hi: f(hi)}
    if not np.sign(ends[lo]) * np.sign(ends[hi]) < 0:
        return None
    return brentq(lambda a: ends[a] if a in ends else f(a), lo, hi, xtol=1e-15, rtol=RTOL_MIN)


def scan_a_star_min(kappa1_grid: Sequence[float], q: QuadratureConfig = DEFAULT_CONFIG):
    """Limiting critical density of the large-v1 regime along kappa1.

    Walks the grid once, in order: a row whose two rows before are solved
    is sought on ``_prediction``'s bracket first (``_a_star_min_on``), and
    otherwise, or where that bracket is refused or holds no sign change, by
    ``a_star_min`` and its own grid scan.  A refused row is recorded as
    failed.  Returns ``(kappa1, a_star_min, status)`` rows.
    """
    rows, solved, misses = [], [], []
    for k1 in map(float, kappa1_grid):
        predicted = _prediction(solved, misses)
        try:
            a = None if predicted is None else _a_star_min_on(k1, q, predicted[1])
            if a is None:
                a = a_star_min(k1, q)
        except RectlatError as err:
            rows.append((k1, None, _failure_status(err)))
            solved.append(None)
            misses.append(None)
            continue
        rows.append((k1, a, "ok"))
        solved.append(a)
        misses.append(_miss(a, predicted))
    return rows


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.15g}"
    return str(x)


def rows_to_csv(rows, header: str) -> str:
    """RFC-4180-style CSV (LF line endings, 15 significant digits)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header.split(","))
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    return buf.getvalue()


def rows_to_json(rows, config: dict, header: Optional[str] = None) -> str:
    """Top-level {meta, rows} document; floats keep full precision.
    Rows other than ``PhaseDiagramRow`` are keyed by ``header``."""
    from . import __version__

    payload_rows = [
        r._asdict() if isinstance(r, PhaseDiagramRow) else dict(zip(header.split(","), r))
        for r in rows
    ]
    return json.dumps(
        {"meta": {"version": __version__, "config": config}, "rows": payload_rows},
        indent=2,
    )


def write_table(rows, header: str, fmt: str, config: Optional[dict], output=None):
    """Write ``rows`` as CSV (``fmt == "csv"``) or as the JSON document with
    ``config`` in its meta, to the file ``output`` or else to stdout."""
    if fmt == "csv":
        text = rows_to_csv(rows, header)
    else:
        text = rows_to_json(rows, config, header) + "\n"
    if output:
        with open(output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
