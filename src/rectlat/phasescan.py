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
import functools
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
    _a_star_min_root,
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


def _prediction(solved, misses=()):
    """A scan row's root predicted from the rows before it, or None.

    ``solved`` holds the roots of the rows before (None where a row
    failed), ``misses`` the relative errors of their predictions (None
    where a row had none).  With the two rows before solved, the root is
    predicted linearly in the grid index, ``A = 2 A[k-1] - A[k-2]``, and
    bracketed as ``A (1 +- r)``: ``r = max(4 m, 1e-9)``, ``m`` the larger
    of the last two misses, or 5e-3 before there is one
    (predictor-corrector continuation).  Returns ``(A, bracket)``.
    """
    if len(solved) < 2 or None in solved[-2:]:
        return None
    pred = 2.0 * solved[-1] - solved[-2]
    m = max((m for m in misses[-2:] if m is not None), default=None)
    r = 5e-3 if m is None else max(4.0 * m, 1e-9)
    return pred, (pred * (1.0 - r), pred * (1.0 + r))


def _miss(root, predicted):
    """The relative error of a prediction ``(A, bracket)``, or None."""
    return None if predicted is None else abs(root - predicted[0]) / root


def _cold_root(spec, q, solved):
    """A scan row's E2 root without a usable prediction: ``find_transition``
    on the first sign change of E2 over densities widening around the last
    solved root of ``solved`` (0.9 and 1.1 times it, then each end 0.85
    and 1.15 times the one before, 40 times), or over a 25-point grid on
    A in [0.3, 20] before any root is solved.  E2 is memoised, so Brent
    reuses the values the search took."""
    e2 = functools.lru_cache(maxsize=None)(lambda a: e2_closed(spec, a, q))
    hint = next((a for a in reversed(solved) if a is not None), None)
    if hint is None:
        densities = np.geomspace(0.3, 20.0, 25)
    else:
        densities = (hint * r for k in range(40) for r in (0.9 * 0.85**k, 1.1 * 1.15**k))
    bracket = sign_change(e2, densities)
    if bracket is None:
        raise BracketError("no sign change of E2 for the cold start")
    return find_transition(spec, sorted(bracket), q, e2)


def _e2_root(spec, q, solved, misses):
    """The E2 root of a scan row, bracketed from the rows before it.

    The bracket is ``_prediction(solved, misses)``'s.  Without a
    prediction, or when its solve is refused (its bracket has no sign
    change, or reaches A <= 0), the row starts cold (``_cold_root``).
    Either way one Brent solve converges the root.  Returns
    ``(tp, miss)``, with the miss of this row's prediction or None.
    """
    predicted = _prediction(solved, misses)
    tp = None
    if predicted is not None:
        try:
            tp = find_transition(spec, predicted[1], q)
        except RectlatError:  # no sign change, or a bracket off the domain
            pass
    if tp is None:
        tp = _cold_root(spec, q, solved)
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
    """Strength whose transition density equals ``area`` (inverse sweep), or
    None: Brent's root of E2 at ``area`` as a function of v1, at the first
    sign change of a walk over the border strength e^kappa1 / kappa1, 1.0005
    times it and 2^k times it for k = 2..41.  At the border E2 is the
    Yukawa-Coulomb member's: E2 is continuous there, and the background
    does not enter it.  E2 is memoised, so Brent reuses the walk's values."""
    border = math.exp(kappa1) / kappa1

    @functools.lru_cache(maxsize=None)
    def g(v1):
        if v1 == border:
            return e2_closed(pot.derive_yukawa_coulomb(kappa1), area, q)
        return e2_closed(pot.derive_double_yukawa(v1, kappa1), area, q)

    strengths = [border, border * 1.0005] + [border * 2.0**k for k in range(2, 42)]
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


def scan_a_star_min(kappa1_grid: Sequence[float], q: QuadratureConfig = DEFAULT_CONFIG):
    """Limiting critical density of the large-v1 regime along kappa1.

    Walks the grid once, in order: a row whose two rows before are solved
    is sought on the positive ends of ``_prediction``'s bracket first
    (``_a_star_min_root``), and otherwise, or where they hold no sign
    change, by ``a_star_min`` and its own grid scan.  A refused row is
    recorded as failed.  Returns ``(kappa1, a_star_min, status)`` rows.
    """
    rows, solved, misses = [], [], []
    for k1 in map(float, kappa1_grid):
        predicted = _prediction(solved, misses)
        try:
            a = None
            if predicted is not None:
                try:
                    a = _a_star_min_root(k1, [end for end in predicted[1] if end > 0.0], q)
                except BracketError:  # no sign change on the bracket's positive ends
                    pass
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
