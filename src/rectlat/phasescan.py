"""Parameter sweeps: critical curves, first-order loci, tricritical loci.

Scans are split into a cheap serial seeding pass (warm-started along the
grid, which dominates robustness) and an embarrassingly parallel polish
pass over the seeded brackets.  The polish runs in this process until it
has taken ``POOL_AFTER_S``, and only then hands the points left to a
pool of forked workers, which inherit the tables built so far.  Because
every polished point depends only on its own seed, the emitted rows are
byte-identical for any worker count.  Failures are recorded per row and
the scan continues; boundary regions of parameter space legitimately
fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

import numpy as np

from . import potentials as pot
from .critical import (
    find_first_order,
    find_tricritical,
    find_transition,
    first_order_bracket,
    kappa1_lower,
    kappa1_upper,
    a_star_min,
)
from .errors import (
    BracketError,
    NonconvergenceError,
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


@dataclass(frozen=True)
class PhaseDiagramRow:
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
    return PhaseDiagramRow(
        family=family,
        kappa1=kappa1,
        v1=v1,
        a_star=None,
        order="",
        eps_jump=0.0,
        e2_residual=None,
        e4_value=None,
        status=_failure_status(err),
    )


def _transition_rows(spec, a_bracket, q) -> list[PhaseDiagramRow]:
    """Rows for one parameter point: the E2 root, plus (in the first-order
    regime) the branch-crossing row, with the E2 root kept as the flagged
    artificial extension of the second-order curve.  A crossing that cannot
    be bracketed, whose broken branch is pinned at the aspect cap, or whose
    deep solve does not converge keeps its row, marked failed."""
    tp = find_transition(spec, a_bracket, q)
    base = dict(
        family=spec.family,
        kappa1=spec.kappa1,
        v1=spec.v1,
        e2_residual=tp.e2_residual,
        e4_value=tp.e4_at_a_star,
    )
    if tp.order == "second":
        return [
            PhaseDiagramRow(
                a_star=tp.a_star, order="second", eps_jump=0.0, status="ok", **base
            )
        ]
    rows = [
        PhaseDiagramRow(
            a_star=tp.a_star,
            order="first",
            eps_jump=0.0,
            status="artificial-extension",
            **base,
        )
    ]
    try:
        a_trans, eps_jump = find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)
        crossing = dict(a_star=a_trans, eps_jump=eps_jump, status="ok")
    except (BracketError, SearchFailureError, NonconvergenceError) as err:
        crossing = dict(a_star=None, eps_jump=0.0, status=_failure_status(err))
    rows.append(PhaseDiagramRow(order="first", **crossing, **base))
    return rows


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


def _polish_critical_point(job):
    if isinstance(job, PhaseDiagramRow):  # failed at seeding
        return [job]
    point, spec, bracket, q = job
    try:
        return _transition_rows(spec, bracket, q)
    except RectlatError as err:
        return [_failed_row(spec.family, point, err)]


#: Seconds of jobs ``_map_jobs`` runs in this process before it forks
#: workers for the rest, so that a scan this short never pays for pool
#: start-up.
POOL_AFTER_S = 0.3


def _check_workers(workers):
    check_domain(
        isinstance(workers, numbers.Integral) and workers >= 1,
        f"--workers must be an integer of at least 1, got {workers!r}",
    )


def _map_jobs(fn, jobs, workers):
    """``[fn(job) for job in jobs]``, in order.

    Jobs run here, in grid order, until they have taken more than
    ``POOL_AFTER_S``; the ones left then go to a pool of at most
    ``workers`` processes and no more than there are jobs left.  The
    workers are forked (the Linux default) and so start with this
    process's tables.
    """
    results = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        results.append(fn(job))
        left = len(jobs) - i - 1
        if workers > 1 and left > 1 and time.perf_counter() - start > POOL_AFTER_S:
            # imported here: the pool's modules cost every command their import time
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=min(workers, left)) as pool:
                results.extend(pool.map(fn, jobs[i + 1 :]))
            break
    return results


def _scan_rows(family, points, q, workers) -> list[PhaseDiagramRow]:
    """Transition rows over scan points, in grid order.

    A serial seeding pass finds coarse E2 roots, each warm-started from the
    last one found; the polish pass then runs in parallel.  A point whose
    member or coarse root cannot be had keeps a failed row.
    """
    jobs = []
    hint = None
    for point in points:
        try:
            spec = _member(family, point)
            coarse = _coarse_e2_root(spec, q, hint)
            if coarse is None:
                raise BracketError("no sign change of E2 for the coarse root")
        except RectlatError as err:
            jobs.append(_failed_row(family, point, err))
            continue
        hint = coarse
        jobs.append((point, spec, (coarse * 0.995, coarse * 1.005), q))
    return [row for rows in _map_jobs(_polish_critical_point, jobs, workers) for row in rows]


def scan_critical_curve(
    kappa1: float,
    v1_grid: Optional[Sequence[float]] = None,
    a_grid: Optional[Sequence[float]] = None,
    q: QuadratureConfig = DEFAULT_CONFIG,
    workers: int = 1,
) -> list[PhaseDiagramRow]:
    """Transition points of the double-Yukawa family at fixed kappa1.

    Sweeps either the strength v1 directly, or a density grid that is
    converted to strengths by inverting the critical curve.
    """
    _check_workers(workers)
    if (v1_grid is None) == (a_grid is None):
        raise ValueError("provide exactly one of v1_grid or a_grid")
    if a_grid is not None:
        pot._check_kappa1(kappa1)
        v1_grid = [_v1_on_critical_curve(kappa1, a, q) for a in a_grid]
    return _scan_rows(pot.DOUBLE_YUKAWA, [(v1, kappa1) for v1 in v1_grid], q, workers)


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
    workers: int = 1,
) -> list[PhaseDiagramRow]:
    """Transition rows of the Yukawa-Coulomb family over a kappa1 grid,
    with the tricritical point appended as its own row."""
    _check_workers(workers)
    rows = _scan_rows(pot.YUKAWA_COULOMB, [(None, k1) for k1 in kappa1_grid], q, workers)
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
    return PhaseDiagramRow(
        family=family,
        kappa1=kappa1,
        v1=v1,
        a_star=tc.a_t,
        order="tricritical",
        eps_jump=0.0,
        e2_residual=tc.residuals[0],
        e4_value=tc.residuals[1],
        status="ok",
    )


def scan_tricritical_locus(
    kappa1_grid: Sequence[float],
    q: QuadratureConfig = DEFAULT_CONFIG,
    with_bounds: bool = True,
):
    """Tricritical coordinates (kappa1, A_t, v1_t) along a kappa1 grid.

    Walks outward from the best-behaved interior anchor with warm
    starts; points outside the existence window are marked out-of-domain.
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
            except RectlatError:
                results[i] = (k1, None, None, "out-of-domain")

    walk(range(anchor_idx, len(grid)))
    walk(range(anchor_idx - 1, -1, -1))
    rows = [results[i] for i in range(len(grid))]
    if not with_bounds:
        return rows, None
    bounds = (kappa1_lower(q=q), kappa1_upper(q=q))
    rows.append((bounds[0], None, None, "kappa1-lower"))
    rows.append((bounds[1], None, None, "kappa1-upper"))
    return rows, bounds


def _a_star_min_job(args):
    k1, q = args
    try:
        return (k1, a_star_min(k1, q), "ok")
    except RectlatError as err:
        return (k1, None, _failure_status(err))


def scan_a_star_min(
    kappa1_grid: Sequence[float],
    q: QuadratureConfig = DEFAULT_CONFIG,
    workers: int = 1,
):
    """Limiting critical density of the large-v1 regime along kappa1."""
    _check_workers(workers)
    jobs = [(float(k1), q) for k1 in kappa1_grid]
    return _map_jobs(_a_star_min_job, jobs, workers)


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
        values = list(asdict(row).values()) if isinstance(row, PhaseDiagramRow) else list(row)
        writer.writerow([_fmt(v) for v in values])
    return buf.getvalue()


def rows_to_json(rows, config: dict, header: Optional[str] = None) -> str:
    """Top-level {meta, rows} document; floats keep full precision.
    Rows other than ``PhaseDiagramRow`` are keyed by ``header``."""
    from . import __version__

    payload_rows = [
        asdict(r) if isinstance(r, PhaseDiagramRow) else dict(zip(header.split(","), r))
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
