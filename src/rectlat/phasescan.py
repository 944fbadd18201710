"""Parameter sweeps: critical curves, first-order loci, tricritical loci.

Scans are split into a cheap serial seeding pass (warm-started along the
grid, which dominates robustness) and an embarrassingly parallel polish
pass over the seeded brackets.  Because every polished point depends
only on its own seed, the emitted rows are byte-identical for any worker
count.  Failures are recorded per row and the scan continues; boundary
regions of parameter space legitimately fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
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
from .errors import RectlatError, SearchFailureError
from .expansion import e2_closed
from .quadrature import DEFAULT_CONFIG, QuadratureConfig

SCAN_CSV_HEADER = (
    "family,kappa1,v1,a_star,order,eps_jump,e2_residual,e4_value,status"
)


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


def _failed_row(family, kappa1, v1, err) -> PhaseDiagramRow:
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
    artificial extension of the second-order curve.  A crossing whose
    broken branch is pinned at the aspect cap keeps its row, marked failed."""
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
    except SearchFailureError as err:
        crossing = dict(a_star=None, eps_jump=0.0, status=_failure_status(err))
    rows.append(PhaseDiagramRow(order="first", **crossing, **base))
    return rows


def _coarse_e2_root(spec, q, hint=None, lo=0.3, hi=20.0):
    """Cheap warm-startable E2 root (bisection to ~1e-3 relative)."""
    f = lambda a: e2_closed(spec, a, q)
    if hint is not None:
        a, b = hint * 0.9, hint * 1.1
        fa, fb = f(a), f(b)
        for _ in range(40):
            if np.sign(fa) * np.sign(fb) < 0:
                break
            a, b = a * 0.85, b * 1.15
            fa, fb = f(a), f(b)
        else:
            return None
    else:
        grid = np.geomspace(lo, hi, 25)
        vals = [f(x) for x in grid]
        for i in range(len(grid) - 1):
            if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0:
                a, b, fa, fb = grid[i], grid[i + 1], vals[i], vals[i + 1]
                break
        else:
            return None
    while (b - a) > 1e-3 * b:
        m = 0.5 * (a + b)
        fm = f(m)
        if np.sign(fm) == np.sign(fa):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def _polish_critical_point(args):
    family, params, bracket, q = args
    try:
        if family == pot.DOUBLE_YUKAWA:
            spec = pot.derive_double_yukawa(*params)
        else:
            spec = pot.derive_yukawa_coulomb(params[0])
        return _transition_rows(spec, bracket, q)
    except RectlatError as err:
        kappa1 = params[1] if family == pot.DOUBLE_YUKAWA else params[0]
        v1 = params[0] if family == pot.DOUBLE_YUKAWA else None
        return [_failed_row(family, kappa1, v1, err)]


def _map_jobs(fn, jobs, workers):
    if workers <= 1 or len(jobs) <= 1:
        return [fn(j) for j in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))


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
    if (v1_grid is None) == (a_grid is None):
        raise ValueError("provide exactly one of v1_grid or a_grid")
    if a_grid is not None:
        v1_grid = [_v1_on_critical_curve(kappa1, a, q) for a in a_grid]

    # serial seeding pass: coarse E2 roots, warm-started along the grid
    jobs = []
    hint = None
    for v1 in v1_grid:
        if v1 is None:
            jobs.append(None)
            continue
        try:
            spec = pot.derive_double_yukawa(v1, kappa1)
        except RectlatError:
            jobs.append((pot.DOUBLE_YUKAWA, (v1, kappa1), None, q))
            continue
        coarse = _coarse_e2_root(spec, q, hint)
        hint = coarse if coarse is not None else hint
        bracket = None if coarse is None else (coarse * 0.995, coarse * 1.005)
        jobs.append((pot.DOUBLE_YUKAWA, (v1, kappa1), bracket, q))

    rows: list[PhaseDiagramRow] = []
    results = _map_jobs(_polish_critical_point, [j for j in jobs if j is not None], workers)
    it = iter(results)
    for v1, job in zip(v1_grid, jobs):
        if job is None:
            rows.append(
                _failed_row(
                    pot.DOUBLE_YUKAWA, kappa1, None, ValueError("critical curve inversion failed")
                )
            )
        else:
            rows.extend(next(it))
    return rows


def _v1_on_critical_curve(kappa1, area, q):
    """Strength whose transition density equals ``area`` (inverse sweep)."""
    from scipy.optimize import brentq

    border = math.exp(kappa1) / kappa1

    def g(v1):
        return e2_closed(pot.derive_double_yukawa(v1, kappa1), area, q)

    lo, hi = border * 1.0005, border * 4.0
    g_lo = g(lo)
    for _ in range(40):
        if np.sign(g(hi)) != np.sign(g_lo):
            return brentq(g, lo, hi, xtol=1e-13, rtol=4 * np.finfo(float).eps)
        lo, hi = hi, hi * 2.0
    return None


def scan_yukawa_coulomb(
    kappa1_grid: Sequence[float],
    q: QuadratureConfig = DEFAULT_CONFIG,
    workers: int = 1,
    tricritical_row: bool = True,
) -> list[PhaseDiagramRow]:
    """Transition rows of the Yukawa-Coulomb family over a kappa1 grid,
    with the tricritical point inserted as its own row."""
    jobs = []
    hint = None
    for k1 in kappa1_grid:
        try:
            spec = pot.derive_yukawa_coulomb(k1)
        except RectlatError:
            jobs.append((pot.YUKAWA_COULOMB, (k1,), None, q))
            continue
        coarse = _coarse_e2_root(spec, q, hint)
        hint = coarse if coarse is not None else hint
        bracket = None if coarse is None else (coarse * 0.995, coarse * 1.005)
        jobs.append((pot.YUKAWA_COULOMB, (k1,), bracket, q))
    rows: list[PhaseDiagramRow] = []
    for chunk in _map_jobs(_polish_critical_point, jobs, workers):
        rows.extend(chunk)
    if tricritical_row:
        tc = find_tricritical(pot.YUKAWA_COULOMB, q=q)
        spec = pot.derive_yukawa_coulomb(tc.param_t)
        rows.append(
            PhaseDiagramRow(
                family=pot.YUKAWA_COULOMB,
                kappa1=tc.param_t,
                v1=spec.v1,
                a_star=tc.a_t,
                order="tricritical",
                eps_jump=0.0,
                e2_residual=tc.residuals[0],
                e4_value=tc.residuals[1],
                status="ok",
            )
        )
    return rows


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
    kappa1_upper)`` (or None when not requested).
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
    bounds = (kappa1_lower(q=q), kappa1_upper(q=q)) if with_bounds else None
    return rows, bounds


def _a_star_min_job(args):
    k1, q = args
    try:
        return (k1, a_star_min(k1, q), "ok")
    except RectlatError as err:
        return (k1, None, f"failed: {type(err).__name__}")


def scan_a_star_min(
    kappa1_grid: Sequence[float],
    q: QuadratureConfig = DEFAULT_CONFIG,
    workers: int = 1,
):
    """Limiting critical density of the large-v1 regime along kappa1."""
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
    """Top-level {meta, rows} document; floats keep full precision."""
    from . import __version__

    keys = header.split(",") if header else None
    payload_rows = []
    for r in rows:
        if isinstance(r, PhaseDiagramRow):
            payload_rows.append(asdict(r))
        elif keys is not None:
            payload_rows.append(dict(zip(keys, r)))
        else:
            payload_rows.append(list(r))
    return json.dumps(
        {"meta": {"version": __version__, "config": config}, "rows": payload_rows},
        indent=2,
    )
