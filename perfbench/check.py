"""Correctness check and failure accounting against stored reference outputs.

Every command's standard output is parsed into rows (JSON for the
single-point commands, CSV for scans) and compared column by column with
the output stored from the reference commit, each column within the
stopping tolerance of the solver that produced it.

A row *fails* when its status starts with ``failed`` or when it is an
``ok`` first-order row whose ``eps_jump`` sits on the search cap
``EPS_CAP = ln 4``.  A command that exits non-zero fails every operation
it was asked for: one for a single-point command, one per grid point for
a scan.  Rows that already fail in the reference are known failures:
they count as failed but are left out of the mismatch count.
"""

from __future__ import annotations

import csv
import io
import json
import math

EPS_CAP = math.log(4.0)
# The bounded minimiser stops within about sqrt(machine eps) * x of a bound,
# so a pinned eps_jump reads ln 4 - 2e-8, not ln 4.
_CAP_RTOL = 1e-6

_ROOT = ("rel", 1e-13)  # Brent and Newton roots
_COEFF = ("rel", 1e-13)  # quadrature values
_RESIDUAL = ("mag", 1e-12)  # roundoff-level residuals: magnitude only
_DEEP_ROOT = ("rel", 1e-12)  # deep first-order brentq(rtol=1e-12)
_BOUNDED = ("abs", 1e-7)  # bounded minimiser: sqrt(eps) * x + xatol / 3
_FIT = ("rel", 1e-6)  # least squares over minimisers 1e-7 A above a root

_COLUMNS = {
    "kappa1": _ROOT,
    "v1": _ROOT,
    "a_star": _ROOT,
    "a_t": _ROOT,
    "v1_t": _ROOT,
    "kappa1_t": _ROOT,
    "a_ref": _ROOT,
    "a_star_min": _ROOT,
    "delta_min": _ROOT,
    "delta_max": _ROOT,
    "A": _ROOT,
    "delta": _ROOT,
    "energy": _COEFF,
    "e0": _COEFF,
    "e2": ("rel+abs", 1e-13, 1e-15),
    "e4": _COEFF,
    "e6": _COEFF,
    "e2_residual": _RESIDUAL,
    "e4_residual": _RESIDUAL,
    "e2_discrepancy": _RESIDUAL,
    "e4_discrepancy": _RESIDUAL,
    "e4_value": ("rel+abs", 1e-9, 1e-14),  # E4 at a solved root
    "a_trans": _DEEP_ROOT,
    "eps_jump": _BOUNDED,
    "delta_jump": ("rel", 1e-7),
    "beta": _FIT,
    "amplitude": _FIT,
    "r_squared": _FIT,
    "jacobian_condition": ("rel", 1e-6),
}


def _tolerance(column: str, row: dict):
    status = row.get("status")
    if status == "kappa1-upper" and column == "kappa1":
        return ("rel", 1e-10)  # kappa1_upper(tol=1e-10)
    if status == "kappa1-lower" and column == "kappa1":
        return ("abs", 1e-4)  # bisection width of kappa1_lower
    if column == "e4_value" and row.get("order") == "tricritical":
        return _RESIDUAL
    if column == "a_star" and row.get("order") == "first" and status == "ok":
        return _DEEP_ROOT
    return _COLUMNS.get(column, _ROOT)


def _close(column, row, got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str) or want is None or got is None:
        return got == want
    kind, *tol = _tolerance(column, row)
    if kind == "mag":
        return abs(got) <= tol[0]
    if math.isnan(want) or math.isnan(got):
        return math.isnan(want) and math.isnan(got)
    diff = abs(got - want)
    if kind == "abs":
        return diff <= tol[0]
    if kind == "rel":
        return diff <= tol[0] * abs(want)
    return diff <= tol[0] * abs(want) + tol[1]


def _value(text: str):
    if text == "":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_rows(stdout: str) -> list[dict]:
    """Rows of a JSON document or a CSV table, as dicts."""
    if stdout.lstrip().startswith("{"):
        return json.loads(stdout)["rows"]
    reader = csv.reader(io.StringIO(stdout))
    header = next(reader)
    return [{k: _value(v) for k, v in zip(header, line)} for line in reader]


def at_cap(eps: float) -> bool:
    return abs(eps - EPS_CAP) <= _CAP_RTOL * EPS_CAP


def row_fails(row: dict, argv) -> bool:
    status = row.get("status", "ok")
    if isinstance(status, str) and status.startswith("failed"):
        return True
    first_order = row.get("order") == "first" or argv[0] == "first-order"
    eps = row.get("eps_jump")
    return first_order and status == "ok" and isinstance(eps, float) and at_cap(eps)


def requested_ops(argv) -> int:
    """Operations a command is asked for: one per grid point, or one."""
    for flag in ("--v1-grid", "--kappa1-grid", "--a-grid"):
        if flag in argv:
            n = int(argv[argv.index(flag) + 1].split(":")[3])
            return n + (2 if "tricritical-locus" in argv and "--no-bounds" not in argv else 0)
    return 1


def check_command(argv, exit_code: int, stdout: str, ref: dict):
    """(attempted, failed, mismatched) for one command against its reference."""
    ref_rows = parse_rows(ref["stdout"]) if ref["exit"] == 0 else None
    attempted = len(ref_rows) if ref_rows is not None else requested_ops(argv)
    if exit_code != 0:
        return attempted, attempted, 0 if ref_rows is None else attempted
    rows = parse_rows(stdout)
    if ref_rows is None:
        # a known failure that now runs: its rows have no reference
        return attempted, sum(row_fails(r, argv) for r in rows), 0
    failed = mismatched = 0
    for i in range(max(len(rows), len(ref_rows))):
        if i >= len(rows) or i >= len(ref_rows):
            mismatched += 1
            continue
        row, want = rows[i], ref_rows[i]
        known = row_fails(want, argv)
        if row_fails(row, argv):
            failed += 1
            mismatched += not known
        elif not known and (
            row.keys() != want.keys()
            or not all(_close(k, want, row[k], want[k]) for k in want)
        ):
            mismatched += 1
    return attempted, failed, mismatched
