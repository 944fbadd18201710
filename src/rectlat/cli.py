"""Command-line interface.

Every subcommand validates its flags, runs the corresponding library
operation, and emits a machine-readable record: JSON (default for
single-point commands, full double precision) or CSV (default for
scans, 15 significant digits).  No environment variables are consulted
and no timestamps are emitted, so identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 parameter-domain error, 3 numerical failure,
4 nonconvergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__, expansion
from . import potentials as pot
from .critical import (
    FitResult,
    find_first_order,
    find_transition,
    find_tricritical,
    first_order_bracket,
    fit_exponent,
)
from .energy import LatticeState, lattice_energy
from .errors import (
    BracketError,
    ClassificationError,
    NonconvergenceError,
    ParameterDomainError,
    QuadratureError,
    SearchFailureError,
    UnsupportedOracleError,
    check_domain,
)
from .phasescan import (
    SCAN_CSV_HEADER,
    rows_to_csv,
    rows_to_json,
    scan_a_star_min,
    scan_critical_curve,
    scan_tricritical_locus,
    scan_yukawa_coulomb,
)
from .quadrature import QuadratureConfig


def _add_common(p, default_format):
    p.add_argument("--rel-tol", type=float, default=1e-12)
    p.add_argument("--abs-tol", type=float, default=1e-14)
    p.add_argument("--split-point", type=float, default=math.pi)
    p.add_argument("--max-refinements", type=int, default=6)
    p.add_argument("--format", choices=("json", "csv"), default=default_format)
    p.add_argument("--output", default=None, help="output path (default: stdout)")


def _add_family(p):
    p.add_argument(
        "--family",
        required=True,
        choices=(pot.RIESZ, pot.YUKAWA, pot.DOUBLE_YUKAWA, pot.YUKAWA_COULOMB),
    )
    p.add_argument("--s", type=float, help="Riesz exponent")
    p.add_argument("--kappa", type=float, help="Yukawa screening")
    p.add_argument("--v", type=float, default=1.0, help="Yukawa strength")
    p.add_argument("--v1", type=float, help="repulsive strength (double Yukawa)")
    p.add_argument("--kappa1", type=float, help="repulsive screening")


def _quad(ns) -> QuadratureConfig:
    return QuadratureConfig(
        rel_tol=ns.rel_tol,
        abs_tol=ns.abs_tol,
        split_point=ns.split_point,
        max_refinements=ns.max_refinements,
    )


def _spec(ns) -> pot.PotentialSpec:
    if ns.family == pot.RIESZ:
        if ns.s is None:
            raise ParameterDomainError("--family riesz requires --s")
        return pot.riesz(ns.s)
    if ns.family == pot.YUKAWA:
        if ns.kappa is None:
            raise ParameterDomainError("--family yukawa requires --kappa")
        return pot.yukawa(ns.kappa, ns.v)
    if ns.family == pot.DOUBLE_YUKAWA:
        if ns.v1 is None or ns.kappa1 is None:
            raise ParameterDomainError("--family double-yukawa requires --v1 and --kappa1")
        return pot.derive_double_yukawa(ns.v1, ns.kappa1)
    if ns.kappa1 is None:
        raise ParameterDomainError("--family yukawa-coulomb requires --kappa1")
    return pot.derive_yukawa_coulomb(ns.kappa1)


def _parse_grid(text: str) -> np.ndarray:
    message = f"grid must be lo:hi:lin|log:N with N >= 1, got {text!r}"
    try:
        lo, hi, kind, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ParameterDomainError(message) from None
    check_domain(n >= 1 and kind in ("lin", "log"), message, lo=lo, hi=hi)
    return np.linspace(lo, hi, n) if kind == "lin" else np.geomspace(lo, hi, n)


def _emit(ns, rows, header, config):
    if ns.format == "csv":
        text = rows_to_csv(rows, header)
    else:
        text = rows_to_json(rows, config, header) + "\n"
    if ns.output:
        with open(ns.output, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_rows(record: dict):
    """A one-record table for the single-point commands."""
    keys = list(record.keys())
    return [tuple(record[k] for k in keys)], ",".join(keys)


def cmd_energy(ns) -> int:
    spec = _spec(ns)
    q = _quad(ns)
    state = LatticeState(ns.area, math.log(ns.delta))
    value = lattice_energy(spec, state, q)
    rows, header = _record_rows({"A": ns.area, "delta": ns.delta, "energy": value})
    _emit(ns, rows, header, {"command": "energy", "potential": json.loads(spec.to_json())})
    return 0


def cmd_expand(ns) -> int:
    spec = _spec(ns)
    q = _quad(ns)
    record = {"A": ns.area}
    if ns.method in ("closed", "both"):
        closed = expansion.expansion_closed(spec, ns.area, q)
    if ns.method in ("series", "both"):
        series = expansion.expansion_series(spec, ns.area, q)
    if ns.method == "closed":
        record.update(e0=closed.e0, e2=closed.e2, e4=closed.e4, e6=None, method="closed")
    elif ns.method == "series":
        record.update(e0=series.e0, e2=series.e2, e4=series.e4, e6=series.e6, method="series")
    else:
        record.update(
            e0=series.e0,
            e2=series.e2,
            e4=series.e4,
            e6=series.e6,
            method="both",
            e2_discrepancy=abs(closed.e2 - series.e2),
            e4_discrepancy=abs(closed.e4 - series.e4),
        )
    rows, header = _record_rows(record)
    _emit(ns, rows, header, {"command": "expand", "potential": json.loads(spec.to_json())})
    return 0


def cmd_transition(ns) -> int:
    spec = _spec(ns)
    q = _quad(ns)
    tp = find_transition(spec, (ns.a_lo, ns.a_hi), q)
    rows, header = _record_rows(
        {
            "a_star": tp.a_star,
            "order": tp.order,
            "e2_residual": tp.e2_residual,
            "e4_value": tp.e4_at_a_star,
        }
    )
    _emit(ns, rows, header, {"command": "transition", "potential": json.loads(spec.to_json())})
    return 0


def cmd_tricritical(ns) -> int:
    q = _quad(ns)
    guess = None
    if ns.guess_a is not None and ns.guess_param is not None:
        guess = (ns.guess_a, ns.guess_param)
    tc = find_tricritical(ns.family, ns.kappa1, guess, q)
    param_name = "v1_t" if ns.family == pot.DOUBLE_YUKAWA else "kappa1_t"
    rows, header = _record_rows(
        {
            "a_t": tc.a_t,
            param_name: tc.param_t,
            "e2_residual": tc.residuals[0],
            "e4_residual": tc.residuals[1],
            "jacobian_condition": tc.jacobian_condition,
        }
    )
    _emit(ns, rows, header, {"command": "tricritical", "family": ns.family, "kappa1": ns.kappa1})
    return 0


def cmd_first_order(ns) -> int:
    spec = _spec(ns)
    q = _quad(ns)
    if ns.a_lo is not None and ns.a_hi is not None:
        bracket = (ns.a_lo, ns.a_hi)
    else:
        tp = find_transition(spec, (0.5, 12.0), q)
        bracket = first_order_bracket(spec, tp.a_star, q)
    a_trans, eps_jump = find_first_order(spec, bracket, q)
    rows, header = _record_rows(
        {"a_trans": a_trans, "eps_jump": eps_jump, "delta_jump": math.exp(eps_jump)}
    )
    _emit(ns, rows, header, {"command": "first-order", "potential": json.loads(spec.to_json())})
    return 0


def cmd_fit(ns) -> int:
    spec = _spec(ns)
    q = _quad(ns)
    a_ref = ns.a_ref
    if a_ref is None:
        a_ref = find_transition(spec, (0.5, 12.0), q).a_star
    fit: FitResult = fit_exponent(spec, a_ref, q=q)
    rows, header = _record_rows(
        {
            "a_ref": a_ref,
            "beta": fit.beta,
            "amplitude": fit.amplitude,
            "r_squared": fit.r_squared,
            "delta_min": fit.window[0],
            "delta_max": fit.window[1],
        }
    )
    _emit(ns, rows, header, {"command": "fit", "potential": json.loads(spec.to_json())})
    return 0


def cmd_scan(ns) -> int:
    q = _quad(ns)
    if ns.workers < 1:
        raise ParameterDomainError(f"--workers must be at least 1, got {ns.workers}")
    config = {"command": "scan", "mode": ns.mode, "workers": ns.workers}
    if ns.mode == "critical-curve":
        if ns.kappa1 is None:
            raise ParameterDomainError("critical-curve scan requires --kappa1")
        v1_grid = _parse_grid(ns.v1_grid) if ns.v1_grid else None
        a_grid = _parse_grid(ns.a_grid) if ns.a_grid else None
        rows = scan_critical_curve(ns.kappa1, v1_grid, a_grid, q, workers=ns.workers)
        header = SCAN_CSV_HEADER
    elif ns.mode == "yukawa-coulomb":
        if not ns.kappa1_grid:
            raise ParameterDomainError("yukawa-coulomb scan requires --kappa1-grid")
        rows = scan_yukawa_coulomb(_parse_grid(ns.kappa1_grid), q, workers=ns.workers)
        header = SCAN_CSV_HEADER
    elif ns.mode == "tricritical-locus":
        if not ns.kappa1_grid:
            raise ParameterDomainError("tricritical-locus scan requires --kappa1-grid")
        rows, bounds = scan_tricritical_locus(
            _parse_grid(ns.kappa1_grid), q, with_bounds=not ns.no_bounds
        )
        if bounds is not None:
            rows.append((bounds[0], None, None, "kappa1-lower"))
            rows.append((bounds[1], None, None, "kappa1-upper"))
            config["kappa1_lower"], config["kappa1_upper"] = bounds
        header = "kappa1,a_t,v1_t,status"
    elif ns.mode == "a-star-min":
        if not ns.kappa1_grid:
            raise ParameterDomainError("a-star-min scan requires --kappa1-grid")
        rows = scan_a_star_min(_parse_grid(ns.kappa1_grid), q, workers=ns.workers)
        header = "kappa1,a_star_min,status"
    else:  # pragma: no cover - argparse restricts choices
        raise ParameterDomainError(f"unknown scan mode {ns.mode!r}")
    _emit(ns, rows, header, config)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rectlat",
        description="Rectangular-lattice ground states and structural transitions",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("energy", help="lattice energy at one (A, delta)")
    _add_family(p)
    p.add_argument("--area", type=float, required=True, help="inverse density A")
    p.add_argument("--delta", type=float, default=1.0, help="aspect ratio")
    _add_common(p, "json")
    p.set_defaults(fn=cmd_energy)

    p = sub.add_parser("expand", help="expansion coefficients at one density")
    _add_family(p)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--method", choices=("closed", "series", "both"), default="both")
    _add_common(p, "json")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("transition", help="second-order transition density")
    _add_family(p)
    p.add_argument("--a-lo", type=float, default=0.5)
    p.add_argument("--a-hi", type=float, default=12.0)
    _add_common(p, "json")
    p.set_defaults(fn=cmd_transition)

    p = sub.add_parser("tricritical", help="joint root of E2 and E4")
    p.add_argument(
        "--family", required=True, choices=(pot.DOUBLE_YUKAWA, pot.YUKAWA_COULOMB)
    )
    p.add_argument("--kappa1", type=float, help="fixed kappa1 (double Yukawa)")
    p.add_argument("--guess-a", type=float)
    p.add_argument("--guess-param", type=float)
    _add_common(p, "json")
    p.set_defaults(fn=cmd_tricritical)

    p = sub.add_parser("first-order", help="branch-crossing density")
    _add_family(p)
    p.add_argument("--a-lo", type=float)
    p.add_argument("--a-hi", type=float)
    _add_common(p, "json")
    p.set_defaults(fn=cmd_first_order)

    p = sub.add_parser("fit", help="critical-exponent fit above a transition")
    _add_family(p)
    p.add_argument("--a-ref", type=float, help="reference density (default: solve)")
    _add_common(p, "json")
    p.set_defaults(fn=cmd_fit)

    p = sub.add_parser("scan", help="parameter sweeps")
    p.add_argument(
        "--mode",
        required=True,
        choices=("critical-curve", "yukawa-coulomb", "tricritical-locus", "a-star-min"),
    )
    p.add_argument("--kappa1", type=float)
    p.add_argument("--v1-grid", help="lo:hi:lin|log:N")
    p.add_argument("--a-grid", help="lo:hi:lin|log:N")
    p.add_argument("--kappa1-grid", help="lo:hi:lin|log:N")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-bounds", action="store_true", help="skip kappa1 bound estimates")
    _add_common(p, "csv")
    p.set_defaults(fn=cmd_scan)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        return ns.fn(ns)
    except (ParameterDomainError, UnsupportedOracleError, BracketError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except QuadratureError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except (NonconvergenceError, SearchFailureError, ClassificationError) as err:
        print(f"nonconvergence: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
