"""Command-line interface.

Every subcommand validates its flags, runs the corresponding library
operation, and emits a machine-readable record: JSON (default for
single-point commands, full double precision) or CSV (default for
scans, 15 significant digits).  No environment variables are consulted
and no timestamps are emitted, so identical invocations produce
byte-identical output.

Exit codes: 0 success, 2 parameter-domain error, 3 numerical failure,
4 nonconvergence, search failure or classification failure (the message
names which).
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
    A_STAR_MIN_CSV_HEADER,
    LOCUS_CSV_HEADER,
    SCAN_CSV_HEADER,
    scan_a_star_min,
    scan_critical_curve,
    scan_tricritical_locus,
    scan_yukawa_coulomb,
    write_table,
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
    p.add_argument("--v", type=float, help="Yukawa strength (default 1)")
    p.add_argument("--v1", type=float, help="repulsive strength (double Yukawa)")
    p.add_argument("--kappa1", type=float, help="repulsive screening")


def _quad(ns) -> QuadratureConfig:
    return QuadratureConfig(
        rel_tol=ns.rel_tol,
        abs_tol=ns.abs_tol,
        split_point=ns.split_point,
        max_refinements=ns.max_refinements,
    )


def _refuse_unused(ns, flags, used, what):
    """Refuse any of ``flags`` (argparse destinations) that was given on the
    command line but is not among the ``used`` ones."""
    given = [f for f in flags if getattr(ns, f) is not None]
    unused = [f"--{f.replace('_', '-')}" for f in given if f not in used]
    check_domain(not unused, f"{what} does not use {', '.join(unused)}")


def _flag_pair(ns, first, second):
    """The values of two flags (argparse destinations) that go together:
    a tuple when both were given, ``None`` when neither was; one given
    without the other is refused."""
    values = (getattr(ns, first), getattr(ns, second))
    if values.count(None) == 1:
        given, missing = (first, second) if values[1] is None else (second, first)
        flag = lambda f: f"--{f.replace('_', '-')}"
        raise ParameterDomainError(f"{flag(given)} needs {flag(missing)}")
    return None if values[0] is None else values


def _spec(ns) -> pot.PotentialSpec:
    names = ("s", "kappa", "v", "v1", "kappa1")
    _refuse_unused(ns, names, pot.FAMILY_PARAMETERS[ns.family], f"family {ns.family}")
    return pot.make_spec(ns.family, **{name: getattr(ns, name) for name in names})


def _parse_grid(text: str) -> np.ndarray:
    message = f"grid must be lo:hi:lin|log:N with N >= 1, got {text!r}"
    try:
        lo, hi, kind, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ParameterDomainError(message) from None
    check_domain(n >= 1 and kind in ("lin", "log"), message, lo=lo, hi=hi)
    positive = kind == "lin" or (lo > 0 and hi > 0)
    check_domain(positive, f"a log grid needs both ends positive, got {text!r}")
    return np.linspace(lo, hi, n) if kind == "lin" else np.geomspace(lo, hi, n)


def _emit(ns, rows, header, config):
    """Write a command's table; ``perfbench/tracer.py`` times emission here."""
    write_table(rows, header, ns.format, config, ns.output)


def _family_command(compute):
    """A single-point command on one family member.

    ``compute(ns, spec, q)`` returns the command's record; the member and
    the quadrature settings are built here, once, and the record is
    emitted as a one-row table.
    """

    def run(ns) -> int:
        spec = _spec(ns)
        record = compute(ns, spec, _quad(ns))
        config = {"command": ns.command, "potential": json.loads(spec.to_json())}
        _emit(ns, [tuple(record.values())], ",".join(record), config)
        return 0

    return run


def cmd_energy(ns, spec, q) -> dict:
    check_domain(ns.delta > 0, f"delta must be finite and positive, got {ns.delta}", delta=ns.delta)
    value = lattice_energy(spec, LatticeState(ns.area, math.log(ns.delta)), q)
    return {"A": ns.area, "delta": ns.delta, "energy": value}


def cmd_expand(ns, spec, q) -> dict:
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
    return record


def cmd_transition(ns, spec, q) -> dict:
    tp = find_transition(spec, (ns.a_lo, ns.a_hi), q)
    return {
        "a_star": tp.a_star,
        "order": tp.order,
        "e2_residual": tp.e2_residual,
        "e4_value": tp.e4_at_a_star,
    }


def cmd_tricritical(ns) -> int:
    q = _quad(ns)
    guess = _flag_pair(ns, "guess_a", "guess_param")
    tc = find_tricritical(ns.family, ns.kappa1, guess, q)
    param_name = "v1_t" if ns.family == pot.DOUBLE_YUKAWA else "kappa1_t"
    rows = [(tc.a_t, tc.param_t, *tc.residuals, tc.jacobian_condition)]
    header = f"a_t,{param_name},e2_residual,e4_residual,jacobian_condition"
    _emit(ns, rows, header, {"command": "tricritical", "family": ns.family, "kappa1": ns.kappa1})
    return 0


def cmd_first_order(ns, spec, q) -> dict:
    bracket = _flag_pair(ns, "a_lo", "a_hi")
    if bracket is None:
        tp = find_transition(spec, (0.5, 12.0), q)
        if tp.order == "second":
            raise ClassificationError(
                f"E4 = {tp.e4_at_a_star:.3e} > 0 at the E2 root A = {tp.a_star}: "
                "the transition is second order, with no branch crossing"
            )
        bracket = first_order_bracket(spec, tp.a_star, q)
    a_trans, eps_jump = find_first_order(spec, bracket, q)
    return {"a_trans": a_trans, "eps_jump": eps_jump, "delta_jump": math.exp(eps_jump)}


def cmd_fit(ns, spec, q) -> dict:
    a_ref = ns.a_ref
    if a_ref is None:
        a_ref = find_transition(spec, (0.5, 12.0), q).a_star
    fit: FitResult = fit_exponent(spec, a_ref, q=q)
    return {
        "a_ref": a_ref,
        "beta": fit.beta,
        "amplitude": fit.amplitude,
        "r_squared": fit.r_squared,
        "delta_min": fit.window[0],
        "delta_max": fit.window[1],
    }


#: The scan flags each mode reads, as argparse destinations.
_SCAN_FLAGS = {
    "critical-curve": ("kappa1", "v1_grid", "a_grid", "workers"),
    "yukawa-coulomb": ("kappa1_grid", "workers"),
    "tricritical-locus": ("kappa1_grid", "no_bounds"),
    "a-star-min": ("kappa1_grid", "workers"),
}


def cmd_scan(ns) -> int:
    q = _quad(ns)
    flags = ("kappa1", "v1_grid", "a_grid", "kappa1_grid", "workers", "no_bounds")
    _refuse_unused(ns, flags, _SCAN_FLAGS[ns.mode], f"{ns.mode} scan")
    workers = 1 if ns.workers is None else ns.workers
    if ns.mode != "critical-curve" and not ns.kappa1_grid:
        raise ParameterDomainError(f"{ns.mode} scan requires --kappa1-grid")
    config = {"command": "scan", "mode": ns.mode, "workers": workers}
    if ns.mode == "critical-curve":
        if ns.kappa1 is None:
            raise ParameterDomainError("critical-curve scan requires --kappa1")
        v1_grid = _parse_grid(ns.v1_grid) if ns.v1_grid else None
        a_grid = _parse_grid(ns.a_grid) if ns.a_grid else None
        rows = scan_critical_curve(ns.kappa1, v1_grid, a_grid, q, workers=workers)
        header = SCAN_CSV_HEADER
    elif ns.mode == "yukawa-coulomb":
        rows = scan_yukawa_coulomb(_parse_grid(ns.kappa1_grid), q, workers=workers)
        header = SCAN_CSV_HEADER
    elif ns.mode == "tricritical-locus":
        rows, bounds = scan_tricritical_locus(
            _parse_grid(ns.kappa1_grid), q, with_bounds=not ns.no_bounds
        )
        if bounds is not None:
            config["kappa1_lower"], config["kappa1_upper"] = bounds
        header = LOCUS_CSV_HEADER
    else:  # a-star-min; argparse restricts the choices
        rows = scan_a_star_min(_parse_grid(ns.kappa1_grid), q, workers=workers)
        header = A_STAR_MIN_CSV_HEADER
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
    p.set_defaults(fn=_family_command(cmd_energy))

    p = sub.add_parser("expand", help="expansion coefficients at one density")
    _add_family(p)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--method", choices=("closed", "series", "both"), default="both")
    _add_common(p, "json")
    p.set_defaults(fn=_family_command(cmd_expand))

    p = sub.add_parser("transition", help="second-order transition density")
    _add_family(p)
    p.add_argument("--a-lo", type=float, default=0.5)
    p.add_argument("--a-hi", type=float, default=12.0)
    _add_common(p, "json")
    p.set_defaults(fn=_family_command(cmd_transition))

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
    p.set_defaults(fn=_family_command(cmd_first_order))

    p = sub.add_parser("fit", help="critical-exponent fit above a transition")
    _add_family(p)
    p.add_argument("--a-ref", type=float, help="reference density (default: solve)")
    _add_common(p, "json")
    p.set_defaults(fn=_family_command(cmd_fit))

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
    p.add_argument("--workers", type=int, help="worker processes (default 1)")
    p.add_argument(
        "--no-bounds", action="store_true", default=None, help="skip kappa1 bound estimates"
    )
    _add_common(p, "csv")
    p.set_defaults(fn=cmd_scan)
    return ap


def exit_code(run, *args) -> int:
    """``run(*args)``'s own exit code, or the documented code of the refusal
    it raised, with the message on stderr.  The scripts exit through it too."""
    try:
        return run(*args)
    except (ParameterDomainError, UnsupportedOracleError, BracketError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except QuadratureError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3
    except SearchFailureError as err:
        print(f"search failure: {err}", file=sys.stderr)
        return 4
    except ClassificationError as err:
        print(f"classification failure: {err}", file=sys.stderr)
        return 4
    except NonconvergenceError as err:
        print(f"nonconvergence: {err}", file=sys.stderr)
        return 4


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    return exit_code(ns.fn, ns)


if __name__ == "__main__":
    sys.exit(main())
