"""Run one ``rectlat`` command with spans around every layer's public functions.

Usage::

    python3 perfbench/tracer.py OUT.json {full|pool} -- <rectlat CLI arguments>

The package is imported unchanged; the wrappers are installed afterwards
in every ``rectlat`` module namespace that holds the wrapped function,
so calls through ``from .x import f`` aliases and ``module.f`` lookups
are both seen.  ``full`` wraps every public function of each layer
module plus a few named boundaries (the scipy root finders as the
solver layer sees them, ``Grid.__init__``/``Grid.cached``,
``phasescan._map_jobs`` and ``cli._emit``).  ``pool`` wraps only
``phasescan._map_jobs``, to time the worker pool without slowing the
workers.

Spans are aggregated in memory per (parent, name) edge as call count,
inclusive seconds and self seconds (inclusive minus the time covered by
child spans), together with work counts recorded at the same
boundaries, and written to OUT.json when the command returns.  Forked
pool workers inherit the wrappers but never write: a traced pass runs
scans with ``--workers 1`` so that every span lands in one process.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict

from check import at_cap

LAYERS = (
    "theta",
    "quadrature",
    "potentials",
    "powerseries",
    "energy",
    "expansion",
    "critical",
    "phasescan",
    "cli",
)


class _Frame:
    __slots__ = ("name", "child_s", "levels")

    def __init__(self, name):
        self.name = name
        self.child_s = 0.0
        self.levels = None


class Trace:
    """Span and count aggregates for one process."""

    def __init__(self):
        self.stack = [_Frame("<root>")]
        self.edges = {}  # (parent, name) -> [calls, inclusive_s, self_s]
        self.counts = defaultdict(float)

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before`` may rewrite the arguments and
        ``after(frame, args, result)`` records counts from the result."""
        stack, edges, counts = self.stack, self.edges, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = stack[-1]
            frame = _Frame(name)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                counts[f"{name}:raised:{type(err).__name__}"] += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                parent.child_s += dt
                rec = edges.get((parent.name, name))
                if rec is None:
                    rec = edges[(parent.name, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame.child_s
            if after is not None:
                after(frame, args, result)
            return result

        return wrapper

    def dump(self, path):
        doc = {
            "edges": [[p, n, *rec] for (p, n), rec in sorted(self.edges.items())],
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _size(x) -> int:
    return getattr(x, "size", 1)


def _hooks(trace: Trace):
    """Count recorders for the functions whose work is more than a call."""
    c = trace.counts

    def nodes(key, pos):
        def after(frame, args, result):
            c[key] += _size(args[pos])

        return after

    def grid_for(frame, args, result):
        c["quadrature.nodes"] += result.nodes.size
        parent = trace.stack[-1]
        if parent.levels is None:
            parent.levels = set()
        parent.levels.add(args[2])

    def integrate(frame, args, result):
        if frame.levels:
            c["quadrature.grid_units"] += sum(2**lv for lv in frame.levels)
            c["quadrature.level_max"] = max(c["quadrature.level_max"], max(frame.levels))

    def cached_before(args, kwargs):
        grid, key = args[0], args[1]
        c["quadrature.table_hits" if key in grid._tables else "quadrature.table_misses"] += 1
        return args, kwargs

    def counting(key):
        def before(args, kwargs):
            fn = args[0]

            def counted(*a, **k):
                c[key] += 1
                return fn(*a, **k)

            return (counted, *args[1:]), kwargs

        return before

    def tricritical(frame, args, result):
        c["critical.newton_fallbacks"] += math.isnan(result.jacobian_condition)

    def pinned(pos):
        def after(frame, args, result):
            c["critical.eps_cap_hits"] += at_cap(result[pos])

        return after

    def jobs(frame, args, result):
        c["phasescan.jobs"] += len(args[1])

    return {
        "theta.theta3_derivs": (None, nodes("theta.derivs_nodes", 0)),
        "theta.theta_product_gap": (None, nodes("theta.pair_gap_nodes", 0)),
        "potentials.weight_direct": (None, nodes("potentials.weight_nodes", 2)),
        "potentials.weight_transformed": (None, nodes("potentials.weight_nodes", 2)),
        "quadrature.grid_for": (None, grid_for),
        "quadrature.integrate": (None, integrate),
        "quadrature.Grid.cached": (cached_before, None),
        "critical.brentq": (counting("critical.brent_evals"), None),
        "critical.minimize_scalar": (counting("critical.bounded_min_evals"), None),
        "critical.find_tricritical": (None, tricritical),
        "critical.find_first_order": (None, pinned(1)),
        "critical.minimize_aspect": (None, pinned(0)),
        "phasescan._map_jobs": (None, jobs),
    }


def install(trace: Trace, mode: str):
    """Wrap the layer functions and patch every alias in the package."""
    import rectlat.cli  # noqa: F401  (imports every layer module)

    mods = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "rectlat"}
    targets = {}  # qualified name -> (owner, attribute, original)
    if mode == "full":
        for layer in LAYERS:
            mod = mods[f"rectlat.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    targets[f"{layer}.{attr}"] = (mod, attr, obj)
        crit, quad = mods["rectlat.critical"], mods["rectlat.quadrature"]
        targets["critical.brentq"] = (crit, "brentq", crit.brentq)
        targets["critical.minimize_scalar"] = (crit, "minimize_scalar", crit.minimize_scalar)
        targets["quadrature.Grid.__init__"] = (quad.Grid, "__init__", quad.Grid.__init__)
        targets["quadrature.Grid.cached"] = (quad.Grid, "cached", quad.Grid.cached)
        cli = mods["rectlat.cli"]
        targets["cli._emit"] = (cli, "_emit", cli._emit)
    scan = mods["rectlat.phasescan"]
    targets["phasescan._map_jobs"] = (scan, "_map_jobs", scan._map_jobs)

    hooks = _hooks(trace)
    wrapped = {}
    for name, (owner, attr, fn) in targets.items():
        before, after = hooks.get(name, (None, None))
        wrapper = trace.wrap(name, fn, before, after)
        wrapped[id(fn)] = wrapper
        setattr(owner, attr, wrapper)
    for mod in mods.values():
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped and obj is not wrapped[id(obj)]:
                setattr(mod, attr, wrapped[id(obj)])


def main(argv) -> int:
    out, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("full", "pool"):
        raise SystemExit("usage: tracer.py OUT.json {full|pool} -- <rectlat arguments>")
    trace = Trace()
    install(trace, mode)
    from rectlat import cli

    code = cli.main(cli_args)
    trace.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
