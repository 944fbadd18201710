"""rectlat benchmark: drives the ``rectlat`` CLI as one closed-loop user.

Usage (from the repository root)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-reference

Each command runs as a fresh ``python3 -m rectlat.cli`` process on the
sources under ``src/``, and the next one starts only when it has ended.
Untraced (``--trace 0``), the set-up time is measured and the workload
repeats until ``--seconds`` have passed since the run began (a pass
starts only if about half of it fits); the end-to-end times are medians
over the repetitions of each pass divided by the ``REFERENCE`` job run
around it.
Traced (``--trace 1``), the workload runs three times: untraced with
scans on one worker, traced with scans on one worker (every span lands
in one process, so counts repeat exactly), and with its own worker
count and only the pool boundary traced (to time the pool).  Every
output is checked against the reference stored in ``reference/``.

Human-readable lines go first; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from check import check_command, parse_rows
from workloads import WORKLOADS, commands, serial, uses_pool

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PY = sys.executable
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
# A fixed job shaped like one CLI command but running no rectlat code: a
# fresh interpreter imports numpy and scipy, then computes for a while.  It
# runs before the first untraced pass and after every pass.  Other tenants
# share the host's cores, so its speed shifts by up to 2x for minutes at a
# time; a pass divided by the jobs around it keeps the program's own cost
# and loses most of that shift.
REFERENCE = """
import math
import numpy as np
import scipy.optimize
import scipy.special
s = 0.0
for i in range(750000):
    s += math.sin(i * 1e-3)
x = np.linspace(0.0, 1.0, 2048)
for i in range(1500):
    s += float(np.exp(-x * i).sum())
print(s)
"""
IMPORTS = {
    "cli.import_numpy_s": "numpy",
    "cli.import_scipy_special_s": "scipy.special",
    "cli.import_scipy_optimize_s": "scipy.optimize",
}
CRITICAL_OPS = (
    "find_transition",
    "find_tricritical",
    "find_first_order",
    "first_order_bracket",
    "minimize_aspect",
    "fit_exponent",
    "kappa1_upper",
    "kappa1_lower",
)


class Runner:
    """Starts commands one at a time in a scratch directory of the checkout."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")

    def run(self, argv):
        """(wall seconds, exit code, peak RSS in MiB, stdout, stderr) of one process.

        ``os.wait4`` reports the largest RSS of the process and of the
        pool workers it reaped."""
        out, err = self.tmp / "stdout", self.tmp / "stderr"
        with open(out, "w") as fo, open(err, "w") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdin=subprocess.DEVNULL, stdout=fo, stderr=fe, cwd=self.tmp, env=self.env
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0, out.read_text(), err.read_text()

    def cli(self, argv):
        return self.run([PY, "-m", "rectlat.cli", *argv])

    def traced(self, argv, mode: str):
        out = self.tmp / "trace.json"
        res = self.run([PY, str(HERE / "tracer.py"), str(out), mode, "--", *argv])
        return res, json.loads(out.read_text())


class Tally:
    """Failure and correctness accounting over every command run."""

    def __init__(self, workload: str):
        self.ref = json.loads((HERE / "reference" / f"{workload}.json").read_text())
        self.attempted = self.failed = self.mismatched = 0

    def add(self, label, argv, code, stdout, stderr):
        a, f, m = check_command(argv, code, stdout, self.ref[label])
        if m:
            print(f"# mismatch: {label}: {m} row(s); exit {code}; {stderr.strip()[:200]}")
        self.attempted += a
        self.failed += f
        self.mismatched += m


def setup_times(runner: Runner):
    return [runner.run([PY, "-c", "import rectlat.cli"])[0] for _ in range(SETUP_RUNS)]


def reference_job(runner: Runner) -> float:
    wall, code, *_, err = runner.run([PY, "-c", REFERENCE])
    if code != 0:
        raise RuntimeError(f"reference job exited {code}: {err.strip()[-200:]}")
    return wall


def untraced(runner, tally, cmds, deadline):
    """End-to-end metrics over whole workload passes, each divided by the
    mean of the reference jobs run just before and just after it.

    A pass starts only while at least half of it, going by the median pass
    so far, fits before ``deadline``; so a run lasts about ``--seconds``."""
    iter_walls, iter_rows, iter_rss, iter_p50 = [], [], [], []
    raw_walls, took = [], []
    refs = [reference_job(runner)]
    while not took or time.perf_counter() + statistics.median(took) / 2 < deadline:
        t0 = time.perf_counter()
        walls, rss, rows = [], 0.0, 0
        for label, argv in cmds:
            w, code, r, out, err = runner.cli(argv)
            tally.add(label, argv, code, out, err)
            walls.append(w)
            rss = max(rss, r)
            rows += len(parse_rows(out)) if code == 0 else 0
        refs.append(reference_job(runner))
        ref = (refs[-2] + refs[-1]) / 2
        iter_walls.append(sum(walls) / ref)
        iter_rows.append(rows * ref / sum(walls))
        iter_rss.append(rss)
        iter_p50.append(statistics.median(walls) / ref)
        raw_walls.append(sum(walls))
        took.append(time.perf_counter() - t0)
    n = len(iter_walls)
    print(
        f"# {n} passes: workload {statistics.median(raw_walls):.4f} s, "
        f"reference job {statistics.median(refs):.4f} s (medians, not normalised)"
    )
    per_pass = f"median of {n} workload passes"
    return {
        "wall_rel": (statistics.median(iter_walls), per_pass),
        "rows_per_ref": (statistics.median(iter_rows), per_pass),
        "cmd_p50_rel": (
            statistics.median(iter_p50),
            f"median of {n} per-pass medians of {len(cmds)} commands",
        ),
        "peak_rss_mb": (statistics.median(iter_rss), f"median of {n} per-pass maxima"),
    }


def import_times(runner: Runner):
    """Cumulative import seconds per module, from ``python -X importtime``."""
    pattern = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")
    samples = defaultdict(list)
    for _ in range(IMPORTTIME_RUNS):
        *_, err = runner.run([PY, "-X", "importtime", "-c", "import rectlat.cli"])
        seen = {}
        for m in pattern.finditer(err):
            seen.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        for metric, module in IMPORTS.items():
            samples[metric].append(seen.get(module, 0.0))
    return {k: statistics.median(v) for k, v in samples.items()}


def merge(docs):
    """Sum span edges and counts over the traced commands."""
    calls, incl, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    edges = defaultdict(float)
    counts = defaultdict(float)
    for doc in docs:
        for parent, name, n, t_incl, t_self in doc["edges"]:
            calls[name] += n
            incl[name] += t_incl
            self_s[name] += t_self
            edges[(parent, name)] += t_incl
        for k, v in doc["counts"].items():
            counts[k] = max(counts[k], v) if k.endswith("level_max") else counts[k] + v
    return calls, incl, self_s, edges, counts


def layer_metrics(docs, pool_docs, imports, overhead):
    calls, incl, self_s, edges, c = merge(docs)
    pool_self = merge(pool_docs)[2]
    m = {
        "theta.pair_gap_nodes": c["theta.pair_gap_nodes"],
        "theta.pair_gap_s": incl["theta.theta_product_gap"],
        "theta.derivs_nodes": c["theta.derivs_nodes"],
        "theta.derivs_s": incl["theta.theta3_derivs"],
        "quadrature.integrals": calls["quadrature.integrate"],
        "quadrature.nodes": c["quadrature.nodes"],
        "quadrature.grid_units": c["quadrature.grid_units"],
        "quadrature.level_max": c["quadrature.level_max"],
        "quadrature.self_s": sum(v for k, v in self_s.items() if k.startswith("quadrature.")),
        "quadrature.grid_builds": calls["quadrature.Grid.__init__"],
        "quadrature.table_hits": c["quadrature.table_hits"],
        "quadrature.table_misses": c["quadrature.table_misses"],
        "quadrature.failures": c["quadrature.integrate:raised:QuadratureError"],
        "potentials.weight_calls": calls["potentials.weight_direct"]
        + calls["potentials.weight_transformed"],
        "potentials.weight_nodes": c["potentials.weight_nodes"],
        "potentials.weight_s": incl["potentials.weight_direct"]
        + incl["potentials.weight_transformed"],
        "expansion.e2_calls": calls["expansion.e2_closed"],
        "expansion.e4_calls": calls["expansion.e4_closed"],
        "expansion.closed_s": incl["expansion.e2_closed"] + incl["expansion.e4_closed"],
        "expansion.landau_calls": calls["expansion.landau_series"],
        "expansion.landau_s": incl["expansion.landau_series"],
        "energy.lattice_energy_calls": calls["energy.lattice_energy"],
        "energy.gap_calls": calls["energy.energy_gap"],
        "energy.gap_s": incl["energy.energy_gap"],
        "powerseries.exp_batch_calls": calls["powerseries.exp_coeffs_batch"],
        "powerseries.exp_batch_s": incl["powerseries.exp_coeffs_batch"],
        "critical.brent_calls": calls["critical.brentq"],
        "critical.brent_evals": c["critical.brent_evals"],
        "critical.bounded_min_calls": calls["critical.minimize_scalar"],
        "critical.bounded_min_evals": c["critical.bounded_min_evals"],
        "critical.newton_solves": calls["critical.find_tricritical"],
        "critical.newton_fallbacks": c["critical.newton_fallbacks"],
        "critical.tricritical_failed": c["critical.find_tricritical:raised:NonconvergenceError"],
        "critical.eps_cap_hits": c["critical.eps_cap_hits"],
        **{f"critical.{op}_s": incl[f"critical.{op}"] for op in CRITICAL_OPS},
        "phasescan.seed_s": sum(
            t for (p, n), t in edges.items()
            if p.startswith("phasescan.scan_") and n == "expansion.e2_closed"
        ),
        "phasescan.polish_s": sum(
            t for (p, _), t in edges.items() if p == "phasescan._map_jobs"
        ),
        "phasescan.pool_s": pool_self["phasescan._map_jobs"],
        "phasescan.jobs": c["phasescan.jobs"],
        "cli.emit_s": incl["cli._emit"],
        "trace.overhead_s": overhead,
        **imports,
    }
    return {k: (v, "one traced pass") for k, v in m.items()}


def traced(runner, tally, cmds):
    plain, docs, pool_docs = 0.0, [], []
    for label, argv in cmds:
        one = serial(argv)
        w, code, _, out, err = runner.cli(one)
        tally.add(label, one, code, out, err)
        plain += w
    traced_wall = 0.0
    for label, argv in cmds:
        one = serial(argv)
        (w, code, _, out, err), doc = runner.traced(one, "full")
        tally.add(label, one, code, out, err)
        traced_wall += w
        docs.append(doc)
    for label, argv in cmds:
        if uses_pool(argv):
            (_, code, _, out, err), doc = runner.traced(argv, "pool")
            tally.add(label, argv, code, out, err)
            pool_docs.append(doc)
    return layer_metrics(docs, pool_docs, import_times(runner), traced_wall - plain)


def write_reference(runner):
    for workload, cmds in WORKLOADS.items():
        ref = {}
        for label, argv in cmds:
            _, code, _, out, _ = runner.cli(argv)
            ref[label] = {"argv": argv, "exit": code, "stdout": out}
        path = HERE / "reference" / f"{workload}.json"
        path.write_text(json.dumps(ref, indent=1) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true")
    ns = ap.parse_args()
    deadline = time.perf_counter() + ns.seconds
    if not (ROOT / "src" / "rectlat" / "cli.py").is_file():
        print(f"error: no rectlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if ns.workload is None and not ns.write_reference:
        ap.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    tmp = ROOT / ".perfbench_tmp"
    tmp.mkdir(exist_ok=True)
    try:
        runner = Runner(tmp)
        # warm-up: compiles bytecode once and proves the package imports
        _, code, _, out, err = runner.run(
            [PY, "-c", "import rectlat.cli, rectlat; print(rectlat.__file__)"]
        )
        if code != 0 or not out.strip().startswith(str(ROOT / "src")):
            print(f"error: rectlat does not import from {ROOT / 'src'}: {err}", file=sys.stderr)
            return 2
        if ns.write_reference:
            write_reference(runner)
            return 0
        tally = Tally(ns.workload)
        cmds = commands(ns.workload, ns.seed)
        if ns.trace:
            measured = traced(runner, tally, cmds)
            declared = bench["per_layer"]
        else:
            setup = setup_times(runner)
            measured = untraced(runner, tally, cmds, deadline)
            measured["setup_s"] = (statistics.median(setup), f"median of {len(setup)} imports")
            declared = bench["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    for spec in declared:
        value, samples = measured[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{ns.workload:<20} {spec['name']:<34} {value:>14.6g} {spec['unit']:<6} ({samples})")
    print(
        f"{ns.workload:<20} check: {tally.mismatched} rows mismatched; "
        f"{tally.failed}/{tally.attempted} operations failed"
    )
    print(json.dumps({
        "correct": tally.mismatched == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
