"""Repeat the benchmark over seeds and summarise every metric.

Usage (from the repository root)::

    python3 perfbench/collect.py --label NAME [--seeds 10] [--traced 2] [--workload W ...]

For each workload it makes ``--seeds`` untraced runs (seeds 1..N) and
``--traced`` traced runs, then writes ``perfbench/results/NAME.json``
with, per metric, the median, the quartiles, the spread (quartile
distance over the median) and every value, and prints the same as a
table.  Traced counts are also checked to repeat exactly across the
traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(q2) if q2 else 0.0,
        "values": values,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--traced", type=int, default=2)
    ap.add_argument("--workload", action="append", help="default: every workload")
    ns = ap.parse_args()
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in ns.workload or [w["name"] for w in bench["workloads"]]:
        untraced = [run(workload, s, bench["run_seconds"], 0) for s in range(1, ns.seeds + 1)]
        traced = [run(workload, s, bench["run_seconds"], 1) for s in range(1, ns.traced + 1)]
        entry = {
            "correct": all(r["correct"] for r in untraced + traced),
            "failed": [r["failed"] for r in untraced + traced],
            "attempted": [r["attempted"] for r in untraced + traced],
            "end_to_end": {},
            "per_layer": {},
        }
        for key, runs in (("end_to_end", untraced), ("per_layer", traced)):
            for name in runs[0]["metrics"] if runs else []:
                s = summary([r["metrics"][name]["value"] for r in runs])
                entry[key][name] = {"unit": units[name], **s}
                flag = ""
                if name in bounds and name != "setup_s" and s["spread"] > bounds[name]:
                    flag = "  SPREAD ABOVE BOUND"
                if key == "per_layer" and units[name] == "count" and len(set(s["values"])) > 1:
                    flag = "  COUNT DIFFERS BETWEEN TRACED RUNS"
                print(
                    f"{workload:<20} {name:<34} {s['median']:>14.6g} {units[name]:<6} "
                    f"spread {s['spread']:.4f} (n={len(runs)}){flag}",
                    flush=True,
                )
        print(f"{workload:<20} correct={entry['correct']} failed/attempted="
              f"{entry['failed'][0]}/{entry['attempted'][0]} per run", flush=True)
        doc["workloads"][workload] = entry
    out = HERE / "results" / f"{ns.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
