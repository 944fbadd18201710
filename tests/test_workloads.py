"""The benchmark's workloads still give their stored outputs.

Each of the 12 commands of ``perfbench/workloads.py`` runs as its own
process on this checkout, and ``perfbench/check.py`` compares its rows
with the outputs stored in ``perfbench/reference/``, which this test
only reads: every row within its solver's tolerance, and the known
failed operations and no others.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from check import check_command  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Failed operations per workload: phase-diagram's Yukawa-Coulomb crossing
#: row at kappa1 = 1.9, whose broken branch ends on the aspect cap, and
#: cli-quick's ``first-order --kappa1 1.85``, which exits non-zero.
FAILED = {"phase-diagram": 1, "tricritical-window": 0, "cli-quick": 1}


def _run(argv):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "rectlat.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_matches_its_reference(workload):
    ref = json.loads((ROOT / "perfbench" / "reference" / f"{workload}.json").read_text())
    cmds = WORKLOADS[workload]
    with ThreadPoolExecutor(2) as pool:
        procs = list(pool.map(_run, [argv for _, argv in cmds]))
    failed = mismatched = 0
    for (label, argv), proc in zip(cmds, procs):
        _, f, m = check_command(argv, proc.returncode, proc.stdout, ref[label])
        failed += f
        mismatched += m
    assert (failed, mismatched) == (FAILED[workload], 0)
