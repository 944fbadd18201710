"""The benchmark's per-layer tracer still sees the layers it counts.

``perfbench/tracer.py`` wraps functions by module and name; a refactor
that moves work past those names would leave its counts silently at 0.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"
DY = ["--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2"]


@pytest.mark.parametrize(
    "argv, counted",
    [
        (
            ["expand", *DY, "--area", "2.6", "--method", "both"],
            ("quadrature.nodes", "potentials.weight_nodes", "theta.derivs_nodes"),
        ),
        # the large-v1 limit integrates against its own measure, not the
        # potential's weights
        (
            ["scan", "--mode", "a-star-min", "--kappa1-grid", "1:2:lin:2"],
            ("quadrature.nodes", "theta.derivs_nodes"),
        ),
    ],
    ids=["expand", "scan-a-star-min"],
)
def test_tracer_counts_the_layers(tmp_path, argv, counted):
    out = tmp_path / "trace.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(out), "full", "--", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(out.read_text())["counts"]
    for key in counted:
        assert counts.get(key, 0) > 0, key
