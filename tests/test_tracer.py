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
        # the first-order row runs the Brent root search and the pair gaps
        # of the deep crossing through the names the tracer wraps
        (
            ["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2:2:lin:1", "--workers", "1"],
            ("critical.brent_evals", "theta.pair_gap_nodes"),
        ),
        # the Newton solve's points go through stacked measure weights, one
        # pass per step: the node counts still see them
        (
            ["tricritical", "--family", "yukawa-coulomb"],
            ("quadrature.nodes", "potentials.weight_nodes"),
        ),
    ],
    ids=["expand", "scan-a-star-min", "scan-yukawa-coulomb", "tricritical-yukawa-coulomb"],
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
    doc = json.loads(out.read_text())
    counts = doc["counts"]
    for key in ("quadrature.grid_units", *counted):
        assert counts.get(key, 0) > 0, key
    # the tracer reads ``grid_for``'s third argument as the level: every
    # integral is one level-0 grid, so each counts one grid unit
    integrals = sum(calls for _, name, calls, *_ in doc["edges"] if name == "quadrature.integrate")
    assert counts["quadrature.level_max"] == 0
    assert counts["quadrature.grid_units"] == integrals
    # ``cli.emit_s`` is read from the span of ``cli._emit``
    assert any(name == "cli._emit" for _, name, *_ in doc["edges"])
