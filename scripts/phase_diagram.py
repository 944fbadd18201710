#!/usr/bin/env python3
"""Produce the double-Yukawa phase-diagram dataset at fixed kappa1.

Sweeps the repulsive strength v1 from just above the admissibility
border up to a configurable maximum, emitting the second-order critical
curve, the first-order coexistence points, and the tricritical point.
Beyond ``rectlat scan --mode critical-curve --v1-grid``, it solves the
tricritical point first, doubles the sweep resolution within 10% of its
strength, and appends it as the closing row.
"""

import argparse
import sys

import numpy as np

from rectlat.cli import exit_code
from rectlat.critical import find_tricritical
from rectlat.errors import check_domain
from rectlat.phasescan import SCAN_CSV_HEADER, scan_critical_curve, tricritical_row, write_table
from rectlat.potentials import DOUBLE_YUKAWA, derive_yukawa_coulomb
from rectlat.quadrature import QuadratureConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa1", type=float, default=2.0)
    ap.add_argument("--v1-max", type=float, default=60.0)
    ap.add_argument("--points", type=int, default=64)
    ap.add_argument("--output", default=None)
    ns = ap.parse_args()

    ok = ns.points >= 0 and ns.v1_max > 0
    check_domain(ok, "--points must be at least 0 and --v1-max positive", v1_max=ns.v1_max)
    q = QuadratureConfig()
    # the admissibility border v1 = exp(kappa1)/kappa1 is the Yukawa-Coulomb
    # member's v1; building it refuses an out-of-domain kappa1 first
    border = derive_yukawa_coulomb(ns.kappa1).v1
    v1_grid = np.geomspace(border * 1.002, ns.v1_max, ns.points)

    tc = find_tricritical(DOUBLE_YUKAWA, ns.kappa1, q=q)
    # double the sweep resolution locally around the tricritical strength,
    # where the curve changes character
    near = (v1_grid > 0.9 * tc.param_t) & (v1_grid < 1.1 * tc.param_t)
    if near.any():
        mids = 0.5 * (v1_grid[:-1] + v1_grid[1:])[near[:-1] & near[1:]]
        v1_grid = np.sort(np.concatenate([v1_grid, mids]))
    rows = scan_critical_curve(ns.kappa1, v1_grid=v1_grid, q=q)
    rows.append(tricritical_row(DOUBLE_YUKAWA, tc, ns.kappa1))
    write_table(rows, SCAN_CSV_HEADER, "csv", None, ns.output)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
