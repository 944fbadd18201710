#!/usr/bin/env python3
"""Tabulate the limiting critical density of the large-v1 regime,
a_star_min(kappa1), over a logarithmic kappa1 grid.

The rows are those of ``rectlat scan --mode a-star-min --kappa1-grid
MIN:MAX:log:N``; the script adds the closing kappa1 -> 0 limit row,
which the CLI does not emit.
"""

import argparse
import sys

import numpy as np

from rectlat.cli import exit_code
from rectlat.critical import a_star_min_zero_limit
from rectlat.errors import check_domain
from rectlat.phasescan import A_STAR_MIN_CSV_HEADER, scan_a_star_min, write_table
from rectlat.quadrature import QuadratureConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa1-min", type=float, default=0.1)
    ap.add_argument("--kappa1-max", type=float, default=50.0)
    ap.add_argument("--points", type=int, default=40)
    ap.add_argument("--output", default=None)
    ns = ap.parse_args()

    ends = {"kappa1_min": ns.kappa1_min, "kappa1_max": ns.kappa1_max}
    ok = ns.points >= 0 and ns.kappa1_min > 0 and ns.kappa1_max > 0
    check_domain(ok, "--points must be at least 0 and both kappa1 ends positive", **ends)
    q = QuadratureConfig()
    grid = np.geomspace(ns.kappa1_min, ns.kappa1_max, ns.points)
    rows = scan_a_star_min(grid, q)
    rows.append((0.0, a_star_min_zero_limit(q), "kappa1->0 limit"))
    write_table(rows, A_STAR_MIN_CSV_HEADER, "csv", None, ns.output)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
