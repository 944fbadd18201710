#!/usr/bin/env python3
"""Trace the tricritical locus (A_t, v1_t) of the double-Yukawa family
against kappa1, together with the existence-window bounds."""

import argparse
import sys

import numpy as np

from rectlat.cli import exit_code
from rectlat.errors import check_domain
from rectlat.phasescan import LOCUS_CSV_HEADER, scan_tricritical_locus, write_table
from rectlat.quadrature import QuadratureConfig


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kappa1-min", type=float, default=1.45)
    ap.add_argument("--kappa1-max", type=float, default=2.03)
    ap.add_argument("--points", type=int, default=64)
    ap.add_argument("--skip-bounds", action="store_true")
    ap.add_argument("--output", default=None)
    ns = ap.parse_args()

    check_domain(ns.points >= 0, "--points must be at least 0")
    grid = np.linspace(ns.kappa1_min, ns.kappa1_max, ns.points)
    rows, _ = scan_tricritical_locus(grid, QuadratureConfig(), with_bounds=not ns.skip_bounds)
    write_table(rows, LOCUS_CSV_HEADER, "csv", None, ns.output)
    return 0


if __name__ == "__main__":
    sys.exit(exit_code(main))
