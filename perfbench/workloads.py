"""The benchmark's workloads: fixed lists of ``rectlat`` CLI invocations.

Every input is fixed.  The seed only permutes the order in which a
workload's commands run; each command is a fresh process, so the order
changes nothing but what the operating system has cached.
"""

from __future__ import annotations

import random

DY = ["--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2"]

#: name -> list of (label, argv) pairs; labels name the stored reference outputs.
WORKLOADS = {
    # The paper's headline dataset: second-order, first-order and tricritical
    # rows.  The first-order points take the deep path (energy_gap plus
    # theta_product_gap), and the two-worker pool does useful parallel work.
    "phase-diagram": [
        (
            "critical-curve",
            ["scan", "--mode", "critical-curve", "--kappa1", "2",
             "--v1-grid", "3.702:60:log:32", "--workers", "2"],
        ),
        (
            "yukawa-coulomb",
            ["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "1.9:2.03:lin:4",
             "--workers", "2"],
        ),
    ],
    # The tricritical existence window: Newton solves, nested fallbacks and
    # the quadrature ladder, with cached bracket tables and no pair gaps.
    "tricritical-window": [
        ("tricritical-locus",
         ["scan", "--mode", "tricritical-locus", "--kappa1-grid", "1.6:2.03:lin:12"]),
    ],
    # Interactive use: nine single answers, each paying interpreter start,
    # import and cold caches; one scan pays pool start-up on cheap jobs.
    "cli-quick": [
        ("energy", ["energy", *DY, "--area", "2.6", "--delta", "1.0"]),
        ("expand", ["expand", *DY, "--area", "2.61449322978", "--method", "both"]),
        ("transition", ["transition", *DY]),
        ("fit", ["fit", *DY]),
        ("tricritical", ["tricritical", "--family", "double-yukawa", "--kappa1", "2"]),
        ("first-order-2.0365",
         ["first-order", "--family", "yukawa-coulomb", "--kappa1", "2.0365"]),
        ("first-order-1.85", ["first-order", "--family", "yukawa-coulomb", "--kappa1", "1.85"]),
        ("critical-curve",
         ["scan", "--mode", "critical-curve", "--kappa1", "2", "--v1-grid", "7:40:log:64",
          "--workers", "2"]),
        ("a-star-min", ["scan", "--mode", "a-star-min", "--kappa1-grid", "0.1:50:log:40"]),
    ],
}


def commands(workload: str, seed: int):
    """The workload's (label, argv) pairs in the order the seed gives."""
    cmds = list(WORKLOADS[workload])
    random.Random(seed).shuffle(cmds)
    return cmds


def serial(argv):
    """The same command with the worker pool replaced by one process."""
    out = list(argv)
    if "--workers" in out:
        out[out.index("--workers") + 1] = "1"
    return out


def uses_pool(argv) -> bool:
    return "--workers" in argv and argv[argv.index("--workers") + 1] != "1"
