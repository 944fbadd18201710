"""The joint level-0/1 pass and the shared bracket table against a plain ladder.

The reference ladder below evaluates every level on its own grid and
every side with its own table, in the summation order of a level-by-level
ladder: ``((front * weights) * table) * weight`` per node, each side summed
over its own nodes, the sides added as ``(0.0 + direct) + transformed``.
The production pass must give the same bits, and must form the bracket
table once per grid and pass (once per pass at the default split, where
both sides share a grid; twice at a split with two grids).
"""

import math

import numpy as np
import pytest

import rectlat.critical as critical
import rectlat.energy as energy
from rectlat import derive_double_yukawa, derive_yukawa_coulomb
from rectlat import potentials as pot
from rectlat.energy import LatticeState, energy_gap, lattice_energy
from rectlat.errors import QuadratureError
from rectlat.expansion import (
    _p2_p4_table,
    _p4_table,
    _series_table,
    curvature_table,
    e2_e4_closed,
    landau_series,
)
from rectlat.quadrature import Grid, QuadratureConfig, _joint_grid, _tail_cutoff, grid_for


def reference_ladder(table_of, w_direct, w_transformed, decay_scale, q, front):
    """``(value, level)``: the split integral level by level, one table per side."""
    hi = _tail_cutoff(decay_scale)
    a = q.split_point
    prev = kept = None
    for level in range(q.max_refinements + 1):
        value = 0.0
        scale = 0.0
        for lo, weight in ((a, w_direct), (math.pi**2 / a, w_transformed)):
            grid = Grid(lo, hi, level)
            contrib = front * grid.weights * table_of(grid) * weight(grid.nodes)
            value += contrib.sum(axis=-1)
            scale += np.abs(contrib).sum(axis=-1)
        if prev is not None:
            if kept is not None:
                value = np.where(kept, prev, value)
            passed = abs(value - prev) <= np.maximum(q.rel_tol * scale, q.abs_tol)
            if passed.all():
                return value, level
            kept = passed if passed.any() else None
        prev = value
    raise AssertionError("reference ladder did not converge")


DY = derive_double_yukawa(9.8, 2.0)
YC = derive_yukawa_coulomb(2.0365)

CASES = {
    "gap-1e-3": lambda q: energy_gap(DY, 2.6, 1e-3, q),
    "gap-0.3": lambda q: energy_gap(DY, 2.6, 0.3, q),
    "gap-1.2": lambda q: energy_gap(YC, 2.8, 1.2, q),
    "energy": lambda q: lattice_energy(DY, LatticeState(2.6, 0.2), q),
    "e2-e4": lambda q: e2_e4_closed(YC, 2.7, q),
    "landau": lambda q: landau_series(DY, 2.61, q),
    "a-star-min": lambda q: critical._a_star_min_condition(2.0, 1.1, q),
}


def check_against_reference(monkeypatch, run, q):
    """Run ``run(q)`` and hold every split integral it makes to the
    reference ladder: the same bits, and one table per grid and pass.
    Returns the deepest level reached."""
    records = []

    def recording(module):
        real = module.integrate_split

        def record(table_of, *args, **kwargs):
            formed = []

            def counted(grid):
                formed.append(grid)
                return table_of(grid)

            value = real(counted, *args, **kwargs)
            records.append((table_of, args, kwargs, value, len(formed)))
            return value

        monkeypatch.setattr(module, "integrate_split", record)

    recording(energy)
    recording(critical)
    run(q)
    monkeypatch.undo()
    assert records
    grids_per_pass = 1 if q.split_point == math.pi else 2
    deepest = 0
    for table_of, args, kwargs, value, formed in records:
        expected, level = reference_ladder(table_of, *args, **kwargs)
        assert np.asarray(value).tobytes() == np.asarray(expected).tobytes()
        # levels 0 and 1 are one pass; each later level is one more
        assert formed == level * grids_per_pass
        deepest = max(deepest, level)
    return deepest


SPLITS = pytest.mark.parametrize("split", [math.pi, 2.0], ids=["split-pi", "split-2"])


@SPLITS
@pytest.mark.parametrize("name", sorted(CASES))
def test_pass_matches_reference_ladder(monkeypatch, name, split):
    check_against_reference(monkeypatch, CASES[name], QuadratureConfig(split_point=split))


@SPLITS
@pytest.mark.parametrize("name", ["energy", "a-star-min"])
def test_deep_ladder_matches_reference_ladder(monkeypatch, name, split):
    # a tolerance near roundoff takes these integrals past level 1
    q = QuadratureConfig(rel_tol=1e-16, abs_tol=1e-300, split_point=split)
    assert check_against_reference(monkeypatch, CASES[name], q) > 1


@SPLITS
def test_pair_gap_runs_once_per_pass(monkeypatch, split):
    sizes = []
    real = energy.theta_product_gap

    def counted(u, eps):
        sizes.append(u.size)
        return real(u, eps)

    monkeypatch.setattr(energy, "theta_product_gap", counted)
    # an unreachable tolerance walks the whole ladder: the joint pass, then level 2
    q = QuadratureConfig(rel_tol=1e-30, abs_tol=1e-300, split_point=split, max_refinements=2)
    with pytest.raises(QuadratureError):
        energy_gap(DY, 2.6, 0.3, q)
    hi = _tail_cutoff(pot.tail_scale(DY, 2.6))
    los = [split, math.pi**2 / split] if split != math.pi else [split]
    expected = []
    for levels in ((0, 1), (2,)):
        for lo in los:
            expected.append(sum(grid_for(lo, hi, lv).nodes.size for lv in levels))
    assert sizes == expected


@pytest.mark.parametrize(
    "table_of", [curvature_table, _p4_table, _p2_p4_table, _series_table],
    ids=["p2", "p4", "p2p4", "series"],
)
def test_joint_tables_are_level_tables_side_by_side(monkeypatch, table_of):
    hi = _tail_cutoff(1.7)
    levels = (Grid(math.pi, hi, 0), Grid(math.pi, hi, 1))
    per_level = [table_of(g) for g in levels]
    joint = Grid.joined(levels)
    seen = []
    real = Grid.cached

    def spying(grid, key, builder):
        def spy(u):
            seen.append(u.size)
            return builder(u)

        return real(grid, key, spy)

    monkeypatch.setattr(Grid, "cached", spying)
    table = table_of(joint)
    monkeypatch.undo()
    assert seen and set(seen) <= {g.nodes.size for g in levels}
    assert table.tobytes() == np.concatenate(per_level, axis=-1).tobytes()
    assert table.shape[-1] == joint.nodes.size


def test_joint_grid_is_cached_and_holds_both_levels():
    hi = _tail_cutoff(0.0)
    g = _joint_grid(math.pi, hi)
    assert g is _joint_grid(math.pi, hi)
    assert g.level == 1
    for span, level in zip(g.spans, (0, 1)):
        part = grid_for(math.pi, hi, level)
        assert g.nodes[span].tobytes() == part.nodes.tobytes()
        assert g.weights[span].tobytes() == part.weights.tobytes()
