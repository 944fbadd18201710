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
from rectlat.quadrature import (
    Grid,
    QuadratureConfig,
    _joint_grid,
    _tail_cutoff,
    estimate_split,
    grid_for,
)


def reference_level(table_of, w_direct, w_transformed, decay_scale, q, front, level):
    """``(value, scale)`` of one level of the split integral, one table per side."""
    hi = _tail_cutoff(decay_scale)
    a = q.split_point
    value = 0.0
    scale = 0.0
    for lo, weight in ((a, w_direct), (math.pi**2 / a, w_transformed)):
        grid = Grid(lo, hi, level)
        contrib = front * grid.weights * table_of(grid) * weight(grid.nodes)
        value += contrib.sum(axis=-1)
        scale += np.abs(contrib).sum(axis=-1)
    return value, scale


def reference_ladder(table_of, w_direct, w_transformed, decay_scale, q, front):
    """``(value, level)``: the split integral level by level, one table per side."""
    prev = kept = None
    for level in range(q.max_refinements + 1):
        value, scale = reference_level(
            table_of, w_direct, w_transformed, decay_scale, q, front, level
        )
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


@SPLITS
def test_estimate_is_the_reference_level_0(split):
    # the ranking pass of the eps scans: level 0 of the split kernel alone,
    # its table formed once per grid like the ladder's
    q = QuadratureConfig(split_point=split)
    eps = np.linspace(0.2, 1.2, 5)
    rows = energy._gap_rows(eps)
    measure = (
        lambda u: pot.weight_direct(DY, 2.6, u),
        lambda u: pot.weight_transformed(DY, 2.6, u),
        pot.tail_scale(DY, 2.6),
        q,
        pot.front_factor(DY, 2.6),
    )
    formed = []

    def counted(grid):
        formed.append(grid)
        return rows(grid)

    value = estimate_split(counted, *measure)
    expected, _ = reference_level(rows, *measure, level=0)
    assert value.tobytes() == expected.tobytes()
    assert len(formed) == (1 if split == math.pi else 2)
    assert energy.gap_estimates(DY, 2.6, eps, q).tobytes() == value.tobytes()


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


@SPLITS
@pytest.mark.parametrize(
    "spec, area", [(YC, 2.8), (DY, 2.6)], ids=["yukawa-coulomb", "double-yukawa"]
)
def test_lattice_rows_are_fresh_rows(monkeypatch, spec, area, split):
    # a suffix of the scan lattice takes its rows from the lattice's table,
    # built once on each level-0 grid: the table, and the estimates from
    # it, are bit for bit those of a fresh stack
    q = QuadratureConfig(split_point=split)
    lattice = energy.GAP_LATTICE
    measure = (
        lambda u: pot.weight_direct(spec, area, u),
        lambda u: pot.weight_transformed(spec, area, u),
        pot.tail_scale(spec, area),
        q,
        pot.front_factor(spec, area),
    )
    built = []
    real = energy.theta_product_gap

    def counted(u, eps):
        built.append(eps)
        return real(u, eps)

    hi = _tail_cutoff(pot.tail_scale(spec, area))
    grids = {grid_for(lo, hi, 0) for lo in (split, math.pi**2 / split)}
    monkeypatch.setattr(energy, "theta_product_gap", counted)
    for start in (0, 33, 128):
        suffix = lattice[start:].copy()  # equal to the lattice's suffix, not a view of it
        fresh = estimate_split(lambda g: np.stack([real(g.nodes, e) for e in suffix]), *measure)
        assert energy.gap_estimates(spec, area, suffix, q).tobytes() == fresh.tobytes()
        if start == 0:  # the first scan on a grid builds its table (unless one was built before)
            first = len(built)
            assert first in (0, lattice.size * len(grids))
        assert len(built) == first
    monkeypatch.undo()
    for g in grids:
        table = g._tables["pair_gap_lattice"]
        assert table.tobytes() == np.stack([real(g.nodes, e) for e in lattice]).tobytes()


def test_newton_step_builds_its_rows_once(monkeypatch):
    # the two gaps of a deep-crossing Newton step, at A and at A (1 + 1e-6),
    # share one table of their three eps rows; the next stack replaces it
    q = QuadratureConfig()
    built = []
    real = energy.theta_product_gap

    def counted(u, eps):
        built.append(eps)
        return real(u, eps)

    def fresh(area, eps):
        rows = lambda g: np.stack([real(g.nodes, e) for e in eps])
        return energy.split_integral(YC, area, rows, q)

    monkeypatch.setattr(energy, "_last_rows", {"eps": None, "tables": {}})
    monkeypatch.setattr(energy, "theta_product_gap", counted)
    eps = 0.5 + np.array([-1e-5, 0.0, 1e-5])
    at_a = energy_gap(YC, 2.8, eps, q)
    assert len(built) == 3
    above = energy_gap(YC, 2.8 * (1.0 + 1e-6), eps, q)
    assert len(built) == 3
    energy_gap(YC, 2.8, eps + 0.1, q)
    assert len(built) == 6
    assert len(energy._last_rows["tables"]) == 1
    monkeypatch.setattr(energy, "theta_product_gap", real)
    assert at_a.tobytes() == fresh(2.8, eps).tobytes()
    assert above.tobytes() == fresh(2.8 * (1.0 + 1e-6), eps).tobytes()
