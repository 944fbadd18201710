"""The one-grid pass and the shared bracket table against a plain reference.

The reference pass below evaluates each piece on a fresh grid with a fresh
table, and accepts the integral when every component's null-rule estimate,
taken from the Legendre coefficients of each panel, passes its test.  It
keeps the kernel's arithmetic: ``(front * weights * w) * table`` per node
with ``w`` the measure weight of a half (their sum when both halves share
the grid at split ``pi``), summed over each grid's nodes and added from
0.0.  The production pass must give the same bits, or refuse where the
reference refuses, and must form the bracket table once per grid (once at
the default split, where both halves share a grid; twice at a split with
two grids).  A stack of measures (one row of weights per point) is held to
the reference one measure at a time: each row must be bit for bit its
point's own pass.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander

import rectlat.critical as critical
import rectlat.quadrature
import rectlat.energy as energy
from rectlat import derive_double_yukawa, derive_yukawa_coulomb, riesz, yukawa
from rectlat import potentials as pot
from rectlat.energy import LatticeState, energy_gap, lattice_energy, split_integral, split_stack
from rectlat.errors import QuadratureError
from rectlat.expansion import (
    _p2_p4_table,
    _p4_table,
    _series_table,
    curvature_table,
    e2_e4_closed,
    landau_series,
)
from rectlat.quadrature import Grid, QuadratureConfig, _tail_cutoff, grid_for, integrate_split

# h/2 times the Legendre coefficients a_22 and a_23 of a panel, from its
# contributions (h/2) w_j g(x_j)
_LEGENDRE_22_23 = legvander(leggauss(24)[0], 23)[:, 22:] * np.array([22.5, 23.5])


def reference_pass(table_of, w_direct, w_transformed, decay_scale, q, front, eps_max=0.0):
    """``(value, passed)`` of the split integral: the value, and which
    components pass their null-rule test.  Weights with a leading axis
    (``front`` a column) are a stack of measures, taken one at a time."""
    hi = _tail_cutoff(decay_scale, eps_max)
    a = q.split_point
    if a == math.pi:
        sides = [(a, lambda u, root: w_direct(u, root) + w_transformed(u, root))]
    else:
        sides = [(a, w_direct), (math.pi**2 / a, w_transformed)]
    value = scale = error = 0.0
    for lo, weight in sides:
        grid = Grid(lo, hi, 0)
        w, table = weight(grid.nodes, grid.root), table_of(grid)
        rows = [(f * grid.weights * wk) * table for f, wk in zip(np.ravel(front), np.atleast_2d(w))]
        contrib = np.stack(rows) if w.ndim > 1 else rows[0]
        value += contrib.sum(axis=-1)
        scale += np.abs(contrib).sum(axis=-1)
        panels = contrib.reshape(*contrib.shape[:-1], -1, 24)
        error += np.abs(panels @ _LEGENDRE_22_23).sum(axis=(-2, -1))
    return value, error <= np.maximum(q.rel_tol * scale, q.abs_tol)


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
    "riesz-energy": lambda q: lattice_energy(riesz(12.0), LatticeState(1.0, math.log(4.0)), q),
    "riesz-gaps": lambda q: energy_gap(riesz(9.0), 1.0, np.array([0.5, -1.0]), q),
}


def check_against_reference(run, q):
    """Run ``run(q)`` and hold every split integral it makes to the
    reference pass: the same bits, or a refusal where a component fails,
    and one table per grid.  Returns the ``passed`` arrays of the refused
    integrals."""
    records = []

    def recording(m, module):
        real = module.integrate_split

        def record(table_of, *args, **kwargs):
            formed = []

            def counted(grid):
                formed.append(grid)
                return table_of(grid)

            try:
                value = real(counted, *args, **kwargs)
            except QuadratureError as err:
                records.append((table_of, args, kwargs, err, len(formed)))
                raise
            records.append((table_of, args, kwargs, value, len(formed)))
            return value

        m.setattr(module, "integrate_split", record)

    with pytest.MonkeyPatch.context() as m:
        recording(m, energy)
        recording(m, critical)
        try:
            run(q)
        except QuadratureError:
            pass
    assert records
    refused = []
    for table_of, args, kwargs, outcome, formed in records:
        expected, passed = reference_pass(table_of, *args, **kwargs)
        if np.all(passed):
            assert np.asarray(outcome).tobytes() == np.asarray(expected).tobytes()
        else:
            assert isinstance(outcome, QuadratureError) and outcome.residual > 0.0
            refused.append(passed)
        assert formed == (1 if q.split_point == math.pi else 2)
    return refused


SPLITS = pytest.mark.parametrize("split", [math.pi, 2.0], ids=["split-pi", "split-2"])


@SPLITS
@pytest.mark.parametrize("name", sorted(CASES))
def test_pass_matches_reference_ladder(name, split):
    q = QuadratureConfig(split_point=split)
    assert check_against_reference(CASES[name], q) == []


def _with_ringing_row(row, u):
    """``row`` stacked on ``row * cos(6 u)``, which the grid does not resolve."""
    return np.stack([row, row * np.cos(6.0 * u)])


@SPLITS
@pytest.mark.parametrize("name", ["energy", "a-star-min"])
def test_ringing_row_refuses_the_pass(monkeypatch, name, split):
    # an oscillating companion row fails its null-rule test on the one
    # grid, so the stack is refused, although the bracket's own row passes
    if name == "energy":
        excess = energy.theta_product_excess
        ringing = lambda u, eps: _with_ringing_row(excess(u, eps), u)
        monkeypatch.setattr(energy, "theta_product_excess", ringing)
    else:
        ringing = lambda g: _with_ringing_row(curvature_table(g), g.nodes)
        monkeypatch.setattr(critical, "curvature_table", ringing)
    q = QuadratureConfig(split_point=split)
    refused = check_against_reference(CASES[name], q)
    # (the energy's point is a stack of one measure: its flags lead with it)
    assert [passed.ravel().tolist() for passed in refused] == [[True, False]]
    with pytest.raises(QuadratureError):
        CASES[name](q)


@SPLITS
def test_pair_gap_runs_once_per_pass(monkeypatch, split):
    sizes = []
    real = energy.theta_product_gap

    def counted(u, eps):
        sizes.append(u.size)
        return real(u, eps)

    monkeypatch.setattr(energy, "theta_product_gap", counted)
    # an unreachable tolerance is refused after one table on each grid
    q = QuadratureConfig(rel_tol=1e-30, abs_tol=1e-300, split_point=split)
    with pytest.raises(QuadratureError):
        energy_gap(DY, 2.6, 0.3, q)
    hi = _tail_cutoff(pot.tail_scale(DY, 2.6))
    los = [split, math.pi**2 / split] if split != math.pi else [split]
    assert sizes == [grid_for(lo, hi, 0).nodes.size for lo in los]


def _measure(spec, area, q):
    return (
        lambda u, root: pot.weight_direct(spec, area, u, root),
        lambda u, root: pot.weight_transformed(spec, area, u, root),
        pot.tail_scale(spec, area),
        q,
        pot.front_factor(spec, area),
    )


@SPLITS
def test_estimate_is_the_reference_level_0(split):
    # the eps scans rank a converged stacked gap: accepted on level 0 and
    # bit for bit the reference's level 0, its table formed once per grid
    q = QuadratureConfig(split_point=split)
    eps = np.linspace(0.2, 1.2, 5)
    rows = energy._gap_rows(eps)
    measure = _measure(DY, 2.6, q)
    formed = []

    def counted(grid):
        formed.append(grid)
        return rows(grid)

    value = integrate_split(counted, *measure)
    expected, passed = reference_pass(rows, *measure)
    assert passed.all() and value.tobytes() == expected.tobytes()
    assert len(formed) == (1 if split == math.pi else 2)
    assert energy_gap(DY, 2.6, eps, q).tobytes() == value.tobytes()


@pytest.mark.parametrize(
    "table_of", [curvature_table, _p4_table, _p2_p4_table, _series_table],
    ids=["p2", "p4", "p2p4", "series"],
)
def test_cached_tables_are_built_once_on_the_level_nodes(monkeypatch, table_of):
    grid = Grid(math.pi, _tail_cutoff(1.7), 1)
    seen = []
    real = Grid.cached

    def spying(grid, key, builder):
        def spy(u):
            seen.append(u)
            return builder(u)

        return real(grid, key, spy)

    monkeypatch.setattr(Grid, "cached", spying)
    table = table_of(grid)
    assert table_of(grid) is not None and len(seen) == 1
    monkeypatch.undo()
    assert seen[0] is grid.nodes
    fresh = table_of(Grid(math.pi, _tail_cutoff(1.7), 1))
    assert table.tobytes() == fresh.tobytes()
    assert table.shape[-1] == grid.nodes.size


@SPLITS
@pytest.mark.parametrize(
    "spec, area", [(YC, 2.8), (DY, 2.6)], ids=["yukawa-coulomb", "double-yukawa"]
)
def test_lattice_rows_are_fresh_rows(monkeypatch, spec, area, split):
    # a suffix of the scan lattice takes its rows from the lattice's table,
    # built by one pair-gap call on each level-0 grid: the table, and the
    # gaps from it, are bit for bit those of a fresh stack
    q = QuadratureConfig(split_point=split)
    lattice = energy.GAP_LATTICE
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
        fresh = integrate_split(
            lambda g: np.stack([real(g.nodes, e) for e in suffix]), *_measure(spec, area, q)
        )
        assert energy_gap(spec, area, suffix, q).tobytes() == fresh.tobytes()
        if start == 0:  # the first scan on a grid builds its table (unless one was built before)
            first = len(built)
            assert first in (0, len(grids))
            assert all(np.array_equal(eps, lattice) for eps in built)
        assert len(built) == first
    monkeypatch.undo()
    for g in grids:
        table = g._tables["pair_gap_lattice"]
        assert table.tobytes() == np.stack([real(g.nodes, e) for e in lattice]).tobytes()


def test_newton_step_builds_its_rows_once(monkeypatch):
    # the two gaps of a deep-crossing Newton step, at A and at A (1 + 1e-6),
    # are one stacked ``energy_gap``: one pass on their shared grid, whose
    # table of the three eps rows is one pair-gap call, and each row bit for
    # bit a fresh one
    q = QuadratureConfig()
    built, passes = [], []
    real, integrate = energy.theta_product_gap, rectlat.quadrature.integrate

    def counted(u, eps):
        built.append(eps)
        return real(u, eps)

    def fresh(area, eps):
        rows = lambda g: np.stack([real(g.nodes, e) for e in eps])
        return energy.split_integral(YC, area, rows, q)

    monkeypatch.setattr(energy, "theta_product_gap", counted)
    monkeypatch.setattr(
        rectlat.quadrature, "integrate", lambda *a, **k: passes.append(1) or integrate(*a, **k)
    )
    eps = 0.5 + np.array([-1e-5, 0.0, 1e-5])
    areas = [2.8, 2.8 * (1.0 + 1e-6)]
    rows = energy_gap(YC, areas, eps, q)
    assert len(built) == 1 and np.array_equal(built[0], eps)
    assert len(passes) == 1
    monkeypatch.undo()
    for row, area in zip(rows, areas):
        assert row.tobytes() == fresh(area, eps).tobytes()
        assert row.tobytes() == energy_gap(YC, area, eps, q).tobytes()


# Stacks of points, one family each, whose tail cutoffs share a bucket: the
# points, the bracket table and the largest |eps| of its rows
STACKS = {
    "double-yukawa": (
        [(DY, 2.55), (DY, 2.6), (derive_double_yukawa(12.0, 2.0), 2.6), (DY, 2.65)],
        _p2_p4_table,
        0.0,
    ),
    "yukawa-coulomb": (
        [(YC, 2.78), (derive_yukawa_coulomb(2.03), 2.8), (YC, 2.8)],
        _p2_p4_table,
        0.0,
    ),
    "yukawa": ([(yukawa(2.0, 1.5), 1.0), (yukawa(3.0), 1.02)], curvature_table, 0.0),
    "riesz": (
        [(riesz(9.0), 1.0), (riesz(12.0), 1.0), (riesz(9.0), 1.1)],
        energy._gap_rows(np.array([0.5, -1.0])),
        1.0,
    ),
}
SPLITS_PI_3 = pytest.mark.parametrize("split", [math.pi, 3.0], ids=["split-pi", "split-3"])


def _counting_passes(monkeypatch):
    """The ``hi`` of each grid that ``integrate`` asks for, one list per pass."""
    passes = []
    integrate, grid_for_ = rectlat.quadrature.integrate, rectlat.quadrature.grid_for

    def counted(*args, **kwargs):
        passes.append([])
        return integrate(*args, **kwargs)

    def grid(lo, hi, level):
        passes[-1].append(hi)
        return grid_for_(lo, hi, level)

    monkeypatch.setattr(rectlat.quadrature, "integrate", counted)
    monkeypatch.setattr(rectlat.quadrature, "grid_for", grid)
    return passes


@SPLITS_PI_3
@pytest.mark.parametrize("name", sorted(STACKS))
def test_stack_is_each_point_alone(monkeypatch, name, split):
    # one pass for the whole stack, each row bit for bit its point's own
    # pass and the reference's, at both splits (one grid, then two)
    q = QuadratureConfig(split_point=split)
    points, table_of, eps_max = STACKS[name]
    cuts = {_tail_cutoff(pot.tail_scale(s, a), eps_max if s.family == pot.RIESZ else 0.0)
            for s, a in points}
    assert len(cuts) == 1
    passes = _counting_passes(monkeypatch)
    rows = split_stack(points, table_of, q, eps_max)
    assert len(passes) == 1 and len(passes[0]) == (1 if split == math.pi else 2)
    monkeypatch.undo()
    assert rows.shape[0] == len(points)
    for row, (spec, area) in zip(rows, points):
        alone = split_integral(spec, area, table_of, q, eps_max)
        assert row.tobytes() == np.asarray(alone).tobytes()
        expected, passed = reference_pass(table_of, *_measure(spec, area, q), eps_max)
        assert passed.all() and row.tobytes() == np.asarray(expected).tobytes()
    stacked = lambda q: split_stack(points, table_of, q, eps_max)
    assert check_against_reference(stacked, q) == []


def _residual(run):
    with pytest.raises(QuadratureError) as info:
        run()
    return info.value.residual


@SPLITS_PI_3
def test_stack_refuses_where_a_point_refuses(split):
    # with an absolute tolerance between two points' error estimates, the
    # point above it is refused alone and so is any stack that holds it,
    # with its estimate as the residual; the point below it passes alone
    # and in a stack without the other
    points = [(DY, 2.55), (DY, 2.65), (DY, 2.6)]
    strict = QuadratureConfig(rel_tol=1e-30, abs_tol=1e-300, split_point=split)
    errors = [_residual(lambda: e2_e4_closed(s, a, strict)) for s, a in points]
    low, high = np.argsort(errors)[[0, -1]]
    assert errors[low] < errors[high]
    q = QuadratureConfig(
        rel_tol=1e-30, abs_tol=math.sqrt(errors[low] * errors[high]), split_point=split
    )
    e2_e4_closed(*points[low], q)
    assert _residual(lambda: e2_e4_closed(*points[high], q)) == errors[high]
    assert _residual(lambda: split_stack(points, _p2_p4_table, q)) == errors[high]
    assert _residual(lambda: split_stack(points, _p2_p4_table, strict)) == max(errors)
    alone = split_stack([points[low]], _p2_p4_table, q)
    default = QuadratureConfig(split_point=split)
    assert alone.tobytes() == split_stack([points[low]], _p2_p4_table, default).tobytes()


@SPLITS_PI_3
@pytest.mark.parametrize(
    "spec", [yukawa(40.0), derive_double_yukawa(9.8, 2.0)], ids=["yukawa", "double-yukawa"]
)
def test_points_across_a_bucket_edge_get_their_own_grids(monkeypatch, spec, split):
    # two densities a hair apart whose tail cutoffs fall in neighbouring
    # buckets: one pass each, on grids with their own upper ends, and each
    # row bit for bit its point alone
    cut = lambda a: _tail_cutoff(pot.tail_scale(spec, a))
    lo, hi = 0.5, 1000.0
    assert cut(lo) < cut(hi)
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cut(mid) == cut(lo) else (lo, mid)
    points = [(spec, lo), (spec, hi)]
    q = QuadratureConfig(split_point=split)
    passes = _counting_passes(monkeypatch)
    rows = split_stack(points, curvature_table, q)
    monkeypatch.undo()
    assert [set(p) for p in passes] == [{cut(lo)}, {cut(hi)}]
    for row, (s, a) in zip(rows, points):
        assert row.tobytes() == np.asarray(split_integral(s, a, curvature_table, q)).tobytes()
