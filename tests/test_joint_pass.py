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
two grids).
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss, legvander

import rectlat.critical as critical
import rectlat.energy as energy
from rectlat import derive_double_yukawa, derive_yukawa_coulomb, riesz
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
from rectlat.quadrature import Grid, QuadratureConfig, _tail_cutoff, grid_for, integrate_split

# h/2 times the Legendre coefficients a_22 and a_23 of a panel, from its
# contributions (h/2) w_j g(x_j)
_LEGENDRE_22_23 = legvander(leggauss(24)[0], 23)[:, 22:] * np.array([22.5, 23.5])


def reference_pass(table_of, w_direct, w_transformed, decay_scale, q, front, eps_max=0.0):
    """``(value, passed)`` of the split integral: the value, and which
    components pass their null-rule test."""
    hi = _tail_cutoff(decay_scale, eps_max)
    a = q.split_point
    if a == math.pi:
        sides = [(a, lambda u, root: w_direct(u, root) + w_transformed(u, root))]
    else:
        sides = [(a, w_direct), (math.pi**2 / a, w_transformed)]
    value = scale = error = 0.0
    for lo, weight in sides:
        grid = Grid(lo, hi, 0)
        contrib = (front * grid.weights * weight(grid.nodes, grid.root)) * table_of(grid)
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
    assert [passed.tolist() for passed in refused] == [[True, False]]
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
    # share one table of their three eps rows, built by one pair-gap call;
    # the next stack replaces it
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
    assert len(built) == 1 and np.array_equal(built[0], eps)
    above = energy_gap(YC, 2.8 * (1.0 + 1e-6), eps, q)
    assert len(built) == 1
    energy_gap(YC, 2.8, eps + 0.1, q)
    assert len(built) == 2
    assert len(energy._last_rows["tables"]) == 1
    monkeypatch.setattr(energy, "theta_product_gap", real)
    assert at_a.tobytes() == fresh(2.8, eps).tobytes()
    assert above.tobytes() == fresh(2.8 * (1.0 + 1e-6), eps).tobytes()
