import math

import mpmath
import numpy as np
import pytest

from rectlat.errors import ParameterDomainError, QuadratureError
from rectlat.quadrature import (
    DEFAULT_CONFIG,
    END_MAX,
    Grid,
    QuadratureConfig,
    _tail_cutoff,
    grid_for,
    integrate,
)


def test_stored_rule_is_leggauss_bit_for_bit():
    # the stored 24-point rule and null rule are what numpy computes
    from numpy.polynomial.legendre import leggauss, legval

    import rectlat.quadrature as quadrature

    nodes, weights = leggauss(24)
    null_rule = np.stack([(k + 0.5) * legval(nodes, np.eye(k + 1)[k]) for k in (22, 23)], axis=1)
    assert quadrature._GL_NODES.tobytes() == nodes.tobytes()
    assert quadrature._GL_WEIGHTS.tobytes() == weights.tobytes()
    assert quadrature._NULL_RULE.shape == (24, 2)
    assert quadrature._NULL_RULE.tobytes() == null_rule.tobytes()


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(split_point=0.0)
    # both half-grids start below the smallest grid end, 90
    for split in (math.pi**2 / 90.0, 90.0, 1e15, 5e-324):
        with pytest.raises(ParameterDomainError, match="split_point must lie in"):
            QuadratureConfig(split_point=split)
    for split in (0.11, 89.9):
        assert QuadratureConfig(split_point=split).split_point == split


@pytest.mark.parametrize("bad", [2.5, True, "3", None, 9, 10**6])
def test_config_refuses_max_refinements_outside_its_range(bad):
    # every integral is one grid: the config has no refinement level to
    # set, and refuses one of any value
    assert list(QuadratureConfig._fields) == ["rel_tol", "abs_tol", "split_point"]
    with pytest.raises(TypeError, match="max_refinements"):
        QuadratureConfig(max_refinements=bad)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("rel_tol", math.nan),
        ("rel_tol", math.inf),
        ("abs_tol", math.nan),
        ("abs_tol", math.inf),
        ("split_point", math.nan),
        ("split_point", math.inf),
    ],
)
def test_config_rejects_non_finite(field, bad):
    with pytest.raises(ParameterDomainError):
        QuadratureConfig(**{field: bad})


_ONE = lambda u, root: np.ones_like(u)
_ZERO = lambda u, root: np.zeros_like(u)


def _direct(table_of, q=DEFAULT_CONFIG, decay_scale=0.0):
    """``int_pi^inf table_of(grid)`` on the one grid from pi: the direct
    half's weight is 1 and the transformed half's 0."""
    return integrate(table_of, _ONE, _ZERO, _tail_cutoff(decay_scale), q)


def _exp_table(grid):
    return np.exp(-grid.nodes)


def test_exponential_tail_exact():
    value = _direct(_exp_table, DEFAULT_CONFIG)
    assert value == pytest.approx(math.exp(-math.pi), rel=1e-13)


def test_polynomial_times_exponential():
    # int_a^inf u^4 e^-u du = Gamma(5, a)
    def table(grid):
        return grid.nodes**4 * np.exp(-grid.nodes)

    a = math.pi
    expected = math.exp(-a) * (a**4 + 4 * a**3 + 12 * a**2 + 24 * a + 24)
    assert _direct(table) == pytest.approx(expected, rel=1e-13)


def test_shifted_decay_scale():
    # mass far from the left endpoint: exp(-p/u - u) peaks at sqrt(p)
    p = 2000.0

    def table(grid):
        return np.exp(-p / grid.nodes - grid.nodes)

    # int_0^inf exp(-p/u - u) du = 2 sqrt(p) K_1(2 sqrt(p)); the value is
    # about 1.7e-38, so the comparison is relative only
    with mpmath.workdps(30):
        head = mpmath.quad(lambda u: mpmath.exp(-p / u - u), [0, 1, mpmath.pi])
        whole = 2 * mpmath.sqrt(p) * mpmath.besselk(1, 2 * mpmath.sqrt(p))
        expected = float(whole - head)
    assert _direct(table, decay_scale=p) == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_failure_carries_residual():
    # an integrand the panels cannot pin to an impossible tolerance
    def noisy(grid):
        return np.sin(301.7 * grid.nodes) * np.exp(-0.5 * grid.nodes)

    q = QuadratureConfig(rel_tol=1e-30, abs_tol=1e-300)
    with pytest.raises(QuadratureError) as exc:
        _direct(noisy, q)
    assert exc.value.residual > 0.0


def _cosine_table(ks, grids=None):
    """cos(k u) exp(-u/2) for each k; the grid resolves k up to 1."""
    ks = np.asarray(ks, dtype=float)

    def table(grid):
        if grids is not None:
            grids.append(grid)
        return np.cos(np.multiply.outer(ks, grid.nodes)) * np.exp(-0.5 * grid.nodes)

    return table


def _cosine_exact(k, a=math.pi):
    """int_a^inf cos(k u) exp(-u/2) du"""
    return math.exp(-0.5 * a) * (0.5 * math.cos(k * a) - k * math.sin(k * a)) / (0.25 + k * k)


def test_under_resolved_level_0_is_refused():
    # cos(10 u) exp(-u/2) rings across each panel of its one grid: the null
    # rule refuses it, rightly, since that grid's value misses the
    # tolerance against the closed form; no finer grid is tried
    k = 10.0
    grids = []
    with pytest.raises(QuadratureError) as exc:
        _direct(_cosine_table(k, grids))
    assert grids == [grid_for(math.pi, _tail_cutoff(0.0), 0)]
    level_0 = grids[0].weights * _cosine_table(k)(grids[0])
    tol = DEFAULT_CONFIG.rel_tol * np.abs(level_0).sum()
    assert abs(level_0.sum() - _cosine_exact(k)) > tol
    assert exc.value.residual > tol


def test_one_unresolved_component_refuses_the_stack():
    # the grid resolves cos(k u) exp(-u/2) at k = 0.5 and 1 but not at 1.5:
    # a stack passes only when every component does, and each component
    # is then bit-for-bit its value alone
    stacked = _direct(_cosine_table((0.5, 1.0)))
    assert stacked.shape == (2,)
    for i, k in enumerate((0.5, 1.0)):
        assert stacked[i] == _direct(_cosine_table(k))
        assert stacked[i] == pytest.approx(_cosine_exact(k), rel=1e-11, abs=1e-15)
    for ks in (1.5, (0.5, 1.0, 1.5)):
        with pytest.raises(QuadratureError):
            _direct(_cosine_table(ks))


def test_scalar_pieces_return_scalars():
    value = _direct(_exp_table)
    assert np.ndim(value) == 0


def test_grid_caching_and_determinism():
    g1 = grid_for(math.pi, _tail_cutoff(0.0), 0)
    g2 = grid_for(math.pi, _tail_cutoff(0.0), 0)
    assert g1 is g2
    g3 = Grid(math.pi, _tail_cutoff(0.0))
    np.testing.assert_array_equal(g1.nodes, g3.nodes)
    np.testing.assert_array_equal(g1.weights, g3.weights)


def test_cached_tables():
    g = grid_for(math.pi, _tail_cutoff(0.0), 0)
    calls = []

    def builder(nodes):
        calls.append(len(nodes))
        return nodes * 2.0

    t1 = g.cached("double", builder)
    t2 = g.cached("double", builder)
    assert t1 is t2
    assert len(calls) == 1


def test_tail_cutoff_matches_the_cancelling_formula():
    # the grid end once took d^2 - 4p, which cancels to its exact value
    # 360 sqrt(p) + 8100 at large p; where the cancelling form still holds,
    # both give the same bucketed end
    def cancelling(p):
        d = 2.0 * math.sqrt(p) + 90.0
        hi = 0.5 * (d + math.sqrt(d * d - 4.0 * p))
        return 90.0 * 1.5 ** max(0, math.ceil(math.log(hi / 90.0) / math.log(1.5)))

    for p in [0.0, *np.geomspace(1e-12, 1e12, 200_001).tolist()]:
        assert _tail_cutoff(p) == cancelling(p)


@pytest.mark.parametrize(
    "p, eps_max",
    [(1e300, 0.0), (math.inf, 0.0), (math.nan, 0.0), (0.0, 700.0), (0.0, math.inf), (1e151, 0.0)],
    ids=["p-huge", "p-inf", "p-nan", "eps-huge", "eps-inf", "end-past-1e75"],
)
def test_grid_end_past_its_bound_is_refused(p, eps_max):
    # u^4 overflows near u = 1e77: the end is refused before it is bucketed
    with pytest.raises(ParameterDomainError, match="grid would end past 1e\\+75"):
        _tail_cutoff(p, eps_max)


def test_grid_end_just_below_its_bound_integrates():
    # kappa = 1, A = 1e150: the tail scale 2.5e149 ends its grid at 1e75
    from rectlat.energy import LatticeState, lattice_energy
    from rectlat.potentials import yukawa

    assert _tail_cutoff(2.5e149) <= 2.25 * END_MAX
    assert lattice_energy(yukawa(1.0), LatticeState(1e150)) == 0.0
