import math

import mpmath
import numpy as np
import pytest

from rectlat.errors import ParameterDomainError, QuadratureError
from rectlat.quadrature import (
    DEFAULT_CONFIG,
    MAX_REFINEMENTS,
    Grid,
    QuadratureConfig,
    _tail_cutoff,
    grid_for,
    integrate,
)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureConfig(split_point=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_refinements=0)


@pytest.mark.parametrize("bad", [2.5, True, "3", None, MAX_REFINEMENTS + 1, 10**6])
def test_config_refuses_max_refinements_outside_its_range(bad):
    # refused up front, before any grid of 8 * 2^L * 24 nodes is built
    with pytest.raises(ParameterDomainError, match="max_refinements must be an integer from 1"):
        QuadratureConfig(max_refinements=bad)


def test_config_accepts_integer_max_refinements():
    assert QuadratureConfig(max_refinements=np.int64(MAX_REFINEMENTS)).max_refinements == 8


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


def _exp_piece(grid):
    return grid.weights * np.exp(-grid.nodes)


def test_exponential_tail_exact():
    value = integrate([(math.pi, _exp_piece)], 0.0, DEFAULT_CONFIG)
    assert value == pytest.approx(math.exp(-math.pi), rel=1e-13)


def test_polynomial_times_exponential():
    # int_a^inf u^4 e^-u du = Gamma(5, a)
    def piece(grid):
        return grid.weights * grid.nodes**4 * np.exp(-grid.nodes)

    a = math.pi
    expected = math.exp(-a) * (a**4 + 4 * a**3 + 12 * a**2 + 24 * a + 24)
    assert integrate([(a, piece)], 0.0) == pytest.approx(expected, rel=1e-13)


def test_shifted_decay_scale():
    # mass far from the left endpoint: exp(-p/u - u) peaks at sqrt(p)
    p = 2000.0

    def piece(grid):
        return grid.weights * np.exp(-p / grid.nodes - grid.nodes)

    # int_0^inf exp(-p/u - u) du = 2 sqrt(p) K_1(2 sqrt(p)); the value is
    # about 1.7e-38, so the comparison is relative only
    with mpmath.workdps(30):
        head = mpmath.quad(lambda u: mpmath.exp(-p / u - u), [0, 1, mpmath.pi])
        whole = 2 * mpmath.sqrt(p) * mpmath.besselk(1, 2 * mpmath.sqrt(p))
        expected = float(whole - head)
    assert integrate([(math.pi, piece)], p) == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_failure_carries_residual():
    # an integrand the panel ladder cannot pin to an impossible tolerance
    def noisy(grid):
        return grid.weights * np.sin(301.7 * grid.nodes) * np.exp(-0.5 * grid.nodes)

    q = QuadratureConfig(rel_tol=1e-30, abs_tol=1e-300, max_refinements=1)
    with pytest.raises(QuadratureError) as exc:
        integrate([(math.pi, noisy)], 0.0, q)
    assert exc.value.residual > 0.0


def _cosine_piece(ks, levels=None):
    """cos(k u) exp(-u/2) for each k; higher k needs finer grids."""
    ks = np.asarray(ks, dtype=float)

    def piece(grid):
        if levels is not None:
            levels.append(grid.level)
        return (
            grid.weights * np.cos(np.multiply.outer(ks, grid.nodes)) * np.exp(-0.5 * grid.nodes)
        )

    return piece


def _cosine_exact(k, a=math.pi):
    """int_a^inf cos(k u) exp(-u/2) du"""
    return math.exp(-0.5 * a) * (0.5 * math.cos(k * a) - k * math.sin(k * a)) / (0.25 + k * k)


def test_under_resolved_level_0_is_refused():
    # cos(10 u) exp(-u/2) rings across each level-0 panel: the null rule
    # refuses level 0, whose value misses the tolerance, and the accepted
    # level meets it against the closed form
    k = 10.0
    levels = []
    value = integrate([(math.pi, _cosine_piece(k, levels))], 0.0)
    assert levels[0] == 0 and max(levels) > 0
    exact = _cosine_exact(k)
    piece = _cosine_piece(k)
    level_0 = piece(grid_for(math.pi, _tail_cutoff(0.0), 0))
    tol = DEFAULT_CONFIG.rel_tol * np.abs(level_0).sum()
    assert abs(level_0.sum() - exact) > tol
    accepted = piece(grid_for(math.pi, _tail_cutoff(0.0), max(levels)))
    assert value == accepted.sum()
    assert abs(value - exact) <= DEFAULT_CONFIG.rel_tol * np.abs(accepted).sum()


def test_components_stop_at_their_own_level():
    ks = (1.0, 2.0, 3.0, 6.0)
    stacked = integrate([(math.pi, _cosine_piece(ks))], 0.0)
    assert stacked.shape == (4,)
    reached = []
    for i, k in enumerate(ks):
        levels = []
        alone = integrate([(math.pi, _cosine_piece(k, levels))], 0.0)
        reached.append(max(levels))
        # each row is bit-for-bit its own ladder's value, frozen at its level
        assert stacked[i] == alone
        assert stacked[i] == pytest.approx(_cosine_exact(k), rel=1e-11, abs=1e-15)
    assert reached == [0, 1, 2, 3]


def test_scalar_pieces_return_scalars():
    value = integrate([(math.pi, _exp_piece)], 0.0)
    assert np.ndim(value) == 0


def test_grid_caching_and_determinism():
    g1 = grid_for(math.pi, _tail_cutoff(0.0), 1)
    g2 = grid_for(math.pi, _tail_cutoff(0.0), 1)
    assert g1 is g2
    g3 = Grid(g1.lo, g1.hi, 1)
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
