import math

import numpy as np
import pytest

from rectlat.energy import LatticeState, energy_gap, lattice_energy, split_integral
from rectlat.errors import ParameterDomainError
from rectlat.expansion import (
    _series_rows,
    curvature_bracket,
    e0,
    e2_closed,
    e2_e4_closed,
    expansion_closed,
    expansion_series,
    landau_series,
    quartic_bracket,
)
from rectlat.potentials import derive_double_yukawa, derive_yukawa_coulomb, riesz, yukawa

from conftest import MP_ORDERS, e4_closed, mp_rows, rel_or_abs


class TestSquareLatticeCoefficient:
    def test_e0_is_energy_at_unit_aspect(self, dy98):
        area = 2.61449322978
        assert e0(dy98, area) == lattice_energy(dy98, LatticeState(area, 0.0))

    def test_e0_negative_near_the_well(self, dy98):
        value = e0(dy98, 2.61449322978)
        assert np.isfinite(value)
        assert value < 0.0


class TestCurvatureCoefficient:
    def test_sign_change_near_transition(self, dy98):
        assert e2_closed(dy98, 2.55) > 0.0
        assert e2_closed(dy98, 2.68) < 0.0

    @pytest.mark.parametrize("area", [0.5, 1.0, 5.0])
    def test_yukawa_always_positive(self, area):
        assert e2_closed(yukawa(1.3, 2.0), area) > 0.0

    @pytest.mark.parametrize("area", [0.2, 1.0, 10.0])
    def test_riesz_always_positive(self, area):
        assert e2_closed(riesz(3.0), area) > 0.0

    def test_bracket_positivity(self):
        # below t ~ 0.014 the true value drops under the double-precision
        # floor (it scales like exp(-pi^2/t)); positive everywhere above
        u = np.geomspace(0.02, 60.0, 60)
        assert np.all(curvature_bracket(u) > 0.0)


class TestCrossMethodAgreement:
    @pytest.mark.parametrize("area", [2.0, 2.6, 3.4])
    def test_e2(self, dy98, area):
        closed = e2_closed(dy98, area)
        series = landau_series(dy98, area)[2]
        assert rel_or_abs(closed, series, rel=1e-10)

    @pytest.mark.parametrize("area", [2.0, 2.6, 3.4])
    def test_e4(self, dy98, area):
        closed = e4_closed(dy98, area)
        series = landau_series(dy98, area)[4]
        assert rel_or_abs(closed, series, rel=1e-10)

    def test_random_specs(self, rng):
        for _ in range(6):
            kappa1 = rng.uniform(1.2, 3.0)
            v1 = math.exp(kappa1) / kappa1 * rng.uniform(1.3, 6.0)
            area = rng.uniform(1.0, 4.0)
            spec = derive_double_yukawa(v1, kappa1)
            rows = landau_series(spec, area)
            assert rel_or_abs(e2_closed(spec, area), rows[2], rel=1e-10)
            assert rel_or_abs(e4_closed(spec, area), rows[4], rel=1e-10)

    def test_yukawa_coulomb_background_family(self):
        spec = derive_yukawa_coulomb(2.0365)
        area = 2.7954
        rows = landau_series(spec, area)
        assert rel_or_abs(e2_closed(spec, area), rows[2], rel=1e-10)
        assert rel_or_abs(e4_closed(spec, area), rows[4], rel=1e-10)


class TestSeriesRoute:
    def test_odd_orders_vanish(self, dy98):
        rows = landau_series(dy98, 2.6)
        even_scale = max(abs(rows[2]), abs(rows[4]), abs(rows[6]))
        for m in (1, 3, 5, 7):
            assert abs(rows[m]) < 1e-12 * even_scale

    def test_expansion_series_record(self, dy98):
        coeffs = expansion_series(dy98, 2.6)
        assert coeffs.method == "series"
        assert coeffs.e6 is not None
        closed = expansion_closed(dy98, 2.6)
        assert closed.method == "closed_form"
        assert coeffs.e2 == pytest.approx(closed.e2, rel=1e-10)
        assert coeffs.e4 == pytest.approx(closed.e4, rel=1e-10)
        assert coeffs.e0 == closed.e0

    def test_e6_positive_at_yukawa_coulomb_tricritical(self):
        spec = derive_yukawa_coulomb(2.036517758847)
        rows = landau_series(spec, 2.795433950879)
        assert rows[6] > 0.0


_SPECS = {
    "double-yukawa": lambda: derive_double_yukawa(9.8, 2.0),
    "yukawa-coulomb": lambda: derive_yukawa_coulomb(2.0365),
    "yukawa": lambda: yukawa(1.5, 2.0),
    "riesz": lambda: riesz(3.0),
}


class TestSharedLadder:
    """Stacked rows share one grid yet equal their own integrals bit for bit."""

    @pytest.mark.parametrize("name", sorted(_SPECS))
    def test_e2_e4_closed_is_the_pair(self, name):
        spec = _SPECS[name]()
        for area in (0.7, 2.6, 2.79543395, 6.0):
            assert e2_e4_closed(spec, area) == (e2_closed(spec, area), e4_closed(spec, area))

    @pytest.mark.parametrize("name", sorted(_SPECS))
    def test_landau_rows_are_single_row_integrals(self, name):
        spec = _SPECS[name]()
        for area in (1.3, 2.6):
            rows = landau_series(spec, area)
            for m in range(1, rows.size):
                alone = split_integral(
                    spec, area, lambda g, m=m: g.cached("series", _series_rows)[m]
                )
                assert rows[m] == alone


@pytest.mark.parametrize("area", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize(
    "entry",
    [
        lambda spec, a: lattice_energy(spec, LatticeState(a)),
        lambda spec, a: energy_gap(spec, a, 0.1),
        e2_closed,
        e4_closed,
        e2_e4_closed,
        landau_series,
    ],
    ids=["lattice_energy", "energy_gap", "e2_closed", "e4_closed", "e2_e4_closed", "landau_series"],
)
def test_area_must_be_finite_and_positive(dy98, entry, area):
    with pytest.raises(ParameterDomainError):
        entry(dy98, area)


class TestFiniteDifferenceCurvature:
    def test_energy_curvature_matches_e2(self, dy98):
        # (E(A, e^h) - 2 E(A, 1) + E(A, e^-h)) / (2 h^2) -> E2
        area, h = 2.0, 1e-3
        e_plus = lattice_energy(dy98, LatticeState(area, h))
        e_zero = lattice_energy(dy98, LatticeState(area, 0.0))
        e_minus = lattice_energy(dy98, LatticeState(area, -h))
        fd = (e_plus - 2.0 * e_zero + e_minus) / (2.0 * h * h)
        assert fd == pytest.approx(e2_closed(dy98, area), rel=1e-5)

    def test_yukawa_coulomb_curvature(self):
        spec = derive_yukawa_coulomb(1.8)
        area, h = 2.5, 1e-3
        e_plus = lattice_energy(spec, LatticeState(area, h))
        e_zero = lattice_energy(spec, LatticeState(area, 0.0))
        e_minus = lattice_energy(spec, LatticeState(area, -h))
        fd = (e_plus - 2.0 * e_zero + e_minus) / (2.0 * h * h)
        assert fd == pytest.approx(e2_closed(spec, area), rel=1e-5)


class TestBracketScaling:
    def test_modular_rescaling_of_brackets(self):
        u = np.array([0.3, 0.9, 2.0])
        for bracket in (curvature_bracket, quartic_bracket):
            lhs = bracket(u)
            rhs = (math.pi / u) * bracket(math.pi**2 / u)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


_ORACLE_CASES = pytest.mark.parametrize(
    "spec, area, approx",
    [
        (derive_double_yukawa(9.8, 2.0), 2.6, (3.07e-3, 3.00e-3, 2.10e-3, 1.28e-4)),
        (derive_yukawa_coulomb(2.2), 2.7, (1.10e-3, 2.86e-3, 8.01e-4, -6.18e-5)),
    ],
    ids=["double-yukawa", "yukawa-coulomb"],
)


@_ORACLE_CASES
def test_e2_e4_against_high_precision_oracle(spec, area, approx):
    want = mp_rows(spec, area)
    assert want == pytest.approx(approx, rel=5e-3)
    got = e2_e4_closed(spec, area)
    for value, reference in zip(got, want[:2]):
        assert abs(value - reference) <= 1e-12 * abs(reference)


@_ORACLE_CASES
def test_series_rows_against_high_precision_oracle(spec, area, approx):
    # the series route builds its rows from the 1D factor, independent of
    # the theta derivatives the oracle and the closed route use
    rows = landau_series(spec, area)
    for m, reference in zip(MP_ORDERS, mp_rows(spec, area)):
        assert abs(rows[m] - reference) <= 1e-12 * abs(reference), m
