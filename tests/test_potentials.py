import json
import math

import mpmath
import numpy as np
import pytest

from rectlat.errors import ParameterDomainError
from rectlat.potentials import (
    DOUBLE_YUKAWA,
    RIESZ,
    YUKAWA,
    YUKAWA_COULOMB,
    PotentialSpec,
    _check_normalization,
    _normalization_residuals,
    derive_double_yukawa,
    derive_yukawa_coulomb,
    laplace_pairs,
    make_spec,
    riesz,
    weight_direct,
    weight_transformed,
    yukawa,
)

from conftest import potential_value


def measure_density(spec: PotentialSpec, t):
    """Oracle: the density rho(t) of the Gaussian-superposition measure,
    strength factors included, so that integrating ``exp(-r^2 t) rho(t)``
    reproduces ``potential_value``."""
    t = np.asarray(t, dtype=float)
    if spec.family == RIESZ:
        return t ** (spec.s / 2.0 - 1.0) / math.gamma(spec.s / 2.0)
    root = np.sqrt(np.pi * t)
    if spec.family == YUKAWA:
        return spec.v * np.exp(-spec.kappa**2 / (4.0 * t)) / root
    if spec.family == DOUBLE_YUKAWA:
        return (
            spec.v1 * np.exp(-spec.kappa1**2 / (4.0 * t))
            - spec.v2 * np.exp(-spec.kappa2**2 / (4.0 * t))
        ) / root
    assert spec.family == YUKAWA_COULOMB
    return (spec.v1 * np.exp(-spec.kappa1**2 / (4.0 * t)) - spec.v2) / root


def spec_from_json(text: str) -> PotentialSpec:
    """A spec rebuilt from its ``to_json`` form through ``make_spec``."""
    data = json.loads(text)
    params = {k: data[k] for k in ("s", "kappa", "v", "v1", "kappa1") if k in data}
    return make_spec(data.get("family"), **params)


class TestDoubleYukawa:
    def test_strength_gap_is_derived_at_construction(self, dy98):
        # v1 - v2 without cancellation, formed once per member for the
        # measure weights; to_json leaves it out
        for spec in (dy98, derive_yukawa_coulomb(2.0365)):
            assert spec.strength_gap == pytest.approx(spec.v1 - spec.v2, rel=1e-13)
            assert "strength_gap" not in json.loads(spec.to_json())

    def test_derived_parameters(self, dy98):
        # from kappa2 = (k1 v1 - e^k1)/(v1 + e^k1) and the matching v2
        assert dy98.kappa2 == pytest.approx(0.7103906014844530, rel=1e-14)
        assert dy98.v2 == pytest.approx(4.7334934814604271, rel=1e-14)

    def test_normalization(self, dy98):
        assert potential_value(dy98, 1.0) == pytest.approx(-1.0, abs=1e-12)
        h = 1e-6
        fprime = (potential_value(dy98, 1.0 + h) - potential_value(dy98, 1.0 - h)) / (2 * h)
        assert abs(fprime) < 1e-9
        assert abs(dy98.norm_residuals[0]) < 1e-12
        assert abs(dy98.norm_residuals[1]) < 1e-12

    @pytest.mark.parametrize("v1", [1e8, 1e12])
    def test_large_v1_builds(self, v1):
        # f(1)+1 is roundoff between two terms of size v1 exp(-kappa1)
        spec = derive_double_yukawa(v1, 2.0)
        assert 0.0 < spec.kappa2 < spec.kappa1

    def test_normalization_error_refused(self, dy98):
        v2 = dy98.v2 * (1.0 + 1e-8)
        bad = dy98._replace(
            v2=v2,
            norm_residuals=_normalization_residuals(dy98.v1, dy98.kappa1, v2, dy98.kappa2),
        )
        with pytest.raises(ParameterDomainError, match="normalization residuals"):
            _check_normalization(bad)

    def test_border_rejected(self):
        v1_border = math.exp(2.0) / 2.0
        with pytest.raises(ParameterDomainError, match="exp\\(kappa1\\)/kappa1"):
            derive_double_yukawa(v1_border, 2.0)
        with pytest.raises(ParameterDomainError):
            derive_double_yukawa(v1_border * 0.9, 2.0)

    def test_sign_structure(self, dy98):
        assert potential_value(dy98, 0.1) > 0.0
        assert potential_value(dy98, 0.97) < 0.0
        assert potential_value(dy98, 1.0) < 0.0

    def test_invariants_of_parameter_order(self, dy98):
        assert dy98.v1 > dy98.v2 > 0.0
        assert dy98.kappa1 > dy98.kappa2 > 0.0


class TestYukawaCoulomb:
    def test_derived_strengths(self):
        spec = derive_yukawa_coulomb(2.0)
        assert spec.v1 == pytest.approx(3.6945280494653251, rel=1e-14)
        assert spec.v2 == pytest.approx(1.5, rel=1e-14)
        assert spec.needs_background

    @pytest.mark.parametrize("kappa1", [0.5, 1.0, 2.0, 2.036517758847, 7.0])
    def test_depth_forced_to_minus_one(self, kappa1):
        spec = derive_yukawa_coulomb(kappa1)
        assert potential_value(spec, 1.0) == pytest.approx(-1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ParameterDomainError):
            derive_yukawa_coulomb(0.0)
        with pytest.raises(ParameterDomainError):
            derive_yukawa_coulomb(-1.0)


class TestPointValues:
    def test_riesz(self):
        assert potential_value(riesz(2.0), 2.0) == 0.25
        assert potential_value(riesz(4.0), 0.5) == 16.0

    def test_yukawa(self):
        spec = yukawa(5.0, 1.0)
        assert potential_value(spec, 2.0) == pytest.approx(math.exp(-10.0) / 2.0, rel=1e-15)

    def test_domain_error(self, dy98):
        with pytest.raises(ParameterDomainError):
            potential_value(dy98, 0.0)


class TestMeasureDensity:
    def test_yukawa_essential_zero_at_origin(self):
        spec = yukawa(2.0)
        assert measure_density(spec, 1e-4) == pytest.approx(0.0, abs=1e-300)
        assert measure_density(spec, 1e-4) >= 0.0

    def test_riesz_s4_is_linear(self):
        spec = riesz(4.0)
        for t in (0.2, 1.0, 7.5):
            assert measure_density(spec, t) == pytest.approx(t, rel=1e-14)

    def test_double_yukawa_sign_change_threshold(self, dy98):
        # the threshold from the admissibility analysis: rho < 0 exactly on
        # (0, (kappa1^2 - kappa2^2) / (4 ln(v1/v2)))
        r0 = (dy98.kappa1**2 - dy98.kappa2**2) / (4.0 * math.log(dy98.v1 / dy98.v2))
        assert measure_density(dy98, r0 * (1 - 1e-9)) < 0.0
        assert measure_density(dy98, r0 * (1 + 1e-9)) > 0.0

    @pytest.mark.parametrize("spec_fn", [lambda: riesz(3.0), lambda: yukawa(1.7, 2.2)])
    def test_completely_monotone_nonnegative(self, spec_fn):
        spec = spec_fn()
        for t in np.geomspace(1e-3, 100.0, 40):
            assert measure_density(spec, t) >= 0.0

    @staticmethod
    def _laplace(spec, r):
        """Independent integrator (mpmath, tanh-sinh):
        f(r) = int_0^inf exp(-r^2 t) rho(t) dt."""
        f = lambda t: mpmath.exp(-(r * r) * t) * float(measure_density(spec, float(t)))
        with mpmath.workdps(30):
            return float(mpmath.quad(f, [0, 1, mpmath.inf]))

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_laplace_consistency(self, dy98, r):
        val = self._laplace(dy98, r)
        assert val == pytest.approx(potential_value(dy98, r), rel=1e-10)

    @pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
    def test_laplace_consistency_yukawa(self, r):
        spec = yukawa(3.0, 1.4)
        val = self._laplace(spec, r)
        assert val == pytest.approx(potential_value(spec, r), rel=1e-10)


class TestQuadratureWeights:
    def test_direct_weight_matches_density(self, dy98):
        # weight_direct(u) must equal rho(u/A) * sqrt(A/ (pi u))^-1 ... i.e.
        # A * sqrt(pi A) * rho fits the reduced-integral convention
        area = 2.6
        u = np.geomspace(0.5, 60.0, 15)
        expected = measure_density(dy98, u / area) * np.sqrt(math.pi * u / area) / np.sqrt(u)
        np.testing.assert_allclose(weight_direct(dy98, area, u), expected, rtol=1e-12)

    def test_transformed_weight_is_direct_at_mapped_argument(self, dy98):
        # substituting t -> pi^2/u sends the direct weight to the transformed one
        area = 2.6
        u = np.geomspace(3.2, 60.0, 12)
        lhs = weight_transformed(dy98, area, u)
        rhs = weight_direct(dy98, area, math.pi**2 / u) * np.sqrt(math.pi**2 / u) / np.sqrt(u)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_pair_list(self, dy98):
        pairs = laplace_pairs(dy98)
        assert pairs[0] == (dy98.v1, dy98.kappa1)
        assert pairs[1] == (-dy98.v2, dy98.kappa2)
        with pytest.raises(ParameterDomainError):
            laplace_pairs(riesz(3.0))


class TestSerialization:
    def test_roundtrip(self, dy98):
        again = spec_from_json(dy98.to_json())
        assert again == dy98

    @pytest.mark.parametrize(
        "spec",
        [riesz(3.0), yukawa(2.5, 1.1), derive_yukawa_coulomb(2.0365)],
        ids=["riesz", "yukawa", "yukawa-coulomb"],
    )
    def test_roundtrip_other_families(self, spec):
        assert spec_from_json(spec.to_json()) == spec

    def test_unknown_family(self):
        with pytest.raises(ParameterDomainError):
            spec_from_json('{"family": "lennard-jones"}')

    @pytest.mark.parametrize(
        "text, missing",
        [
            ('{"family": "riesz"}', "s"),
            ('{"family": "yukawa", "v": 2.0}', "kappa"),
            ('{"family": "double-yukawa", "kappa1": 2.0}', "v1"),
            ('{"family": "yukawa-coulomb", "v1": 3.69}', "kappa1"),
        ],
        ids=["riesz", "yukawa", "double-yukawa", "yukawa-coulomb"],
    )
    def test_missing_parameter_is_a_domain_error(self, text, missing):
        message = f"family {json.loads(text)['family']} requires parameter {missing}$"
        with pytest.raises(ParameterDomainError, match=message):
            spec_from_json(text)
