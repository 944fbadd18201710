import math
import time

import numpy as np
import pytest

import rectlat.critical
from rectlat.critical import (
    a_star_min,
    a_star_min_zero_limit,
    e2_slope,
    find_first_order,
    find_transition,
    find_tricritical,
    first_order_bracket,
    fit_exponent,
    minimize_aspect,
)
from rectlat.energy import LatticeState, lattice_energy
from rectlat.errors import (
    BracketError,
    ClassificationError,
    NonconvergenceError,
    ParameterDomainError,
)
from rectlat.expansion import e2_closed, e4_closed
from rectlat.potentials import derive_double_yukawa, derive_yukawa_coulomb, yukawa


class TestMinimizeAspect:
    def test_yukawa_square_is_optimal(self):
        spec = yukawa(2.0, 1.0)
        for area in (0.5, 2.0, 6.0):
            eps_min, energy = minimize_aspect(spec, area)
            assert eps_min == 0.0
            assert energy == lattice_energy(spec, LatticeState(area, 0.0))

    def test_onset_amplitude_above_transition(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        delta = 1e-4
        eps_min, _ = minimize_aspect(dy98, tp.a_star + delta)
        b = -e2_slope(dy98, tp.a_star)
        predicted = math.sqrt(b / (2.0 * e4_closed(dy98, tp.a_star))) * math.sqrt(delta)
        assert eps_min == pytest.approx(predicted, rel=0.02)

    def test_below_transition_square(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        eps_min, _ = minimize_aspect(dy98, tp.a_star - 1e-3)
        assert eps_min == 0.0

    def test_deep_rectangular_regime_direct_path(self, dy98):
        # far above the transition the minimizing aspect leaves the
        # trusted series range and the direct path takes over
        eps_min, energy = minimize_aspect(dy98, 3.6)
        assert eps_min > 0.15
        assert energy < lattice_energy(dy98, LatticeState(3.6, 0.0))


class TestFindTransition:
    def test_double_yukawa_reference_point(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        assert tp.order == "second"
        assert tp.a_star == pytest.approx(2.61449322978, rel=1e-9)
        assert abs(tp.e2_residual) < 1e-13
        assert tp.e4_at_a_star > 0.0

    def test_yukawa_has_no_transition(self):
        with pytest.raises(BracketError):
            find_transition(yukawa(1.0, 1.0), (0.2, 10.0))

    def test_order_flag_flips_below_tricritical_strength(self):
        v1_t = 6.7951845011079
        above = derive_double_yukawa(v1_t * 1.02, 2.0)
        below = derive_double_yukawa(v1_t * 0.98, 2.0)
        assert find_transition(above, (2.3, 3.2)).order == "second"
        assert find_transition(below, (2.3, 3.2)).order == "first"


class TestFindTricritical:
    def test_double_yukawa_converges(self, q):
        tc = find_tricritical("double-yukawa", 2.0, q=q)
        assert tc.a_t == pytest.approx(2.7163619942262467, rel=1e-12)
        assert tc.param_t == pytest.approx(6.7951845011079, rel=1e-11)
        assert np.isfinite(tc.jacobian_condition)
        # residuals in scaled units: measured against the few-percent variation
        scale = abs(e2_closed(derive_double_yukawa(tc.param_t, 2.0), tc.a_t * 1.03))
        assert abs(tc.residuals[0]) < 1e-11 * scale

    def test_outside_existence_window(self):
        with pytest.raises(NonconvergenceError):
            find_tricritical("double-yukawa", 1.2, initial_guess=(2.5, 40.0))

    def test_requires_kappa1(self):
        with pytest.raises(ParameterDomainError):
            find_tricritical("double-yukawa")

    def test_unknown_family(self):
        with pytest.raises(ParameterDomainError):
            find_tricritical("riesz")

    def test_each_point_evaluated_once_per_solve(self, monkeypatch):
        # a solve near the window's upper end: Newton gives up and the nested
        # fallback revisits the points its brackets and Newton already saw
        seen = []
        inner = rectlat.critical.e2_e4_closed

        def counted(spec, area, q):
            seen.append((float(area), float(spec.kappa2)))
            return inner(spec, area, q)

        monkeypatch.setattr(rectlat.critical, "e2_e4_closed", counted)
        tc = find_tricritical(
            "double-yukawa",
            2.0364460787263177,
            initial_guess=(2.792050663652686, 4.160637578855316),
        )
        assert math.isnan(tc.jacobian_condition)  # the fallback ran
        assert len(seen) > 100
        assert len(set(seen)) == len(seen)


class TestFindFirstOrder:
    def test_locates_branch_crossing(self, yc_near_tricritical, q):
        spec = yc_near_tricritical
        tp = find_transition(spec, (2.5, 3.1), q)
        assert tp.order == "first"
        a_trans, eps_jump = find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)
        assert eps_jump > 0.0
        assert a_trans < tp.a_star  # crossing precedes the curvature root

    def test_square_prevails_below_crossing(self, yc_near_tricritical):
        # quoted window: square at 2.79544356250, rectangle at 2.795443562606
        eps_lo, _ = minimize_aspect(yc_near_tricritical, 2.79544356250)
        assert eps_lo == 0.0
        eps_hi, e_hi = minimize_aspect(yc_near_tricritical, 2.795443562606)
        assert eps_hi > 0.0
        assert e_hi < lattice_energy(
            yc_near_tricritical, LatticeState(2.795443562606, 0.0)
        )

    def test_bracket_walk_is_bounded(self):
        # a purely repulsive potential has no branch crossing: the bracket
        # search must give up quickly, not creep on
        start = time.perf_counter()
        with pytest.raises(BracketError):
            first_order_bracket(yukawa(1.0), 2.6)
        assert time.perf_counter() - start < 10.0

    def test_negative_e6_refused_at_the_seed(self, monkeypatch):
        # yukawa(1.0) has E6 < 0 at A = 2.6, where the coexistence condition
        # E2 = E4^2 / (4 E6) means nothing: refuse before walking
        seen = []
        original = rectlat.critical._gap_coefficients

        def counting(spec, area, q):
            seen.append(area)
            return original(spec, area, q)

        monkeypatch.setattr(rectlat.critical, "_gap_coefficients", counting)
        with pytest.raises(BracketError, match="E6"):
            first_order_bracket(yukawa(1.0), 2.6)
        assert seen == [2.6]

    def test_negative_e6_refused_along_the_walk(self, monkeypatch):
        # yukawa-coulomb kappa1 = 1.9: E6 > 0 at the E2 root, but the walk
        # to the left reaches A = 2.8255 with E6 = -4.6e-5, where
        # E2 = E4^2 / (4 E6) means nothing: it refuses there
        seen = []
        original = rectlat.critical._gap_coefficients

        def recording(spec, area, q):
            coeffs = original(spec, area, q)
            seen.append(coeffs[2])
            return coeffs

        monkeypatch.setattr(rectlat.critical, "_gap_coefficients", recording)
        with pytest.raises(BracketError, match="coexistence condition undefined at A=2.825"):
            first_order_bracket(derive_yukawa_coulomb(1.9), 2.872559667652469)
        assert len(seen) > 1
        assert seen[-1] <= 0.0 < min(seen[:-1])

    def test_landau_rows_evaluated_once_at_the_crossing(self, monkeypatch, q):
        # after the series Brent solve, the branch at the crossing (its
        # minimum and the barrier that seeds the deep path) comes from one
        # evaluation of the gap coefficients
        events = []
        coefficients = rectlat.critical._gap_coefficients
        brent = rectlat.critical.brentq

        def counted_coefficients(spec, area, q):
            events.append("coefficients")
            return coefficients(spec, area, q)

        def marked_brent(*args, **kwargs):
            root = brent(*args, **kwargs)
            events.append("brent")
            return root

        monkeypatch.setattr(rectlat.critical, "_gap_coefficients", counted_coefficients)
        monkeypatch.setattr(rectlat.critical, "brentq", marked_brent)
        spec = derive_yukawa_coulomb(2.0)
        _, eps_jump = find_first_order(spec, (2.8133, 2.8136), q)
        assert eps_jump > rectlat.critical.SERIES_EPS_MAX  # the deep path ran
        after_series_solve = events[events.index("brent") + 1 :]
        assert after_series_solve.count("coefficients") == 1

    def test_second_order_family_rejected(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        with pytest.raises((BracketError, ClassificationError)):
            find_first_order(dy98, (tp.a_star * 0.999, tp.a_star * 1.001))


class TestFitExponent:
    def test_needs_enough_samples(self, dy98):
        with pytest.raises(ParameterDomainError):
            fit_exponent(dy98, 2.6144932, deltas=[1e-6, 1e-5, 1e-4])

    def test_deltas_must_increase(self, dy98):
        with pytest.raises(ParameterDomainError):
            fit_exponent(dy98, 2.6144932, deltas=np.geomspace(1e-4, 1e-6, 8))

    def test_first_order_reference_rejected(self):
        # far enough below the tricritical screening, E4 at the curvature
        # root is decisively negative and the fit refuses the reference
        spec = derive_yukawa_coulomb(1.95)
        tp = find_transition(spec, (2.3, 3.4))
        with pytest.raises(ClassificationError):
            fit_exponent(spec, tp.a_star)

    def test_near_tricritical_reference_warns(self, yc_near_tricritical):
        # just below the tricritical screening the reference is not a clean
        # power law; the fit goes through but flags itself
        import warnings

        from rectlat.critical import PoorFitWarning

        tp = find_transition(yc_near_tricritical, (2.5, 3.1))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_exponent(yc_near_tricritical, tp.a_star)
        assert any(issubclass(w.category, PoorFitWarning) for w in caught)
        assert fit.r_squared < 0.999

    def test_explicit_window(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        deltas = np.geomspace(1e-7, 1e-5, 8) * tp.a_star
        fit = fit_exponent(dy98, tp.a_star, deltas=deltas)
        assert 0.49 <= fit.beta <= 0.51
        assert fit.r_squared > 0.999
        assert fit.window == (deltas[0], deltas[-1])
        assert fit.amplitude > 0.0


class TestLargeStrengthLimit:
    def test_reference_value(self, q):
        assert a_star_min(2.0, q) == pytest.approx(2.186262818188, rel=1e-10)

    def test_monotone_decay(self, q):
        grid = [0.5, 1.0, 2.0, 4.0, 8.0]
        vals = [a_star_min(k, q) for k in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_zero_limit_value(self, q):
        assert a_star_min_zero_limit(q) == pytest.approx(5.71344, abs=5e-6)

    def test_continuity_toward_zero(self, q):
        assert a_star_min(0.01, q) == pytest.approx(a_star_min_zero_limit(q), rel=0.01)

    def test_approaches_unit_density_at_large_screening(self, q):
        # the limiting density closes in on 1 like 1 + 2/kappa1
        assert a_star_min(400.0, q) == pytest.approx(1.0, abs=6e-3)
        assert a_star_min(400.0, q) < a_star_min(100.0, q) < a_star_min(50.0, q)

    def test_domain(self, q):
        with pytest.raises(ParameterDomainError):
            a_star_min(-1.0, q)


class TestContinuityAcrossSecondOrder:
    def test_energy_and_derivative_continuous(self, dy98):
        # on the square side the minimized energy equals the symmetric branch
        # exactly; on the broken side the excess must vanish quadratically,
        # which makes both the energy and its density derivative continuous
        tp = find_transition(dy98, (2.0, 3.2))
        a_star = tp.a_star
        excess = {}
        for ddelta in (1e-6, 2e-6):
            below = minimize_aspect(dy98, a_star * (1 - ddelta))
            assert below[0] == 0.0
            area_hi = a_star * (1 + ddelta)
            eps_hi, e_hi = minimize_aspect(dy98, area_hi)
            assert eps_hi > 0.0
            excess[ddelta] = e_hi - lattice_energy(dy98, LatticeState(area_hi, 0.0))
            assert abs(excess[ddelta]) < 1e-8
        # quadratic vanishing: halving delta quarters the excess
        assert excess[2e-6] / excess[1e-6] == pytest.approx(4.0, rel=0.05)


class TestTricriticalOnset:
    def test_quartic_root_law(self, q):
        # approaching the tricritical density from above, the minimizing
        # aspect follows (b/(3 E6))^(1/4) (A - A_t)^(1/4)
        from rectlat.expansion import landau_series

        tc = find_tricritical("double-yukawa", 2.0, q=q)
        spec = derive_double_yukawa(tc.param_t, 2.0)
        b = -e2_slope(spec, tc.a_t, q)
        e6 = landau_series(spec, tc.a_t, q)[6]
        assert e6 > 0.0
        amplitude = (b / (3.0 * e6)) ** 0.25
        for delta in (1e-10 * tc.a_t, 1e-9 * tc.a_t, 1e-8 * tc.a_t):
            eps, _ = minimize_aspect(spec, tc.a_t + delta, q)
            assert eps / delta**0.25 == pytest.approx(amplitude, rel=0.05)

    def test_jump_dwarfs_second_order_onset(self, yc_near_tricritical, q):
        # first-order jump at the crossing vs the continuous onset of a
        # second-order member at a comparable distance from its transition
        spec = yc_near_tricritical
        tp = find_transition(spec, (2.5, 3.1), q)
        a_trans, eps_jump = find_first_order(
            spec, first_order_bracket(spec, tp.a_star, q), q
        )
        second = derive_yukawa_coulomb(2.06)
        tp2 = find_transition(second, (2.4, 3.1), q)
        delta = abs(tp.a_star - a_trans)
        eps_second, _ = minimize_aspect(second, tp2.a_star + delta, q)
        assert eps_jump > 10.0 * eps_second
