import math
import time

import numpy as np
import pytest

import rectlat.critical
import rectlat.energy
import rectlat.quadrature
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
from rectlat.energy import (
    GAP_LATTICE,
    LatticeState,
    direct_lattice_sum,
    energy_gap,
    lattice_energy,
)
from rectlat.errors import (
    BracketError,
    ClassificationError,
    NonconvergenceError,
    ParameterDomainError,
    SearchFailureError,
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

    def test_direct_scan_is_one_gap_call(self, dy98, monkeypatch):
        # the 129-point scan of the direct path is one stacked ranking pass
        # on the level-0 grid; the bounded refinement after it makes scalar
        # energy_gap calls
        ranked, levels, refined = [], [], []
        rank = rectlat.critical.gap_estimates
        gap = rectlat.critical.energy_gap
        grid_for = rectlat.quadrature.grid_for

        def recording_grid(lo, hi, level):
            levels.append(level)
            return grid_for(lo, hi, level)

        def recording_rank(spec, area, eps, q):
            ranked.append(len(eps))
            with monkeypatch.context() as m:
                m.setattr(rectlat.quadrature, "grid_for", recording_grid)
                return rank(spec, area, eps, q)

        def recording_gap(spec, area, eps, q):
            refined.append(np.ndim(eps))
            return gap(spec, area, eps, q)

        monkeypatch.setattr(rectlat.critical, "gap_estimates", recording_rank)
        monkeypatch.setattr(rectlat.critical, "energy_gap", recording_gap)
        eps_min, _ = minimize_aspect(dy98, 3.6)
        assert eps_min > 0.15
        assert ranked == [129]
        assert levels and set(levels) == {0}
        assert refined and set(refined) == {0}


@pytest.fixture(scope="module")
def gap_scans(q):
    """Every ``_gap_scan`` call ``(spec, area, grid, i)`` of the deep rows
    of the phase-diagram scans (double Yukawa kappa1 = 2 at the seven
    smallest v1 of its grid, Yukawa-Coulomb kappa1 in 1.9..2.03) and of
    ``minimize_aspect`` for v1 = 9.8, kappa1 = 2 at A = 3.0, 3.5, 3.6."""
    from rectlat.phasescan import scan_critical_curve, scan_yukawa_coulomb

    calls = []
    scan = rectlat.critical._gap_scan

    def recording(spec, area, q, lo):
        grid, i = scan(spec, area, q, lo)
        calls.append((spec, area, grid, i))
        return grid, i

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rectlat.critical, "_gap_scan", recording)
        scan_critical_curve(2.0, np.geomspace(3.702, 60.0, 32)[:8], q=q)
        scan_yukawa_coulomb(np.linspace(1.9, 2.03, 4), q=q)
        deep_rows = len(calls)
        for area in (3.0, 3.5, 3.6):
            minimize_aspect(derive_double_yukawa(9.8, 2.0), area, q)
    assert deep_rows == 10
    return calls


def test_ranking_argmin_is_the_converged_argmin(gap_scans, q):
    # level-0 estimates pick the same point of the lattice suffix as the
    # converged gaps; the deep rows scan 96 to 129 points
    assert len(gap_scans) == 13
    for spec, area, grid, i in gap_scans:
        assert 96 <= grid.size <= 129
        assert grid.tobytes() == GAP_LATTICE[GAP_LATTICE.size - grid.size :].tobytes()
        assert i == int(np.argmin(energy_gap(spec, area, grid, q)))


def _tables_per_grid():
    grids = [*rectlat.quadrature._GRID_CACHE.values(), *rectlat.quadrature._JOINT_CACHE.values()]
    return {id(g): len(g._tables) for g in grids}


def test_deep_scan_tables_do_not_grow_with_rows(q):
    # a deep row's tables are per grid (the eps lattice) or one stack at a
    # time (a Newton step's three eps rows), so ten times the rows on the
    # same grids leave as many tables on each grid and one stack of rows
    from rectlat.phasescan import scan_critical_curve

    def deep_rows(n):
        rows = scan_critical_curve(2.0, v1_grid=np.geomspace(3.75, 5.5, n), q=q)
        assert sum(r.status == "ok" and r.eps_jump > 0.15 for r in rows) == n
        return _tables_per_grid()

    few = deep_rows(4)
    many = deep_rows(40)
    assert {g: many[g] for g in few} == few
    assert max(many.values()) == max(few.values())
    assert len(rectlat.energy._last_rows["tables"]) <= 2


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

    def test_stalled_newton_names_its_stop(self):
        # above the window's upper end the residual sits at the noise floor:
        # Newton gives up after 12 steps without halving it, the nested
        # fallback fails too, and the error keeps Newton's trace
        with pytest.raises(NonconvergenceError) as info:
            find_tricritical(
                "double-yukawa",
                2.0367853460277026,
                initial_guess=(2.788128306275666, 4.375750101824825),
            )
        assert "residual did not halve over 12 steps" in str(info.value.__cause__)
        assert 0 < len(info.value.trace) <= 13

    def test_slow_solve_still_converges_by_newton(self):
        # the slowest converging solve of kappa1_upper's walk: 17 steps, the
        # last ones at the noise floor, where its residual goes 10 steps
        # without halving, inside the 12-step stall window
        tc = find_tricritical(
            "double-yukawa",
            2.0364884871389908,
            initial_guess=(2.7946657176283027, 3.9435661780237883),
        )
        assert tc.jacobian_condition == pytest.approx(1957.48, rel=1e-5)

    def test_kappa1_upper_stops_stalled_solves_early(self, monkeypatch, q):
        # most of the walk's Newton solves fail; each now stops after 12
        # steps without halving its residual instead of crawling on for up
        # to 60 (10,978 coefficient evaluations before, 6,553 measured after)
        calls = []
        inner = rectlat.critical.e2_e4_closed

        def counted(spec, area, q):
            calls.append(area)
            return inner(spec, area, q)

        monkeypatch.setattr(rectlat.critical, "e2_e4_closed", counted)
        rectlat.critical.kappa1_upper(q)
        assert len(calls) <= 7000

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

    def test_barrier_beyond_the_cap_is_a_search_failure(self, monkeypatch, q):
        # a series barrier so deep that half of it lies past EPS_CAP leaves
        # no lattice point to seed from: the crossing is refused as pinned
        # at the cap, not failed on an empty scan
        solved = []
        brent = rectlat.critical.brentq
        branch = rectlat.critical._series_branch

        def marked_brent(*args, **kwargs):
            root = brent(*args, **kwargs)
            solved.append(root)
            return root

        monkeypatch.setattr(rectlat.critical, "brentq", marked_brent)
        monkeypatch.setattr(
            rectlat.critical, "_series_branch", lambda c: (16.0, -1.0, 9.0) if solved else branch(c)
        )
        with pytest.raises(SearchFailureError, match="search cap"):
            find_first_order(derive_yukawa_coulomb(2.0), (2.8133, 2.8136), q)

    def test_second_order_family_rejected(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        with pytest.raises((BracketError, ClassificationError)):
            find_first_order(dy98, (tp.a_star * 0.999, tp.a_star * 1.001))


@pytest.fixture(scope="module")
def deep_crossings(q):
    """Deep first-order crossings ``(spec, a_trans, eps_jump)`` of the
    phase-diagram scans: Yukawa-Coulomb and double Yukawa at kappa1 = 2."""
    specs = [derive_yukawa_coulomb(k) for k in (1.9433, 2.03)]
    specs += [derive_double_yukawa(v1, 2.0) for v1 in (3.702, 6.347)]
    out = []
    for spec in specs:
        tp = find_transition(spec, (2.3, 3.4), q)
        out.append((spec, *find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)))
    return out


@pytest.mark.parametrize("i", range(4), ids=["yc-1.9433", "yc-2.03", "dy-3.702", "dy-6.347"])
class TestDeepCrossingGates:
    def test_gap_vanishes_at_the_crossing(self, deep_crossings, i, q):
        spec, a, eps_jump = deep_crossings[i]
        assert eps_jump > rectlat.critical.SERIES_EPS_MAX
        assert abs(energy_gap(spec, a, eps_jump, q)) <= 1e-15

    def test_jump_is_the_global_minimum(self, deep_crossings, i, q):
        # no eps up to the cap lies below the broken branch, and the deepest
        # point of a fine scan on that branch sits next to eps_jump
        spec, a, eps_jump = deep_crossings[i]
        grid = np.linspace(0.0, rectlat.critical.EPS_CAP, 513)
        vals = energy_gap(spec, a, grid, q)
        assert vals.min() >= energy_gap(spec, a, eps_jump, q) - q.abs_tol
        branch = grid > 0.5 * eps_jump
        nearest = grid[branch][np.argmin(vals[branch])]
        assert abs(nearest - eps_jump) <= grid[1]
        assert rectlat.critical.EPS_CAP - eps_jump > 1e-6 * rectlat.critical.EPS_CAP

    def test_jump_is_stationary(self, deep_crossings, i, q):
        # a five-point difference (bias of order h^4) puts the stationary
        # eps within 1e-8 of eps_jump; 2e-9 was measured
        spec, a, eps_jump = deep_crossings[i]
        h = 1e-3
        g = energy_gap(spec, a, eps_jump + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]), q)
        slope = (g[0] - 8.0 * g[1] + 8.0 * g[3] - g[4]) / (12.0 * h)
        curvature = (-g[0] + 16.0 * g[1] - 30.0 * g[2] + 16.0 * g[3] - g[4]) / (12.0 * h * h)
        assert curvature > 0.0
        assert abs(slope / curvature) <= 1e-8


def test_deep_crossing_branch_energies_agree_with_the_direct_sum(deep_crossings):
    # double Yukawa v1 = 6.347 only: Yukawa-Coulomb has no direct sum, and
    # at v1 = 3.702 kappa2 = 1.2e-3 makes it tens of thousands of shells
    spec, a, eps_jump = deep_crossings[3]
    square = direct_lattice_sum(spec, LatticeState(a, 0.0))
    broken = direct_lattice_sum(spec, LatticeState(a, eps_jump))
    assert broken == pytest.approx(square, rel=1e-12, abs=0.0)


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
