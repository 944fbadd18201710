import math
import re
import time

import mpmath
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
    kappa1_lower,
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
from rectlat.solvers import RTOL_MIN, brentq


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
        # well above the transition the minimizing aspect leaves the
        # trusted series range and the direct path takes over
        eps_min, energy = minimize_aspect(dy98, 2.7)
        assert 0.15 < eps_min < 0.99 * rectlat.critical.EPS_CAP
        assert energy < lattice_energy(dy98, LatticeState(2.7, 0.0))

    @pytest.mark.parametrize("area", [3.0, 3.5, 3.6])
    def test_minimum_pinned_at_the_cap_is_refused(self, dy98, area):
        # far above the transition the direct gap still falls at the cap
        # (delta = 4): the bounded minimiser ends 4e-8 short of it, and that
        # is no minimum of the aspect
        with pytest.raises(SearchFailureError, match="pinned at the search cap") as err:
            minimize_aspect(dy98, area)
        assert f"at A={area:.9f}" in str(err.value)

    def test_direct_scan_is_one_gap_call(self, dy98, monkeypatch):
        # the 129-point scan of the direct path is one stacked energy_gap,
        # accepted on the level-0 grid like every other integral here; the
        # bounded refinement after it makes scalar energy_gap calls
        calls, levels = [], []
        gap = rectlat.critical.energy_gap
        grid_for = rectlat.quadrature.grid_for

        def recording_grid(lo, hi, level):
            levels.append(level)
            return grid_for(lo, hi, level)

        def recording_gap(spec, area, eps, q):
            calls.append(np.size(eps) if np.ndim(eps) else "scalar")
            return gap(spec, area, eps, q)

        monkeypatch.setattr(rectlat.quadrature, "grid_for", recording_grid)
        monkeypatch.setattr(rectlat.critical, "energy_gap", recording_gap)
        eps_min, _ = minimize_aspect(dy98, 2.7)
        assert eps_min > 0.15
        assert calls[0] == 129
        assert len(calls) > 1 and set(calls[1:]) == {"scalar"}
        assert levels and set(levels) == {0}


@pytest.fixture(scope="module")
def gap_scans(q):
    """Every ``_gap_scan`` call ``(spec, area, grid, i)`` of the deep rows
    of the phase-diagram scans (double Yukawa kappa1 = 2 at the seven
    smallest v1 of its grid, Yukawa-Coulomb kappa1 in 1.9..2.03) and of
    ``minimize_aspect`` for v1 = 9.8, kappa1 = 2 at A = 3.0, 3.5, 3.6.
    Seven deep rows walk their brackets and scan the lattice; of the four
    whose crossings start from the rows before them, the first is guarded
    by a scan."""
    import rectlat.phasescan
    from rectlat.phasescan import scan_critical_curve, scan_yukawa_coulomb

    calls = []
    scan = rectlat.critical._gap_scan

    def recording(spec, area, q, lo):
        grid, i = scan(spec, area, q, lo)
        calls.append((spec, area, grid, i))
        return grid, i

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rectlat.critical, "_gap_scan", recording)
        m.setattr(rectlat.phasescan, "_gap_scan", recording)
        scan_critical_curve(2.0, np.geomspace(3.702, 60.0, 32)[:8], q=q)
        scan_yukawa_coulomb(np.linspace(1.9, 2.03, 4), q=q)
        deep_rows = len(calls)
        for area in (3.0, 3.5, 3.6):  # each refused at the cap, after its scan
            with pytest.raises(SearchFailureError):
                minimize_aspect(derive_double_yukawa(9.8, 2.0), area, q)
    assert deep_rows == 8
    return calls


def test_ranking_argmin_is_the_converged_argmin(gap_scans, q):
    # each scan picks the lowest converged gap of a suffix of the lattice;
    # the deep rows scan 92 (Yukawa-Coulomb kappa1 = 1.9) to 129 points
    assert len(gap_scans) == 11
    for spec, area, grid, i in gap_scans:
        assert 92 <= grid.size <= 129
        assert grid.tobytes() == GAP_LATTICE[GAP_LATTICE.size - grid.size :].tobytes()
        assert i == int(np.argmin(energy_gap(spec, area, grid, q)))


def _tables_per_grid():
    return {id(g): len(g._tables) for g in rectlat.quadrature._GRID_CACHE.values()}


def test_deep_scan_tables_do_not_grow_with_rows(q):
    # a deep row's tables are per grid (the eps lattice) or built for one
    # call (a Newton step's three eps rows), so ten times the rows on the
    # same grids leave as many tables on each grid
    from rectlat.phasescan import scan_critical_curve

    def deep_rows(n):
        rows = scan_critical_curve(2.0, v1_grid=np.geomspace(3.75, 5.5, n), q=q)
        assert sum(r.status == "ok" and r.eps_jump > 0.15 for r in rows) == n
        return _tables_per_grid()

    few = deep_rows(4)
    many = deep_rows(40)
    assert {g: many[g] for g in few} == few
    assert max(many.values()) == max(few.values())


class TestFindTransition:
    def test_double_yukawa_reference_point(self, dy98):
        tp = find_transition(dy98, (2.0, 3.2))
        assert tp.order == "second"
        assert tp.a_star == pytest.approx(2.61449322978, rel=1e-9)
        assert abs(tp.e2_residual) < 1e-13
        assert tp.e4_at_a_star > 0.0

    def test_yukawa_has_no_transition(self):
        with pytest.raises(BracketError, match=r"E2 does not change sign on \[0.2, 10.0\]: "):
            find_transition(yukawa(1.0, 1.0), (0.2, 10.0))

    def test_bracket_ends_are_evaluated_by_brent_only(self, monkeypatch, dy98, q):
        # every E2 evaluation of the root search is one of brentq's
        calls = {"e2": 0, "brent": 0}
        e2, brent = rectlat.critical.e2_closed, rectlat.critical.brentq

        def counted_e2(*args):
            calls["e2"] += 1
            return e2(*args)

        def counted_brent(f, *args, **kwargs):
            def g(x):
                calls["brent"] += 1
                return f(x)

            return brent(g, *args, **kwargs)

        monkeypatch.setattr(rectlat.critical, "e2_closed", counted_e2)
        monkeypatch.setattr(rectlat.critical, "brentq", counted_brent)
        find_transition(dy98, (2.0, 3.2), q)
        assert calls["e2"] == calls["brent"] > 2

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

    @pytest.fixture
    def warm_end(self, q):
        # the window's end is one Yukawa-Coulomb solve per process; warm it
        # so that counts and point sets below hold in any test order
        return rectlat.critical._window_end(q)

    @pytest.mark.parametrize("kappa1", [None, 2.05, 3.0], ids=["end", "2.05", "3.0"])
    def test_refused_at_and_above_the_window_end(self, warm_end, kappa1, monkeypatch):
        # no point reaches the solves' batch evaluator
        calls = []
        inner = rectlat.critical.e2_e4_stack
        monkeypatch.setattr(
            rectlat.critical, "e2_e4_stack", lambda *a: calls.append(a) or inner(*a)
        )
        with pytest.raises(ParameterDomainError, match="kappa1"):
            find_tricritical("double-yukawa", warm_end if kappa1 is None else kappa1)
        assert calls == []

    def test_one_pass_per_newton_step(self, monkeypatch, q):
        # the start, its Jacobian stencil and the residual scale's two
        # points share the first pass; the first candidate goes alone, and
        # each full step after it brings its own stencil: 6 passes (23
        # before, one per point), 27 points
        points, passes = [], []
        inner, integrate = rectlat.critical.e2_e4_stack, rectlat.quadrature.integrate

        def counted(stack, q):
            points.extend(stack)
            return inner(stack, q)

        monkeypatch.setattr(rectlat.critical, "e2_e4_stack", counted)
        monkeypatch.setattr(
            rectlat.quadrature, "integrate", lambda *a, **k: passes.append(1) or integrate(*a, **k)
        )
        tc = find_tricritical("yukawa-coulomb", q=q)
        assert tc.param_t == 2.0365177601065243
        assert len(passes) <= 8
        assert len(points) == len({(float(area), spec.kappa1) for spec, area in points})

    def test_stalled_newton_names_its_stop(self):
        # just below the window's upper end kappa2^t ~ 6e-5 and Newton's
        # relative step test cannot pass.  From a start whose residual already
        # sits at the noise floor (2.9e-16: the sixth iterate of the last solve
        # of kappa1_upper's walk) it gives up after 12 steps without halving
        # it, the nested fallback ends at kappa2 < 0, and that refusal keeps
        # Newton's reason and trace
        with pytest.raises(NonconvergenceError) as info:
            find_tricritical(
                "double-yukawa",
                2.0365177598760758,
                initial_guess=(2.7954339468905824, 3.7635837505035576),
            )
        assert "left the admissible region" in str(info.value)
        assert "residual did not halve over 12 steps" in str(info.value.__cause__)
        assert 0 < len(info.value.trace) <= 13

    def test_slow_solve_still_converges_by_newton(self):
        # the slowest converging solve of kappa1_upper's walk: 12 steps, the
        # last five at the noise floor; its residual goes 4 steps without
        # halving, inside the 12-step stall window
        tc = find_tricritical(
            "double-yukawa",
            2.0365096913453264,
            initial_guess=(2.795090786460975, 3.8820760478848806),
        )
        assert tc.jacobian_condition == pytest.approx(3969.41, rel=1e-5)

    def test_kappa1_upper_stops_stalled_solves_early(self, warm_end, monkeypatch, q):
        # the walk's failed Newton solves below the end stop after 12 steps
        # without halving their residual instead of crawling on for up to 60,
        # and the ones at or above the end are refused before any integral
        # (10,978 points evaluated with neither, 6,294 with the stall stop
        # alone, 1,995 with both, one pass each).  A run of full Newton steps
        # evaluates each candidate with its Jacobian stencil in one pass:
        # 2,055 points measured, in 1,177 passes
        points, passes = [], []
        inner, integrate = rectlat.critical.e2_e4_stack, rectlat.quadrature.integrate

        def counted(stack, q):
            points.extend(stack)
            return inner(stack, q)

        monkeypatch.setattr(rectlat.critical, "e2_e4_stack", counted)
        monkeypatch.setattr(
            rectlat.quadrature, "integrate", lambda *a, **k: passes.append(1) or integrate(*a, **k)
        )
        rectlat.critical.kappa1_upper(q)
        assert len(points) <= 2100
        assert len(passes) <= 1250

    def test_kappa1_upper_runs_no_newton_above_the_end(self, warm_end, monkeypatch, q):
        # refused solves count as failed ones, so the walk takes the steps it
        # took when they ran and failed, and ends on the same value
        tried, newton = [], []
        solve, inner = rectlat.critical.find_tricritical, rectlat.critical._newton2

        def traced_solve(family, kappa1, **kw):
            tried.append(kappa1)
            return solve(family, kappa1, **kw)

        monkeypatch.setattr(rectlat.critical, "find_tricritical", traced_solve)
        monkeypatch.setattr(rectlat.critical, "_newton2", lambda *a: newton.append(a) or inner(*a))
        assert rectlat.critical.kappa1_upper(q) == 2.036517759703578
        assert any(k >= warm_end for k in tried)
        assert len(newton) == sum(k < warm_end for k in tried)

    def test_each_point_evaluated_once_per_solve(self, warm_end, monkeypatch):
        # a solve near the window's upper end: Newton gives up and the nested
        # fallback revisits the points its brackets and Newton already saw;
        # both evaluate through the solve's batch evaluator
        seen = []
        inner = rectlat.critical.e2_e4_stack

        def counted(stack, q):
            seen.extend((float(area), float(spec.kappa2)) for spec, area in stack)
            return inner(stack, q)

        monkeypatch.setattr(rectlat.critical, "e2_e4_stack", counted)
        tc = find_tricritical(
            "double-yukawa",
            2.036514992396911,
            initial_guess=(2.7953307729763983, 3.8275726535468046),
        )
        assert math.isnan(tc.jacobian_condition)  # the fallback ran
        assert len(seen) > 100
        assert len(set(seen)) == len(seen)


class TestKappa1Lower:
    """The lower end of the window: the kappa1 where v1^t reaches 1e4."""

    def test_matches_the_nested_solve(self, q):
        # Brent on E2 in A at each kappa1, then Brent on E4 there in kappa1
        def e4_on_the_e2_root(kappa1):
            spec = derive_double_yukawa(1e4, kappa1)
            a = brentq(lambda a: e2_closed(spec, a, q), 2.3, 2.8, xtol=1e-15, rtol=RTOL_MIN)
            return e4_closed(spec, a, q)

        nested = brentq(e4_on_the_e2_root, 1.42, 1.45, xtol=1e-15, rtol=RTOL_MIN)
        assert kappa1_lower(q) == pytest.approx(nested, rel=1e-10)

    def test_round_trip_gives_v1_1e4(self, q):
        tc = find_tricritical("double-yukawa", kappa1_lower(q), initial_guess=(2.56, 1e4), q=q)
        assert tc.param_t == pytest.approx(1e4, rel=1e-9)

    def test_one_newton_solve(self, monkeypatch, q):
        # no walk in kappa1, no bisection, no nested fallback
        solves = []
        inner = rectlat.critical._newton2
        monkeypatch.setattr(rectlat.critical, "_newton2", lambda *a: solves.append(a) or inner(*a))
        monkeypatch.setattr(rectlat.critical, "_nested_fallback", None)
        kappa1_lower(q)
        assert len(solves) == 1


# First-order rows of the phase-diagram scans (double Yukawa at kappa1 = 2,
# Yukawa-Coulomb) and Yukawa-Coulomb kappa1 = 2.0365: (a_trans, eps_jump)
# as the sixth-order-seeded bracket gave them, from the E2 root in (2.3, 3.4)
FIRST_ORDER_ROWS = {
    ("dy", 3.702): (2.813527272607724, 0.782119606096469),
    ("dy", 4.050041502534): (2.8105143480103054, 0.7746469137963431),
    ("dy", 4.43080393631764): (2.8023655174640507, 0.7482924934063651),
    ("dy", 4.84736354178214): (2.7899334129955573, 0.698051459305232),
    ("dy", 5.30308577041812): (2.7739595497990814, 0.6199666488021165),
    ("dy", 5.80165247479495): (2.755073799890426, 0.5075119973403898),
    ("dy", 6.34709165483486): (2.733809937593046, 0.33866491898539686),
    ("yc", 1.94333333333333): (2.8336577362847306, 1.341899097605313),
    ("yc", 1.98666666666667): (2.819218827623045, 0.928924335657596),
    ("yc", 2.03): (2.7989115111982974, 0.3184875614379419),
    ("yc", 2.0365): (2.795443562575859, 0.016493219054961178),
}


@pytest.mark.parametrize("row", list(FIRST_ORDER_ROWS), ids=lambda r: f"{r[0]}-{r[1]}")
def test_bracket_from_the_e2_root_keeps_the_crossing(row, q):
    family, param = row
    spec = derive_double_yukawa(param, 2.0) if family == "dy" else derive_yukawa_coulomb(param)
    tp = find_transition(spec, (2.3, 3.4), q)
    lo, hi = first_order_bracket(spec, tp.a_star, q)
    gap = rectlat.critical._crossing_gap
    assert lo < hi <= tp.a_star
    assert gap(spec, lo, q) < 0.0 < gap(spec, hi, q)
    a_trans, eps_jump = find_first_order(spec, (lo, hi), q)
    assert a_trans == pytest.approx(FIRST_ORDER_ROWS[row][0], rel=1e-12)
    assert eps_jump == pytest.approx(FIRST_ORDER_ROWS[row][1], abs=1e-8)


def _spec_of(row):
    family, param = row
    return derive_double_yukawa(param, 2.0) if family == "dy" else derive_yukawa_coulomb(param)


@pytest.mark.parametrize("overshoot", [10.0, 100.0, 1e4])
@pytest.mark.parametrize("row", [("dy", 3.702), ("dy", 6.34709165483486), ("yc", 1.94333333333333)])
def test_overshooting_prediction_keeps_the_nearest_crossing(monkeypatch, row, overshoot, q):
    # a slope `overshoot` times too shallow predicts the crossing that much
    # too far left: the first step passes it into densities with no broken
    # minimum (gap -1), and the bracket still holds the same crossing; the
    # first step never exceeds a tenth of the density, so a wild prediction
    # still leaves the walk a start
    spec = _spec_of(row)
    tp = find_transition(spec, (2.3, 3.4), q)
    slope = rectlat.critical.e2_slope
    monkeypatch.setattr(
        rectlat.critical, "e2_slope", lambda *args: slope(*args) / overshoot
    )
    lo, hi = first_order_bracket(spec, tp.a_star, q)
    gap = rectlat.critical._crossing_gap
    assert hi == tp.a_star and lo > 0.89 * tp.a_star
    assert gap(spec, lo, q) < 0.0 < gap(spec, hi, q)
    a_trans, eps_jump = find_first_order(spec, (lo, hi), q)
    assert a_trans == pytest.approx(FIRST_ORDER_ROWS[row][0], rel=1e-12)
    assert eps_jump == pytest.approx(FIRST_ORDER_ROWS[row][1], abs=1e-8)


def test_predicted_bracket_takes_at_most_two_steps(monkeypatch, q):
    # the series predicts each benchmark crossing within a factor of two,
    # so the walk evaluates the root and at most two densities left of it
    # (one where 1e-6 A already passes the crossing: YC kappa1 = 2.0365)
    seen = []
    gap = rectlat.critical._crossing_gap
    monkeypatch.setattr(
        rectlat.critical, "_crossing_gap", lambda spec, a, q: seen.append(a) or gap(spec, a, q)
    )
    for row in FIRST_ORDER_ROWS:
        spec = _spec_of(row)
        tp = find_transition(spec, (2.3, 3.4), q)
        seen.clear()
        first_order_bracket(spec, tp.a_star, q)
        assert len(seen) <= 3, row


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
        # a purely repulsive potential has no broken branch below the square
        # one: the crossing gap is not positive where the walk starts, and
        # the bracket search gives up at once
        start = time.perf_counter()
        with pytest.raises(BracketError, match="not positive at the E2 root"):
            first_order_bracket(yukawa(1.0), 2.6)
        assert time.perf_counter() - start < 10.0

    def test_walk_without_a_sign_change_ends_at_zero_density(self, monkeypatch):
        # the 20th doubling step from 1e-6 A passes A = 0: the root and 19
        # densities are evaluated
        seen = []
        monkeypatch.setattr(
            rectlat.critical, "_crossing_gap", lambda spec, a, q: seen.append(a) or 1.0
        )
        with pytest.raises(BracketError, match="could not bracket"):
            first_order_bracket(yukawa(1.0), 2.6)
        assert len(seen) == 20
        assert all(a > 0.0 for a in seen)

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


# the double-Yukawa rows of the phase-diagram critical curve whose
# crossings start from the two rows before them
_PREDICTED_V1 = np.geomspace(3.702, 60.0, 32)[2:6]


@pytest.fixture(scope="module")
def deep_crossings(q):
    """Deep first-order crossings ``(spec, a_trans, eps_jump)`` of the
    phase-diagram scans: Yukawa-Coulomb and double Yukawa at kappa1 = 2
    from their brackets, then the critical curve's predicted crossings."""
    import rectlat.phasescan
    from rectlat.phasescan import scan_critical_curve

    specs = [derive_yukawa_coulomb(k) for k in (1.9433, 2.03)]
    specs += [derive_double_yukawa(v1, 2.0) for v1 in (3.702, 6.347)]
    out = []
    for spec in specs:
        tp = find_transition(spec, (2.3, 3.4), q)
        out.append((spec, *find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)))
    solve = rectlat.phasescan._predicted_crossing
    predicted = []

    def recording(spec, *args):
        crossing = solve(spec, *args)
        if crossing is not None:
            predicted.append((spec, *crossing))
        return crossing

    with pytest.MonkeyPatch.context() as m:
        m.setattr(rectlat.phasescan, "_predicted_crossing", recording)
        scan_critical_curve(2.0, v1_grid=np.geomspace(3.702, 60.0, 32), q=q)
    assert [spec.v1 for spec, *_ in predicted] == list(_PREDICTED_V1)
    return out + predicted


@pytest.mark.parametrize(
    "i",
    range(8),
    ids=["yc-1.9433", "yc-2.03", "dy-3.702", "dy-6.347"]
    + [f"dy-{v1:.4g}-predicted" for v1 in _PREDICTED_V1],
)
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


_LEFT_WINDOW = re.compile(
    r"search (floor|cap) eps=([0-9.]+) \(Newton left through it from "
    r"eps_jump=(-?[0-9.]+) at A=([0-9.]+)\)"
)


@pytest.mark.parametrize("kappa1, side", [(1.833, "floor"), (1.85, "floor"), (1.9, "cap")])
def test_refusal_quotes_the_last_iterate_inside_the_window(kappa1, side, q):
    # Newton on the deep crossing steps out through the floor (1.833 to a
    # negative eps, 1.85 below the floor) or through the cap (1.9); the
    # refusal names that side and quotes the iterate it left from
    spec = derive_yukawa_coulomb(kappa1)
    tp = find_transition(spec, (2.3, 3.4), q)
    with pytest.raises(SearchFailureError) as err:
        find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)
    match = _LEFT_WINDOW.search(str(err.value))
    assert match is not None, str(err.value)
    assert match.group(1) == side
    floor = float(match.group(2)) if side == "floor" else 0.0
    eps = float(match.group(3))
    # the bound is printed to 6 decimals, the iterate to 9
    assert floor - 5e-7 < eps <= round(rectlat.critical.EPS_CAP, 9)


def _np_roots_points(coeffs):
    """The positive stationary points as ``np.roots`` finds them: the
    implementation the closed form replaced, kept as its oracle."""
    c2, c4, c6, c8 = coeffs
    poly = np.array([4.0 * c8, 3.0 * c6, 2.0 * c4, c2])
    nz = np.flatnonzero(poly != 0.0)
    if nz.size == 0 or nz[0] == 3:
        return []
    roots = np.roots(poly[nz[0] :])
    keep = [r for r in roots if abs(r.imag) <= 1e-10 * max(1.0, abs(r.real)) and r.real > 0.0]
    return sorted(float(r.real) for r in keep)


def _coefficient_battery(rng):
    sets = [tuple(rng.normal(size=4)) for _ in range(400)]
    sets += [(*rng.normal(size=3), 0.0) for _ in range(100)]  # c8 = 0
    sets += [(*rng.normal(size=2), 0.0, 0.0) for _ in range(100)]  # c8 = c6 = 0
    sets += [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0)]
    return sets


def test_stationary_points_match_np_roots(rng, q):
    sets = _coefficient_battery(rng)
    # the gap series at the benchmark's first-order crossings
    sets += [
        rectlat.critical._gap_coefficients(_spec_of(row), a_trans, q)
        for row, (a_trans, _) in FIRST_ORDER_ROWS.items()
    ]
    for coeffs in sets:
        want = _np_roots_points(coeffs)
        got = [x for x, _, _ in rectlat.critical._stationary_points(coeffs)]
        assert len(got) == len(want), coeffs
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), coeffs


@pytest.mark.parametrize("sep", [1e-2, 1e-3, 1e-4])
def test_near_double_stationary_points(rng, sep):
    # two positive roots a relative `sep` apart: rounding the coefficients
    # moves them by about 1e-16 / sep, and np.roots is itself only that
    # close (2e-11 at sep = 1e-2), so the roots are held to 1e-13 / sep of
    # a 60-digit solve of the same rounded coefficients
    for _ in range(20):
        r = rng.uniform(0.05, 1.0)
        poly = np.poly([r, r * (1.0 + sep), rng.normal()]) * rng.uniform(0.5, 2.0)
        coeffs = (poly[3], poly[2] / 2.0, poly[1] / 3.0, poly[0] / 4.0)
        rounded = (4.0 * coeffs[3], 3.0 * coeffs[2], 2.0 * coeffs[1], coeffs[0])
        with mpmath.workdps(60):
            exact = mpmath.polyroots([mpmath.mpf(float(c)) for c in rounded], extraprec=300)
            want = sorted(float(z.real) for z in exact if abs(z.imag) < 1e-30 and z.real > 0)
        got = [x for x, _, _ in rectlat.critical._stationary_points(coeffs)]
        assert len(got) == len(_np_roots_points(coeffs)) == len(want)
        assert got == pytest.approx(want, rel=1e-13 / sep, abs=0.0)


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

    def test_onset_approaches_the_landau_square_root(self, dy98):
        # the samples the fit reads against the exact beta = 1/2 law
        # eps = sqrt(-E2'(A*) r A* / (2 E4(A*))) at A = A* (1 + r): their
        # ratio's miss is linear in r, falling 10x per decade toward 0
        a_star = find_transition(dy98, (2.0, 3.2)).a_star
        slope, e4 = e2_slope(dy98, a_star), e4_closed(dy98, a_star)
        misses = []
        for r in (1e-5, 1e-6, 1e-7):
            eps_min, _ = minimize_aspect(dy98, a_star * (1.0 + r))
            misses.append(eps_min / math.sqrt(-slope * r * a_star / (2.0 * e4)) - 1.0)
        assert 0.0 < abs(misses[-1]) < 1e-5
        for coarse, fine in zip(misses, misses[1:]):
            assert 9.0 < coarse / fine < 11.0

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

    @pytest.mark.parametrize("kappa1", [0.1, 1.0, 5.0, 50.0])
    def test_scan_stops_at_the_first_sign_change(self, monkeypatch, q, kappa1):
        # the same bits as Brent on the first sign change of the eager
        # 41-point scan, with the scan stopped there (at most 30 points)
        condition = rectlat.critical._a_star_min_condition
        f = lambda a: condition(kappa1, a, q)
        grid = np.geomspace(0.2, 20.0, 41)
        vals = [f(a) for a in grid]
        i = next(i for i in range(40) if np.sign(vals[i]) * np.sign(vals[i + 1]) < 0)
        want = brentq(f, grid[i], grid[i + 1], xtol=1e-15, rtol=RTOL_MIN)

        seen = []
        brent = rectlat.critical.brentq

        def counted(k1, a, q):
            seen.append(a)
            return condition(k1, a, q)

        def scan_length_at_brent(*args, **kwargs):
            seen.append("brent")
            return brent(*args, **kwargs)

        monkeypatch.setattr(rectlat.critical, "_a_star_min_condition", counted)
        monkeypatch.setattr(rectlat.critical, "brentq", scan_length_at_brent)
        assert a_star_min(kappa1, q).hex() == want.hex()
        assert seen.index("brent") == i + 2 <= 30


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
