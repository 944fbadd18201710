import json
import math

import numpy as np
import pytest

from rectlat import phasescan
from rectlat.cli import main
from rectlat.critical import EPS_CAP, a_star_min, find_transition, minimize_aspect
from rectlat.errors import BracketError, NonconvergenceError, ParameterDomainError
from rectlat.phasescan import (
    SCAN_CSV_HEADER,
    PhaseDiagramRow,
    rows_to_csv,
    rows_to_json,
    scan_a_star_min,
    scan_critical_curve,
    scan_tricritical_locus,
    scan_yukawa_coulomb,
)
from rectlat.potentials import derive_double_yukawa, derive_yukawa_coulomb, yukawa


@pytest.fixture(scope="module")
def small_curve(q):
    v1_grid = np.geomspace(7.2, 24.0, 5)
    return scan_critical_curve(2.0, v1_grid=v1_grid, q=q), v1_grid


class TestCriticalCurve:
    def test_rows_follow_grid(self, small_curve):
        rows, v1_grid = small_curve
        assert [r.v1 for r in rows] == pytest.approx(list(v1_grid))
        assert all(r.status == "ok" for r in rows)
        assert all(r.order == "second" for r in rows)

    def test_strength_decreases_along_curve(self, small_curve):
        # the critical curve is monotone: larger strength, smaller density
        rows, _ = small_curve
        a_values = [r.a_star for r in rows]
        assert all(a > b for a, b in zip(a_values, a_values[1:]))

    def test_inadmissible_strength_recorded_not_raised(self, q):
        border = math.exp(2.0) / 2.0
        rows = scan_critical_curve(2.0, v1_grid=[border * 0.9, 9.8], q=q)
        assert rows[0].status.startswith("failed")
        assert rows[1].status == "ok"

    @pytest.mark.parametrize(
        "grids", [{}, {"v1_grid": [9.8], "a_grid": [2.5]}], ids=["none", "both"]
    )
    def test_exactly_one_grid_is_a_domain_error(self, q, grids):
        with pytest.raises(ParameterDomainError, match="exactly one"):
            scan_critical_curve(2.0, q=q, **grids)

    def test_density_grid_inversion(self, q):
        rows = scan_critical_curve(2.0, a_grid=[2.45, 2.55], q=q)
        assert all(r.status == "ok" for r in rows)
        for r, a in zip(rows, (2.45, 2.55)):
            assert r.a_star == pytest.approx(a, rel=1e-9)
            spec = derive_double_yukawa(r.v1, 2.0)
            from rectlat.expansion import e2_closed

            assert abs(e2_closed(spec, a, q)) < 1e-12

    def test_density_just_below_the_yukawa_coulomb_end_inverts(self, q):
        # 2.8154237 lies below the curve's Yukawa-Coulomb end 2.81542376198348:
        # E2 there changes sign between the border strength itself and 1.0005
        # times it.  A density above the end still fails.
        rows = scan_critical_curve(2.0, a_grid=[2.8154237, 2.8154238], q=q)
        assert [r.status for r in rows] == [
            "artificial-extension",
            "ok",
            "failed: BracketError: critical curve inversion failed",
        ]
        assert rows[0].v1 == pytest.approx(3.69601591207148, rel=1e-13)
        assert rows[0].a_star == pytest.approx(2.8154237, rel=1e-9)

    def test_inversion_takes_each_strength_once(self, monkeypatch, q):
        # the walk's values are memoised: Brent evaluates no strength again
        seen, e2 = [], phasescan.e2_closed
        monkeypatch.setattr(phasescan, "e2_closed", lambda s, a, q: seen.append(s.v1) or e2(s, a, q))
        v1 = phasescan._v1_on_critical_curve(2.0, 2.5, q)
        assert len(seen) == len(set(seen))
        assert abs(e2(derive_double_yukawa(v1, 2.0), 2.5, q)) < 1e-12

    def test_deterministic_rerun(self, small_curve, q):
        rows, v1_grid = small_curve
        again = scan_critical_curve(2.0, v1_grid=v1_grid, q=q)
        assert again == rows


@pytest.fixture(scope="module")
def yc_rows(q):
    return scan_yukawa_coulomb([2.0, 2.045, 2.06], q=q)


class TestYukawaCoulombScan:
    def test_orders_match_curvature_sign(self, yc_rows):
        rows = yc_rows
        by_kappa = {}
        for r in rows:
            by_kappa.setdefault(r.kappa1, []).append(r)
        assert {r.order for r in by_kappa[2.0]} == {"first"}
        assert {r.order for r in by_kappa[2.045]} == {"second"}
        assert {r.order for r in by_kappa[2.06]} == {"second"}

    def test_artificial_extension_flagged(self, yc_rows):
        rows = yc_rows
        flagged = [r for r in rows if r.status == "artificial-extension"]
        assert len(flagged) == 1
        assert flagged[0].kappa1 == 2.0
        assert flagged[0].eps_jump == 0.0

    def test_tricritical_row_present(self, yc_rows):
        rows = yc_rows
        tri = [r for r in rows if r.order == "tricritical"]
        assert len(tri) == 1
        assert tri[0].a_star == pytest.approx(2.795433950879, rel=1e-9)
        assert tri[0].kappa1 == pytest.approx(2.036517758847, rel=1e-9)

    def test_order_classification_against_energy(self, yc_rows, q):
        rows = yc_rows
        # second order: essentially no jump just above the critical density;
        # first order: a visible jump at the crossing
        second = next(r for r in rows if r.order == "second" and r.kappa1 == 2.06)
        from rectlat.potentials import derive_yukawa_coulomb

        eps, _ = minimize_aspect(
            derive_yukawa_coulomb(second.kappa1), second.a_star * (1 + 1e-11), q
        )
        assert eps < 1e-4
        first = next(r for r in rows if r.order == "first" and r.status == "ok")
        assert first.eps_jump > 1e-2


@pytest.fixture(scope="module")
def yc_deep_rows(q):
    return scan_yukawa_coulomb([1.85, 1.9, 2.0], q=q)


class TestDeepFirstOrderRows:
    def test_floor_pinned_crossing_is_a_row(self, yc_deep_rows):
        # kappa1 = 1.85: the crossing bracketed below the E2 root has its
        # broken-branch minimum on the search floor, so it is no coexistence
        # point; the crossing row fails and the E2 root keeps its extension row
        extension, crossing = yc_deep_rows[0:2]
        assert extension.kappa1 == crossing.kappa1 == 1.85
        assert extension.status == "artificial-extension"
        assert crossing.a_star is None
        assert crossing.status.startswith(
            "failed: SearchFailureError: broken-branch minimum pinned at the search floor"
        )

    def test_undefined_coexistence_condition_is_not_ok(self, yc_deep_rows):
        # kappa1 = 1.9: the crossing bracketed below the E2 root has no
        # coexistence point inside the search window, so its scan row fails
        extension, crossing = yc_deep_rows[2:4]
        assert extension.kappa1 == crossing.kappa1 == 1.9
        assert extension.status == "artificial-extension"
        assert crossing.order == "first"
        assert crossing.a_star is None
        assert crossing.status.startswith("failed: SearchFailureError")

    def test_cap_pinned_crossing_is_not_ok(self, q):
        # across the bracket the E2-root walk finds at kappa1 = 1.9, the
        # broken-branch minimum runs to EPS_CAP
        spec = derive_yukawa_coulomb(1.9)
        rows = phasescan._transition_rows(spec, find_transition(spec, (2.85, 2.9), q), q)
        extension, crossing = rows
        assert extension.status == "artificial-extension"
        assert crossing.order == "first"
        assert crossing.a_star is None
        assert crossing.status.startswith(
            "failed: SearchFailureError: broken-branch minimum pinned at the search cap"
        )

    def test_no_ok_crossing_below_kappa1_1_9(self, q):
        # the bracket from the E2 root reaches every one of these crossings;
        # none is a coexistence point inside the search window
        rows = scan_yukawa_coulomb([1.5, 1.8, 1.85, 1.9], q=q)
        crossings = [r for r in rows if r.order == "first" and r.status != "artificial-extension"]
        assert [r.kappa1 for r in crossings] == [1.5, 1.8, 1.85, 1.9]
        assert all(r.status.startswith("failed: SearchFailureError") for r in crossings)

    def test_unconverged_crossing_is_a_row(self, monkeypatch, q):
        # a deep solve that does not converge fails its crossing row only:
        # the E2 root keeps its extension row
        def unconverged(spec, bracket, q):
            raise NonconvergenceError("deep first-order crossing did not converge")

        monkeypatch.setattr(phasescan, "find_first_order", unconverged)
        spec = derive_yukawa_coulomb(2.0)
        rows = phasescan._transition_rows(spec, find_transition(spec, (2.80, 2.83), q), q)
        extension, crossing = rows
        assert extension.status == "artificial-extension"
        assert crossing.order == "first"
        assert crossing.a_star is None
        assert crossing.status == (
            "failed: NonconvergenceError: deep first-order crossing did not converge"
        )

    def test_interior_crossing_still_ok(self, yc_deep_rows):
        rows = yc_deep_rows[4:6]
        assert [r.kappa1 for r in rows] == [2.0, 2.0]
        assert [r.status for r in rows] == ["artificial-extension", "ok"]
        assert 0.0 < rows[1].eps_jump < EPS_CAP * (1.0 - 1e-6)
        assert yc_deep_rows[6].order == "tricritical"


class TestColdRoot:
    @pytest.mark.parametrize("hint", [None, 2.3, 3.0])
    def test_cold_bracket_holds_the_converged_root(self, dy98, q, hint):
        # the grid search (no hint) or the widening around a solved root
        # brackets the root that Brent converges on that bracket
        converged = find_transition(dy98, (2.0, 3.2), q).a_star
        tp = phasescan._cold_root(dy98, q, [] if hint is None else [hint])
        assert tp.bracket[0] < converged < tp.bracket[1]
        assert tp.a_star == pytest.approx(converged, rel=1e-13)

    def test_no_sign_change_is_no_bracket(self, q):
        with pytest.raises(BracketError, match="no sign change of E2"):
            phasescan._cold_root(yukawa(1.0, 1.0), q, [])

    def test_cold_row_is_one_brent_solve(self, monkeypatch, q):
        # the first sign change of the grid search is the bracket that one
        # find_transition solves, and Brent reuses the values the search took
        import rectlat.critical

        solves, brents, areas = [], [], []
        solve, brent, e2 = phasescan.find_transition, phasescan.brentq, phasescan.e2_closed

        def counted_brent(*args, **kwargs):
            brents.append(args[1:3])
            return brent(*args, **kwargs)

        monkeypatch.setattr(phasescan, "find_transition", lambda *a: solves.append(a[1]) or solve(*a))
        monkeypatch.setattr(phasescan, "brentq", counted_brent)
        monkeypatch.setattr(rectlat.critical, "brentq", counted_brent)
        monkeypatch.setattr(phasescan, "e2_closed", lambda s, a, q: areas.append(a) or e2(s, a, q))
        rows = scan_critical_curve(2.0, v1_grid=[9.8], q=q)
        assert [r.status for r in rows] == ["ok"]
        assert len(solves) == len(brents) == 1
        assert list(brents[0]) == list(solves[0])
        assert len(areas) == len(set(areas))


@pytest.fixture()
def cold_calls(monkeypatch):
    """The scan points whose E2 root started cold."""
    calls = []
    cold = phasescan._cold_root

    def recorded(spec, q, solved):
        calls.append(spec.v1)
        return cold(spec, q, solved)

    monkeypatch.setattr(phasescan, "_cold_root", recorded)
    return calls


def _alone(v1_grid, q):
    """Each point's rows from a scan of that point alone (cold start only)."""
    return [row for v1 in v1_grid for row in scan_critical_curve(2.0, v1_grid=[v1], q=q)]


def _same_rows(rows, want):
    assert len(rows) == len(want)
    for row, ref in zip(rows, want):
        assert (row.v1, row.order, row.status) == (ref.v1, ref.order, ref.status)
        if ref.a_star is None:
            assert row.a_star is None
        else:
            assert row.a_star == pytest.approx(ref.a_star, rel=1e-13)
            assert row.eps_jump == pytest.approx(ref.eps_jump, abs=1e-9)


class TestPredictedRoots:
    def test_failed_row_restarts_the_prediction(self, cold_calls, q):
        # the inadmissible strength fails its row; the two rows after it lack
        # two solved neighbours and start cold, the rest are predicted
        v1_grid = list(np.geomspace(6.0, 9.0, 8))
        v1_grid[3] = math.exp(2.0) / 2.0 * 0.9
        rows = scan_critical_curve(2.0, v1_grid=v1_grid, q=q)
        assert cold_calls == [v1_grid[i] for i in (0, 1, 4, 5)]
        assert rows[next(i for i, r in enumerate(rows) if r.v1 == v1_grid[3])].status.startswith(
            "failed: ParameterDomainError"
        )
        _same_rows(rows, _alone(v1_grid, q))

    def test_missed_prediction_falls_back_to_a_cold_start(self, cold_calls, q):
        # the jump to 30 leaves the linear prediction far outside its bracket
        v1_grid = [9.0, 10.0, 11.0, 12.0, 30.0]
        rows = scan_critical_curve(2.0, v1_grid=v1_grid, q=q)
        assert cold_calls == [9.0, 10.0, 30.0]
        _same_rows(rows, _alone(v1_grid, q))

    def test_prediction_off_the_domain_falls_back(self, cold_calls, dy98, q):
        # roots falling fast enough extrapolate to A < 0: the refused
        # bracket hands the row to a cold start, widening around the last
        tp, miss = phasescan._e2_root(dy98, q, [5.0, 2.0], [])
        assert cold_calls == [dy98.v1]
        assert tp.a_star == pytest.approx(find_transition(dy98, (2.0, 3.2), q).a_star, rel=1e-13)
        assert miss == pytest.approx((tp.a_star + 1.0) / tp.a_star)


def test_phase_diagram_work_budget(q, count_calls):
    # the two phase-diagram scans of the benchmark, counted in process: the
    # E2 roots come from their neighbours, the crossing brackets from the
    # series, each (member, density) pays for its gap series once, and four
    # deep crossings start from the two before them (576 integrals, 142
    # crossing gaps and 120 gap series when every crossing walked its
    # bracket; 915 integrals and 222 crossing gaps before that)
    import rectlat.critical

    rectlat.critical._gap_coefficients.cache_clear()
    integrals = count_calls()
    crossing_gaps = count_calls(rectlat.critical, "_crossing_gap")
    gap_series = count_calls(rectlat.critical, "landau_series")
    scan_critical_curve(2.0, v1_grid=np.geomspace(3.702, 60.0, 32), q=q)
    scan_yukawa_coulomb(np.linspace(1.9, 2.03, 4), q=q)
    assert 0 < len(integrals) <= 540
    assert 0 < len(crossing_gaps) <= 95
    assert 0 < len(gap_series) <= 85


def _gap_rows(v1_grid, q):
    """The rows of a critical-curve scan whose crossings all walk their
    brackets from the E2 root, as rows without a prediction do."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(phasescan, "_predicted_crossing", lambda *args: None)
        return scan_critical_curve(2.0, v1_grid=v1_grid, q=q)


# the seven deep first-order rows of the phase-diagram critical curve
_DEEP_V1 = np.geomspace(3.702, 60.0, 32)[:7]


class TestPredictedCrossings:
    def test_predicted_rows_match_the_bracket_walk(self, monkeypatch, q):
        # rows 3-6 start from the two before them; row 7's predicted
        # density lies right of its E2 root, so it walks its bracket
        solved = []
        predicted = phasescan._predicted_crossing

        def recorded(spec, *args):
            crossing = predicted(spec, *args)
            solved.append((spec.v1, crossing is not None))
            return crossing

        monkeypatch.setattr(phasescan, "_predicted_crossing", recorded)
        rows = scan_critical_curve(2.0, v1_grid=_DEEP_V1, q=q)
        assert solved == [(v1, True) for v1 in _DEEP_V1[2:6]]
        walked = _gap_rows(_DEEP_V1, q)
        assert [r.status for r in rows] == ["artificial-extension", "ok"] * 7
        _same_rows(rows, walked)
        for row, ref in zip(rows[1::2], walked[1::2]):
            assert row.a_star == pytest.approx(ref.a_star, rel=1e-14)
            assert row.eps_jump == pytest.approx(ref.eps_jump, abs=1e-10)

    @pytest.mark.parametrize(
        "bad",
        [
            # Newton leaves the window through its floor
            lambda a, eps, floor: (a, floor + 1e-3),
            # the gap series has no barrier at the predicted density
            lambda a, eps, floor: (a * (1.0 - 2e-3), eps),
        ],
        ids=["eps-at-floor", "density-far-left"],
    )
    def test_bad_prediction_falls_back_to_the_bracket_walk(self, monkeypatch, bad, q):
        # a prediction the window or the solve refuses leaves the row to the
        # bracket walk, which gives the same row
        refused = []
        predicted = phasescan._predicted_crossing

        def spoiled(spec, q, a_pred, eps_pred):
            floor = phasescan._series_window(spec, a_pred, q)[1]
            crossing = predicted(spec, q, *bad(a_pred, eps_pred, floor))
            refused.append(crossing is None)
            return crossing

        monkeypatch.setattr(phasescan, "_predicted_crossing", spoiled)
        rows = scan_critical_curve(2.0, v1_grid=_DEEP_V1[:4], q=q)
        assert refused == [True, True]
        assert rows == _gap_rows(_DEEP_V1[:4], q)

    def test_guard_refuses_a_crossing_off_the_global_minimum(self, monkeypatch, q):
        # a solve that ends 0.2 above the branch minimum: the eps lattice
        # guards every predicted row
        solve = phasescan._deep_crossing
        monkeypatch.setattr(
            phasescan, "_deep_crossing", lambda *args: (lambda a, eps: (a, eps + 0.2))(*solve(*args))
        )
        guarded = []
        scan = phasescan._gap_scan
        monkeypatch.setattr(
            phasescan, "_gap_scan", lambda spec, *args: guarded.append(spec.v1) or scan(spec, *args)
        )
        rows = scan_critical_curve(2.0, v1_grid=_DEEP_V1[:4], q=q)
        assert guarded == list(_DEEP_V1[2:4])
        assert rows == _gap_rows(_DEEP_V1[:4], q)


def test_prediction_brackets_from_the_larger_of_two_misses(cold_calls, q):
    # on the phase-diagram curve the prediction at v1 = 9.947 misses by
    # 7.6e-6 and the one at 10.882 by 1.13e-4: a bracket from the last miss
    # alone (+-3.0e-5) would send the 10.882 row to a cold start
    v1_grid = np.geomspace(3.702, 60.0, 32)
    rows = scan_critical_curve(2.0, v1_grid=v1_grid[8:14], q=q)
    assert v1_grid[12] == pytest.approx(10.882, abs=1e-3)
    assert cold_calls == list(v1_grid[8:10])
    assert all(r.status != "failed" for r in rows)


class TestAStarMinScan:
    def test_monotone_and_endpoints(self, q):
        rows = scan_a_star_min([0.5, 1.0, 2.0, 8.0, 50.0], q=q)
        assert all(status == "ok" for _, _, status in rows)
        values = [v for _, v, _ in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[2] == pytest.approx(2.186262818188, rel=1e-9)

    def test_rows_from_neighbours_match_the_grid_search(self, q):
        grid = np.geomspace(0.1, 50.0, 40)
        rows = scan_a_star_min(grid, q=q)
        assert [k1 for k1, _, _ in rows] == list(grid)
        assert all(status == "ok" for _, _, status in rows)
        for k1, value, _ in rows:
            assert value == pytest.approx(a_star_min(k1, q), rel=1e-13)

    def test_work_budget(self, q, count_calls):
        # the benchmark's 40-row scan: 1,211 integrals when every row
        # searched the 41-point density grid
        calls = count_calls()
        scan_a_star_min(np.geomspace(0.1, 50.0, 40), q=q)
        assert 0 < len(calls) <= 400

    def test_predicted_rows_past_the_domain_are_refused(self, q):
        # a falling grid predicts the rows at and below kappa1 = 0 from two
        # solved rows; they keep a_star_min's own refusal
        rows = scan_a_star_min([3.0, 2.0, 1.0, 0.0, -1.0], q=q)
        assert [status for _, _, status in rows[:3]] == ["ok"] * 3
        refusal = "failed: ParameterDomainError: kappa1 must be positive"
        assert [row[1:] for row in rows[3:]] == [(None, refusal)] * 2

    def test_prediction_below_zero_falls_back(self, q):
        # 2.79 at kappa1 = 1.18 and 1.28 at 7.69 predict -0.23 at kappa1 = 50,
        # on a bracket wide enough that its lower end is positive and its
        # upper end negative: the condition ran at A < 0 and the row failed
        rows = scan_a_star_min(np.geomspace(1e-30, 50.0, 40), q=q)
        assert rows[-1] == (50.0, pytest.approx(1.04038491679392, rel=1e-14), "ok")
        assert rows[-1][1] == a_star_min(50.0, q)

    def test_underflowing_rows_keep_their_refusals(self, q):
        # above kappa1 ~ 700 the condition underflows to 0.0 at some
        # densities; a predicted bracket with such an end would hand Brent
        # a zero and come back as an ok row
        rows = scan_a_star_min(np.geomspace(20.0, 2000.0, 6), q=q)
        assert [status for _, _, status in rows[:4]] == ["ok"] * 4
        assert rows[4][1:] == (
            None,
            "failed: BracketError: no sign change of the limiting condition "
            "for kappa1=796.2143411069948",
        )
        assert rows[5][1:] == (
            None,
            "failed: BracketError: limiting condition underflows for kappa1=2000.0: the "
            "overall scale exp(-kappa1 sqrt(A)) is below double precision",
        )


class TestTricriticalLocusScan:
    def test_locus_with_out_of_domain_points(self, q):
        # above the window's upper end (2.0365) and below its lower end
        # (1.4368) the solve is refused as a domain error
        rows, bounds = scan_tricritical_locus([1.2, 1.8, 2.0, 2.1], q=q, with_bounds=False)
        assert bounds is None
        assert rows[0][1:] == (None, None, "out-of-domain")
        assert rows[1][3] == "ok"
        assert rows[2][3] == "ok"
        assert rows[3][1:] == (None, None, "out-of-domain")
        # strength decreasing, density increasing along the locus
        assert rows[1][2] > rows[2][2]
        assert rows[1][1] < rows[2][1]


class TestWorkers:
    """``--workers`` is still parsed and validated, and changes nothing."""

    def test_worker_count_does_not_change_rows(self, capsys):
        args = ["scan", "--mode", "critical-curve", "--kappa1", "2", "--v1-grid", "3.8:6.5:log:5"]
        assert main([*args, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--workers", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_cheap_scan_starts_no_pool(self, monkeypatch, q):
        # every scan runs in this process: the deep rows included
        import os

        def fork():
            raise AssertionError("a scan started a process")

        monkeypatch.setattr(os, "fork", fork)
        rows = scan_critical_curve(2.0, v1_grid=np.geomspace(3.8, 6.5, 5), q=q)
        assert [r.status for r in rows] == ["artificial-extension", "ok"] * 5

    @pytest.mark.parametrize(
        "mode",
        [
            ["critical-curve", "--kappa1", "2", "--v1-grid", "9.8:9.8:lin:1"],
            ["yukawa-coulomb", "--kappa1-grid", "2:2:lin:1"],
            ["a-star-min", "--kappa1-grid", "2:2:lin:1"],
        ],
        ids=["critical-curve", "yukawa-coulomb", "a-star-min"],
    )
    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_workers_are_refused_up_front(self, monkeypatch, capsys, mode, workers):
        def seeding(*args):
            raise AssertionError("a scan with a bad worker count started")

        monkeypatch.setattr(phasescan, "_cold_root", seeding)
        monkeypatch.setattr(phasescan, "a_star_min", seeding)
        argv = ["scan", "--mode", *mode, "--workers", str(workers)]
        if isinstance(workers, int):
            assert main(argv) == 2
            assert capsys.readouterr().err == (
                f"error: --workers must be an integer of at least 1, got {workers}\n"
            )
        else:  # argparse refuses a non-integer before the command runs
            with pytest.raises(SystemExit) as exited:
                main(argv)
            assert exited.value.code == 2
            assert "--workers: invalid int value: '1.5'" in capsys.readouterr().err


class TestEmission:
    def test_csv_shape(self, small_curve):
        rows, _ = small_curve
        text = rows_to_csv(rows, SCAN_CSV_HEADER)
        lines = text.split("\n")
        assert lines[0] == SCAN_CSV_HEADER
        assert len(lines) == len(rows) + 2  # header + rows + trailing newline
        assert text.endswith("\n")
        assert "\r" not in text

    def test_csv_15_digits(self):
        row = PhaseDiagramRow(
            family="double-yukawa",
            kappa1=2.0,
            v1=1.0 / 3.0,
            a_star=2.0 / 3.0,
            order="second",
            eps_jump=0.0,
            e2_residual=None,
            e4_value=None,
            status="ok",
        )
        text = rows_to_csv([row], SCAN_CSV_HEADER)
        assert "0.333333333333333," in text
        assert ",," in text  # None fields stay empty

    def test_json_roundtrip_lossless(self, small_curve):
        rows, _ = small_curve
        text = rows_to_json(rows, {"mode": "test"})
        doc = json.loads(text)
        assert doc["meta"]["config"] == {"mode": "test"}
        assert "version" in doc["meta"]
        for row, parsed in zip(rows, doc["rows"]):
            assert parsed["a_star"] == row.a_star  # exact float round-trip
            assert parsed["v1"] == row.v1


class TestLargeStrengthEndpoint:
    def test_curve_approaches_limiting_density(self, q):
        # at very large strength the transition density closes in on the
        # limiting value of the infinite-strength condition
        from rectlat.critical import a_star_min

        rows = scan_critical_curve(2.0, v1_grid=[2.0e4], q=q)
        assert rows[0].status == "ok"
        limit = a_star_min(2.0, q)
        assert rows[0].a_star == pytest.approx(limit, rel=2e-3)
        assert rows[0].a_star > limit
