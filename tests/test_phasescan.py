import json
import math

import numpy as np
import pytest

from rectlat import phasescan
from rectlat.critical import EPS_CAP, find_transition, minimize_aspect
from rectlat.errors import NonconvergenceError, ParameterDomainError
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

    def test_density_grid_inversion(self, q):
        rows = scan_critical_curve(2.0, a_grid=[2.45, 2.55], q=q)
        assert all(r.status == "ok" for r in rows)
        for r, a in zip(rows, (2.45, 2.55)):
            assert r.a_star == pytest.approx(a, rel=1e-9)
            spec = derive_double_yukawa(r.v1, 2.0)
            from rectlat.expansion import e2_closed

            assert abs(e2_closed(spec, a, q)) < 1e-12

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
        rows = phasescan._transition_rows(derive_yukawa_coulomb(1.9), (2.85, 2.9), q)
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
        rows = phasescan._transition_rows(derive_yukawa_coulomb(2.0), (2.80, 2.83), q)
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


class TestCoarseRoot:
    @pytest.mark.parametrize("hint", [None, 2.3, 3.0])
    def test_within_the_polish_bracket(self, dy98, q, hint):
        # the polish bracket is the coarse root +-0.5%
        converged = find_transition(dy98, (2.0, 3.2), q).a_star
        coarse = phasescan._coarse_e2_root(dy98, q, hint)
        assert abs(coarse - converged) <= 5e-3 * converged

    def test_no_sign_change_is_none(self, q):
        assert phasescan._coarse_e2_root(yukawa(1.0, 1.0), q) is None


class TestAStarMinScan:
    def test_monotone_and_endpoints(self, q):
        rows = scan_a_star_min([0.5, 1.0, 2.0, 8.0, 50.0], q=q)
        assert all(status == "ok" for _, _, status in rows)
        values = [v for _, v, _ in rows]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[2] == pytest.approx(2.186262818188, rel=1e-9)


class TestTricriticalLocusScan:
    def test_locus_with_out_of_domain_points(self, q):
        rows, bounds = scan_tricritical_locus([1.2, 1.8, 2.0], q=q, with_bounds=False)
        assert bounds is None
        assert rows[0][3] == "out-of-domain"
        assert rows[1][3] == "ok"
        assert rows[2][3] == "ok"
        # strength decreasing, density increasing along the locus
        assert rows[1][2] > rows[2][2]
        assert rows[1][1] < rows[2][1]


class _StubPool:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and
    maps in this process, so no worker is started."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs):
        return map(fn, jobs)


@pytest.fixture()
def stub_pool(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _StubPool)
    monkeypatch.setattr(_StubPool, "started", [])
    return _StubPool.started


class TestWorkers:
    def test_worker_count_does_not_change_rows(self, q):
        v1_grid = np.geomspace(7.5, 15.0, 4)
        serial = scan_critical_curve(2.0, v1_grid=v1_grid, q=q, workers=1)
        parallel = scan_critical_curve(2.0, v1_grid=v1_grid, q=q, workers=3)
        assert serial == parallel

    def test_forced_pool_matches_serial_rows(self, monkeypatch, q):
        # deep first-order rows (v1 below the tricritical 6.795) polished by
        # two forked workers after the parent's first job
        v1_grid = np.geomspace(3.8, 6.5, 5)
        serial = scan_critical_curve(2.0, v1_grid=v1_grid, q=q, workers=1)
        assert sum(r.status == "ok" and r.eps_jump > 0.15 for r in serial) == 5
        import concurrent.futures

        started = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers):
                started.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(phasescan, "POOL_AFTER_S", 0.0)
        assert scan_critical_curve(2.0, v1_grid=v1_grid, q=q, workers=2) == serial
        assert started == [2]

    def test_pool_is_capped_at_the_jobs_left(self, monkeypatch, stub_pool, q):
        # the parent runs the first job, so three jobs leave two for the pool
        monkeypatch.setattr(phasescan, "POOL_AFTER_S", 0.0)
        rows = scan_a_star_min([1.0, 2.0, 4.0], q=q, workers=5000)
        assert stub_pool == [2]
        assert rows == scan_a_star_min([1.0, 2.0, 4.0], q=q)

    def test_cheap_scan_starts_no_pool(self, stub_pool, q):
        rows = scan_critical_curve(2.0, v1_grid=np.geomspace(7.5, 15.0, 4), q=q, workers=2)
        assert stub_pool == []
        assert [r.status for r in rows] == ["ok"] * 4

    def test_one_job_left_runs_here(self, monkeypatch, stub_pool, q):
        monkeypatch.setattr(phasescan, "POOL_AFTER_S", 0.0)
        scan_a_star_min([1.0, 2.0], q=q, workers=2)
        assert stub_pool == []

    @pytest.mark.parametrize(
        "scan",
        [
            lambda w: scan_critical_curve(2.0, v1_grid=[9.8], workers=w),
            lambda w: scan_yukawa_coulomb([2.0], workers=w),
            lambda w: scan_a_star_min([2.0], workers=w),
        ],
        ids=["critical-curve", "yukawa-coulomb", "a-star-min"],
    )
    @pytest.mark.parametrize("workers", [0, -1, 1.5])
    def test_workers_are_refused_up_front(self, monkeypatch, scan, workers):
        def seeding(*args):
            raise AssertionError("a scan with a bad worker count started")

        monkeypatch.setattr(phasescan, "_coarse_e2_root", seeding)
        monkeypatch.setattr(phasescan, "a_star_min", seeding)
        with pytest.raises(ParameterDomainError, match="--workers must be an integer of at least"):
            scan(workers)


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
