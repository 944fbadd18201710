import json
import math

import numpy as np
import pytest

from rectlat.critical import EPS_CAP, minimize_aspect
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
from rectlat.potentials import derive_double_yukawa


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
    return scan_yukawa_coulomb([1.85, 1.9, 2.0], q=q, tricritical_row=False)


class TestDeepFirstOrderRows:
    def test_bracket_walk_failure_is_a_row(self, yc_deep_rows):
        # the bracket walk for kappa1 = 1.85 would reach a negative density
        row = yc_deep_rows[0]
        assert row.kappa1 == 1.85
        assert row.status.startswith("failed: BracketError")

    def test_cap_pinned_crossing_is_not_ok(self, yc_deep_rows):
        # the broken-branch minimum at kappa1 = 1.9 sits on EPS_CAP
        extension, crossing = yc_deep_rows[1:3]
        assert extension.kappa1 == crossing.kappa1 == 1.9
        assert extension.status == "artificial-extension"
        assert crossing.order == "first"
        assert crossing.a_star is None
        assert crossing.status.startswith("failed: SearchFailureError")

    def test_interior_crossing_still_ok(self, yc_deep_rows):
        rows = yc_deep_rows[3:]
        assert [r.kappa1 for r in rows] == [2.0, 2.0]
        assert [r.status for r in rows] == ["artificial-extension", "ok"]
        assert 0.0 < rows[1].eps_jump < EPS_CAP * (1.0 - 1e-6)


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


class TestWorkers:
    def test_worker_count_does_not_change_rows(self, q):
        v1_grid = np.geomspace(7.5, 15.0, 4)
        serial = scan_critical_curve(2.0, v1_grid=v1_grid, q=q, workers=1)
        parallel = scan_critical_curve(2.0, v1_grid=v1_grid, q=q, workers=3)
        assert serial == parallel


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
