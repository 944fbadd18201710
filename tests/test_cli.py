import json

import pytest

from rectlat.cli import main


def run_json(capsys, args):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


class TestEnergyCommand:
    def test_matches_library(self, capsys, dy98, q):
        from rectlat.energy import LatticeState, lattice_energy

        code, doc = run_json(
            capsys,
            [
                "energy",
                "--family",
                "double-yukawa",
                "--v1",
                "9.8",
                "--kappa1",
                "2",
                "--area",
                "2.6",
                "--delta",
                "1.0",
            ],
        )
        assert code == 0
        value = doc["rows"][0]["energy"]
        assert value == lattice_energy(dy98, LatticeState(2.6, 0.0), q)

    @pytest.mark.parametrize("value", ["0", "9", "1000"])
    def test_max_refinements_out_of_range_exits_2(self, capsys, value):
        argv = ["energy", "--family", "riesz", "--s", "3", "--area", "1", "--max-refinements", value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: max_refinements must be an integer from 1 to 8, got {value}\n"
        )

    def test_aspect_inversion_gives_equal_energy(self, capsys):
        base = ["energy", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2", "--area", "2.6"]
        _, doc1 = run_json(capsys, base + ["--delta", "1.3"])
        _, doc2 = run_json(capsys, base + ["--delta", str(1.0 / 1.3)])
        e1 = doc1["rows"][0]["energy"]
        e2 = doc2["rows"][0]["energy"]
        assert e1 == pytest.approx(e2, rel=1e-12)

    def test_parameter_domain_exit_code(self, capsys):
        code = main(
            ["energy", "--family", "double-yukawa", "--v1", "3.0", "--kappa1", "2", "--area", "2.6"]
        )
        assert code == 2

    def test_missing_family_params_exit_code(self, capsys):
        assert main(["energy", "--family", "riesz", "--area", "1.0"]) == 2

    @pytest.mark.parametrize(
        "flag, value", [("--rel-tol", "nan"), ("--abs-tol", "inf"), ("--split-point", "nan")]
    )
    def test_non_finite_quadrature_setting_exit_code(self, capsys, flag, value):
        argv = ["energy", "--family", "riesz", "--s", "4", "--area", "1.0", flag, value]
        assert main(argv) == 2


class TestExpandCommand:
    def test_near_transition_curvature_vanishes(self, capsys):
        code, doc = run_json(
            capsys,
            [
                "expand",
                "--family",
                "double-yukawa",
                "--v1",
                "9.8",
                "--kappa1",
                "2",
                "--area",
                "2.61449322978",
                "--method",
                "both",
            ],
        )
        assert code == 0
        row = doc["rows"][0]
        assert abs(row["e2"]) < 1e-9
        assert row["e2_discrepancy"] < 1e-10
        assert row["e4_discrepancy"] < 1e-10

    def test_yukawa_positive_curvature(self, capsys):
        code, doc = run_json(
            capsys,
            ["expand", "--family", "yukawa", "--kappa", "1.5", "--area", "2.0", "--method", "closed"],
        )
        assert code == 0
        assert doc["rows"][0]["e2"] > 0.0


class TestSolverCommands:
    def test_tricritical_double_yukawa(self, capsys):
        code, doc = run_json(capsys, ["tricritical", "--family", "double-yukawa", "--kappa1", "2"])
        assert code == 0
        row = doc["rows"][0]
        assert row["a_t"] == pytest.approx(2.7163619942262467, rel=1e-10)
        assert row["v1_t"] == pytest.approx(6.7951845011079, rel=1e-9)

    def test_tricritical_out_of_domain_exit_code(self, capsys):
        code = main(["tricritical", "--family", "double-yukawa", "--kappa1", "1.2"])
        assert code == 4

    def test_transition_bracket_error(self, capsys):
        code = main(["transition", "--family", "yukawa", "--kappa", "1.0"])
        assert code == 2

    def test_transition_bracket_error_names_the_bracket(self, capsys):
        argv = ["transition", "--family", "yukawa", "--kappa", "1", "--a-lo", "0.2", "--a-hi", "10"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: E2 does not change sign on [0.2, 10.0]: ")

    def test_first_order_auto_bracket(self, capsys):
        code, doc = run_json(
            capsys, ["first-order", "--family", "yukawa-coulomb", "--kappa1", "2.0365"]
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["a_trans"] == pytest.approx(2.795443562576, rel=1e-9)
        assert row["eps_jump"] > 0.0

    def test_first_order_unbracketable_exit_code(self, capsys):
        # the crossing bracketed below the E2 root has its broken-branch
        # minimum on the search floor: no coexistence point to bracket
        code = main(["first-order", "--family", "yukawa-coulomb", "--kappa1", "1.85"])
        assert code == 4
        assert "pinned at the search floor" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, prefix",
        [
            (["first-order", "--family", "yukawa-coulomb", "--kappa1", "1.85"], "search failure: "),
            (["first-order", "--family", "double-yukawa", "--v1", "60", "--kappa1", "2"],
             "classification failure: "),
            (["tricritical", "--family", "double-yukawa", "--kappa1", "1.2"], "nonconvergence: "),
        ],
        ids=["search", "classification", "nonconvergence"],
    )
    def test_exit_4_names_the_refusal_class(self, capsys, argv, prefix):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(prefix)

    def test_first_order_refuses_second_order_root(self, capsys):
        # E4 = +0.043 at the E2 root: refused before any bracket walk
        argv = ["first-order", "--family", "double-yukawa", "--v1", "60", "--kappa1", "2"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "second order" in captured.err
        assert "branch-energy crossing" not in captured.err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["first-order", "--family", "yukawa-coulomb", "--kappa1", "2.0365", "--a-lo", "2.79"],
             "--a-lo needs --a-hi"),
            (["first-order", "--family", "yukawa-coulomb", "--kappa1", "2.0365", "--a-hi", "2.8"],
             "--a-hi needs --a-lo"),
            (["tricritical", "--family", "double-yukawa", "--kappa1", "2", "--guess-a", "2.7"],
             "--guess-a needs --guess-param"),
            (["tricritical", "--family", "double-yukawa", "--kappa1", "2", "--guess-param", "6.8"],
             "--guess-param needs --guess-a"),
        ],
        ids=["a-lo", "a-hi", "guess-a", "guess-param"],
    )
    def test_flag_pair_given_alone_exits_2(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestScanCommand:
    def test_csv_header_and_determinism(self, capsys):
        args = [
            "scan",
            "--mode",
            "a-star-min",
            "--kappa1-grid",
            "0.5:8:log:5",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second
        lines = first.strip().split("\n")
        assert lines[0] == "kappa1,a_star_min,status"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_a_star_min_failed_rows_carry_the_refusal(self, capsys):
        assert main(["scan", "--mode", "a-star-min", "--kappa1-grid", "1000:2000:lin:2"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert rows[0].startswith("1000,,failed: BracketError: no sign change of the limiting")
        assert rows[1].startswith("2000,,failed: BracketError: limiting condition underflows")

    def test_scan_csv_phase_header(self, capsys):
        assert (
            main(["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2.05:2.06:lin:2"]) == 0
        )
        out = capsys.readouterr().out
        assert out.split("\n")[0] == (
            "family,kappa1,v1,a_star,order,eps_jump,e2_residual,e4_value,status"
        )

    def test_failed_seed_is_a_row(self, capsys):
        # the coarse E2 root at kappa1 = 20 fails in the quadrature: that
        # point keeps a failed row and the rest of the scan goes on
        argv = ["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2:20:lin:2"]
        assert main(argv) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.strip().split("\n")[1:]]
        by_kappa = {}
        for row in rows:
            by_kappa.setdefault(row[1], []).append(row[-1])
        assert by_kappa["2"] == ["artificial-extension", "ok"]
        assert len(by_kappa["20"]) == 1
        assert by_kappa["20"][0].startswith("failed: QuadratureError")
        assert rows[-1][4] == "tricritical"

    def test_bad_grid_syntax(self, capsys):
        assert main(["scan", "--mode", "a-star-min", "--kappa1-grid", "nope"]) == 2

    @pytest.mark.parametrize("grid", ["1:2:lin:0", "1:2:log:0", "1:2:lin:-3"])
    def test_empty_grid_rejected(self, capsys, grid):
        assert main(["scan", "--mode", "a-star-min", "--kappa1-grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "N >= 1" in captured.err

    @pytest.mark.parametrize("grid", ["nan:2:lin:2", "1:inf:log:3", "-inf:2:lin:2"])
    def test_non_finite_grid_end_rejected(self, capsys, grid):
        assert main(["scan", "--mode", "a-star-min", f"--kappa1-grid={grid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_workers_must_be_positive(self, capsys, workers):
        argv = ["scan", "--mode", "a-star-min", "--kappa1-grid", "1:2:lin:2", "--workers", workers]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--workers" in captured.err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        assert (
            main(
                [
                    "scan",
                    "--mode",
                    "a-star-min",
                    "--kappa1-grid",
                    "1:4:lin:3",
                    "--output",
                    str(target),
                ]
            )
            == 0
        )
        text = target.read_text()
        assert text.startswith("kappa1,")
        assert capsys.readouterr().out == ""


class TestFitCommand:
    def test_auto_reference(self, capsys):
        code, doc = run_json(
            capsys, ["fit", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2"]
        )
        assert code == 0
        row = doc["rows"][0]
        assert 0.49 <= row["beta"] <= 0.51
        assert row["r_squared"] > 0.999
