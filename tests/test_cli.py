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

    def test_first_order_auto_bracket(self, capsys):
        code, doc = run_json(
            capsys, ["first-order", "--family", "yukawa-coulomb", "--kappa1", "2.0365"]
        )
        assert code == 0
        row = doc["rows"][0]
        assert row["a_trans"] == pytest.approx(2.795443562576, rel=1e-9)
        assert row["eps_jump"] > 0.0

    def test_first_order_unbracketable_exit_code(self, capsys):
        code = main(["first-order", "--family", "yukawa-coulomb", "--kappa1", "1.85"])
        assert code == 2
        assert "could not bracket" in capsys.readouterr().err


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

    def test_scan_csv_phase_header(self, capsys):
        assert (
            main(["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2.05:2.06:lin:2"]) == 0
        )
        out = capsys.readouterr().out
        assert out.split("\n")[0] == (
            "family,kappa1,v1,a_star,order,eps_jump,e2_residual,e4_value,status"
        )

    def test_bad_grid_syntax(self, capsys):
        assert main(["scan", "--mode", "a-star-min", "--kappa1-grid", "nope"]) == 2

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
