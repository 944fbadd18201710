import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rectlat.quadrature as quadrature
from rectlat.cli import exit_code, main
from rectlat.errors import QuadratureError

SRC = Path(__file__).resolve().parents[1] / "src"


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
        # every integral is one grid, so there is no refinement flag: any
        # value is an argparse usage error
        argv = ["energy", "--family", "riesz", "--s", "3", "--area", "1", "--max-refinements", value]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --max-refinements {value}" in captured.err

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("energy --family riesz --s 344 --area 2", "Gamma(s/2) A^(s/2)"),
            ("expand --family riesz --s 400 --area 2 --method closed", "Gamma(s/2) A^(s/2)"),
            ("energy --family riesz --s 3 --area 1e-300", "Gamma(s/2) A^(s/2)"),
            ("expand --family riesz --s 3 --area 1e300", "Gamma(s/2) A^(s/2)"),
            ("energy --family yukawa --kappa 1e-170 --area 2", "kappa^2 A / (4 pi^2) = 0 "),
        ],
        ids=["gamma-overflow", "gamma-overflow-expand", "area-underflow", "area-overflow",
             "kappa-underflow"],
    )
    def test_extreme_finite_input_exits_2(self, capsys, argv, message):
        # each factor that leaves the double range is refused where it is
        # formed, not met later as a Python traceback (exit 1)
        assert main(argv.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

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
        # below the window's lower end: a domain refusal, exit 2
        code = main(["tricritical", "--family", "double-yukawa", "--kappa1", "1.2"])
        assert code == 2
        assert "below the tricritical window's lower end" in capsys.readouterr().err

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
            (["tricritical", "--family", "double-yukawa", "--kappa1", "1.5"], "nonconvergence: "),
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

    def test_a_refused_inversion_fails_its_row_alone(self, capsys):
        # the density 1e300 (and 1e150) is refused by the inversion's own
        # grid end; the scan still exits 0 with the A = 2.4 row as on a
        # grid whose other densities merely miss the critical curve
        curve = ["scan", "--mode", "critical-curve", "--kappa1", "2", "--a-grid"]
        assert main([*curve, "2.4:1e300:log:3"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert main([*curve, "2.4:1e100:log:3"]) == 0
        missed = capsys.readouterr().out.splitlines()[1:]
        assert rows[0] == missed[0] and rows[0].endswith(",ok")
        refused = "double-yukawa,2,,,,0,,,failed: ParameterDomainError: the integrals' grid"
        assert all(row.startswith(refused) for row in rows[1:]) and len(rows) == 3
        missed_row = "double-yukawa,2,,,,0,,,failed: BracketError: critical curve inversion failed"
        assert missed[1:] == [missed_row] * 2

    def test_scan_csv_phase_header(self, capsys):
        assert (
            main(["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2.05:2.06:lin:2"]) == 0
        )
        out = capsys.readouterr().out
        assert out.split("\n")[0] == (
            "family,kappa1,v1,a_star,order,eps_jump,e2_residual,e4_value,status"
        )

    def test_failed_seed_is_a_row(self, capsys, monkeypatch):
        # the cold E2 search at kappa1 = 20 fails in the quadrature: that
        # point keeps a failed row and the rest of the scan goes on.  The
        # refused integral is one grid at level 0 (one grid for both halves
        # at the default split), and carries its null-rule estimate as the residual
        levels, refusals = [], []
        real_grid_for, real_integrate = quadrature.grid_for, quadrature.integrate

        def grid_for(lo, hi, level):
            levels.append(level)
            return real_grid_for(lo, hi, level)

        def integrate(*args, **kwargs):
            levels.clear()
            try:
                return real_integrate(*args, **kwargs)
            except QuadratureError as err:
                refusals.append((list(levels), err.residual))
                raise

        monkeypatch.setattr(quadrature, "grid_for", grid_for)
        monkeypatch.setattr(quadrature, "integrate", integrate)
        argv = ["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2:20:lin:2"]
        assert main(argv) == 0
        assert len(refusals) == 1
        grids, residual = refusals[0]
        assert grids == [0] and residual > 0.0
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

    def test_a_star_min_rows_do_not_depend_on_workers(self, capsys):
        args = ["scan", "--mode", "a-star-min", "--kappa1-grid", "0.1:50:log:40"]
        assert main([*args, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main([*args, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_locus_rows_name_their_refusal(self, capsys):
        # 1.437 lies inside the existence window [1.4368, 2.0365]: the
        # solves there fail, which is no domain error
        argv = ["scan", "--mode", "tricritical-locus", "--kappa1-grid", "1.437:1.5:lin:3"]
        assert main([*argv, "--no-bounds"]) == 0
        refusal = "failed: NonconvergenceError: tricritical solve failed (Newton and nested fallback)"
        assert capsys.readouterr().out.splitlines() == [
            "kappa1,a_t,v1_t,status",
            *(f"{k1},,,{refusal}" for k1 in ("1.437", "1.4685", "1.5")),
        ]

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


@pytest.mark.parametrize(
    "argv",
    [
        ["tricritical", "--family", "double-yukawa", "--kappa1", "2"],
        ["tricritical", "--family", "yukawa-coulomb"],
        ["fit", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2"],
        ["scan", "--mode", "tricritical-locus", "--kappa1-grid", "2:2.03:lin:2",
         "--format", "json"],
    ],
    ids=["tricritical-double-yukawa", "tricritical-yukawa-coulomb", "fit", "scan-locus-bounds"],
)
def test_no_command_reaches_an_svd(capsys, monkeypatch, argv):
    # Newton's condition number and the fit's line are closed forms: with
    # every numpy reference to svd and lstsq (np.linalg.cond and np.polyfit
    # call them through their own) raising, the commands still succeed
    import numpy as np

    def refuse(*args, **kwargs):
        raise AssertionError("a command reached an SVD")

    for name in ("svd", "lstsq"):
        original = getattr(np.linalg, name)
        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("numpy"):
                if vars(module).get(name) is original:
                    monkeypatch.setattr(module, name, refuse)
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["rows"]
    if argv[0] == "scan":
        assert {"kappa1_lower", "kappa1_upper"} <= set(doc["meta"]["config"])


def _run_module(*args, code=None):
    """``python -m rectlat.cli ARGS`` (or ``python -c CODE``) on the sources."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = ["-c", code] if code is not None else ["-m", "rectlat.cli", *args]
    return subprocess.run(
        [sys.executable, *command],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestProcessEntry:
    """``python -m rectlat.cli`` freezes the heap on its way out; nothing
    it writes or returns changes, and in-process calls do not freeze."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--mode", "a-star-min", "--kappa1-grid", "0.5:8:log:5"],
            ["energy", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2",
             "--area", "2.6"],
        ],
        ids=["scan-csv", "energy-json"],
    )
    def test_stdout_matches_in_process(self, capsys, argv):
        assert main(argv) == 0
        want = capsys.readouterr().out
        proc = _run_module(*argv)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == want

    def test_output_file_is_written_in_full(self, capsys, tmp_path):
        argv = ["scan", "--mode", "a-star-min", "--kappa1-grid", "0.5:8:log:5"]
        assert main(argv) == 0
        want = capsys.readouterr().out
        target = tmp_path / "rows.csv"
        proc = _run_module(*argv, "--output", str(target))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert target.read_text() == want

    def test_refusal_keeps_its_exit_code_and_message(self, capsys):
        argv = ["first-order", "--family", "yukawa-coulomb", "--kappa1", "1.85"]
        assert main(argv) == 4
        want = capsys.readouterr().err
        proc = _run_module(*argv)
        assert (proc.returncode, proc.stdout, proc.stderr) == (4, "", want)

    def test_the_entry_freezes_the_heap(self):
        probe = (
            "import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "sys.argv = ['rectlat', '--version']\n"
            "runpy.run_module('rectlat.cli', run_name='__main__')\n"
        )
        proc = _run_module(code=probe)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines()[-1] == "frozen True"

    def test_main_in_process_does_not_freeze(self, capsys):
        before = gc.get_freeze_count()
        assert main(["energy", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2",
                     "--area", "2.6"]) == 0
        assert gc.get_freeze_count() == before


DY = "--family double-yukawa --v1 9.8 --kappa1 2"
DY_GUESS = "tricritical --family double-yukawa --kappa1 2"
LABELS = ("error: ", "numerical failure: ", "search failure: ", "classification failure: ",
          "nonconvergence: ")


class TestExtremeInputs:
    """One extreme finite value in a numeric flag is a result or a refusal
    with its documented exit code and label, and a message that names what
    was refused: never a traceback (exit 1), a bare math-library message or
    a NaN error estimate."""

    @pytest.mark.parametrize(
        "argv",
        [
            f"energy {DY} --area 1e300",
            f"expand {DY} --area 1e300 --method both",
            f"transition {DY} --a-lo 1e300 --a-hi 12",
            f"transition {DY} --a-lo 0.5 --a-hi 1e300",
            f"fit {DY} --a-ref 1e300",
            "first-order --family yukawa-coulomb --kappa1 2.0365 --a-lo 1e300 --a-hi 2.8",
            "energy --family yukawa --kappa 1e300 --area 1",
            "energy --family yukawa --kappa 1 --area 1e300",
            "energy --family riesz --s 3 --area 1 --delta 1e300",
            "energy --family riesz --s 3 --area 1e30 --delta 1e300",
            "energy --family riesz --s 3 --area 1 --delta 1e-300",
            "scan --mode a-star-min --kappa1-grid 1e300:50:log:3",
            "scan --mode a-star-min --kappa1-grid 0.1:1e300:log:3",
            "scan --mode a-star-min --kappa1-grid 1e-30:50:log:40",
            f"{DY_GUESS} --guess-a 1e300 --guess-param 6.8",
            f"{DY_GUESS} --guess-a 2.7 --guess-param 1e300",
            f"{DY_GUESS} --guess-a 2.7 --guess-param 1e-300",
            f"{DY_GUESS} --guess-a 2.7 --guess-param 1e30",
            f"{DY_GUESS} --guess-a 2.7 --guess-param 1e-30",
            f"{DY_GUESS} --guess-a 1e-300 --guess-param 1e300",
            f"{DY_GUESS} --guess-a 1e-300 --guess-param 6.8",
            f"{DY_GUESS} --guess-a 2.7 --guess-param -7.38905609893065",
            "tricritical --family yukawa-coulomb --guess-a 1e300 --guess-param 2.04",
        ],
    )
    def test_extreme_value_is_a_documented_refusal(self, capsys, argv):
        code = main(argv.split())
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4)
        assert err == "" if code == 0 else err.startswith(LABELS)
        for text in ("math domain", "NaN to integer", "nan against", "Traceback"):
            assert text not in err

    @pytest.mark.parametrize("split", ["1e15", "1e30", "1e300", "5e-324", "0.1", "90"])
    def test_split_point_off_the_grids_is_refused(self, capsys, split):
        # a half-grid would start at or above the smallest grid end, 90
        assert main(f"energy {DY} --area 2.6 --split-point {split}".split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: split_point must lie in (pi^2/90, 90), got ")

    @pytest.mark.parametrize(
        "argv",
        [
            f"{DY_GUESS} --guess-a 5e-324 --guess-param 6.8",
            f"{DY_GUESS} --guess-a 1e-310 --guess-param 6.8",
            "tricritical --family yukawa-coulomb --guess-a 5e-324 --guess-param 2.04",
            "tricritical --family yukawa-coulomb --guess-a 1e-310 --guess-param 2.04",
        ],
    )
    def test_subnormal_guess_density_is_refused(self, capsys, count_calls, argv):
        # below the smallest normal double: exit 2 before any integral
        integrals = count_calls()
        assert main(argv.split()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: tricritical initial guess (A, param) ")
        assert integrals == []

    def test_subnormal_kappa1_fails_its_row_alone(self, capsys):
        assert main("scan --mode yukawa-coulomb --kappa1-grid 5e-324:2:log:2".split()) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "exp(kappa1)/kappa1 a finite double, got 5e-324" in out.splitlines()[1]
        assert out.splitlines()[2].startswith("yukawa-coulomb,2,")


class TestExitCode:
    def test_a_bare_value_error_propagates(self):
        # only RectlatError is a refusal: anything else is a bug, exit 1
        def broken():
            raise ValueError("not a refusal")

        with pytest.raises(ValueError, match="not a refusal"):
            exit_code(broken)

    def test_the_class_alone_picks_code_and_label(self, capsys):
        from rectlat import errors

        def raising(cls):
            def run():
                raise cls("why")

            return run

        cases = {
            errors.ParameterDomainError: (2, "error: why\n"),
            errors.BracketError: (2, "error: why\n"),
            errors.QuadratureError: (3, "numerical failure: why\n"),
            errors.SearchFailureError: (4, "search failure: why\n"),
            errors.ClassificationError: (4, "classification failure: why\n"),
            errors.NonconvergenceError: (4, "nonconvergence: why\n"),
        }
        for cls, (code, err) in cases.items():
            assert exit_code(raising(cls)) == code
            assert capsys.readouterr().err == err
