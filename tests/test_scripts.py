"""The experiment scripts run against the current library API.

Each script runs in-process under ``runpy`` with a patched ``sys.argv``
and exits through the CLI's exit codes; where a CLI scan computes the
same table, the outputs are compared.
"""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from rectlat.cli import main
from rectlat.phasescan import SCAN_CSV_HEADER

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run_script(monkeypatch, capsys, name, *args):
    """The script's stdout; it must exit 0."""
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exited.value.code == 0
    return capsys.readouterr().out


def run_cli(capsys, *args):
    assert main(list(args)) == 0
    return capsys.readouterr().out


def test_asmin_curve_matches_scan(monkeypatch, capsys):
    out = run_script(
        monkeypatch, capsys, "asmin_curve.py", "--kappa1-min", "1", "--kappa1-max", "2",
        "--points", "2",
    )
    want = run_cli(capsys, "scan", "--mode", "a-star-min", "--kappa1-grid", "1:2:log:2")
    lines = out.splitlines()
    assert lines[:-1] == want.splitlines()
    assert lines[-1].startswith("0,") and lines[-1].endswith(",kappa1->0 limit")


def test_phase_diagram_runs(monkeypatch, capsys):
    out = run_script(monkeypatch, capsys, "phase_diagram.py", "--points", "3")
    lines = out.splitlines()
    assert lines[0] == SCAN_CSV_HEADER
    assert lines[-1].split(",")[4] == "tricritical"


def test_phase_diagram_refuses_out_of_domain_kappa1(monkeypatch, capsys):
    # the border exp(kappa1)/kappa1 overflowed before the library could refuse kappa1
    monkeypatch.setattr(sys, "argv", ["phase_diagram.py", "--kappa1", "1000"])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPTS / "phase_diagram.py"), run_name="__main__")
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: kappa1 must be positive and at most")


@pytest.mark.parametrize(
    "name, args",
    [
        ("asmin_curve.py", ["--points", "-1"]),
        ("asmin_curve.py", ["--kappa1-min", "0"]),
        ("phase_diagram.py", ["--points", "-1"]),
        ("phase_diagram.py", ["--v1-max", "0"]),
    ],
    ids=["asmin-points", "asmin-zero-end", "phase-points", "phase-zero-max"],
)
def test_scripts_refuse_their_own_bad_flags(monkeypatch, capsys, name, args):
    # numpy's geomspace and linspace raise a bare ValueError here, which the CLI's
    # exit path does not catch; each script refuses the flag first (exit 2)
    monkeypatch.setattr(sys, "argv", [name, *args])
    with pytest.raises(SystemExit) as exited:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    assert exited.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --points must be at least 0")


@pytest.mark.parametrize(
    "load",
    [
        pytest.param("import rectlat.cli", id="cli"),
        *(pytest.param(f"runpy.run_path({str(path)!r}, run_name='imported')", id=path.stem)
          for path in sorted(SCRIPTS.glob("*.py"))),
    ],
)
def test_no_scipy_at_run_time(load):
    # importing scipy.optimize and scipy.special took about 0.55 s of every
    # command's start-up; the package and the scripts do without them
    report = "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert _fresh_interpreter(f"import runpy, sys\n{load}\n{report}") == "[]\n"


def test_no_dataclasses_at_import():
    # the records are NamedTuples: defining a frozen dataclass generated
    # code for about 1.25 ms a record, against 0.23 ms for a NamedTuple
    report = "print('dataclasses' in sys.modules)"
    assert _fresh_interpreter(f"import sys\nimport rectlat.cli\n{report}") == "False\n"


def test_no_process_pool_at_import():
    # scans run in one process: no pool or process module is ever loaded
    pool = ("multiprocessing", "concurrent.futures", "subprocess", "socket")
    report = f"print(sorted(m for m in {pool!r} if m in sys.modules))"
    assert _fresh_interpreter(f"import sys\nimport rectlat.cli\n{report}") == "[]\n"


def test_no_numpy_polynomial_at_import():
    # the Gauss-Legendre rule is stored, not computed: numpy.polynomial's
    # 11 modules cost every command about 5 ms of import
    report = "print(sorted(m for m in sys.modules if m.startswith('numpy.polynomial')))"
    assert _fresh_interpreter(f"import sys\nimport rectlat.cli\n{report}") == "[]\n"


def _fresh_interpreter(code: str) -> str:
    """Standard output of ``code`` run by a new interpreter on the sources."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout
