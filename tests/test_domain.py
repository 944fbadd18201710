"""Non-finite and out-of-domain input is refused up front, by the library and by the CLI."""

import ast
import builtins
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rectlat.critical as critical
from rectlat.cli import main
from rectlat.critical import find_tricritical
from rectlat.energy import LatticeState, lattice_energy
from rectlat.errors import ParameterDomainError
from rectlat.expansion import expansion_closed
from rectlat.potentials import (
    derive_double_yukawa,
    derive_yukawa_coulomb,
    front_factor,
    riesz,
    yukawa,
)
from rectlat.quadrature import QuadratureConfig

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
KAPPA1 = st.floats(0.5, 3.0)
V1 = st.floats(10.0, 100.0)  # above exp(kappa1)/kappa1 for every KAPPA1

#: constructor -> strategies for its in-domain positional arguments
ENTRIES = {
    "riesz": (riesz, [st.floats(2.5, 8.0)]),
    "yukawa": (yukawa, [st.floats(0.1, 5.0), st.floats(0.1, 5.0)]),
    "double-yukawa": (derive_double_yukawa, [V1, KAPPA1]),
    "yukawa-coulomb": (derive_yukawa_coulomb, [KAPPA1]),
    "LatticeState": (LatticeState, [st.floats(0.5, 5.0), st.floats(-1.0, 1.0)]),
    "QuadratureConfig": (
        lambda r, a, s: QuadratureConfig(rel_tol=r, abs_tol=a, split_point=s),
        [st.floats(1e-14, 1e-6), st.floats(1e-16, 1e-10), st.floats(1.0, 6.0)],
    ),
}

#: CLI family -> its flags with in-domain values
FAMILY_FLAGS = {
    "riesz": {"--s": st.floats(2.5, 8.0)},
    "yukawa": {"--kappa": st.floats(0.1, 5.0), "--v": st.floats(0.1, 5.0)},
    "double-yukawa": {"--v1": V1, "--kappa1": KAPPA1},
    "yukawa-coulomb": {"--kappa1": KAPPA1},
}
COMMON_FLAGS = {
    "--area": st.floats(0.5, 5.0),
    "--delta": st.floats(0.5, 2.0),
    "--rel-tol": st.floats(1e-14, 1e-6),
    "--split-point": st.floats(1.0, 6.0),
}


@st.composite
def one_argument_non_finite(draw, strategies):
    args = [draw(s) for s in strategies]
    args[draw(st.integers(0, len(args) - 1))] = draw(NON_FINITE)
    return args


@st.composite
def entry_call(draw):
    fn, strategies = ENTRIES[draw(st.sampled_from(sorted(ENTRIES)))]
    return fn, draw(one_argument_non_finite(strategies))


@st.composite
def energy_argv(draw):
    family = draw(st.sampled_from(sorted(FAMILY_FLAGS)))
    flags = {**FAMILY_FLAGS[family], **COMMON_FLAGS}
    values = draw(one_argument_non_finite(list(flags.values())))
    # "--flag=value" keeps argparse from reading "-inf" as an option
    return ["energy", "--family", family, *(f"{f}={v!r}" for f, v in zip(flags, values))]


@settings(max_examples=150, deadline=None)
@given(entry_call())
def test_non_finite_argument_is_a_domain_error(call):
    fn, args = call
    with pytest.raises(ParameterDomainError):
        fn(*args)


@settings(max_examples=100, deadline=None)
@given(energy_argv())
def test_non_finite_flag_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:")


# Finite values outside the domain: kappa1 past the overflow of exp(kappa1),
# and a tricritical solve at a non-positive or non-finite screening.
@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_double_yukawa(9.8, 1000.0),
        lambda: derive_yukawa_coulomb(800.0),
        # exp(kappa1)/kappa1 overflows: a subnormal screening (numpy's too)
        lambda: derive_yukawa_coulomb(5e-324),
        lambda: derive_yukawa_coulomb(np.float64(1e-310)),
        lambda: derive_double_yukawa(9.8, 5e-324),
        lambda: find_tricritical("double-yukawa", 1000.0),
        lambda: find_tricritical("double-yukawa", 0.0),
        lambda: find_tricritical("double-yukawa", -1.0),
        lambda: find_tricritical("double-yukawa", math.nan),
        # the Yukawa-Coulomb solve finds kappa1 itself; a given one was ignored
        lambda: find_tricritical("yukawa-coulomb", 5.0),
    ],
    ids=["dy-1000", "yc-800", "yc-5e-324", "yc-np-1e-310", "dy-5e-324", "tricritical-1000",
         "tricritical-0", "tricritical--1", "tricritical-nan", "tricritical-yc-5"],
)
def test_out_of_domain_kappa1_is_a_domain_error(call):
    with pytest.raises(ParameterDomainError, match="kappa1"):
        call()


# A tricritical guess that is not finite, or that maps outside the solve's
# domain, is refused before any integral, in the guess's own words: v1 = -e^2
# would divide by zero in the map v1 -> kappa2, v1 = 1e300 maps kappa2 onto
# kappa1 (a division by zero in the member), and A = -1 was refused as a
# probe's area of -1.03.
BAD_GUESSES = [
    ("double-yukawa", 2.0, (2.7, -math.exp(2.0))),
    ("double-yukawa", 2.0, (2.7, math.inf)),
    ("double-yukawa", 2.0, (-1.0, 6.8)),
    ("double-yukawa", 2.0, (math.nan, 6.8)),
    ("double-yukawa", 2.0, (1e-300, 1e300)),
    ("double-yukawa", 2.0, (2.7, 0.0)),
    ("yukawa-coulomb", None, (2.8, 0.0)),
    ("yukawa-coulomb", None, (-math.inf, 2.04)),
]
BAD_GUESS_IDS = ["dy-minus-e2", "dy-inf", "dy-a-negative", "dy-a-nan", "dy-v1-1e300", "dy-v1-zero",
                 "yc-zero", "yc-a-minus-inf"]


@pytest.mark.parametrize("family, kappa1, guess", BAD_GUESSES, ids=BAD_GUESS_IDS)
def test_bad_tricritical_guess_is_a_domain_error(monkeypatch, family, kappa1, guess):
    def no_integral(*args):
        raise AssertionError("an integral was started")

    monkeypatch.setattr(critical, "e2_e4_stack", no_integral)
    with pytest.raises(ParameterDomainError, match="guess"):
        find_tricritical(family, kappa1, guess)


@pytest.mark.parametrize("family, kappa1, guess", BAD_GUESSES, ids=BAD_GUESS_IDS)
def test_bad_tricritical_guess_exits_2(family, kappa1, guess):
    argv = ["tricritical", "--family", family, f"--guess-a={guess[0]!r}",
            f"--guess-param={guess[1]!r}"]
    if kappa1 is not None:
        argv += ["--kappa1", str(kappa1)]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:") and "guess" in err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["energy", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "1000", "--area", "2.6"],
        ["energy", "--family", "yukawa-coulomb", "--kappa1", "800", "--area", "2.6"],
        ["energy", "--family", "yukawa-coulomb", "--kappa1", "5e-324", "--area", "2.6"],
        ["tricritical", "--family", "double-yukawa", "--kappa1", "1000"],
        ["tricritical", "--family", "double-yukawa", "--kappa1", "0"],
        ["tricritical", "--family", "double-yukawa", "--kappa1=-1"],
        ["tricritical", "--family", "double-yukawa", "--kappa1", "nan"],
        ["tricritical", "--family", "yukawa-coulomb", "--kappa1", "5"],
        # above the tricritical window's upper end (kappa1 = 2.0365...)
        ["tricritical", "--family", "double-yukawa", "--kappa1", "2.05"],
    ],
    ids=["energy-dy-1000", "energy-yc-800", "energy-yc-5e-324", "tricritical-1000",
         "tricritical-0", "tricritical--1", "tricritical-nan", "tricritical-yc-5",
         "tricritical-2.05"],
)
def test_out_of_domain_kappa1_exits_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error:") and "kappa1" in err.getvalue()


def test_large_v1_member_runs_on_the_cli():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["energy", "--family", "double-yukawa", "--v1", "1e8", "--kappa1", "2",
                     "--area", "2.2"])
    assert code == 0
    assert math.isfinite(json.loads(out.getvalue())["rows"][0]["energy"])


# A flag the family or the scan mode does not read is refused, not ignored;
# a given zero counts as given.
@pytest.mark.parametrize(
    "argv, unused",
    [
        (["energy", "--family", "riesz", "--s", "3", "--kappa1", "5", "--v1", "2", "--area", "1"],
         "family riesz does not use --v1, --kappa1"),
        (["energy", "--family", "double-yukawa", "--v1", "9.8", "--kappa1", "2", "--v", "1",
          "--area", "2.6"],
         "family double-yukawa does not use --v"),
        (["transition", "--family", "yukawa-coulomb", "--kappa1", "2", "--kappa", "0"],
         "family yukawa-coulomb does not use --kappa"),
        (["scan", "--mode", "a-star-min", "--kappa1-grid", "1:2:lin:2", "--kappa1", "7",
          "--v1-grid", "1:2:lin:2"],
         "a-star-min scan does not use --kappa1, --v1-grid"),
        (["scan", "--mode", "tricritical-locus", "--kappa1-grid", "1.9:2:lin:2", "--workers", "1"],
         "tricritical-locus scan does not use --workers"),
        (["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "1.9:2:lin:2", "--no-bounds"],
         "yukawa-coulomb scan does not use --no-bounds"),
        (["scan", "--mode", "critical-curve", "--kappa1", "2", "--v1-grid", "7:40:log:2",
          "--kappa1-grid", "1:2:lin:2"],
         "critical-curve scan does not use --kappa1-grid"),
    ],
    ids=["riesz", "double-yukawa", "yukawa-coulomb-zero", "a-star-min", "tricritical-locus",
         "yukawa-coulomb-scan", "critical-curve"],
)
def test_unused_flag_exits_2(argv, unused):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: {unused}\n"


def test_yukawa_strength_defaults_to_one():
    argv = ["energy", "--family", "yukawa", "--kappa", "1", "--area", "1.3"]
    docs = []
    for extra in ([], ["--v", "1"]):
        out = io.StringIO()
        with redirect_stdout(out):
            assert main([*argv, *extra]) == 0
        docs.append(out.getvalue())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["meta"]["config"]["potential"]["v"] == 1.0


# Finite values another library would refuse with its own words: math.log
# of a non-positive delta, numpy's geomspace through zero.
@pytest.mark.parametrize(
    "argv, message",
    [
        (["energy", "--family", "yukawa", "--kappa", "1", "--area", "1.3", "--delta", "0"],
         "delta must be finite and positive, got 0.0"),
        (["energy", "--family", "yukawa", "--kappa", "1", "--area", "1.3", "--delta=-2"],
         "delta must be finite and positive, got -2.0"),
        (["scan", "--mode", "critical-curve", "--kappa1", "2", "--v1-grid", "0:5:log:3"],
         "a log grid needs both ends positive, got '0:5:log:3'"),
        (["scan", "--mode", "a-star-min", "--kappa1-grid=-1:-5:log:3"],
         "a log grid needs both ends positive, got '-1:-5:log:3'"),
        (["scan", "--mode", "yukawa-coulomb", "--kappa1-grid", "2:0:log:2"],
         "a log grid needs both ends positive, got '2:0:log:2'"),
    ],
    ids=["delta-0", "delta-negative", "log-grid-from-0", "log-grid-negative", "log-grid-to-0"],
)
def test_non_positive_input_exits_2_with_its_name(argv, message):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == f"error: {message}\n"


def test_non_positive_lin_grid_still_runs():
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["scan", "--mode", "a-star-min", "--kappa1-grid", "0:1:lin:2"])
    assert code == 0
    assert out.getvalue().splitlines()[1] == "0,,failed: ParameterDomainError: kappa1 must be positive"


def test_replaced_records_are_validated_like_new_ones():
    # ``_replace`` and ``_make`` build through the validating constructor
    with pytest.raises(ParameterDomainError, match="rel_tol"):
        QuadratureConfig()._replace(rel_tol=-1.0)
    with pytest.raises(ParameterDomainError, match="split_point"):
        QuadratureConfig._make([1e-12, 1e-14, math.nan])
    with pytest.raises(ParameterDomainError, match="inverse density"):
        LatticeState(2.0)._replace(area=0.0)
    with pytest.raises(ParameterDomainError, match="inverse density"):
        LatticeState._make([-1.0, 0.0])
    assert QuadratureConfig()._replace(split_point=3.0) == QuadratureConfig(split_point=3.0)
    assert LatticeState(2.0, 0.5)._replace(eps=-0.5) == LatticeState(2.0, -0.5)


@pytest.mark.parametrize(
    "s, area",
    [(344.0, 2.0), (400.0, 2.0), (343.0, 2.0), (3.0, 1e-300), (3.0, 1e300)],
    ids=["gamma-overflow", "gamma-overflow-400", "product-overflow", "power-underflow",
         "power-overflow"],
)
def test_riesz_front_factor_outside_the_double_range_is_a_domain_error(s, area):
    with pytest.raises(ParameterDomainError, match="is no double"):
        front_factor(riesz(s), area)
    with pytest.raises(ParameterDomainError, match="is no double"):
        lattice_energy(riesz(s), LatticeState(area))
    with pytest.raises(ParameterDomainError, match="is no double"):
        expansion_closed(riesz(s), area)


@pytest.mark.parametrize("kappa", [1e-170, 1e-160], ids=["underflow-to-0", "subnormal"])
def test_yukawa_tail_beyond_the_double_range_is_a_domain_error(kappa):
    # kappa^2 A / 4 pi^2 at or below pi / DBL_MAX: sqrt(pi / c) is no double
    with pytest.raises(ParameterDomainError, match="is too small, kappa="):
        lattice_energy(yukawa(kappa), LatticeState(2.0))


def test_extreme_but_representable_inputs_still_run():
    # the refusals leave every factor that is a double alone
    assert 0.0 < front_factor(riesz(300.0), 2.0) < 1e-300
    assert math.isfinite(lattice_energy(yukawa(1e-150), LatticeState(2.0)))


SRC = Path(__file__).resolve().parents[1] / "src" / "rectlat"


def _functions(tree):
    """``(name, node)`` of every function in the module, nested ones too."""
    return [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]


def test_check_domain_is_the_only_raiser_of_domain_errors():
    # a refusal of input goes through one path: ``errors.check_domain``
    raisers = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {id(node): name for name, f in _functions(tree) for node in ast.walk(f)}
        for node in ast.walk(tree):
            exc = node.exc if isinstance(node, ast.Raise) else None
            target = exc.func if isinstance(exc, ast.Call) else exc
            if isinstance(target, ast.Name) and target.id == "ParameterDomainError":
                raisers.append((path.name, owner.get(id(node))))
    assert raisers and set(raisers) == {("errors.py", "check_domain")}


def test_exit_code_catches_package_errors_only():
    # any exception outside the package's own classes is a bug, shown as one
    tree = ast.parse((SRC / "cli.py").read_text())
    exit_code = dict(_functions(tree))["exit_code"]
    caught = [
        ast.unparse(h.type) for h in ast.walk(exit_code) if isinstance(h, ast.ExceptHandler)
    ]
    assert caught == ["RectlatError"]
    names = {n.id for n in ast.walk(exit_code) if isinstance(n, ast.Name)}
    builtin_errors = {
        name for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    assert not names & builtin_errors
