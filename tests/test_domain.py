"""Non-finite input is refused up front, by the library and by the CLI."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectlat.cli import main
from rectlat.energy import LatticeState
from rectlat.errors import ParameterDomainError
from rectlat.potentials import derive_double_yukawa, derive_yukawa_coulomb, riesz, yukawa
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
