"""Acceptance suite: reference constants and properties at stated tolerances.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them
all); the assertions carry the same numbers.
"""

import math
import time

import numpy as np
import pytest

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
    kappa1_upper,
    minimize_aspect,
)
from rectlat.energy import LatticeState, lattice_energy
from rectlat.expansion import e2_closed, landau_series
from rectlat.potentials import (
    derive_double_yukawa,
    derive_yukawa_coulomb,
    riesz,
    yukawa,
)

from conftest import direct_lattice_sum, e4_closed, rel_or_abs

A_STAR_REF = 2.61449322978
DY_TRICRITICAL_REF = (2.7163619942262467, 6.7951845011079)
YC_TRICRITICAL_REF = (2.795433950879, 2.036517758847)
YC_FIRST_ORDER_KAPPA = 2.0365
A_TRANS_REF = 2.795443562576
A_STAR_MIN_K2_REF = 2.186262818188
A_STAR_MIN_ZERO_REF = 5.71344


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_second_order_transition(dy98, q):
    t0 = time.perf_counter()
    tp = find_transition(dy98, (2.0, 3.2), q)
    elapsed = time.perf_counter() - t0
    rel = abs(tp.a_star - A_STAR_REF) / A_STAR_REF
    ok = rel <= 1e-9 and elapsed < 10.0
    assert _report(
        "1", ok, f"A*={tp.a_star:.12f} (rel {rel:.2e}, {elapsed:.2f}s)"
    ), f"A*={tp.a_star!r} misses {A_STAR_REF} (rel {rel:.3e}) or runtime {elapsed:.1f}s"


def test_criterion_2_double_yukawa_tricritical(q):
    t0 = time.perf_counter()
    tc = find_tricritical("double-yukawa", 2.0, q=q)
    elapsed = time.perf_counter() - t0
    rel_a = abs(tc.a_t - DY_TRICRITICAL_REF[0]) / DY_TRICRITICAL_REF[0]
    rel_v = abs(tc.param_t - DY_TRICRITICAL_REF[1]) / DY_TRICRITICAL_REF[1]
    ok = rel_a <= 1e-10 and rel_v <= 1e-9 and elapsed < 60.0
    assert _report(
        "2",
        ok,
        f"(A_t, v1_t)=({tc.a_t:.16f}, {tc.param_t:.13f}) rel=({rel_a:.2e}, {rel_v:.2e}), {elapsed:.2f}s",
    ), (tc.a_t, tc.param_t, rel_a, rel_v, elapsed)


def test_criterion_3_yukawa_coulomb_tricritical(q):
    t0 = time.perf_counter()
    tc = find_tricritical("yukawa-coulomb", q=q)
    elapsed = time.perf_counter() - t0
    rel_a = abs(tc.a_t - YC_TRICRITICAL_REF[0]) / YC_TRICRITICAL_REF[0]
    rel_k = abs(tc.param_t - YC_TRICRITICAL_REF[1]) / YC_TRICRITICAL_REF[1]
    ok = rel_a <= 1e-9 and rel_k <= 1e-9 and elapsed < 60.0
    assert _report(
        "3",
        ok,
        f"(A_t, kappa1_t)=({tc.a_t:.13f}, {tc.param_t:.13f}) rel=({rel_a:.2e}, {rel_k:.2e}), {elapsed:.2f}s",
    ), (tc.a_t, tc.param_t, rel_a, rel_k, elapsed)


def test_criterion_4_first_order_transition(yc_near_tricritical, q):
    spec = yc_near_tricritical
    tp = find_transition(spec, (2.5, 3.1), q)
    a_trans, eps_jump = find_first_order(spec, first_order_bracket(spec, tp.a_star, q), q)
    rel = abs(a_trans - A_TRANS_REF) / A_TRANS_REF
    e_square = lattice_energy(spec, LatticeState(a_trans, 0.0), q)
    e_rect = lattice_energy(spec, LatticeState(a_trans, eps_jump), q)
    branch_rel = abs(e_square - e_rect) / abs(e_square)
    ok = rel <= 1e-9 and branch_rel <= 1e-11 and eps_jump > 0.0
    assert _report(
        "4",
        ok,
        f"A_trans={a_trans:.13f} (rel {rel:.2e}), branch agreement {branch_rel:.2e}, "
        f"eps_jump={eps_jump:.6f}",
    ), (a_trans, rel, branch_rel, eps_jump)


def test_criterion_5a_a_star_min_reference(q):
    value = a_star_min(2.0, q)
    rel = abs(value - A_STAR_MIN_K2_REF) / A_STAR_MIN_K2_REF
    ok = rel <= 1e-9
    assert _report("5a", ok, f"a_star_min(2)={value:.13f} (rel {rel:.2e})"), (value, rel)


def test_criterion_5b_zero_screening_limit(q):
    value = a_star_min_zero_limit(q)
    ok = abs(value - A_STAR_MIN_ZERO_REF) / A_STAR_MIN_ZERO_REF <= 1e-5
    assert _report("5b", ok, f"zero-screening limit {value:.7f}"), value


def test_criterion_5c_large_screening_approach(q):
    value = a_star_min(50.0, q)
    ok = abs(value - 1.0) <= 0.02
    assert _report(
        "5c", ok, f"a_star_min(50)={value:.10f}, |value-1|={abs(value - 1.0):.4f} vs 0.02"
    ), (
        f"a_star_min(50) = {value!r}: the limiting condition approaches 1 only "
        f"like 1 + 2/kappa1 (computed 1.02010 at kappa1=100, 1.01002 at 200), so "
        f"at kappa1=50 the converged value sits 4% above the limit, outside the "
        f"2% window"
    )


def test_criterion_6a_kappa1_lower(q):
    value = kappa1_lower(q=q)
    ok = 1.43 <= value <= 1.44
    assert _report("6a", ok, f"kappa1_lower={value:.5f} (divergence threshold 1e4)"), value


def test_criterion_6b_kappa1_upper(q):
    value = kappa1_upper(q=q)
    ok = 2.034 <= value <= 2.0345
    assert _report("6b", ok, f"kappa1_upper={value:.10f} vs window [2.034, 2.0345]"), (
        f"kappa1_upper = {value!r}: the tricritical strength curve stays above "
        f"the admissibility border all the way to the Yukawa-Coulomb tricritical "
        f"screening 2.0365177601 and intersects it there (the border member IS "
        f"the Yukawa-Coulomb potential, and first-order transitions demonstrably "
        f"exist at kappa1 = 2.035-2.036, e.g. criterion 4); a crossing inside "
        f"[2.034, 2.0345] is incompatible with criteria 3 and 4"
    )


def test_criterion_7_exponent_fits(dy98, q):
    t0 = time.perf_counter()
    tp = find_transition(dy98, (2.0, 3.2), q)
    fit2 = fit_exponent(dy98, tp.a_star, q=q)
    t_second = time.perf_counter() - t0

    t0 = time.perf_counter()
    tc_dy = find_tricritical("double-yukawa", 2.0, q=q)
    spec_dy = derive_double_yukawa(tc_dy.param_t, 2.0)
    fit_dy = fit_exponent(spec_dy, tc_dy.a_t, q=q)
    t_dy = time.perf_counter() - t0

    t0 = time.perf_counter()
    tc_yc = find_tricritical("yukawa-coulomb", q=q)
    spec_yc = derive_yukawa_coulomb(tc_yc.param_t)
    fit_yc = fit_exponent(spec_yc, tc_yc.a_t, q=q)
    t_yc = time.perf_counter() - t0

    ok = (
        0.49 <= fit2.beta <= 0.51
        and 0.24 <= fit_dy.beta <= 0.26
        and 0.24 <= fit_yc.beta <= 0.26
        and max(t_second, t_dy, t_yc) < 120.0
    )
    assert _report(
        "7",
        ok,
        f"beta={fit2.beta:.5f}, beta_t(double-yukawa)={fit_dy.beta:.5f}, "
        f"beta_t(yukawa-coulomb)={fit_yc.beta:.5f} "
        f"({t_second:.1f}s/{t_dy:.1f}s/{t_yc:.1f}s)",
    ), (fit2.beta, fit_dy.beta, fit_yc.beta)


def test_criterion_8a_aspect_symmetry(dy98, rng, q):
    specs = [dy98] * 12 + [derive_yukawa_coulomb(2.1)] * 8
    worst = 0.0
    for spec in specs:
        area = rng.uniform(0.8, 5.0)
        eps = rng.uniform(0.05, 1.2)
        e_plus = lattice_energy(spec, LatticeState(area, eps), q)
        e_minus = lattice_energy(spec, LatticeState(area, -eps), q)
        worst = max(worst, abs(e_plus - e_minus) / abs(e_plus))
    ok = worst <= 1e-12
    assert _report("8a", ok, f"aspect-inversion symmetry, worst rel {worst:.2e}"), worst


def test_criterion_8b_positive_curvature_for_monotone(q):
    worst = np.inf
    for spec in (yukawa(1.0, 1.0), yukawa(3.0, 0.7), riesz(3.0)):
        for area in np.geomspace(0.2, 10.0, 12):
            worst = min(worst, e2_closed(spec, area, q))
    ok = worst > 0.0
    assert _report("8b", ok, f"min E2 over monotone families {worst:.3e}"), worst


def test_criterion_8c_cross_method_grid(q):
    worst = 0.0
    for v1 in np.geomspace(7.0, 25.0, 5):
        spec = derive_double_yukawa(v1, 2.0)
        for area in np.linspace(2.0, 3.4, 5):
            rows = landau_series(spec, area, q)
            for closed, series in (
                (e2_closed(spec, area, q), rows[2]),
                (e4_closed(spec, area, q), rows[4]),
            ):
                assert rel_or_abs(closed, series, rel=1e-10), (v1, area, closed, series)
                if max(abs(closed), abs(series)) > 1e-10:
                    worst = max(worst, abs(closed - series) / max(abs(closed), abs(series)))
    assert _report("8c", True, f"closed vs series on 5x5 grid, worst rel {worst:.2e}")


def test_criterion_8d_integral_vs_direct_sum(dy98, rng, q):
    worst = 0.0
    for _ in range(10):
        st = LatticeState(rng.uniform(1.2, 4.0), rng.uniform(0.0, 1.0))
        integral = lattice_energy(dy98, st, q)
        summed = direct_lattice_sum(dy98, st)
        worst = max(worst, abs(integral - summed) / abs(summed))
    ok = worst <= 1e-10
    assert _report("8d", ok, f"integral vs direct sum, worst rel {worst:.2e}"), worst


def test_criterion_8e_odd_coefficients_vanish(dy98, q):
    worst = 0.0
    for area in (2.0, 2.61449322978, 3.3):
        rows = landau_series(dy98, area, q)
        even_scale = max(abs(rows[2]), abs(rows[4]), abs(rows[6]), abs(rows[8]))
        worst = max(worst, max(abs(rows[m]) for m in (1, 3, 5, 7)) / even_scale)
    ok = worst < 1e-12
    assert _report("8e", ok, f"odd/even coefficient ratio {worst:.2e}"), worst


def test_criterion_8f_finite_difference_curvature(dy98, q):
    area, h = 2.0, 1e-3
    fd = (
        lattice_energy(dy98, LatticeState(area, h), q)
        - 2.0 * lattice_energy(dy98, LatticeState(area, 0.0), q)
        + lattice_energy(dy98, LatticeState(area, -h), q)
    ) / (2.0 * h * h)
    e2 = e2_closed(dy98, area, q)
    rel = abs(fd - e2) / abs(e2)
    ok = rel <= 1e-5
    assert _report("8f", ok, f"finite-difference curvature rel {rel:.2e}"), rel


def test_criterion_8g_second_order_amplitude(dy98, q):
    tp = find_transition(dy98, (2.0, 3.2), q)
    b = -e2_slope(dy98, tp.a_star, q)
    amplitude = math.sqrt(b / (2.0 * e4_closed(dy98, tp.a_star, q)))
    worst = 0.0
    for delta in (1e-6 * tp.a_star, 1e-5 * tp.a_star, 1e-4 * tp.a_star):
        eps, _ = minimize_aspect(dy98, tp.a_star + delta, q)
        worst = max(worst, abs(eps / math.sqrt(delta) - amplitude) / amplitude)
    ok = worst <= 0.02
    assert _report(
        "8g", ok, f"onset amplitude vs sqrt(-E2'/2E4), worst rel {worst:.2e}"
    ), worst
