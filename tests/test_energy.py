import math
import time
import warnings

import numpy as np
import pytest

import rectlat.energy as energy
from rectlat.critical import a_star_min, a_star_min_zero_limit
from rectlat.energy import LatticeState, direct_lattice_sum, energy_gap, lattice_energy
from rectlat.errors import ParameterDomainError, UnsupportedOracleError
from rectlat.expansion import e2_e4_closed, landau_series
from rectlat.potentials import derive_double_yukawa, derive_yukawa_coulomb, riesz, yukawa
from rectlat.quadrature import QuadratureConfig
from rectlat.theta import theta3

#: Catalan's constant, for the inverse-quartic square-lattice sum
CATALAN = 0.9159655941772190


class TestLatticeState:
    def test_validation(self):
        with pytest.raises(ParameterDomainError):
            LatticeState(0.0)
        with pytest.raises(ParameterDomainError):
            LatticeState(-2.0)

    def test_delta_and_mirror(self):
        st = LatticeState(2.0, 0.3)
        assert st.delta == pytest.approx(math.exp(0.3))
        assert st.mirrored().eps == -0.3


class TestAspectSymmetry:
    def test_integral_path(self, dy98):
        e_plus = lattice_energy(dy98, LatticeState(3.0, math.log(1.3)))
        e_minus = lattice_energy(dy98, LatticeState(3.0, -math.log(1.3)))
        assert e_plus == pytest.approx(e_minus, rel=1e-12)

    def test_direct_sum_index_swap(self, dy98):
        s_plus = direct_lattice_sum(dy98, LatticeState(2.2, 0.4))
        s_minus = direct_lattice_sum(dy98, LatticeState(2.2, -0.4))
        assert s_plus == pytest.approx(s_minus, rel=1e-14)


class TestAgainstDirectSum:
    def test_double_yukawa_square(self, dy98):
        st = LatticeState(2.6, 0.0)
        assert lattice_energy(dy98, st) == pytest.approx(
            direct_lattice_sum(dy98, st), rel=1e-10
        )

    def test_double_yukawa_random_states(self, dy98, rng):
        for _ in range(10):
            st = LatticeState(rng.uniform(1.2, 4.5), rng.uniform(0.0, 0.9))
            assert lattice_energy(dy98, st) == pytest.approx(
                direct_lattice_sum(dy98, st), rel=1e-10
            )

    def test_yukawa_nearest_shell_dominated(self):
        spec = yukawa(5.0, 1.0)
        st = LatticeState(4.0, 0.0)
        # four nearest neighbours at r=2 dominate: E ~ 4 * e^{-10}/2 / 2;
        # the diagonal shell contributes another ~1.1%
        value = direct_lattice_sum(spec, st, cutoff_tol=1e-22)
        assert value == pytest.approx(math.exp(-10.0), rel=2e-2)
        # frozen 40-digit shell summation of the same sum
        assert value == pytest.approx(4.5911208929561825e-05, rel=1e-13)
        assert lattice_energy(spec, st) == pytest.approx(value, rel=1e-12)

    def test_riesz_inverse_quartic_constant(self):
        # sum'_{j,k} (j^2+k^2)^-2 factorizes into zeta(2) and the alternating
        # odd-inverse-square series, giving E = 2 zeta(2) * Catalan at A=1
        spec = riesz(4.0)
        st = LatticeState(1.0, 0.0)
        expected = 2.0 * (math.pi**2 / 6.0) * CATALAN
        # the literal sum converges only algebraically (tail ~ 1/shells), so
        # the oracle runs at a practical cutoff; the integral path is sharp
        assert direct_lattice_sum(spec, st, cutoff_tol=1e-6) == pytest.approx(
            expected, rel=3e-6
        )
        assert lattice_energy(spec, st) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "s, area, eps", [(9.0, 1.0, 0.3), (12.0, 1.0, 0.0), (12.0, 1.0, 0.3), (12.0, 6.0, 0.8)]
    )
    def test_steep_riesz_matches_direct_sum(self, s, area, eps):
        # the weight u^(s/2 - 1) grows across the grid, so the bracket
        # P(u, eps) - 1 must keep its relative accuracy where it is tiny
        # (theta_product_excess); the difference P - 1 carried absolute
        # noise of 1e-16 into errors of up to 3e-11 (or no convergence)
        spec, st = riesz(s), LatticeState(area, eps)
        expected = direct_lattice_sum(spec, st, cutoff_tol=1e-18)
        assert lattice_energy(spec, st) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("s", [9.0, 12.0])
    @pytest.mark.parametrize("eps", [1.0, math.log(4.0)], ids=["eps-1", "eps-ln4"])
    def test_riesz_tail_reaches_far_enough_at_large_eps(self, s, eps):
        # a Riesz bracket at eps != 0 decays only like exp(-u e^-|eps|)
        # against a weight without exponential decay: with the cutoff of
        # eps = 0, riesz(12) was 1e-5 short at eps = ln 4
        spec = riesz(s)
        square = direct_lattice_sum(spec, LatticeState(1.0), cutoff_tol=1e-17)
        expected = direct_lattice_sum(spec, LatticeState(1.0, eps), cutoff_tol=1e-17)
        assert lattice_energy(spec, LatticeState(1.0, eps)) == pytest.approx(expected, rel=1e-13)
        gaps = energy_gap(spec, 1.0, np.array([0.5 * eps, -eps]))
        assert gaps[1] == pytest.approx(expected - square, rel=1e-13)

    def test_refuses_sums_past_the_shell_cap(self):
        # near the double-Yukawa border kappa2 = 1.35e-3 predicts about
        # 18,700 shells; the refusal comes before any of them is summed
        spec = derive_double_yukawa(3.702, 2.0)
        start = time.perf_counter()
        with pytest.raises(UnsupportedOracleError, match="about 1868[0-9].* shells"):
            direct_lattice_sum(spec, LatticeState(2.8135, 0.0))
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cutoff_tol", [math.nan, math.inf, 0.0, -1.0])
    def test_refuses_a_cutoff_off_its_domain(self, dy98, cutoff_tol):
        with pytest.raises(ParameterDomainError, match="cutoff_tol"):
            direct_lattice_sum(dy98, LatticeState(2.6), cutoff_tol=cutoff_tol)

    def test_unsupported_oracles(self):
        with pytest.raises(UnsupportedOracleError):
            direct_lattice_sum(derive_yukawa_coulomb(2.0), LatticeState(2.0))
        with pytest.raises(UnsupportedOracleError):
            direct_lattice_sum(riesz(2.0), LatticeState(2.0))


class TestSquareOptimalityForMonotone:
    @pytest.mark.parametrize(
        "spec_fn", [lambda: yukawa(2.0, 1.0), lambda: riesz(3.0)], ids=["yukawa", "riesz3"]
    )
    def test_square_beats_rectangles(self, spec_fn):
        spec = spec_fn()
        for area in (0.7, 2.0):
            e_square = lattice_energy(spec, LatticeState(area, 0.0))
            for delta in (1.01, 1.3, 2.0, 3.0):
                e_rect = lattice_energy(spec, LatticeState(area, math.log(delta)))
                assert e_rect > e_square


class TestBackgroundRegularization:
    def test_bracket_tends_to_minus_one(self):
        # theta3(e^-t)^2 - 1 - pi/t -> -1 as t -> 0+
        t = 1e-6
        bracket = theta3(t) ** 2 - 1.0 - math.pi / t
        assert bracket == pytest.approx(-1.0, abs=1e-9)

    def test_yukawa_coulomb_energy_finite(self):
        spec = derive_yukawa_coulomb(2.0365)
        value = lattice_energy(spec, LatticeState(2.7954, 0.0))
        assert np.isfinite(value)

    def test_riesz_s_leq_2_rejected(self):
        with pytest.raises(ParameterDomainError):
            lattice_energy(riesz(2.0), LatticeState(1.0))


def test_extreme_aspect_runs_without_warnings():
    # delta = 1e-300 puts one theta factor at t ~ 1e-300, through the
    # modular identity, without an overflowing power of t
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = lattice_energy(yukawa(1.0), LatticeState(1.0, math.log(1e-300)))
    assert value == pytest.approx(2.8542516842622246e150, rel=1e-13)


class TestSplitPointInvariance:
    def test_energy_independent_of_split(self, dy98):
        st = LatticeState(2.6, 0.21)
        reference = lattice_energy(dy98, st)
        for split in (2.0, 4.5):
            q = QuadratureConfig(split_point=split)
            assert lattice_energy(dy98, st, q) == pytest.approx(reference, rel=1e-12)

    def test_yukawa_coulomb_split_invariance(self):
        spec = derive_yukawa_coulomb(2.0365)
        st = LatticeState(2.7954, 0.1)
        reference = lattice_energy(spec, st)
        for split in (1.7, 4.0):
            q = QuadratureConfig(split_point=split)
            assert lattice_energy(spec, st, q) == pytest.approx(reference, rel=1e-12)

    @pytest.mark.parametrize("split", [2.0, 4.5])
    def test_bracket_integrals_independent_of_split(self, dy98, split):
        # away from the default split, nodes below pi on one side take the
        # modular reduction's rescaled branch
        q = QuadratureConfig(split_point=split)
        for spec in (dy98, derive_yukawa_coulomb(2.0365)):
            for area in (2.0, 2.6, 3.4):
                for ref, val in zip(e2_e4_closed(spec, area), e2_e4_closed(spec, area, q)):
                    assert val == pytest.approx(ref, rel=1e-12)
                for eps in (1e-4, 0.1, 0.9):
                    ref = energy_gap(spec, area, eps)
                    assert energy_gap(spec, area, eps, q) == pytest.approx(ref, rel=1e-12)
                ref, rows = landau_series(spec, area), landau_series(spec, area, q)
                np.testing.assert_allclose(rows[2::2], ref[2::2], rtol=1e-12, atol=0.0)
                # odd rows vanish up to roundoff on either split
                assert np.max(np.abs(rows[1::2] - ref[1::2])) <= 1e-12 * np.max(np.abs(ref))
        assert a_star_min(2.0, q) == pytest.approx(a_star_min(2.0), rel=1e-12)
        assert a_star_min_zero_limit(q) == pytest.approx(a_star_min_zero_limit(), rel=1e-12)


class TestEnergyGap:
    def test_matches_energy_difference(self, dy98):
        area, eps = 2.6, 0.35
        gap = energy_gap(dy98, area, eps)
        diff = lattice_energy(dy98, LatticeState(area, eps)) - lattice_energy(
            dy98, LatticeState(area, 0.0)
        )
        assert gap == pytest.approx(diff, abs=1e-13, rel=1e-11)

    def test_background_cancels_in_gap(self):
        spec = derive_yukawa_coulomb(2.0365)
        area, eps = 2.7954, 0.25
        gap = energy_gap(spec, area, eps)
        diff = lattice_energy(spec, LatticeState(area, eps)) - lattice_energy(
            spec, LatticeState(area, 0.0)
        )
        assert gap == pytest.approx(diff, abs=1e-12)

    @pytest.mark.parametrize("split", [math.pi, 2.0], ids=["split-pi", "split-2"])
    @pytest.mark.parametrize(
        "spec, area",
        [(derive_yukawa_coulomb(1.95), 2.83), (derive_double_yukawa(4.05, 2.0), 2.7)],
        ids=["yukawa-coulomb", "double-yukawa"],
    )
    def test_stacked_eps_rows_match_scalar_calls(self, spec, area, split):
        q = QuadratureConfig(split_point=split)
        eps = np.linspace(-0.3, math.log(4.0), 33)
        rows = energy_gap(spec, area, eps, q)
        assert rows.shape == eps.shape
        for e, row in zip(eps, rows):
            assert row.hex() == float(energy_gap(spec, area, e, q)).hex()
        assert isinstance(energy_gap(spec, area, 0.3, q), float)
        # a mixed stack: each row's series cut is its own, not its stack's
        mixed = np.array([-0.3, 1e-7, math.log(4.0), 2.5, math.log(64.0)])
        for e, row in zip(mixed, energy_gap(spec, area, mixed, q)):
            assert row.hex() == float(energy_gap(spec, area, e, q)).hex()

    @pytest.mark.parametrize(
        "eps", [30.0, -30.0, math.nan, math.inf, np.array([0.1, 30.0]), np.array([0.1, math.nan])],
        ids=["30", "-30", "nan", "inf", "stack-30", "stack-nan"],
    )
    def test_eps_out_of_range_is_refused_before_any_table(self, monkeypatch, dy98, eps):
        # |eps| = 30 would take 1.2e7 series terms per node
        def no_integral(*args, **kwargs):
            raise AssertionError("an integral was started")

        monkeypatch.setattr(energy, "split_integral", no_integral)
        with pytest.raises(ParameterDomainError, match="eps"):
            energy_gap(dy98, 2.6, eps)

    def test_eps_bound_covers_the_planned_aspect_range(self, dy98):
        assert energy.GAP_EPS_BOUND >= math.log(256.0)
        assert math.isfinite(energy_gap(dy98, 2.6, -energy.GAP_EPS_BOUND))

    def test_gap_even_in_eps(self, dy98):
        assert energy_gap(dy98, 3.0, 0.4) == pytest.approx(
            energy_gap(dy98, 3.0, -0.4), rel=1e-13
        )
