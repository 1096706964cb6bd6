import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from magnon_sense import (
    ConfigurationError,
    DerivedParameters,
    ParameterError,
    PoleError,
    SingularResponseError,
    baseline_parameters,
    derived_parameters,
    drift_matrix,
    require_stable,
    response_grid,
)
from magnon_sense.transfer import closed_form_grid

TWO_PI = 2.0 * math.pi


def detuned_dp(r_m=0.5, da_frac=0.3, d0_frac=-0.2, g_frac=None):
    """Baseline with nonzero detunings (fractions of kappa_m)."""
    base = baseline_parameters(r_m=r_m)
    kw = dict(delta_a=da_frac * base.kappa_m, delta_0p=d0_frac * base.kappa_m)
    if g_frac is not None:
        kw.update(g_0=g_frac * base.kappa_m, mod_amplitude=1.0)
    return derived_parameters(replace(base, **kw))


#: a detuning in units of kappa_m: zero, or +-[0.05, 3]
DETUNINGS = st.one_of(st.just(0.0), st.floats(0.05, 3.0), st.floats(-3.0, -0.05))


class TestDriftSystem:
    def test_matrix_entries(self, baseline_dp):
        dp = detuned_dp()
        km, ka = dp.kappa_m, dp.kappa_a
        d0, da, g2 = dp.delta_0p, dp.delta_a, 2 * dp.g_prime
        expected = np.array([
            [-km / 2, d0, 0, 0],
            [-d0, -km / 2, -g2, 0],
            [0, 0, -ka / 2, da],
            [-g2, 0, -da, -ka / 2],
        ])
        np.testing.assert_array_equal(drift_matrix(dp), expected)

    def test_zero_coupling_is_block_diagonal(self):
        dp = derived_parameters(
            replace(baseline_parameters(r_m=0.0), mod_amplitude=0.0))
        drift = drift_matrix(dp)
        assert np.all(drift[:2, 2:] == 0.0)
        assert np.all(drift[2:, :2] == 0.0)

    def test_resonant_eigenvalues_are_half_linewidths(self, baseline_dp):
        # triangular structure at zero detuning forces the diagonal
        eigs = np.sort(np.linalg.eigvals(drift_matrix(baseline_dp)).real)
        expected = np.sort([-baseline_dp.kappa_m / 2, -baseline_dp.kappa_m / 2,
                            -baseline_dp.kappa_a / 2, -baseline_dp.kappa_a / 2])
        np.testing.assert_allclose(eigs, expected, rtol=1e-12)

    def test_resonant_case_is_triangular_in_reordering(self, baseline_dp):
        drift = drift_matrix(baseline_dp)
        order = [0, 2, 1, 3]  # (X_M, X_a, P_M, P_a)
        permuted = drift[np.ix_(order, order)]
        assert np.all(np.triu(permuted, k=1) == 0.0)
        np.testing.assert_allclose(
            np.diag(permuted),
            [-baseline_dp.kappa_m / 2, -baseline_dp.kappa_a / 2,
             -baseline_dp.kappa_m / 2, -baseline_dp.kappa_a / 2])

    def test_random_stable_draws(self):
        # moderate-coupling domain: g' up to half the smaller linewidth,
        # detunings up to 3 kappa_m; stability holds throughout it
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            km = rng.uniform(0.5, 2.0)
            ka = rng.uniform(0.5, 2.0)
            dp = DerivedParameters(
                r_m=0.0, xi=1.0, omega_0_prime=1.0,
                g_prime=rng.uniform(0.0, 0.5) * min(km, ka),
                lambda_prime=1.0, kappa_a=ka, kappa_m=km,
                delta_a=rng.uniform(-3, 3) * km,
                delta_0p=rng.uniform(-3, 3) * km,
                omega_a=1.0, omega_0=1.0)
            eigs = np.linalg.eigvals(drift_matrix(dp))
            assert eigs.real.max() < 0.0

    def test_resonant_stability_survives_huge_coupling(self):
        # at the backaction-evading point stability is coupling-independent
        dp = derived_parameters(baseline_parameters(r_m=3.0))
        assert dp.g_prime > 1e3 * dp.kappa_m
        eigs = np.linalg.eigvals(drift_matrix(dp))
        assert eigs.real.max() < 0.0


class TestFrequencyResponse:
    def test_decoupled_cavity_reflection(self):
        dp = derived_parameters(
            replace(baseline_parameters(r_m=0.0), mod_amplitude=0.0))
        omegas = np.linspace(0.0, 10 * dp.kappa_m, 17)
        k4 = response_grid(dp, omegas)[3]
        for omega, k in zip(omegas, k4):
            expected = (dp.kappa_a + 2j * omega) / (dp.kappa_a - 2j * omega)
            assert abs(abs(k) - 1.0) < 1e-12
            assert k == pytest.approx(expected, rel=1e-12)

    def test_passivity_holds_for_any_coupling_on_resonance(self, baseline_dp):
        k4 = response_grid(baseline_dp, np.linspace(0.0, 5 * baseline_dp.kappa_m, 11))[3]
        assert np.all(np.abs(np.abs(k4) - 1.0) < 1e-12)

    def test_k2_vanishes_exactly_for_zero_magnon_detuning(self):
        dp = detuned_dp(d0_frac=0.0, da_frac=0.4)
        k2 = response_grid(dp, [0.0, 0.3 * dp.kappa_m, 2.0 * dp.kappa_m])[1]
        assert np.all(k2 == 0.0)

    def test_k3_vanishes_at_backaction_evading_point(self, baseline_dp):
        assert response_grid(baseline_dp, [0.7 * baseline_dp.kappa_m])[2][0] == 0.0

    def test_dc_transduction_magnitude(self, baseline_dp):
        # symbolic zero-frequency limit: |k1(0)|^2 = 64 g'^2 / (kappa_a kappa_m)
        k1 = response_grid(baseline_dp, [0.0])[0][0]
        expected = 64 * baseline_dp.g_prime**2 / (
            baseline_dp.kappa_a * baseline_dp.kappa_m)
        assert abs(k1)**2 == pytest.approx(expected, rel=1e-12)
        assert abs(k1)**2 == pytest.approx(3.2461473815252792e7, rel=1e-10)

    def test_negative_and_zero_frequency_are_regular(self, baseline_dp):
        k1 = response_grid(baseline_dp, [-3.0 * baseline_dp.kappa_m])[0][0]
        assert np.isfinite(abs(k1))

    def test_evenness_both_routes(self):
        dp = detuned_dp()
        omega = 0.7 * dp.kappa_m
        for grid_fn in (response_grid, closed_form_grid):
            pos = grid_fn(dp, [omega])
            neg = grid_fn(dp, [-omega])
            for kp, kn in zip(pos, neg):
                assert abs(kp[0]) == pytest.approx(abs(kn[0]), rel=1e-12)

    def test_continuity_on_fine_grid(self):
        dp = detuned_dp(g_frac=0.8)
        omegas = np.arange(0.0, 2.0 * dp.kappa_m, dp.kappa_m / 1e4)
        ks = response_grid(dp, omegas)
        for k in ks:
            mags = np.abs(k)
            rel = np.abs(np.diff(mags)) / np.maximum(mags[1:], mags[:-1])
            assert rel.max() < 1e-2

    # the elimination against an independent general solve of the full
    # system, (-i omega I - A) chi = B, with A from drift_matrix
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.floats(math.log(0.2), math.log(5.0)),
           st.floats(math.log(0.1), math.log(1000.0)),
           DETUNINGS, DETUNINGS,
           st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
    def test_elimination_matches_general_solve(self, log_ka, log_g, da, d0, omegas):
        km = 2 * math.pi * 1.5e6
        dp = DerivedParameters(
            r_m=0.0, xi=1.0, omega_0_prime=1.0, g_prime=math.exp(log_g) * km,
            lambda_prime=1.0, kappa_a=math.exp(log_ka) * km, kappa_m=km,
            delta_a=da * km, delta_0p=d0 * km, omega_a=1.0, omega_0=1.0)
        try:
            require_stable(dp)
        except ConfigurationError:
            assume(False)
        omegas = np.array(omegas) * km
        gain = np.diag(np.sqrt([km, km, dp.kappa_a, dp.kappa_a]))
        chi = np.linalg.solve(-1j * omegas[:, None, None] * np.eye(4) - drift_matrix(dp),
                              np.broadcast_to(gain, (omegas.size, 4, 4)))
        row = np.sqrt(dp.kappa_a) * chi[:, 3, :]
        expected = row - [0.0, 0.0, 0.0, 1.0]
        # relative per coefficient, so a zero of the general solve must be an
        # exact zero of the elimination.  k4 is measured against the row entry
        # it is formed from: near a zero of k4, subtracting the reflection -1
        # cancels in both routes (about 1e-12 against a 50-digit solve)
        for j, k in enumerate(response_grid(dp, omegas)):
            error = np.abs(k - expected[:, j])
            assert np.all(error <= 1e-12 * np.abs(row[:, j])), (f"k{j + 1}", error)

    def test_singular_only_without_dissipation(self):
        dp = DerivedParameters(
            r_m=0.0, xi=1.0, omega_0_prime=1.0, g_prime=0.0,
            lambda_prime=1.0, kappa_a=0.0, kappa_m=0.0, delta_a=0.0,
            delta_0p=0.0, omega_a=1.0, omega_0=1.0)
        with pytest.raises(SingularResponseError):
            response_grid(dp, [0.0])

    def test_rejects_nonfinite_frequency(self, baseline_dp):
        for route in (response_grid, closed_form_grid):
            for grid in ([math.nan], [0.0, math.inf], []):
                with pytest.raises(ParameterError):
                    route(baseline_dp, grid)


class TestClosedForm:
    def test_k2_carries_explicit_detuning_factor(self):
        dp = detuned_dp(d0_frac=0.0, da_frac=0.4)
        assert closed_form_grid(dp, [0.9 * dp.kappa_m])[1][0] == 0.0

    def test_high_frequency_limit_of_k4(self, baseline_dp):
        k4 = closed_form_grid(baseline_dp, [1e6 * baseline_dp.kappa_m])[3][0]
        assert k4 == pytest.approx(-1.0, abs=1e-5)

    def test_k1_magnitude_agreement_on_resonance(self, baseline_dp):
        omegas = np.linspace(0.0, 10 * baseline_dp.kappa_m, 501)
        direct = np.abs(response_grid(baseline_dp, omegas)[0])
        closed = np.abs(closed_form_grid(baseline_dp, omegas)[0])
        assert np.max(np.abs(direct - closed) / direct) < 1e-9

    def test_documented_dc_discrepancy_of_k4(self):
        # decoupled resonant limit: direct solve reflects unit noise, the
        # printed expression gives 3; both are pinned so the difference is
        # never silently absorbed
        dp = derived_parameters(
            replace(baseline_parameters(r_m=0.0), mod_amplitude=0.0))
        assert abs(response_grid(dp, [0.0])[3][0]) == pytest.approx(1.0, abs=1e-12)
        assert abs(closed_form_grid(dp, [0.0])[3][0]) == pytest.approx(3.0, abs=1e-12)

    def test_pole_error_reports_frequency(self):
        params = replace(baseline_parameters(r_m=0.0), mod_amplitude=0.0)
        params = replace(params, delta_a=params.kappa_a / 2,
                         delta_0p=0.3 * params.kappa_m)
        dp = derived_parameters(params)
        with pytest.raises(PoleError) as err:
            closed_form_grid(dp, [0.0])
        assert err.value.omega == 0.0


class TestBackactionEvasion:
    @pytest.mark.parametrize("grid_fn", [response_grid, closed_form_grid])
    def test_k2_k3_identically_zero_on_grid(self, baseline_dp, grid_fn):
        omegas = np.linspace(0.0, 10 * baseline_dp.kappa_m, 1001)
        k1, k2, k3, _ = grid_fn(baseline_dp, omegas)
        assert np.all(np.abs(k2) <= 1e-12 * np.abs(k1))
        assert np.all(np.abs(k3) <= 1e-12 * np.abs(k1))
