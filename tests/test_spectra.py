import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from magnon_sense import (
    ConfigurationError,
    ParameterError,
    PreconditionError,
    SqueezedReservoir,
    approx_suppressed_sensitivity,
    baseline_parameters,
    derived_parameters,
    drift_matrix,
    input_quadrature_variances,
    noise_budget_grid,
    output_spectrum,
    response_grid,
    thermal_occupation,
)

TWO_PI = 2.0 * math.pi


def dp_at(r_m, temperature=0.05, **overrides):
    params = baseline_parameters(r_m=r_m, temperature=temperature)
    if overrides:
        params = replace(params, **overrides)
    return derived_parameters(params)


def reservoir_input(r_n, phi_n, r_m):
    """Magnon input covariance V in a squeezed vacuum reservoir."""
    return input_quadrature_variances(r_m, 0.0, SqueezedReservoir(r_n, phi_n))


def occupation(v):
    """Occupation N_e = (tr V - 1)/2 of the transformed mode."""
    return (np.trace(v) - 1.0) / 2.0


def determinant(v):
    return v[0, 0] * v[1, 1] - v[0, 1] ** 2


def closed_form_occupation(r_n, phi_n, r_m):
    """N_e from composing the reservoir's and the magnon's Bogoliubov
    transformations, an independent reference for the trace."""
    return (math.sinh(r_n)**2 * math.cosh(r_m)**2 + math.sinh(r_m)**2 * math.cosh(r_n)**2
            + 0.5 * math.cos(phi_n) * math.sinh(2.0 * r_n) * math.sinh(2.0 * r_m))


class TestReservoirOccupations:
    @pytest.mark.parametrize("r", [0.3, 1.5, 2.2])
    def test_nulling_point(self, r):
        np.testing.assert_allclose(reservoir_input(r, math.pi, r), np.eye(2) / 2,
                                   rtol=0, atol=1e-12)

    def test_zero_phase_adds_squeeze_amplitudes(self):
        n_e = occupation(reservoir_input(1.5, 0.0, 1.5))
        assert n_e == pytest.approx(math.sinh(3.0) ** 2, rel=1e-12)
        assert n_e == pytest.approx(100.35781806122793, rel=1e-10)

    def test_bogoliubov_identity_over_random_draws(self):
        # a squeezed vacuum seen through a squeezing transformation is still
        # a pure Gaussian state, so det V = 1/4 (|M_e|^2 = N_e (N_e + 1))
        rng = np.random.default_rng(99)
        for _ in range(1000):
            r_n = rng.uniform(0.0, 3.0)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            r_m = rng.uniform(-2.0, 3.0)
            v = reservoir_input(r_n, phi, r_m)
            n_e = occupation(v)
            assert n_e >= -1e-12
            assert n_e == pytest.approx(
                closed_form_occupation(r_n, phi, r_m), rel=1e-9, abs=1e-12)
            assert determinant(v) == pytest.approx(0.25, rel=1e-9, abs=1e-12)

    def test_rejects_negative_reservoir_amplitude(self):
        with pytest.raises(ParameterError):
            SqueezedReservoir(r_n=-0.1, phi_n=0.0)
        with pytest.raises(ParameterError):
            SqueezedReservoir(r_n=math.inf, phi_n=0.0)
        # sinh(2 r_n) overflows past the bound r_m already has
        with pytest.raises(ParameterError, match="354"):
            SqueezedReservoir(r_n=400.0, phi_n=0.0)

    def test_reservoir_phase_is_normalized(self):
        assert SqueezedReservoir(1.0, -math.pi).phi_n == pytest.approx(math.pi)
        assert SqueezedReservoir(1.0, 5.0 * math.pi).phi_n == pytest.approx(math.pi)


class TestInputVariances:
    def test_no_squeezing_is_symmetric_thermal(self):
        var = input_quadrature_variances(0.0, 2.7)
        assert var[0, 0] == var[1, 1] == 3.2
        assert var[0, 1] == var[1, 0] == 0.0

    def test_squeezed_vacuum_values(self):
        var = input_quadrature_variances(1.5, 0.0)
        assert var[0, 0] == pytest.approx(0.024893534183931972, rel=1e-12)
        assert var[1, 1] == pytest.approx(10.042768461593834, rel=1e-12)
        assert var[0, 1] == 0.0

    def test_thermal_squeezed_product(self):
        var = input_quadrature_variances(1.1, 0.35)
        assert var[0, 0] * var[1, 1] == pytest.approx(0.85**2, rel=1e-12)

    def test_general_formula_reduces_to_thermal_squeezed_case(self):
        # the correlators of a thermal bath seen through the squeezing
        # transformation, pushed through N + 1/2 +- Re M, must reproduce the
        # covariance; this pins the frame (X squeezed for r_m > 0)
        for r_m, nbar in [(0.0, 0.0), (0.7, 0.2), (1.5, 3.0), (-0.9, 1.1)]:
            n_corr = math.cosh(2 * r_m) * nbar + math.sinh(r_m) ** 2
            m_corr = -math.sinh(2 * r_m) * (nbar + 0.5)
            v_x = n_corr + 0.5 + m_corr
            v_p = n_corr + 0.5 - m_corr
            ref = input_quadrature_variances(r_m, nbar)
            assert v_x == pytest.approx(ref[0, 0], rel=1e-12)
            assert v_p == pytest.approx(ref[1, 1], rel=1e-12)

    def test_nulling_reservoir_leaves_pure_vacuum(self):
        var = input_quadrature_variances(
            1.5, 7.0, SqueezedReservoir(r_n=1.5, phi_n=math.pi))
        assert var[0, 0] == pytest.approx(0.5, abs=1e-12)
        assert var[1, 1] == pytest.approx(0.5, abs=1e-12)
        assert var[0, 1] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("r_n,r_m", [(0.5, 0.5), (1.0, 0.4), (2.0, 1.5)])
    def test_opposed_phase_minimum(self, r_n, r_m):
        # at phi_n = pi the reservoir anti-squeezes X by e^{2 r_n} and the
        # magnon squeezes it by e^{-2 r_m}
        var = input_quadrature_variances(
            r_m, 0.0, SqueezedReservoir(r_n=r_n, phi_n=math.pi))
        assert var[0, 0] == pytest.approx(
            0.5 * math.exp(2.0 * (r_n - r_m)), rel=1e-10)

    @given(st.floats(-2.0, 2.5), st.floats(0.0, 2 * math.pi))
    def test_vacuum_reservoir_is_the_zero_temperature_input(self, r_m, phi):
        np.testing.assert_array_equal(reservoir_input(0.0, phi, r_m),
                                      input_quadrature_variances(r_m, 0.0))

    @given(st.floats(-2.0, 2.5), st.floats(0.0, 50.0))
    def test_uncertainty_bound_thermal(self, r_m, nbar):
        var = input_quadrature_variances(r_m, nbar)
        assert determinant(var) >= 0.25 - 1e-9
        if nbar == 0.0:
            assert determinant(var) == pytest.approx(0.25, rel=1e-9)

    @given(st.floats(0.0, 2.5), st.floats(0.0, 2 * math.pi), st.floats(-2.0, 2.5))
    def test_uncertainty_bound_reservoir_is_saturated(self, r_n, phi, r_m):
        assert determinant(reservoir_input(r_n, phi, r_m)) == pytest.approx(0.25, rel=1e-6)

    def test_rejects_negative_occupation(self):
        with pytest.raises(ParameterError):
            input_quadrature_variances(0.5, -0.1)


class TestOutputSpectrum:
    def test_resonant_reduction(self):
        # only the k4 and squeezed-k1 terms survive at the evading point
        dp = dp_at(1.5)
        omegas = np.linspace(0.0, 5 * dp.kappa_m, 101)
        s_out = output_spectrum(dp, 0.05, omegas)
        k1, _, _, k4 = response_grid(dp, omegas)
        nbar = thermal_occupation(dp.omega_a, 0.05)
        v_x = input_quadrature_variances(1.5, thermal_occupation(dp.omega_0, 0.05))[0, 0]
        manual = (nbar + 0.5) * np.abs(k4) ** 2 + np.abs(k1) ** 2 * v_x
        np.testing.assert_allclose(s_out, manual, rtol=1e-12)

    def test_high_frequency_floor_is_cavity_vacuum(self):
        dp = dp_at(1.5, temperature=280.0)
        nbar_a = thermal_occupation(dp.omega_a, 280.0)
        s_far = output_spectrum(dp, 280.0, [1e4 * dp.kappa_m])[0]
        assert s_far == pytest.approx(nbar_a + 0.5, rel=1e-3)

    def test_positive_over_random_stable_configurations(self):
        # one of the 60 draws has an unstable drift (max Re eigenvalue
        # +0.066 kappa_m); it has no stationary spectrum and must be refused
        rng = np.random.default_rng(7)
        base = baseline_parameters(r_m=0.0)
        unstable = 0
        for _ in range(60):
            params = replace(
                base,
                kappa_a=base.kappa_a * rng.uniform(0.5, 2.0),
                kappa_m=base.kappa_m * rng.uniform(0.5, 2.0),
                g_0=base.kappa_m * rng.uniform(0.0, 0.5),
                delta_a=base.kappa_m * rng.uniform(-2.0, 2.0),
                delta_0p=base.kappa_m * rng.uniform(-2.0, 2.0),
                r_m=None, omega_m=base.omega_0 * rng.uniform(-0.9, 0.9),
            )
            dp = derived_parameters(params)
            reservoir = SqueezedReservoir(
                r_n=rng.uniform(0, 2), phi_n=rng.uniform(0, 2 * math.pi))
            omegas = base.kappa_m * rng.uniform(0, 5, size=8)
            temperature = rng.uniform(0, 300)
            if np.linalg.eigvals(drift_matrix(dp)).real.max() >= 0:
                unstable += 1
                with pytest.raises(ConfigurationError, match="unstable"):
                    output_spectrum(dp, temperature, omegas, reservoir=reservoir)
                continue
            s_out = output_spectrum(dp, temperature, omegas, reservoir=reservoir)
            assert np.all(s_out >= -1e-12)
        assert unstable == 1

    def test_rejects_bad_grids(self):
        dp = dp_at(0.5)
        with pytest.raises(ParameterError):
            output_spectrum(dp, 0.05, [])
        with pytest.raises(ParameterError):
            output_spectrum(dp, 0.05, [1.0, math.inf])


class TestNoiseBudget:
    def test_thermal_noise_millikelvin_value(self):
        budget = noise_budget_grid(dp_at(1.5), 0.05, [0.0])
        assert budget.thermal_noise[0] == pytest.approx(1.23937608833318e-3, rel=1e-10)

    def test_thermal_suppression_ratio_is_machine_exact(self):
        for r_m in (0.25, 0.5, 1.0, 1.5, 2.0):
            ratio = (noise_budget_grid(dp_at(r_m), 0.05, [0.0]).thermal_noise[0]
                     / noise_budget_grid(dp_at(0.0), 0.05, [0.0]).thermal_noise[0])
            assert ratio == pytest.approx(math.exp(-4.0 * r_m), rel=1e-14)

    def test_thermal_noise_ignores_cavity_rate_and_coupling(self):
        ref = noise_budget_grid(dp_at(1.5), 0.05, [0.0]).thermal_noise[0]
        for factor in (0.5, 2.0):
            dp = dp_at(1.5, kappa_a=factor * baseline_parameters().kappa_a)
            assert noise_budget_grid(dp, 0.05, [0.0]).thermal_noise[0] == ref
        for factor in (0.5, 2.0):
            dp = dp_at(1.5, g_0=factor * baseline_parameters().g_0)
            assert noise_budget_grid(dp, 0.05, [0.0]).thermal_noise[0] == ref

    def test_dc_response_value(self):
        dp = dp_at(1.5)
        budget = noise_budget_grid(dp, 0.05, [0.0])
        expected = dp.xi * 64 * dp.g_prime**2 / (dp.kappa_a * dp.kappa_m)
        assert budget.response[0] == pytest.approx(expected, rel=1e-10)

    def test_response_increases_with_coupling_and_squeezing(self):
        responses_g = [noise_budget_grid(dp_at(1.0, g_0=f * baseline_parameters().g_0),
                                         0.05, [0.0]).response[0]
                       for f in (0.5, 0.8, 1.2, 2.0)]
        assert all(a < b for a, b in zip(responses_g, responses_g[1:]))
        responses_r = [noise_budget_grid(dp_at(r), 0.05, [0.0]).response[0]
                       for r in (0.0, 0.5, 1.0, 1.5)]
        assert all(a < b for a, b in zip(responses_r, responses_r[1:]))

    def test_additional_noise_decreases_with_coupling(self):
        values = [noise_budget_grid(dp_at(1.0, g_0=f * baseline_parameters().g_0),
                                    0.05, [0.3 * TWO_PI * 15e6]).additional_noise[0]
                  for f in (0.5, 0.8, 1.2, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_room_temperature_sensitivities(self):
        y0 = noise_budget_grid(dp_at(0.0), 280.0, [0.0]).sensitivity[0]
        y15 = noise_budget_grid(dp_at(1.5), 280.0, [0.0]).sensitivity[0]
        assert y0 == pytest.approx(4.65373365272602e-10, rel=1e-9)
        assert y15 == pytest.approx(2.3169575553409953e-11, rel=1e-9)
        assert y15 / y0 == pytest.approx(math.exp(-3.0), rel=1e-10)

    def test_sensitivity_flat_when_thermal_dominates(self):
        # at room temperature the field-referred noise is magnon-thermal
        # dominated, so the sensitivity barely moves across the band
        for r_m in (0.0, 0.75, 1.5):
            dp = dp_at(r_m, temperature=280.0)
            omegas = np.linspace(0.0, 2.0 * dp.kappa_m, 41)
            y = np.array([noise_budget_grid(dp, 280.0, [w]).sensitivity[0]
                          for w in omegas])
            assert (y.max() - y.min()) / y.min() < 0.05

    def test_len_is_the_grid_size(self):
        # the traced benchmark counts noise_budget_grid's rows as len() of
        # its result (benchmarks/run.py), so a budget keeps its __len__
        assert len(noise_budget_grid(dp_at(1.5), 0.05, np.linspace(0.0, 1e6, 7))) == 7

    def test_budget_identity_without_signal(self):
        budget = noise_budget_grid(dp_at(1.5), 0.05, [0.4 * TWO_PI * 15e6])
        assert budget.s_out[0] == pytest.approx(
            budget.response[0] * (budget.thermal_noise[0] + budget.additional_noise[0]),
            rel=1e-10)

    def test_reservoir_thermal_noise_keeps_vacuum_half_quantum(self):
        dp = dp_at(1.5, temperature=280.0)
        reservoir = SqueezedReservoir(r_n=1.5, phi_n=math.pi)
        budget = noise_budget_grid(dp, 280.0, [0.0], reservoir=reservoir)
        assert budget.thermal_noise[0] == pytest.approx(0.5 / dp.xi, rel=1e-12)

    def test_requires_backaction_evading_point(self):
        dp = dp_at(1.0, delta_a=1e3)
        with pytest.raises(PreconditionError, match="delta_a"):
            noise_budget_grid(dp, 0.05, [0.0])
        dp = dp_at(1.0, delta_0p=1e3)
        with pytest.raises(PreconditionError, match="delta_0p"):
            noise_budget_grid(dp, 0.05, [0.0])

    def test_zero_coupling_reports_infinity(self):
        dp = dp_at(1.0, mod_amplitude=0.0)
        budget = noise_budget_grid(dp, 0.05, [0.0])
        assert math.isinf(budget.additional_noise[0])
        assert math.isinf(budget.sensitivity[0])
        assert budget.response[0] == 0.0


class TestSuppressedSensitivity:
    def test_room_temperature_value(self):
        value = approx_suppressed_sensitivity(dp_at(1.5), 280.0, [0.0])[0]
        assert value == pytest.approx(1.822533624810987e-14, rel=1e-9)
        assert 1e-15 <= value <= 1e-13

    def test_independent_of_magnon_occupation(self):
        # shifting omega_0 changes nbar_m only; the approximation drops the
        # magnon channel entirely so the value must not move
        a = approx_suppressed_sensitivity(dp_at(1.5, temperature=280.0), 280.0, [0.0])[0]
        b = approx_suppressed_sensitivity(
            dp_at(1.5, temperature=280.0, omega_0=TWO_PI * 12e9), 280.0, [0.0])[0]
        assert a == b

    def test_strictly_decreasing_in_coupling(self):
        values = [approx_suppressed_sensitivity(
            dp_at(1.5, g_0=f * baseline_parameters().g_0), 280.0, [0.0])[0]
            for f in (0.5, 1.0, 2.0, 4.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_matches_reservoir_budget_when_vacuum_term_removed(self):
        dp = dp_at(1.5, temperature=280.0)
        reservoir = SqueezedReservoir(r_n=1.5, phi_n=math.pi)
        budget = noise_budget_grid(dp, 280.0, [0.0], reservoir=reservoir)
        approx = approx_suppressed_sensitivity(dp, 280.0, [0.0])[0]
        exact_from_parts = math.sqrt(
            2 * dp.kappa_m * (budget.thermal_noise[0] + budget.additional_noise[0])
        ) / dp.lambda_bare
        assert budget.sensitivity[0] == pytest.approx(exact_from_parts, rel=1e-12)
        # the exact reservoir budget keeps the vacuum half-quantum, so it is
        # strictly above the approximation at this operating point
        assert budget.sensitivity[0] > approx

    def test_grid_is_the_additional_noise_term_of_the_budget(self):
        dp = dp_at(1.5, temperature=280.0)
        omegas = np.linspace(0.0, 5.0 * dp.kappa_m, 101)
        budget = noise_budget_grid(dp, 280.0, omegas)
        values = approx_suppressed_sensitivity(dp, 280.0, omegas)
        assert values.shape == omegas.shape
        np.testing.assert_array_equal(
            values, np.sqrt(2.0 * dp.kappa_m * budget.additional_noise) / dp.lambda_bare)
