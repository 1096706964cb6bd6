import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from magnon_sense import (
    HBAR,
    K_B,
    DriveSettings,
    ParameterError,
    RotatingWaveWarning,
    SystemParameters,
    baseline_parameters,
    derive_squeeze_amplitude,
    derived_parameters,
    input_densities,
    input_quadrature_variances,
    load_parameters,
    parse_parameters,
    thermal_occupation,
)

TWO_PI = 2.0 * math.pi
W_375 = TWO_PI * 37.5e9


class TestThermalOccupation:
    def test_millikelvin_value(self):
        # frozen from direct evaluation of the Bose factor with CODATA constants
        assert thermal_occupation(W_375, 0.05) == pytest.approx(
            2.3327281435890426e-16, rel=1e-9)

    def test_zero_temperature_is_exactly_zero(self):
        assert thermal_occupation(W_375, 0.0) == 0.0
        assert thermal_occupation(1.0, 0.0) == 0.0

    @pytest.mark.parametrize("temperature", [1e-320, 5e-324])
    def test_an_underflowing_temperature_is_zero_temperature(self, temperature):
        # k_B T underflows to 0.0 below about 1.8e-301 K
        assert thermal_occupation(W_375, temperature) == 0.0

    def test_room_temperature_value_and_high_t_expansion(self):
        n = thermal_occupation(W_375, 280.0)
        assert n == pytest.approx(155.0806251789443, rel=1e-9)
        classical = K_B * 280.0 / (HBAR * W_375)
        assert classical == pytest.approx(155.58, rel=1e-3)
        assert n == pytest.approx(classical - 0.5, rel=1e-5)

    def test_series_guard_is_continuous(self):
        # occupation evaluated just above and below the series switchover
        omega = 1.0
        t_at = HBAR * omega / (K_B * 1e-6)  # x exactly 1e-6
        lo = thermal_occupation(omega, t_at * (1 - 1e-9))
        hi = thermal_occupation(omega, t_at * (1 + 1e-9))
        assert lo == pytest.approx(hi, rel=1e-7)

    def test_monotonic_in_temperature(self):
        temps = [0.01, 0.05, 0.3, 1.0, 10.0, 280.0]
        values = [thermal_occupation(W_375, t) for t in temps]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_monotonic_in_frequency(self):
        omegas = np.geomspace(1e9, 1e13, 12)
        values = [thermal_occupation(w, 1.0) for w in omegas]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ParameterError):
            thermal_occupation(0.0, 1.0)
        with pytest.raises(ParameterError):
            thermal_occupation(-1.0, 1.0)

    @pytest.mark.parametrize("omega, temperature", [(TWO_PI * 1e-300, 0.05),
                                                    (1e-288, 1e10)])
    def test_rejects_a_non_finite_occupation(self, omega, temperature):
        # hbar * omega underflows to 0, or k_B T / (hbar omega) overflows
        with pytest.raises(ParameterError, match="not finite"):
            thermal_occupation(omega, temperature)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ParameterError):
            thermal_occupation(1.0, -0.1)

    def test_deep_quantum_limit_underflows_to_zero(self):
        assert thermal_occupation(W_375, 1e-4) == 0.0


class TestSqueezeAmplitude:
    def test_isotropic_gives_zero(self):
        assert derive_squeeze_amplitude(1.0, 0.0) == 0.0

    def test_quarter_log_three(self):
        assert derive_squeeze_amplitude(1.0, 0.5) == pytest.approx(
            math.log(3.0) / 4.0, rel=1e-14)

    def test_tanh_three_inverts_to_three_halves(self):
        w0 = W_375
        assert derive_squeeze_amplitude(w0, w0 * math.tanh(3.0)) == pytest.approx(
            1.5, rel=1e-12)

    def test_rejects_out_of_domain(self):
        with pytest.raises(ParameterError):
            derive_squeeze_amplitude(1.0, 1.0)
        with pytest.raises(ParameterError):
            derive_squeeze_amplitude(1.0, -1.5)

    @given(st.floats(min_value=1e-6, max_value=3.0))
    def test_round_trip(self, r):
        omega_0 = 1.0
        omega_m = omega_0 * math.tanh(2.0 * r)
        assert abs(derive_squeeze_amplitude(omega_0, omega_m) - r) / r < 1e-12

    def test_negative_anisotropy_round_trip(self):
        r = -1.2
        back = derive_squeeze_amplitude(2.0, 2.0 * math.tanh(2.0 * r))
        assert back == pytest.approx(r, rel=1e-12)

    def test_strictly_increasing_in_omega_m(self):
        grid = np.linspace(-0.95, 0.95, 41)
        values = [derive_squeeze_amplitude(1.0, wm) for wm in grid]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestDerivedParameters:
    def test_baseline_squeezed_values(self, baseline):
        dp = derived_parameters(baseline)
        assert dp.xi == pytest.approx(math.exp(3.0), rel=1e-14)
        assert dp.g_prime / TWO_PI / 1e9 == pytest.approx(11.20422267584516, rel=1e-12)
        assert dp.omega_0_prime / TWO_PI / 1e9 == pytest.approx(
            3.7247972782287455, rel=1e-12)
        assert dp.lambda_prime == baseline.lambda_coupling * math.exp(1.5)

    def test_occupations_use_each_mode_frequency(self):
        params = replace(baseline_parameters(temperature=280.0),
                         omega_0=TWO_PI * 20e9)
        cavity, magnon = input_densities(derived_parameters(params), 280.0)
        assert cavity == thermal_occupation(params.omega_a, 280.0) + 0.5
        np.testing.assert_array_equal(magnon, input_quadrature_variances(
            params.r_m, thermal_occupation(TWO_PI * 20e9, 280.0)))

    def test_zero_squeezing_is_identity(self):
        params = baseline_parameters(r_m=0.0)
        dp = derived_parameters(params)
        assert dp.xi == 1.0
        assert dp.omega_0_prime == params.omega_0
        assert dp.g_prime == params.mod_amplitude * params.g_0
        assert dp.lambda_prime == params.lambda_coupling

    def test_amplification_inverse_is_machine_exact(self):
        for r in np.linspace(-3.0, 3.0, 25):
            dp = derived_parameters(baseline_parameters(r_m=float(r)))
            assert abs(dp.xi * math.exp(-2.0 * r) - 1.0) < 1e-15

    @pytest.mark.parametrize("r_m", [400.0, -400.0, 800.0])
    def test_overflowing_squeeze_amplitude_is_parameter_error(self, r_m):
        with pytest.raises(ParameterError, match="finite"):
            derived_parameters(baseline_parameters(r_m=r_m))
        drive = DriveSettings(omega_l=1e12, omega_b=1e12)
        with pytest.raises(ParameterError, match="finite"):
            replace(baseline_parameters(), drive=drive).with_squeeze_amplitude(r_m)

    def test_lambda_bare_round_trips(self, baseline_dp, baseline):
        assert baseline_dp.lambda_bare == pytest.approx(
            baseline.lambda_coupling, rel=1e-14)


class TestSystemParameters:
    def test_requires_exactly_one_anisotropy_input(self):
        with pytest.raises(ParameterError):
            SystemParameters(
                omega_a=1.0, omega_0=1.0, g_0=0.1, mod_amplitude=1.0,
                kappa_a=0.1, kappa_m=0.1, lambda_coupling=1.0,
                temperature=0.0, omega_m=0.1, r_m=0.5)
        with pytest.raises(ParameterError):
            SystemParameters(
                omega_a=1.0, omega_0=1.0, g_0=0.1, mod_amplitude=1.0,
                kappa_a=0.1, kappa_m=0.1, lambda_coupling=1.0, temperature=0.0)

    def test_rejects_zero_dissipation(self):
        with pytest.raises(ParameterError):
            SystemParameters(
                omega_a=1.0, omega_0=1.0, g_0=0.1, mod_amplitude=1.0,
                kappa_a=0.0, kappa_m=0.1, lambda_coupling=1.0,
                temperature=0.0, r_m=0.0)

    def test_rejects_anisotropy_out_of_domain(self):
        with pytest.raises(ParameterError):
            SystemParameters(
                omega_a=1.0, omega_0=1.0, g_0=0.1, mod_amplitude=1.0,
                kappa_a=0.1, kappa_m=0.1, lambda_coupling=1.0,
                temperature=0.0, omega_m=1.5)

    def test_anisotropy_round_trip_properties(self):
        params = baseline_parameters(r_m=0.8)
        via_omega = replace(params, r_m=None,
                            omega_m=params.omega_0 * math.tanh(1.6))
        assert via_omega.squeeze_amplitude == pytest.approx(0.8, rel=1e-12)

    def test_rotating_wave_warning(self):
        drive = DriveSettings(omega_l=1.0, omega_b=1.0)
        with pytest.warns(RotatingWaveWarning):
            SystemParameters(
                omega_a=10.0, omega_0=10.0, g_0=5.0, mod_amplitude=1.0,
                kappa_a=0.1, kappa_m=0.1, lambda_coupling=1.0,
                temperature=0.0, r_m=0.0, drive=drive)

    def test_no_warning_for_weak_coupling(self, recwarn):
        drive = DriveSettings(omega_l=TWO_PI * 30e9, omega_b=TWO_PI * 7e9)
        replace(baseline_parameters(), drive=drive)
        assert not [w for w in recwarn.list
                    if issubclass(w.category, RotatingWaveWarning)]


GOOD_CONFIG = """
# reference configuration, frequencies in Hz
omega_a_hz    = 37.5e9
omega_0_hz    = 37.5e9
r_m           = 1.5
g_0_hz        = 2.5e9
mod_amplitude = 1.0
kappa_a_hz    = 16.5e6
kappa_m_hz    = 15e6
lambda_hz_per_tesla = 58566201857385.29
temperature_k = 0.05
delta_a_hz    = 0
delta_0p_hz   = 0
"""


class TestParameterFiles:
    def test_round_trip_against_baseline(self):
        params = parse_parameters(GOOD_CONFIG)
        ref = baseline_parameters()
        assert params.kappa_m == pytest.approx(ref.kappa_m, rel=1e-14)
        assert params.kappa_a == pytest.approx(ref.kappa_a, rel=1e-14)
        assert params.g_0 == pytest.approx(ref.g_0, rel=1e-14)
        assert params.lambda_coupling == pytest.approx(ref.lambda_coupling, rel=1e-12)
        assert params.squeeze_amplitude == 1.5
        assert params.temperature == 0.05

    def test_gamma_spin_number_route(self):
        text = GOOD_CONFIG.replace(
            "lambda_hz_per_tesla = 58566201857385.29",
            "gamma_hz_per_tesla = 28e9\nspin_number = 3.5e6")
        params = parse_parameters(text)
        # lambda = gamma sqrt(5 N) / 2 = 2*pi * 14*sqrt(17.5) THz/T
        assert params.lambda_coupling == pytest.approx(
            TWO_PI * 14.0 * math.sqrt(17.5) * 1e12, rel=1e-12)

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ParameterError, match="unknown key"):
            parse_parameters(GOOD_CONFIG + "\nbogus_key = 3\n")

    def test_duplicate_key_is_error(self):
        with pytest.raises(ParameterError, match="duplicate"):
            parse_parameters(GOOD_CONFIG + "\nr_m = 0.5\n")

    def test_exactly_one_anisotropy_key(self):
        with pytest.raises(ParameterError, match="omega_m_hz' or 'r_m"):
            parse_parameters(GOOD_CONFIG + "\nomega_m_hz = 1e9\n")
        with pytest.raises(ParameterError, match="omega_m_hz' or 'r_m"):
            parse_parameters(GOOD_CONFIG.replace("r_m           = 1.5", ""))

    def test_exactly_one_coupling_route(self):
        with pytest.raises(ParameterError, match="lambda_hz_per_tesla"):
            parse_parameters(GOOD_CONFIG + "\ngamma_hz_per_tesla = 28e9\n")

    def test_missing_required_keys(self):
        with pytest.raises(ParameterError, match="missing required"):
            parse_parameters("r_m = 1.0\nlambda_hz_per_tesla = 1e12\n")

    def test_non_numeric_value(self):
        with pytest.raises(ParameterError, match="not numeric"):
            parse_parameters(GOOD_CONFIG.replace("= 0.05", "= cold"))

    def test_malformed_line(self):
        with pytest.raises(ParameterError, match="key = value"):
            parse_parameters(GOOD_CONFIG + "\njust some words\n")

    def test_drive_block(self):
        text = GOOD_CONFIG + "\nomega_l_hz = 30e9\nomega_b_hz = 7.5e9\ne_l = 1e3\n"
        params = parse_parameters(text)
        assert params.drive is not None
        assert params.drive.omega_b == pytest.approx(TWO_PI * 7.5e9)

    def test_drive_amplitudes_require_frequencies(self):
        with pytest.raises(ParameterError, match="omega_l_hz"):
            parse_parameters(GOOD_CONFIG + "\ne_b = 5.0\n")

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "params.cfg"
        path.write_text(GOOD_CONFIG)
        params = load_parameters(path)
        assert params.squeeze_amplitude == 1.5
