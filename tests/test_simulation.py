import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import signal

from magnon_sense import (
    ConfigurationError,
    ParameterError,
    SimulationConfig,
    SqueezedReservoir,
    SystemParameters,
    ToneSignal,
    derived_parameters,
    estimate_psd,
    export_trace,
    lyapunov_covariance,
    measure_gain,
    output_spectrum,
    response_grid,
    simulate,
)
from magnon_sense import simulation, verification
from magnon_sense.simulation import (
    SimulationTrace,
    count_segments,
    fastest_rate,
    noverlap,
    trace_covariances,
)
from magnon_sense.spectra import input_densities
from magnon_sense.transfer import drift_system
from magnon_sense.verification import verification_parameters

TWO_PI = 2.0 * math.pi


def desk_dp(r_m=0.0, **overrides):
    params = verification_parameters(r_m=r_m)
    if overrides:
        params = replace(params, **overrides)
    return derived_parameters(params)


def quick_config(dp, duration, n_trajectories=8, seed=11, accuracy=0.01):
    dt = accuracy / fastest_rate(dp)
    return SimulationConfig(dt=dt, duration=duration,
                            burn_in=12.0 / min(dp.kappa_a, dp.kappa_m),
                            n_trajectories=n_trajectories, seed=seed)


def synthetic_trace(record, dt):
    record = np.atleast_2d(record)
    n = record.shape[1]
    return SimulationTrace(
        times=np.arange(n) * dt,
        quadratures=np.zeros((record.shape[0], n, 4)),
        output_record=record,
        metadata={"dt": dt},
    )


class TestConfigGuards:
    def test_step_must_resolve_fastest_rate(self):
        dp = desk_dp(r_m=1.5)
        cfg = SimulationConfig(dt=1.0 / dp.g_prime, duration=1.0,
                               burn_in=1.0, n_trajectories=1, seed=0)
        with pytest.raises(ConfigurationError, match="resolve"):
            simulate(dp, 0.05, cfg)

    def test_burn_in_must_reach_steady_state(self):
        dp = desk_dp()
        cfg = SimulationConfig(dt=1e-4, duration=1.0, burn_in=1e-3,
                               n_trajectories=1, seed=0)
        with pytest.raises(ConfigurationError, match="burn_in"):
            simulate(dp, 0.05, cfg)

    def test_unstable_drift_is_refused_before_stepping(self):
        params = SystemParameters(
            omega_a=1.0, omega_0=1.0, g_0=8.13, mod_amplitude=1.0,
            kappa_a=1.385, kappa_m=3.2, lambda_coupling=1.0,
            temperature=0.0, delta_a=-9.18, delta_0p=-9.67, r_m=0.0)
        dp = derived_parameters(params)
        cfg = SimulationConfig(dt=1e-3, duration=1.0, burn_in=8.0,
                               n_trajectories=1, seed=0)
        with pytest.raises(ConfigurationError, match="unstable"):
            simulate(dp, 0.0, cfg)

    def test_config_field_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(dt=-1.0, duration=1.0, burn_in=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(dt=1e-4, duration=1.0, burn_in=0.0,
                             n_trajectories=0)
        for duration, burn_in in ((math.nan, 0.0), (1.0, math.nan)):
            with pytest.raises(ConfigurationError):
                SimulationConfig(dt=1e-4, duration=duration, burn_in=burn_in)
        with pytest.raises(ConfigurationError, match="seed"):
            SimulationConfig(dt=1e-4, duration=1.0, burn_in=0.0, seed=-1)

    def test_tone_amplitude_must_be_finite(self):
        for amplitude in (math.nan, math.inf, -1.0):
            with pytest.raises(ParameterError, match="amplitude"):
                ToneSignal(amplitude=amplitude, frequency=1.0)

    def test_full_rate_requires_carrier(self):
        with pytest.raises(ParameterError, match="carrier"):
            ToneSignal(amplitude=1.0, frequency=1.0, mode="full-rate")
        with pytest.raises(ParameterError, match="mode"):
            ToneSignal(amplitude=1.0, frequency=1.0, mode="baseband")


class TestTraceStructure:
    def test_shapes_and_metadata(self):
        dp = desk_dp()
        cfg = quick_config(dp, duration=1.0, n_trajectories=3)
        trace = simulate(dp, 0.05, cfg)
        assert trace.quadratures.shape == (3, trace.n_samples, 4)
        assert trace.output_record.shape == (3, trace.n_samples)
        assert len(trace.times) == trace.n_samples
        assert trace.metadata["seed"] == cfg.seed
        assert "Philox" in trace.metadata["rng"]
        # recorded samples start after the burn-in
        assert trace.times[0] >= cfg.burn_in - cfg.dt

    def test_deterministic_and_stream_stable(self):
        dp = desk_dp(r_m=0.7)
        cfg = quick_config(dp, duration=0.5, n_trajectories=4, seed=5)
        a = simulate(dp, 0.05, cfg)
        b = simulate(dp, 0.05, cfg)
        assert np.array_equal(a.output_record, b.output_record)
        assert np.array_equal(a.quadratures, b.quadratures)
        # trajectory streams depend only on (seed, index): a smaller run
        # reproduces the leading trajectories bit for bit
        cfg2 = replace(cfg, n_trajectories=2)
        c = simulate(dp, 0.05, cfg2)
        assert np.array_equal(a.output_record[:2], c.output_record)

    def test_zero_amplitude_tone_is_a_no_op(self):
        dp = desk_dp()
        cfg = quick_config(dp, duration=0.5, n_trajectories=2)
        silent = ToneSignal(amplitude=0.0, frequency=dp.kappa_m)
        assert np.array_equal(
            simulate(dp, 0.05, cfg).output_record,
            simulate(dp, 0.05, cfg, signal=silent).output_record)

    def test_export_round_trip(self, tmp_path):
        dp = desk_dp()
        cfg = quick_config(dp, duration=0.02, n_trajectories=2)
        trace = simulate(dp, 0.05, cfg)
        path = tmp_path / "trace.csv"
        export_trace(trace, path, trajectory=1)
        lines = path.read_text().splitlines()
        header_at = next(i for i, l in enumerate(lines) if l.startswith("t,"))
        assert lines[header_at] == "t,X_M,P_M,X_a,P_a,P_out"
        assert any(l.startswith("# seed") for l in lines[:header_at])
        assert len(lines) - header_at - 1 == trace.n_samples
        first = np.array([float(v) for v in lines[header_at + 1].split(",")])
        np.testing.assert_allclose(first[1:5], trace.quadratures[1, 0], rtol=1e-11)
        np.testing.assert_allclose(first[5], trace.output_record[1, 0], rtol=1e-11)
        with pytest.raises(ParameterError):
            export_trace(trace, path, trajectory=7)


class TestSteadyStateVariances:
    def test_decoupled_cavity_reaches_thermal_variance(self):
        dp = desk_dp(mod_amplitude=0.0)
        temperature = 2.6  # nbar_a close to 1 at 37.5 GHz
        cfg = quick_config(dp, duration=15.0, n_trajectories=8, seed=3)
        trace = simulate(dp, temperature, cfg)
        covs = trace_covariances(trace)
        target = lyapunov_covariance(dp, temperature)
        sample = covs[:, 2, 2]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - target[2, 2]) < 3.0 * se
        # Lyapunov balance for the decoupled mode: variance = nbar + 1/2
        from magnon_sense import thermal_occupation
        assert target[2, 2] == pytest.approx(
            thermal_occupation(dp.omega_a, temperature) + 0.5, rel=1e-12)

    def test_squeezed_magnon_amplitude_variance(self):
        dp = desk_dp(r_m=1.5)
        cfg = quick_config(dp, duration=15.0, n_trajectories=8, seed=4)
        trace = simulate(dp, 0.05, cfg)
        covs = trace_covariances(trace)
        sample = covs[:, 0, 0]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        expected = math.exp(-3.0) / 2.0
        assert abs(sample.mean() - expected) < 3.0 * se
        assert se / expected < 0.05

    def test_coupled_detuned_covariances_match_lyapunov(self):
        params = replace(verification_parameters(r_m=0.4),
                         g_0=0.4 * TWO_PI * 15.0,
                         delta_a=0.5 * TWO_PI * 15.0,
                         delta_0p=-0.3 * TWO_PI * 15.0)
        dp = derived_parameters(params)
        cfg = quick_config(dp, duration=15.0, n_trajectories=12, seed=6)
        trace = simulate(dp, 1.0, cfg)
        covs = trace_covariances(trace)
        target = lyapunov_covariance(dp, 1.0)
        mean = covs.mean(axis=0)
        se = covs.std(axis=0, ddof=1) / math.sqrt(covs.shape[0])
        iu = np.triu_indices(4)
        sigmas = np.abs(mean - target)[iu] / np.maximum(se[iu], 1e-300)
        assert sigmas.max() < 3.0

    def test_reservoir_statistics_enter_the_increments(self):
        dp = desk_dp(r_m=1.2)
        reservoir = SqueezedReservoir(r_n=1.2, phi_n=math.pi)
        cfg = quick_config(dp, duration=15.0, n_trajectories=8, seed=8)
        trace = simulate(dp, 0.05, cfg, reservoir=reservoir)
        covs = trace_covariances(trace)
        sample = covs[:, 0, 0]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        # nulling reservoir: magnon amplitude variance is the vacuum half
        assert abs(sample.mean() - 0.5) < 3.0 * se


class TestPsdEstimator:
    def test_white_record_estimates_its_density(self):
        rng = np.random.default_rng(42)
        dt = 1e-4
        sigma = 1.7
        record = sigma * rng.standard_normal((2, 2**17))
        trace = synthetic_trace(record, dt)
        nper = 1024
        omega, psd = estimate_psd(trace, nper)
        density = sigma**2 * dt
        n_seg = 2 * count_segments(2**17, nper)
        tol = 3.0 / math.sqrt(n_seg)
        for band in np.array_split(np.arange(1, len(omega)), 4):
            assert abs(psd[band].mean() / density - 1.0) < tol

    def test_parseval(self):
        rng = np.random.default_rng(1)
        dt = 2e-3
        record = rng.standard_normal((1, 2**16))
        trace = synthetic_trace(record, dt)
        omega, psd = estimate_psd(trace, 4096)
        total = np.trapezoid(psd, omega) / math.pi
        assert total == pytest.approx(record.var(), rel=0.02)

    def test_sinusoid_concentrates_in_one_bin(self):
        dt = 1e-3
        t = np.arange(2**15) * dt
        omega_s = 2 * math.pi * 40.0
        record = np.sin(omega_s * t) + 1e-3 * np.random.default_rng(0).standard_normal(t.size)
        trace = synthetic_trace(record, dt)
        omega, psd = estimate_psd(trace, 4096)
        assert abs(omega[np.argmax(psd)] - omega_s) <= omega[1] - omega[0]

    def test_estimator_input_validation(self):
        trace = synthetic_trace(np.ones((1, 64)), 1e-3)
        with pytest.raises(ParameterError):
            estimate_psd(trace, 128)
        empty = SimulationTrace(times=np.array([]),
                                quadratures=np.zeros((1, 0, 4)),
                                output_record=np.zeros((1, 0)),
                                metadata={})
        with pytest.raises(ParameterError):
            estimate_psd(empty, 16)

    @pytest.mark.parametrize("n_samples", [225769, 735908])
    @pytest.mark.parametrize("segment_length", [1024, 9215, 30037])
    def test_segment_count_is_the_one_welch_averages(self, n_samples, segment_length):
        # odd lengths round the overlap up, so the hop is the smaller half
        _, times, _ = signal.spectrogram(np.zeros(n_samples), nperseg=segment_length,
                                         noverlap=noverlap(segment_length))
        assert count_segments(n_samples, segment_length) == len(times)

    def test_output_spectrum_quick_oracle(self):
        # cheap end-to-end agreement scan; the acceptance suite runs the
        # full-resolution version with hundreds of segments
        dp = desk_dp(r_m=0.0)
        cfg = quick_config(dp, duration=12.0, n_trajectories=8, seed=21,
                           accuracy=0.015)
        trace = simulate(dp, 0.05, cfg)
        nper = int(round(TWO_PI / (0.1 * dp.kappa_m) / cfg.dt))
        omega, psd = estimate_psd(trace, nper)
        reference = output_spectrum(dp, 0.05, omega)
        for center in np.geomspace(0.2, 4.0, 6) * dp.kappa_m:
            sel = (omega > center / 1.4) & (omega < center * 1.4)
            est = psd[sel].mean()
            ana = reference[sel].mean()
            assert abs(est / ana - 1.0) < 0.25


class TestGainMeasurement:
    def analytic_gain(self, dp, delta):
        k1 = response_grid(dp, [delta])[0]
        return dp.xi * float(np.abs(k1[0]) ** 2)

    def gain_run(self, dp, delta, seed, amplitude_boost=1.0):
        # the run verify's gain checks make
        cfg, nper = verification._welch_run(dp, seed, delta / 8.0, segments=8,
                                            trajectories=8)
        s_floor = float(output_spectrum(dp, 0.05, [delta])[0])
        bin_power = s_floor * (TWO_PI / (nper * cfg.dt)) / math.pi
        amp = amplitude_boost * math.sqrt(
            200.0 * bin_power * 4.0 * dp.kappa_m
            / (dp.lambda_bare**2 * self.analytic_gain(dp, delta)))
        tone = ToneSignal(amplitude=amp, frequency=delta)
        return measure_gain(dp, 0.05, tone, cfg, segment_length=nper)

    def test_matches_analytic_response(self):
        dp = desk_dp(r_m=1.0)
        delta = 0.5 * dp.kappa_m
        gain = self.gain_run(dp, delta, seed=17)
        assert gain == pytest.approx(self.analytic_gain(dp, delta), rel=0.15)

    def test_gain_ratio_tracks_squeezing(self):
        delta_frac = 0.5
        dp1 = desk_dp(r_m=1.0)
        dp0 = desk_dp(r_m=0.0)
        g1 = self.gain_run(dp1, delta_frac * dp1.kappa_m, seed=18)
        g0 = self.gain_run(dp0, delta_frac * dp0.kappa_m, seed=18)
        assert g0 == pytest.approx(
            self.analytic_gain(dp0, delta_frac * dp0.kappa_m), rel=0.15)
        expected = (self.analytic_gain(dp1, delta_frac * dp1.kappa_m)
                    / self.analytic_gain(dp0, delta_frac * dp0.kappa_m))
        assert g1 / g0 == pytest.approx(expected, rel=0.15)

    def test_requires_positive_amplitude(self):
        dp = desk_dp(r_m=1.0)
        cfg = quick_config(dp, duration=1.0)
        with pytest.raises(ParameterError, match="amplitude"):
            measure_gain(dp, 0.05, ToneSignal(amplitude=0.0, frequency=1.0), cfg, 64)

    def test_requires_evading_point(self):
        dp = desk_dp(r_m=1.0, delta_a=5.0)
        cfg = quick_config(dp, duration=1.0)
        with pytest.raises(Exception, match="delta_a"):
            measure_gain(dp, 0.05, ToneSignal(amplitude=1.0, frequency=1.0), cfg, 64)


class TestRotatingWaveCrossCheck:
    def test_envelope_and_full_rate_gains_agree(self):
        # carrier at 100x the fastest intrinsic scale; identical noise
        # streams make the comparison nearly deterministic
        dp = desk_dp(r_m=0.0)
        delta = 1.0 * dp.kappa_m
        carrier = 100.0 * max(dp.kappa_a, dp.g_prime, delta)
        full_rate = ToneSignal(amplitude=0.0, frequency=delta, mode="full-rate",
                               carrier=carrier)
        dt = 0.05 / fastest_rate(dp, full_rate)
        nper = int(round(TWO_PI / (delta / 8.0) / dt))
        steps = int(nper * (1 + 3 * 0.5)) + 2
        cfg = SimulationConfig(dt=dt, duration=steps * dt,
                               burn_in=13.0 / min(dp.kappa_a, dp.kappa_m),
                               n_trajectories=4, seed=23)
        s_floor = float(output_spectrum(dp, 0.05, [delta])[0])
        bin_power = s_floor * (TWO_PI / (nper * dt)) / math.pi
        k1 = response_grid(dp, [delta])[0]
        analytic = dp.xi * float(np.abs(k1[0]) ** 2)
        amp = math.sqrt(1000.0 * bin_power * 4.0 * dp.kappa_m
                        / (dp.lambda_bare**2 * analytic))
        gain_env = measure_gain(
            dp, 0.05, ToneSignal(amplitude=amp, frequency=delta), cfg,
            segment_length=nper)
        gain_full = measure_gain(dp, 0.05, replace(full_rate, amplitude=amp), cfg,
                                 segment_length=nper)
        assert gain_full == pytest.approx(gain_env, rel=0.05)


def loop_states(step, incr, x0):
    """States x_0..x_{n-1} of x_{m+1} = step x_m + incr_m, step by step."""
    x = x0.copy()
    states = np.empty_like(incr)
    for m in range(incr.shape[-1]):
        states[:, :, m] = x
        x = step @ x + incr[:, :, m]
    return states


def loop_simulate(dp, temperature, cfg, reservoir=None, signal=None):
    """(quadratures, output_record) of ``simulate`` from a per-step loop over
    the same Philox draws and the same increments."""
    cavity, magnon = input_densities(dp, temperature, reservoir)
    dt = cfg.dt
    n_burn = int(round(cfg.burn_in / dt))
    n_keep = int(round(cfg.duration / dt))
    step_t = (np.eye(4) + drift_system(dp).drift * dt).T
    chol = np.linalg.cholesky(np.array([[magnon.v_x, magnon.c_xp],
                                        [magnon.c_xp, magnon.v_p]]))
    cav_scale = math.sqrt(cavity * dt)
    sq_ka = math.sqrt(dp.kappa_a)
    z = np.stack([simulation._trajectory_rng(cfg.seed, i).standard_normal(
        (n_burn + n_keep, 4)) for i in range(cfg.n_trajectories)])
    dw_pa = z[:, :, 3] * cav_scale
    incr = np.empty_like(z)
    incr[:, :, :2] = (z[:, :, :2] @ (chol * math.sqrt(dt)).T) * math.sqrt(dp.kappa_m)
    incr[:, :, 2] = z[:, :, 2] * (cav_scale * sq_ka)
    incr[:, :, 3] = dw_pa * sq_ka
    if signal is not None:
        dx, dpp = simulation._drive_arrays(signal, dp, np.arange(z.shape[1]) * dt)
        incr[:, :, 0] += dx * dt
        incr[:, :, 1] += dpp * dt
    state = np.zeros((cfg.n_trajectories, 4))
    quad = np.empty((cfg.n_trajectories, n_keep, 4))
    out = np.empty((cfg.n_trajectories, n_keep))
    for j in range(z.shape[1]):
        if j >= n_burn:
            quad[:, j - n_burn] = state
            out[:, j - n_burn] = sq_ka * state[:, 3] - dw_pa[:, j] / dt
        state = state @ step_t + incr[:, j]
    return quad, out


def max_relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def coupled_detuned_dp():
    km = TWO_PI * 15.0
    return derived_parameters(replace(verification_parameters(r_m=0.0), g_0=0.4 * km,
                                      delta_a=0.5 * km, delta_0p=-0.3 * km))


class TestSchurScan:
    def step_and_inputs(self, dp, n=3000, ntraj=3):
        dt = 0.015 / fastest_rate(dp)
        step = np.eye(4) + drift_system(dp).drift * dt
        rng = np.random.default_rng(3)
        return step, rng.standard_normal((4, ntraj, n)), rng.standard_normal((4, ntraj))

    def run(self, step, incr, x0):
        out = np.empty_like(incr)
        return simulation._SchurScan(step, x0)(list(incr), out)

    def test_defective_map_at_zero_detuning(self):
        # with kappa_a = kappa_m the one eigenvalue 1 - kappa dt / 2 (the
        # map is triangular up to reordering) has only two eigenvectors
        step, incr, x0 = self.step_and_inputs(desk_dp(r_m=1.5, kappa_a=TWO_PI * 15.0))
        eig = np.diag(step)
        assert np.all(eig == eig[0])
        assert np.linalg.matrix_rank(step - eig[0] * np.eye(4)) == 2
        assert max_relative(self.run(step, incr, x0), loop_states(step, incr, x0)) < 1e-12

    def test_complex_pair_blocks_when_detuned(self):
        step, incr, x0 = self.step_and_inputs(coupled_detuned_dp())
        t, _ = simulation.linalg.schur(step, output="real")
        assert t[1, 0] != 0.0 and t[3, 2] != 0.0   # two 2x2 blocks
        assert max_relative(self.run(step, incr, x0), loop_states(step, incr, x0)) < 1e-12

    @pytest.mark.parametrize("detuned", [False, True])
    def test_chunks_are_bit_identical_to_one_pass(self, detuned):
        dp = coupled_detuned_dp() if detuned else desk_dp(r_m=1.5)
        step, incr, x0 = self.step_and_inputs(dp)
        whole = self.run(step, incr, x0)
        scan = simulation._SchurScan(step, x0)
        bounds = [0, 1, 2, 700, 701, 2999, 3000]
        pieces = [scan(list(incr[:, :, a:b]), np.empty_like(incr[:, :, a:b]))
                  for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(pieces, axis=-1), whole)


class TestSimulateAgainstLoop:
    def check(self, dp, temperature, cfg, **kwargs):
        trace = simulate(dp, temperature, cfg, **kwargs)
        quad, out = loop_simulate(dp, temperature, cfg, **kwargs)
        assert max_relative(trace.quadratures, quad) < 1e-12
        assert max_relative(trace.output_record, out) < 1e-12

    def test_squeezed_zero_detuning(self):
        dp = desk_dp(r_m=1.5)
        self.check(dp, 0.05, quick_config(dp, duration=0.5, n_trajectories=3))

    def test_detuned(self):
        dp = coupled_detuned_dp()
        self.check(dp, 2.6, quick_config(dp, duration=0.5, n_trajectories=3))

    def test_reservoir(self):
        dp = desk_dp(r_m=1.2)
        self.check(dp, 0.05, quick_config(dp, duration=0.5, n_trajectories=3),
                   reservoir=SqueezedReservoir(r_n=1.2, phi_n=math.pi))

    def test_envelope_tone(self):
        dp = desk_dp(r_m=1.0)
        tone = ToneSignal(amplitude=1e-3, frequency=0.5 * dp.kappa_m)
        self.check(dp, 0.05, quick_config(dp, duration=0.5, n_trajectories=3),
                   signal=tone)

    def test_full_rate_tone(self):
        dp = desk_dp(r_m=1.0)
        carrier = 20.0 * dp.kappa_a
        tone = ToneSignal(amplitude=1e-3, frequency=0.5 * dp.kappa_m,
                          mode="full-rate", carrier=carrier)
        cfg = SimulationConfig(dt=0.05 / (2.0 * carrier + tone.frequency),
                               duration=0.05, burn_in=12.0 / dp.kappa_m,
                               n_trajectories=2, seed=9)
        self.check(dp, 0.05, cfg, signal=tone)

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        dp = desk_dp(r_m=0.7)
        cfg = quick_config(dp, duration=0.5, n_trajectories=3, seed=5)
        tone = ToneSignal(amplitude=1e-3, frequency=0.5 * dp.kappa_m)
        a = simulate(dp, 0.05, cfg, signal=tone)
        monkeypatch.setattr(simulation, "_CHUNK", 3 * 997)
        b = simulate(dp, 0.05, cfg, signal=tone)
        assert np.array_equal(a.quadratures, b.quadratures)
        assert np.array_equal(a.output_record, b.output_record)


def test_trace_covariances_match_np_cov():
    dp = coupled_detuned_dp()
    trace = simulate(dp, 2.6, quick_config(dp, duration=2.0, n_trajectories=5))
    expected = np.stack([np.cov(q.T) for q in trace.quadratures])
    np.testing.assert_allclose(trace_covariances(trace), expected, rtol=1e-12, atol=0)


def test_export_matches_row_by_row_writer(tmp_path):
    dp = desk_dp()
    trace = simulate(dp, 0.05, quick_config(dp, duration=0.02, n_trajectories=2))
    reference = tmp_path / "rows.csv"
    with open(reference, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(trace.metadata):
            fh.write(f"# {key} = {trace.metadata[key]!r}\n")
        fh.write("# trajectory = 1\n")
        fh.write("t,X_M,P_M,X_a,P_a,P_out\n")
        quads, rec = trace.quadratures[1], trace.output_record[1]
        for k in range(trace.n_samples):
            fh.write("%.12e,%.12e,%.12e,%.12e,%.12e,%.12e\n" % (
                trace.times[k], *quads[k], rec[k]))
    path = tmp_path / "trace.csv"
    export_trace(trace, path, trajectory=1)
    assert path.read_bytes() == reference.read_bytes()
