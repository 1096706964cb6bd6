import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy import linalg, signal

from magnon_sense import (
    ConfigurationError,
    ParameterError,
    SqueezedReservoir,
    SystemParameters,
    baseline_parameters,
    derived_parameters,
    output_spectrum,
    response_grid,
)
from magnon_sense import simulation, verification
from magnon_sense.simulation import (
    Chain,
    CovarianceAccumulator,
    SimulationConfig,
    WelchAccumulator,
    fastest_rate,
    fold,
    lyapunov_covariance,
    measure_gain,
    noverlap,
    simulate,
)
from magnon_sense.spectra import input_densities
from magnon_sense.transfer import drift_matrix
from magnon_sense.verification import verification_parameters

TWO_PI = 2.0 * math.pi


def desk_dp(r_m=0.0, **overrides):
    params = verification_parameters().with_squeeze_amplitude(r_m)
    if overrides:
        params = replace(params, **overrides)
    return derived_parameters(params)


def quick_config(dp, duration, n_trajectories=8, seed=11, accuracy=0.01):
    dt = accuracy / fastest_rate(dp)
    return SimulationConfig(dt=dt, duration=duration,
                            burn_in=12.0 / min(dp.kappa_a, dp.kappa_m),
                            n_trajectories=n_trajectories, seed=seed)


def count_streams(monkeypatch):
    """The (seed, index) of every trajectory stream constructed from now on."""
    calls = []
    original = simulation._trajectory_rng

    def counted(seed, index):
        calls.append((seed, index))
        return original(seed, index)
    monkeypatch.setattr(simulation, "_trajectory_rng", counted)
    return calls


def count_draws(monkeypatch):
    """Steps drawn from each trajectory stream built from now on, by (seed, index)."""
    drawn = {}
    original = simulation._trajectory_rng

    class Counted:
        def __init__(self, seed, index):
            self._rng, self._key = original(seed, index), (seed, index)
            drawn[self._key] = 0

        def standard_normal(self, *, out):
            drawn[self._key] += out.shape[0]
            return self._rng.standard_normal(out=out)
    monkeypatch.setattr(simulation, "_trajectory_rng", Counted)
    return drawn


def count_scans(monkeypatch):
    """(stepped components, rows) of every lane scan built from now on."""
    scans = []

    class Counted(simulation._LaneScan):
        def __init__(self, step, rows, written=(0, 1, 2, 3)):
            super().__init__(step, rows, written)
            scans.append((self.components, rows))
    monkeypatch.setattr(simulation, "_LaneScan", Counted)
    return scans


def mid_lane_config(dp):
    """A short run whose burn-in ends, and whose record ends, inside a lane."""
    cfg = quick_config(dp, duration=0.5, n_trajectories=3)
    lane = simulation._LANE
    n_burn = (int(cfg.burn_in / cfg.dt) // lane + 1) * lane + lane // 2 + 1
    n_keep = 20 * lane + 5
    cfg = replace(cfg, burn_in=n_burn * cfg.dt, duration=n_keep * cfg.dt)
    assert simulation._steps(cfg) == (n_burn, n_keep)
    assert n_burn % lane and (n_burn + n_keep) % lane
    return cfg


def flat_copy(part):
    """A copy of a part :func:`fold` adds, its steps on its last axis: a
    full chain's whole lanes, (4, rows, lanes, L), as (4, rows, lanes * L)."""
    assert type(part) is np.ndarray
    return part.copy().reshape(*part.shape[:2], -1) if part.ndim == 4 else part.copy()


class Recorded:
    """An accumulator that keeps a copy of every part :func:`fold` adds."""

    def __init__(self):
        self.parts = []

    def add(self, part):
        self.parts.append(flat_copy(part))


def welch_psd(record, segment_length, dt):
    """(omega, psd, segments) of a synthetic record of shape (n_trajectories, n)."""
    record = np.atleast_2d(record)
    welch = WelchAccumulator(record.shape[0], segment_length)
    welch.add(record)
    omega, [psd] = welch.spectrum(dt)
    return omega, psd, welch.segments


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

    def test_exact_step_must_be_finite(self, monkeypatch):
        # a record-only chain steps exactly, with no guard on dt, but refuses
        # a step that overflows, before any scan is built
        dp = desk_dp(r_m=1.5)
        cfg = SimulationConfig(dt=1e306, duration=1e306, burn_in=1.0, n_trajectories=1)
        stepped = count_scans(monkeypatch)
        with pytest.raises(ConfigurationError, match="exact step"):
            fold([(Chain(dp, 0.05, cfg, record_only=True), Recorded())])
        assert stepped == []

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
        # a count that is not an integer fails here, not later inside numpy
        for counts in ({"n_trajectories": 1.5}, {"seed": 1.5}):
            with pytest.raises(ConfigurationError, match="integers"):
                SimulationConfig(dt=1e-4, duration=1.0, burn_in=0.0, **counts)


class TestTraceStructure:
    def test_shapes_and_metadata(self):
        dp = desk_dp()
        cfg = quick_config(dp, duration=1.0, n_trajectories=3)
        trace = simulate(dp, 0.05, cfg)
        assert trace.quadratures.shape == (3, trace.n_samples, 4)
        assert trace.output_record.shape == (3, trace.n_samples)
        assert len(trace.times) == trace.n_samples
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
        for n in (2, 1):
            c = simulate(dp, 0.05, replace(cfg, n_trajectories=n))
            assert np.array_equal(a.output_record[:n], c.output_record)
            assert np.array_equal(a.quadratures[:n], c.quadratures)


class TestSteadyStateVariances:
    def test_decoupled_cavity_reaches_thermal_variance(self):
        dp = desk_dp(mod_amplitude=0.0)
        temperature = 2.6  # nbar_a close to 1 at 37.5 GHz
        cfg = quick_config(dp, duration=15.0, n_trajectories=8, seed=3)
        acc = CovarianceAccumulator(cfg.n_trajectories)
        fold([(Chain(dp, temperature, cfg), acc)])
        covs = acc.covariances()
        target = lyapunov_covariance(dp, temperature, cfg.dt)
        sample = covs[:, 2, 2]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        assert abs(sample.mean() - target[2, 2]) < 3.0 * se
        # the decoupled mode's Euler-Maruyama chain is an AR(1) process with
        # pole 1 - kappa_a dt / 2: variance (nbar + 1/2) / (1 - kappa_a dt / 4)
        from magnon_sense import thermal_occupation
        assert target[2, 2] == pytest.approx(
            (thermal_occupation(dp.omega_a, temperature) + 0.5)
            / (1.0 - dp.kappa_a * cfg.dt / 4.0), rel=1e-12)

    def test_squeezed_magnon_amplitude_variance(self):
        dp = desk_dp(r_m=1.5)
        cfg = quick_config(dp, duration=15.0, n_trajectories=8, seed=4)
        acc = CovarianceAccumulator(cfg.n_trajectories)
        fold([(Chain(dp, 0.05, cfg), acc)])
        covs = acc.covariances()
        sample = covs[:, 0, 0]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        expected = math.exp(-3.0) / 2.0
        assert abs(sample.mean() - expected) < 3.0 * se
        assert se / expected < 0.05

    def test_coupled_detuned_covariances_match_lyapunov(self):
        params = replace(verification_parameters().with_squeeze_amplitude(0.4),
                         g_0=0.4 * TWO_PI * 15.0,
                         delta_a=0.5 * TWO_PI * 15.0,
                         delta_0p=-0.3 * TWO_PI * 15.0)
        dp = derived_parameters(params)
        cfg = quick_config(dp, duration=15.0, n_trajectories=12, seed=6)
        acc = CovarianceAccumulator(cfg.n_trajectories)
        fold([(Chain(dp, 1.0, cfg), acc)])
        covs = acc.covariances()
        target = lyapunov_covariance(dp, 1.0, cfg.dt)
        mean = covs.mean(axis=0)
        se = covs.std(axis=0, ddof=1) / math.sqrt(covs.shape[0])
        iu = np.triu_indices(4)
        sigmas = np.abs(mean - target)[iu] / np.maximum(se[iu], 1e-300)
        assert sigmas.max() < 3.0

    def test_short_runs_read_the_stepped_chain_without_bias(self):
        # the verify decoupled Lyapunov case over only 20 / kappa_m: centring
        # each trajectory on its own mean would read every variance low by
        # about 4 / (kappa T) = 20 %, many standard errors over 512 runs
        params = replace(verification_parameters(), temperature=2.6)
        dp = derived_parameters(replace(params.with_squeeze_amplitude(0.5),
                                        mod_amplitude=0.0))
        cfg = quick_config(dp, duration=20.0 / dp.kappa_m, n_trajectories=512)
        acc = CovarianceAccumulator(cfg.n_trajectories)
        fold([(Chain(dp, 2.6, cfg), acc)])
        covs = acc.covariances()
        target = lyapunov_covariance(dp, 2.6, cfg.dt)
        variances = covs[:, range(4), range(4)]
        se = variances.std(axis=0, ddof=1) / math.sqrt(len(variances))
        assert np.all(np.abs(variances.mean(axis=0) - target.diagonal()) < 4.0 * se)

    def test_stepped_chain_tends_linearly_to_the_continuous_solution(self):
        dp = coupled_detuned_dp()
        cavity, magnon = input_densities(dp, 2.6)
        diffusion = linalg.block_diag(dp.kappa_m * magnon, np.eye(2) * dp.kappa_a * cavity)
        continuous = linalg.solve_continuous_lyapunov(drift_matrix(dp), -diffusion)

        def gap(accuracy):
            stepped = lyapunov_covariance(dp, 2.6, accuracy / fastest_rate(dp))
            return max_relative(stepped, continuous)

        assert gap(1e-4) / gap(1e-5) == pytest.approx(10.0, rel=0.02)

    @pytest.mark.parametrize("case", ["lyapunov_decoupled", "lyapunov_coupled", "defective"])
    def test_lyapunov_solve_matches_scipy(self, case):
        if case == "defective":
            dp, temperature = desk_dp(r_m=1.5, kappa_a=TWO_PI * 15.0), 2.6
            dt = 0.015 / fastest_rate(dp)
        else:
            [run] = [run for run in verification._runs(verification_parameters(), seed=42)
                     if run.names == (case,)]
            dp, temperature, dt = run.chain.dp, run.chain.temperature, run.chain.cfg.dt
        cavity, magnon = input_densities(dp, temperature)
        diffusion = linalg.block_diag(dp.kappa_m * magnon, np.eye(2) * dp.kappa_a * cavity)
        step = np.eye(4) + drift_matrix(dp) * dt
        expected = linalg.solve_discrete_lyapunov(step, diffusion * dt)
        assert max_relative(lyapunov_covariance(dp, temperature, dt), expected) < 1e-13

    def test_reservoir_statistics_enter_the_increments(self):
        dp = desk_dp(r_m=1.2)
        reservoir = SqueezedReservoir(r_n=1.2, phi_n=math.pi)
        cfg = quick_config(dp, duration=15.0, n_trajectories=8, seed=8)
        acc = CovarianceAccumulator(cfg.n_trajectories)
        fold([(Chain(dp, 0.05, cfg, (reservoir,)), acc)])
        sample = acc.covariances()[:, 0, 0]
        se = sample.std(ddof=1) / math.sqrt(len(sample))
        # nulling reservoir: magnon amplitude variance is the vacuum half
        assert abs(sample.mean() - 0.5) < 3.0 * se


class TestPsdEstimator:
    def test_white_record_estimates_its_density(self):
        rng = np.random.default_rng(42)
        dt = 1e-4
        sigma = 1.7
        record = sigma * rng.standard_normal((2, 2**17))
        omega, psd, n_seg = welch_psd(record, 1024, dt)
        density = sigma**2 * dt
        tol = 3.0 / math.sqrt(n_seg)
        for band in np.array_split(np.arange(1, len(omega)), 4):
            assert abs(psd[band].mean() / density - 1.0) < tol

    def test_parseval(self):
        rng = np.random.default_rng(1)
        dt = 2e-3
        record = rng.standard_normal((1, 2**16))
        omega, psd, _ = welch_psd(record, 4096, dt)
        total = np.trapezoid(psd, omega) / math.pi
        assert total == pytest.approx(record.var(), rel=0.02)

    def test_sinusoid_concentrates_in_one_bin(self):
        dt = 1e-3
        t = np.arange(2**15) * dt
        omega_s = 2 * math.pi * 40.0
        record = np.sin(omega_s * t) + 1e-3 * np.random.default_rng(0).standard_normal(t.size)
        omega, psd, _ = welch_psd(record, 4096, dt)
        assert abs(omega[np.argmax(psd)] - omega_s) <= omega[1] - omega[0]

    @pytest.mark.parametrize("n_samples", [225769, 735908])
    @pytest.mark.parametrize("segment_length", [1024, 9215, 30037])
    def test_segment_count_is_the_one_welch_averages(self, n_samples, segment_length):
        # odd lengths round the overlap up, so the hop is the smaller half
        _, times, _ = signal.spectrogram(np.zeros(n_samples), nperseg=segment_length,
                                         noverlap=noverlap(segment_length))
        welch = WelchAccumulator(1, segment_length)
        welch.add(np.zeros((1, n_samples)))
        assert welch.segments == len(times)

    @pytest.mark.parametrize("length", [2, 3, 64, 700, 999, 1000, 9215, 30037])
    def test_window_is_the_periodic_hann_window(self, length):
        window = WelchAccumulator(1, length)._window
        assert np.array_equal(window, signal.get_window("hann", length))

    def test_output_spectrum_quick_oracle(self):
        # cheap end-to-end agreement scan; the acceptance suite runs the
        # full-resolution version with hundreds of segments
        dp = desk_dp(r_m=0.0)
        cfg = quick_config(dp, duration=12.0, n_trajectories=8, seed=21,
                           accuracy=0.015)
        nper = int(round(TWO_PI / (0.1 * dp.kappa_m) / cfg.dt))
        welch = WelchAccumulator(cfg.n_trajectories, nper)
        fold([(Chain(dp, 0.05, cfg, record_only=True), welch)])
        omega, [psd] = welch.spectrum(cfg.dt)
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

    def gain_run(self, r_m, frac, seed):
        """(dp, gain) of the run verify's gain checks make at delta = frac
        kappa_m on the desk set at r_m, sized by verify's own gain family."""
        run = verification._check_gain(
            "gain", frac, verification_parameters().with_squeeze_amplitude(r_m), seed)
        return run.chain.dp, measure_gain(run.chain, run.frequency)

    def stepped_chain_gain(self, dp, frequency, dt):
        """The Euler-Maruyama chain's exact steady-state response to the unit
        X_M drive sin(frequency t) dt over its field-referred input power
        1 / (2 kappa_m xi): x = (e^{i frequency dt} - S)^{-1} v dt, v the
        unit X_M drive, and the record's mean square kappa_a |x_P_a|^2 / 2."""
        step = np.eye(4) + drift_matrix(dp) * dt
        v = np.array([1, 0, 0, 0])
        x = np.linalg.solve(np.exp(1j * frequency * dt) * np.eye(4) - step, v * dt)
        return dp.kappa_a * abs(x[3])**2 / 2.0 * (2.0 * dp.kappa_m * dp.xi)

    def test_is_the_stepped_chain_response(self):
        params = verification_parameters()
        planned = [run for run in verification._runs(params, seed=42)
                   if run.frequency is not None]
        assert [run.names for run in planned] == [
            ("gain_delta_0.2km",), ("gain_delta_0.5km",), ("gain_delta_1km",)]
        for run in planned:
            gain = measure_gain(run.chain, run.frequency)
            exact = self.stepped_chain_gain(run.chain.dp, run.frequency, run.chain.cfg.dt)
            assert gain == pytest.approx(exact, rel=1e-3)
            # the step's own bias, which the seed-free estimate leaves visible
            gain_analytic = self.analytic_gain(run.chain.dp, run.frequency)
            assert exact != pytest.approx(gain_analytic, rel=5e-4)

    def test_does_not_depend_on_seed(self):
        _, gain = self.gain_run(1.0, 0.5, seed=42)
        assert self.gain_run(1.0, 0.5, seed=1)[1] == pytest.approx(gain, rel=1e-9)

    def test_matches_analytic_response(self):
        dp, gain = self.gain_run(1.0, 0.5, seed=17)
        assert gain == pytest.approx(self.analytic_gain(dp, 0.5 * dp.kappa_m), rel=0.15)

    def test_gain_ratio_tracks_squeezing(self):
        delta_frac = 0.5
        dp1, g1 = self.gain_run(1.0, delta_frac, seed=18)
        dp0, g0 = self.gain_run(0.0, delta_frac, seed=18)
        assert g0 == pytest.approx(
            self.analytic_gain(dp0, delta_frac * dp0.kappa_m), rel=0.15)
        expected = (self.analytic_gain(dp1, delta_frac * dp1.kappa_m)
                    / self.analytic_gain(dp0, delta_frac * dp0.kappa_m))
        assert g1 / g0 == pytest.approx(expected, rel=0.15)

    def test_draws_no_stream(self, monkeypatch):
        # the tone is stepped alone, without noise: verify's gain runs,
        # judged alone, build no trajectory stream, and each judges the
        # gain measure_gain returns
        runs = [run for run in verification._runs(verification_parameters(), seed=42)
                if run.frequency is not None]
        assert [run.accumulator for run in runs] == [None, None, None]
        calls = count_streams(monkeypatch)
        results = verification._judge(runs)
        assert calls == []
        assert [result.name for result in results] == [
            "gain_delta_0.2km", "gain_delta_0.5km", "gain_delta_1km"]
        for run, result in zip(runs, results):
            gain = measure_gain(run.chain, run.frequency)
            assert result.detail.startswith(f"empirical {gain:.4g} vs")

    def test_requires_finite_frequency(self):
        dp = desk_dp(r_m=1.0)
        cfg = quick_config(dp, duration=1.0)
        for frequency in (math.nan, math.inf, -math.inf):
            with pytest.raises(ParameterError, match="frequency"):
                measure_gain(Chain(dp, 0.05, cfg), frequency)

    def test_requires_evading_point(self):
        dp = desk_dp(r_m=1.0, delta_a=5.0)
        cfg = quick_config(dp, duration=1.0)
        with pytest.raises(Exception, match="delta_a"):
            measure_gain(Chain(dp, 0.05, cfg), 1.0)

    @pytest.mark.parametrize("detuning", ["delta_a", "delta_0p"])
    def test_a_detuning_inside_the_evading_tolerance_is_stepped(self, detuning):
        # 1e-10 kappa_m passes the evading point's 1e-9 tolerance, but P_a
        # then reads X_a too (delta_a) or every component (delta_0p): the
        # closed form takes the full S, and the gain is that of zero
        # detuning, on verify's own run at 0.5 kappa_m
        params = verification_parameters().with_squeeze_amplitude(1.0)
        exact, tiny = [verification._check_gain("gain", 0.5, replace(params, **{detuning: value}),
                                                seed=42)
                       for value in (0.0, 1e-10 * params.kappa_m)]
        assert getattr(tiny.chain.dp, detuning) != 0.0 and tiny.chain.cfg == exact.chain.cfg
        assert measure_gain(tiny.chain, tiny.frequency) == pytest.approx(
            measure_gain(exact.chain, exact.frequency), rel=1e-12, abs=0)

    @pytest.mark.parametrize("detuning", ["delta_a", "delta_0p"])
    def test_verify_judges_gains_inside_the_evading_tolerance(self, detuning):
        params = verification_parameters()
        params = replace(params, **{detuning: 1e-10 * params.kappa_m})
        runs = [run for run in verification._runs(params, seed=42)
                if run.frequency is not None]
        results = verification._judge(runs)
        assert [result.name for result in results] == [
            "gain_delta_0.2km", "gain_delta_0.5km", "gain_delta_1km"]


class TestVerifyPlan:
    def test_desk_plan_sizes(self):
        # verify's printed values depend on these sizes, so a change to one
        # shows here before it moves a check
        runs = verification._runs(verification_parameters(), seed=42)
        sizes = {run.names: (run.chain.cfg.n_trajectories,
                             *simulation._steps(run.chain.cfg)[::-1], run.segment)
                 for run in runs}
        assert sizes == {
            ("lyapunov_decoupled",): (32, 205333, 953, None),
            ("lyapunov_coupled",): (32, 205333, 953, None),
            ("psd_rm0",): (16, 15680, 65, 640),
            ("psd_rm15", "psd_rm15_reservoir"): (16, 15680, 65, 640),
            ("gain_delta_0.2km",): (1, 145745, 1885, None),
            ("gain_delta_0.5km",): (1, 58298, 1885, None),
            ("gain_delta_1km",): (1, 29149, 1885, None),
        }
        assert list(sizes) == [
            ("lyapunov_decoupled",), ("lyapunov_coupled",), ("psd_rm0",),
            ("psd_rm15", "psd_rm15_reservoir"), ("gain_delta_0.2km",),
            ("gain_delta_0.5km",), ("gain_delta_1km",)]
        # the PSD runs step exactly at a step set by the bands, the others
        # Euler-Maruyama at a step set by the fastest rate
        for run in runs:
            if run.segment:
                assert run.chain.cfg.dt * run.chain.dp.kappa_m == pytest.approx(0.2, rel=1e-15)
            else:
                assert run.chain.cfg.dt * fastest_rate(run.chain.dp) == 0.015
            assert run.chain.cfg.seed == 42

    def test_psd_runs_hold_exactly_the_planned_segments(self):
        # one step fewer would lose the last segment of every trajectory
        runs = [run for run in verification._runs(
            verification_parameters(), seed=42) if run.segment]
        assert [run.names for run in runs] == [
            ("psd_rm0",), ("psd_rm15", "psd_rm15_reservoir")]
        for run in runs:
            steps = simulation._steps(run.chain.cfg)[1]
            for n, segments in ((steps, 48), (steps - 1, 47)):
                welch = WelchAccumulator(1, run.segment)
                welch.add(np.zeros((1, n)))
                assert welch.segments == segments

    @pytest.mark.parametrize("name", ["psd_rm0", "psd_rm15_reservoir"])
    def test_psd_is_judged_on_the_bins_its_bands_read(self, monkeypatch, name):
        # each frequency is solved alone, so the grid cut past the bands'
        # last bin gives every compared value the bits of the full grid's;
        # the run's own accumulator is fed one segment of every row, and
        # its judge solves one grid per reservoir
        [run] = [run for run in verification._runs(
            verification_parameters(), seed=42) if name in run.names]
        rows = len(run.chain.reservoirs) * run.chain.cfg.n_trajectories
        run.accumulator.add(np.random.default_rng(5).standard_normal((rows, run.segment)))
        omega, _ = run.accumulator.spectrum(run.chain.cfg.dt)
        solve = verification.output_spectrum
        grids = []

        def counted(dp, temperature, grid, reservoir=None):
            grids.append(len(grid))
            return solve(dp, temperature, grid, reservoir=reservoir)

        def full_grid(dp, temperature, grid, reservoir=None):
            return solve(dp, temperature, omega, reservoir=reservoir)[:len(grid)]

        monkeypatch.setattr(verification, "output_spectrum", counted)
        cut = run.judge()
        bands = verification._psd_bands(omega, run.chain.dp.kappa_m)
        top = max(int(sel[-1]) for sel in bands) + 1
        assert [result.name for result in cut] == list(run.names)
        assert grids == [top] * len(run.names) and top <= 102 and omega.size == 321
        monkeypatch.setattr(verification, "output_spectrum", full_grid)
        assert run.judge() == cut

    def test_five_smooth_lengths(self):
        smooth = sorted(2**a * 3**b * 5**c for a in range(14) for b in range(9)
                        for c in range(7) if 2**a * 3**b * 5**c <= 10**4)
        for n in range(1, 5001):
            assert verification._five_smooth(n) == min(m for m in smooth if m >= n)
        assert verification._five_smooth(9215) == 9216
        assert verification._five_smooth(30037) == 30375

    def test_equal_psd_rows_step_as_one_draw(self, monkeypatch):
        # the two-check psd_rm15 run judges each check as a one-check run
        # on the same parameters would; a coarse resolution keeps it short
        monkeypatch.setattr(verification, "_PSD_RESOLUTION", 1.0)
        params = verification_parameters().with_squeeze_amplitude(1.5)
        [run] = [run for run in verification._runs(verification_parameters(), seed=42)
                 if len(run.names) > 1]
        checks = tuple(zip(run.names, run.chain.reservoirs))
        assert run.names == ("psd_rm15", "psd_rm15_reservoir")
        assert run.chain.dp == derived_parameters(params)
        apart = [result for check in checks
                 for result in verification._judge([verification._check_psd((check,), params,
                                                                            seed=42)])]
        calls = count_streams(monkeypatch)
        assert verification._judge([verification._check_psd(checks, params, seed=42)]) == apart
        assert calls == [(42, i) for i in range(16)]

    def test_every_run_steps_through_fold(self, monkeypatch):
        # the refusals of verify are tested by patching fold, so nothing
        # may step before the pass: verify makes one pass over the chains of
        # the Lyapunov and PSD runs, in table order, each paired with the
        # accumulator it feeds, and only then steps the gain runs' tones,
        # whose chains hold no accumulator and are not folded, by measure_gain
        calls = []

        def no_stepping(pairs):
            calls.append([(chain, type(acc)) for chain, acc in pairs])
            raise AssertionError("fold called")

        def no_gain(chain, frequency):
            calls.append(frequency)
            raise AssertionError("measure_gain called")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        monkeypatch.setattr(simulation, "measure_gain", no_gain)
        runs = verification._runs(verification_parameters(), seed=42)
        assert len(runs) == 7
        assert [run.accumulator and len(run.chain.reservoirs) for run in runs] == [
            1, 1, 1, 2, None, None, None]
        with pytest.raises(AssertionError, match="fold called"):
            verification.run_verification(seed=42)
        assert calls == [[(run.chain, kind) for run, kind in zip(runs, [
            CovarianceAccumulator, CovarianceAccumulator, WelchAccumulator,
            WelchAccumulator])]]

    def test_desk_pass_steps_one_scan_per_chain(self, monkeypatch):
        # the two Lyapunov runs step all four components; psd_rm0 and the
        # psd_rm15 pair X_M and P_a alone, the pair's chain one block of 16
        # rows per reservoir.  Each chain adds arrays of what its accumulator
        # reads: a Lyapunov chain its quadratures, (4, 32, m) or its whole
        # lanes (4, 32, lanes, L), a PSD chain its output record.  The pass
        # stops once each has one
        runs = verification._runs(verification_parameters(), seed=42)
        chains = [run.chain for run in runs if run.accumulator]
        assert len(chains) == 4
        scans = count_scans(monkeypatch)
        shapes = [None] * len(chains)

        class Seen(Exception):
            pass

        class Shape:
            def __init__(self, index):
                self.index = index

            def add(self, part):
                assert type(part) is np.ndarray
                steps = 2 if part.ndim == 4 else 1
                assert steps == 1 or part.shape[-1] == simulation._LANE
                shapes[self.index] = part.shape[:-steps]
                if None not in shapes:
                    raise Seen
        with pytest.raises(Seen):
            fold([(chain, Shape(i)) for i, chain in enumerate(chains)])
        assert scans == [((0, 1, 2, 3), 32), ((0, 1, 2, 3), 32), ((0, 3), 16),
                         ((0, 3), 32)]
        assert shapes == [(4, 32), (4, 32), (16,), (32,)]

    def test_desk_pass_chunks_are_32_lanes(self, monkeypatch):
        # the covariances round per chunk, so verify's pinned values hold
        # on these chunks: 202 of 1024 steps, the last of 480 from step
        # 205824, the end of the Lyapunov runs.  Stream 0 feeds every chain,
        # so its draws are the chunks; nothing is drawn or stepped
        runs = verification._runs(verification_parameters(), seed=42)
        drawn = []

        class Stream:
            def __init__(self, seed, index):
                self.index = index

            def standard_normal(self, *, out):
                if self.index == 0:
                    drawn.append(out.shape[0])
        monkeypatch.setattr(simulation, "_trajectory_rng", Stream)
        monkeypatch.setattr(simulation._Stepper, "step", lambda self, *args: None)
        chains = [run.chain for run in runs if run.accumulator]
        accumulators = [Recorded() for _ in chains]
        fold(list(zip(chains, accumulators)))
        assert [acc.parts for acc in accumulators] == [[]] * len(chains)
        assert len(drawn) == 202
        assert (sum(drawn[:-1]), drawn[-1]) == (205824, 480)
        assert set(drawn[:-1]) == {1024}

    def test_desk_pass_draws_26_406_912_normals(self, monkeypatch):
        # each of the 32 streams is drawn to the Lyapunov runs' 206,304
        # steps, four normals a step: a PSD run's 15,776 steps read two
        # stream steps each, 31,552, so no PSD run draws a stream further.
        # Euler-Maruyama PSD runs drew 61,030,400
        runs = verification._runs(verification_parameters(), seed=42)
        normals = []

        class Stream:
            def __init__(self, seed, index):
                pass

            def standard_normal(self, *, out):
                normals.append(out.size)
        monkeypatch.setattr(simulation, "_trajectory_rng", Stream)
        monkeypatch.setattr(simulation._Stepper, "step", lambda self, *args: None)
        fold([(run.chain, Recorded()) for run in runs if run.accumulator])
        assert sum(normals) == 26_406_912 == 32 * 206_304 * 4

    def test_desk_pass_draws_each_stream_once(self):
        # every run of the pass reads a prefix of the seed's 32 streams; a
        # draw per run would build 96 streams and draw 14,213,120
        # trajectory-steps
        runs = verification._runs(verification_parameters(), seed=42)
        extents = simulation._stream_extents([run.chain for run in runs if run.accumulator])
        assert (len(extents), sum(extents)) == (32, 6_601_728)
        apart = [simulation._stream_extents([run.chain]) for run in runs if run.accumulator]
        assert (sum(map(len, apart)), sum(map(sum, apart))) == (96, 14_213_120)

    def test_verify_builds_and_draws_each_stream_once(self, monkeypatch):
        # a coarse plan keeps the pass short, and Lyapunov runs shorter than
        # the PSD runs' 1728 stream steps leave streams of two lengths
        monkeypatch.setattr(verification, "_PSD_RESOLUTION", 1.0)
        monkeypatch.setattr(verification, "_LYAPUNOV_DURATION_RELAX", 5.0)
        monkeypatch.setattr(verification, "_GAIN_PERIODS", 2)
        runs = verification._runs(verification_parameters(), seed=42)
        extents = simulation._stream_extents([run.chain for run in runs if run.accumulator])
        assert extents[0] > extents[-1]    # streams 0-15 feed the longer PSD runs
        drawn = count_draws(monkeypatch)
        calls = count_streams(monkeypatch)
        report = verification.run_verification(seed=42)
        assert len(report.checks) == 10
        assert calls == [(42, i) for i in range(32)]
        assert drawn == {(42, i): extent for i, extent in enumerate(extents)}


def loop_states(step, incr):
    """States x_0..x_{n-1} of x_{m+1} = step x_m + incr_m from rest, step by step."""
    x = np.zeros(incr.shape[:2])
    states = np.empty_like(incr)
    for m in range(incr.shape[-1]):
        states[:, :, m] = x
        x = step @ x + incr[:, :, m]
    return states


def loop_simulate(dp, temperature, cfg, reservoir=None):
    """(quadratures, output_record) of ``simulate`` from per-step loops over
    the same Philox draws: the Euler-Maruyama chain on the same increments,
    and the exact chain, whose step k reads the first five normals of
    stream steps 2k and 2k+1, x <- Phi x + F[:4] z with record
    y = (h . x + F[4] z) / dt, F = U sqrt(max(lambda, 0)) of the
    symmetrized Q5."""
    cavity, magnon = input_densities(dp, temperature, reservoir)
    dt = cfg.dt
    n_burn = int(round(cfg.burn_in / dt))
    n_keep = int(round(cfg.duration / dt))
    n = n_burn + n_keep
    step_t = (np.eye(4) + drift_matrix(dp) * dt).T
    chol = np.linalg.cholesky(magnon)
    cav_scale = math.sqrt(cavity * dt)
    sq_ka = math.sqrt(dp.kappa_a)
    z = np.stack([simulation._trajectory_rng(cfg.seed, i).standard_normal(
        (2 * n, 4)) for i in range(cfg.n_trajectories)])
    incr = np.empty((cfg.n_trajectories, n, 4))
    incr[:, :, :2] = (z[:, :n, :2] @ (chol * math.sqrt(dt)).T) * math.sqrt(dp.kappa_m)
    incr[:, :, 2] = z[:, :n, 2] * (cav_scale * sq_ka)
    incr[:, :, 3] = z[:, :n, 3] * cav_scale * sq_ka
    phi5, q5 = simulation._exact_step(dp, temperature, reservoir, dt)
    lam, vec = np.linalg.eigh((q5 + q5.T) / 2.0)
    factor = vec * np.sqrt(np.maximum(lam, 0.0))
    noise = z.reshape(cfg.n_trajectories, n, 8)[:, :, :5] @ factor.T
    state = np.zeros((cfg.n_trajectories, 4))
    exact = np.zeros((cfg.n_trajectories, 4))
    quad = np.empty((cfg.n_trajectories, n_keep, 4))
    out = np.empty((cfg.n_trajectories, n_keep))
    for j in range(n):
        if j >= n_burn:
            quad[:, j - n_burn] = state
            out[:, j - n_burn] = (exact @ phi5[4, :4] + noise[:, j, 4]) / dt
        state = state @ step_t + incr[:, j]
        exact = exact @ phi5[:4, :4].T + noise[:, j, :4]
    return quad, out


def max_relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def coupled_detuned_dp():
    km = TWO_PI * 15.0
    return derived_parameters(replace(verification_parameters(), g_0=0.4 * km,
                                      delta_a=0.5 * km, delta_0p=-0.3 * km))


class TestLaneScan:
    def step_and_inputs(self, dp, lanes=47, ntraj=3):
        dt = 0.015 / fastest_rate(dp)
        step = np.eye(4) + drift_matrix(dp) * dt
        rng = np.random.default_rng(3)
        return step, rng.standard_normal((4, ntraj, lanes * simulation._LANE))

    def run(self, step, incr, written=(0, 1, 2, 3)):
        scan = simulation._LaneScan(step, incr.shape[1], written)
        return self.call(scan, incr, np.empty(scan.size(incr.shape[-1])))

    def call(self, scan, incr, work):
        """One call of ``scan`` on ``incr`` (component, ntraj, n): the
        increments of its stepped components written into its lane slots, and
        the states of its written ones read back, (len(written), ntraj, n)."""
        _, ntraj, n = incr.shape
        lane = simulation._LANE
        slots = scan.slots(work, n)
        for j, k in enumerate(scan.components):
            slots[1:, j] = incr[k].reshape(ntraj, n // lane, lane).T
        states = scan(work, n)[:lane].transpose(1, 3, 2, 0).reshape(-1, ntraj, n)
        return states[[scan.components.index(k) for k in scan.written]]

    def check(self, step, incr):
        """The full scan against the step-by-step loop, both from rest, and
        the scans that write P_a, or X_M and P_a as a record-only chain's
        exact record reads them, against the full scan's, bit for bit."""
        full = self.run(step, incr)
        assert max_relative(full, loop_states(step, incr)) < 1e-12
        for written in ((3,), (0, 3)):
            assert np.array_equal(self.run(step, incr, written), full[list(written)])

    def check_pieces(self, step, incr, written):
        """A scan in pieces of whole lanes against one pass, bit for bit:
        every piece after the first starts from the state the one before
        carried out, away from rest; with one trajectory a piece of one lane
        is a single column of every contraction."""
        bounds = [lane * simulation._LANE for lane in (0, 1, 2, 11, 12, 46, 47)]
        whole = self.run(step, incr, written)
        scan = simulation._LaneScan(step, incr.shape[1], written)
        # one work array for every piece, larger than most of them need
        work = np.empty(scan.size(incr.shape[-1]))
        pieces = [self.call(scan, incr[:, :, a:b], work) for a, b in zip(bounds, bounds[1:])]
        assert np.array_equal(np.concatenate(pieces, axis=-1), whole)

    def test_defective_map_at_zero_detuning(self):
        # with kappa_a = kappa_m the one eigenvalue 1 - kappa dt / 2 (the
        # map is triangular up to reordering) has only two eigenvectors
        dp = desk_dp(r_m=1.5, kappa_a=TWO_PI * 15.0)
        for ntraj in (3, 1):
            step, incr = self.step_and_inputs(dp, ntraj=ntraj)
            eig = np.diag(step)
            assert np.all(eig == eig[0])
            assert np.linalg.matrix_rank(step - eig[0] * np.eye(4)) == 2
            self.check(step, incr)

    def test_complex_pairs_when_detuned(self):
        step, incr = self.step_and_inputs(coupled_detuned_dp())
        assert np.all(np.linalg.eigvals(step).imag != 0.0)   # two complex pairs
        self.check(step, incr)

    @pytest.mark.parametrize("case, stepped", [
        ("evading", (0, 3)), ("cavity_detuned", (0, 2, 3)), ("detuned", (0, 1, 2, 3)),
        ("uncoupled", (3,))])
    def test_steps_only_what_the_written_rows_read(self, case, stepped):
        # at the evading point P_a reads X_M and itself alone; a cavity
        # detuning adds X_a, a magnon detuning the rest, and without coupling
        # it reads itself alone.  A record-only chain's exact record reads
        # those same components of the state, through h = Phi5[4, :4], and
        # its scan of Phi writes them and steps no other
        dp = {"evading": desk_dp(r_m=1.5),
              "cavity_detuned": desk_dp(r_m=1.5, delta_a=TWO_PI * 4.0),
              "detuned": coupled_detuned_dp(),
              "uncoupled": desk_dp(r_m=1.5, mod_amplitude=0.0)}[case]
        step, incr = self.step_and_inputs(dp)
        assert simulation._LaneScan(step, 3, (3,)).components == stepped
        assert simulation._LaneScan(step, 3).components == (0, 1, 2, 3)
        self.check(step, incr)
        self.check_pieces(*self.step_and_inputs(dp, ntraj=1), stepped)
        stepper = simulation._Stepper(
            Chain(dp, 0.05, quick_config(dp, 1.0, 3), record_only=True), Recorded())
        assert stepper.scan.written == stepper.scan.components == stepped

    @pytest.mark.parametrize("detuned", [False, True])
    def test_chunks_are_bit_identical_to_one_pass(self, detuned):
        dp = coupled_detuned_dp() if detuned else desk_dp(r_m=1.5)
        for ntraj in (3, 1):
            step, incr = self.step_and_inputs(dp, ntraj=ntraj)
            for written in ((0, 1, 2, 3), (0, 3)):
                self.check_pieces(step, incr, written)


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
        # measure_gain sums, in closed form, what the per-step loop of the
        # chain takes from rest and without noise over increments that hold
        # only the X_M drive sin(frequency t) dt, read over the kept steps,
        # over the drive's field-referred power 1 / (2 kappa_m xi); every row
        # would take the same drive
        dp = desk_dp(r_m=1.0)
        frequency = 0.5 * dp.kappa_m
        cfg = mid_lane_config(dp)
        n_burn, n_keep = simulation._steps(cfg)
        t = np.arange(n_burn + n_keep) * cfg.dt
        incr = np.zeros((4, 1, t.size))
        incr[0, 0] = np.sin(frequency * t) * cfg.dt
        step = np.eye(4) + drift_matrix(dp) * cfg.dt
        p_a = loop_states(step, incr)[3, 0, n_burn:]
        assert measure_gain(Chain(dp, 0.05, cfg), frequency) == pytest.approx(
            2.0 * dp.kappa_a * dp.kappa_m * dp.xi * np.mean(p_a**2), rel=1e-12, abs=0)

    def test_a_run_inside_one_lane(self):
        # a run of one kept step, or of five, whose burn-in and end fall
        # inside one lane: each chain keeps one piece of that lane
        dp = desk_dp(r_m=1.5)
        cfg = quick_config(dp, duration=0.5, n_trajectories=3)
        lane = simulation._LANE
        for keep in (1, 5):
            short = replace(cfg, duration=keep * cfg.dt)
            n_burn, n_keep = simulation._steps(short)
            assert n_keep == keep and n_burn % lane and n_burn // lane == (n_burn + keep) // lane
            self.check(dp, 0.05, short)

    @pytest.mark.parametrize("chunk", [None, 2 * simulation._LANE])
    def test_burn_in_and_end_mid_lane(self, monkeypatch, chunk):
        # the lanes start at step 0, so the first kept step and the last one
        # fall inside lanes, and the steps past the end are drawn and dropped;
        # a chunk of two lanes steps the record-only chain one lane at a time
        if chunk is not None:
            monkeypatch.setattr(simulation, "_CHUNK", chunk)
        dp = desk_dp(r_m=1.5)
        self.check(dp, 0.05, mid_lane_config(dp))

    def test_chunk_size_changes_no_bit(self, monkeypatch):
        # chunks of the default 32 lanes, or of 2 or 10: an even number, so
        # that the record-only chain, two stream steps a step, steps whole
        # lanes, one or five
        dp = desk_dp(r_m=0.7)
        cfg = quick_config(dp, duration=0.5, n_trajectories=3, seed=5)
        a = simulate(dp, 0.05, cfg)
        for lanes in (2, 10):
            monkeypatch.setattr(simulation, "_CHUNK", lanes * simulation._LANE)
            b = simulate(dp, 0.05, cfg)
            assert np.array_equal(a.quadratures, b.quadratures)
            assert np.array_equal(a.output_record, b.output_record)


def psd_chains():
    """(name, dp, temperature, reservoir, dt) of each desk PSD check's chain."""
    return [(name, run.chain.dp, run.chain.temperature, reservoir, run.chain.cfg.dt)
            for run in verification._runs(verification_parameters(), seed=42) if run.segment
            for name, reservoir in zip(run.names, run.chain.reservoirs)]


def reference_chains():
    """The same, on the reference set at r_m = 1.5 (g'/kappa_m ~ 747), at the
    PSD runs' step."""
    dp = derived_parameters(baseline_parameters(r_m=1.5))
    return [(name, dp, 0.05, reservoir, 0.2 / dp.kappa_m) for name, reservoir in (
        ("reference", None), ("reference_reservoir", SqueezedReservoir(r_n=1.5, phi_n=math.pi)))]


class TestExactStep:
    @pytest.mark.parametrize("case", psd_chains() + reference_chains(), ids=lambda c: c[0])
    def test_expm_matches_scipy_on_the_van_loan_block(self, case):
        _, dp, temperature, reservoir, dt = case
        block = simulation._van_loan(dp, temperature, reservoir, dt)
        assert max_relative(simulation._expm(block), linalg.expm(block)) <= 1e-12
        phi5, _ = simulation._exact_step(dp, temperature, reservoir, dt)
        assert max_relative(phi5, linalg.expm(block[5:, 5:].T)) <= 1e-12

    @pytest.mark.parametrize("case", psd_chains() + reference_chains(), ids=lambda c: c[0])
    def test_step_keeps_the_continuous_covariance(self, case):
        # the exact chain's stationary covariance is the continuous one:
        # Phi V Phi^T + Q = V, with and without the nulling reservoir
        _, dp, temperature, reservoir, dt = case
        cavity, magnon = input_densities(dp, temperature, reservoir)
        diffusion = linalg.block_diag(dp.kappa_m * magnon, np.eye(2) * dp.kappa_a * cavity)
        v = linalg.solve_continuous_lyapunov(drift_matrix(dp), -diffusion)
        phi5, q5 = simulation._exact_step(dp, temperature, reservoir, dt)
        phi, q = phi5[:4, :4], q5[:4, :4]
        assert max_relative(phi @ v @ phi.T + q, v) <= 1e-12

    @staticmethod
    def chain_spectrum(dp, temperature, reservoir, dt, omega):
        """dt G Q5 G^H at ``omega``: the seed-free spectrum of the record the
        exact chain steps, in output_spectrum's normalization."""
        phi5, q5 = simulation._exact_step(dp, temperature, reservoir, dt)
        resolvent = np.linalg.inv(np.exp(1j * omega * dt)[:, None, None] * np.eye(4)
                                  - phi5[:4, :4])
        transfer = np.concatenate([phi5[4, :4] @ resolvent, np.ones((omega.size, 1))],
                                  axis=1) / dt
        return dt * np.einsum("wi,ij,wj->w", transfer, q5, transfer.conj()).real

    @pytest.mark.parametrize("case", psd_chains(), ids=lambda c: c[0])
    def test_psd_step_bias_is_under_one_percent(self, case):
        # the spectrum of the record the exact chain steps, seed-free: with
        # x_{k+1} = Phi x_k + w_k and y_k = (h . x_k + w_k[4]) / dt, y's
        # transfer from w is G = (h (zI - Phi)^-1 [I4 0] + e5^T) / dt,
        # z = e^{i omega dt}, and its spectrum dt G Q5 G^H, in
        # output_spectrum's normalization.  Its largest deviation from
        # output_spectrum at 40 log-spaced omega in [0.1, 5] kappa_m, the
        # bias of the PSD step, is bounded by 1 % (0.10 %, 0.10 % and 0.58 %
        # for psd_rm0, psd_rm15 and psd_rm15_reservoir; Euler-Maruyama at
        # dt * fastest rate = 0.015 read 1.49 %, 0.46 % and 0.46 %)
        _, dp, temperature, reservoir, dt = case
        omega = np.geomspace(0.1, 5.0, 40) * dp.kappa_m
        chain = self.chain_spectrum(dp, temperature, reservoir, dt, omega)
        bias = np.abs(chain / output_spectrum(dp, temperature, omega, reservoir=reservoir) - 1.0)
        assert bias.max() <= 0.01

    @pytest.mark.parametrize("block", [0, 1], ids=["psd_rm15", "psd_rm15_reservoir"])
    def test_reference_set_psd_step_bias_is_under_the_check_s_bound(self, block):
        # at the paper's operating point, baseline_parameters(r_m=1.5)
        # (g'/kappa_m ~ 747), the exact chain's seed-free spectrum, averaged
        # over the bands of the PSD check on its own 640-point Welch grid and
        # judged against output_spectrum as the check judges a Welch
        # estimate, stays under the check's own bound (4.9 %, with and
        # without the nulling reservoir), so the step alone cannot fail it
        [run] = [run for run in verification._runs(baseline_parameters(r_m=1.5), seed=42)
                 if run.names[:1] == ("psd_rm15",)]
        dp, temperature, dt = run.chain.dp, run.chain.temperature, run.chain.cfg.dt
        reservoir = run.chain.reservoirs[block]
        assert run.segment == 640 and dp.g_prime / dp.kappa_m > 700
        omega = TWO_PI * np.fft.rfftfreq(run.segment, dt)
        bands = verification._psd_bands(omega, dp.kappa_m)
        chain = self.chain_spectrum(dp, temperature, reservoir, dt, omega)
        reference = output_spectrum(dp, temperature, omega, reservoir=reservoir)
        bias = max(abs(chain[sel].mean() / reference[sel].mean() - 1.0) for sel in bands)
        assert bias < verification._PSD_TOLERANCE


def scipy_welch(record, segment_length, dt):
    """The module's PSD convention on ``scipy.signal.welch``: one-sided
    density halved, averaged over trajectories."""
    _, pxx = signal.welch(record, fs=1.0 / dt, nperseg=segment_length,
                          noverlap=noverlap(segment_length), detrend=False,
                          axis=-1)
    return pxx.mean(axis=0) / 2.0


def stream_cases():
    """(dp, temperature, cfg, reservoir, segment_length) of short runs with
    odd and even segment lengths."""
    plain = desk_dp()
    squeezed = desk_dp(r_m=1.5)
    nulled = desk_dp(r_m=1.2)
    gain_set = desk_dp(r_m=1.0)
    detuned = coupled_detuned_dp()
    return {
        "plain": (plain, 0.05, quick_config(plain, 0.5, 3), None, 1000),
        "squeezed": (squeezed, 0.05, quick_config(squeezed, 0.5, 3), None, 999),
        "reservoir": (nulled, 0.05, quick_config(nulled, 0.5, 3),
                      SqueezedReservoir(r_n=1.2, phi_n=math.pi), 1000),
        # the gain checks' parameter set, r_m = 1
        "tone": (gain_set, 0.05, quick_config(gain_set, 0.5, 3), None, 1201),
        "detuned": (detuned, 2.6, quick_config(detuned, 0.5, 3), None, 998),
    }


class TestAccumulators:
    @pytest.mark.parametrize("case", sorted(stream_cases()))
    def test_welch_matches_scipy_on_the_stored_record(self, case):
        dp, temperature, cfg, reservoir, nper = stream_cases()[case]
        welch = WelchAccumulator(cfg.n_trajectories, nper)
        fold([(Chain(dp, temperature, cfg, (reservoir,), record_only=True), welch)])
        omega, [psd] = welch.spectrum(cfg.dt)
        trace = simulate(dp, temperature, cfg, reservoir=reservoir)
        np.testing.assert_allclose(psd, scipy_welch(trace.output_record, nper, cfg.dt),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(omega, TWO_PI * np.fft.rfftfreq(nper, cfg.dt),
                                   rtol=1e-12, atol=0)
        _, times, _ = signal.spectrogram(trace.output_record[0], nperseg=nper,
                                         noverlap=noverlap(nper))
        assert welch.segments == cfg.n_trajectories * len(times)

    @pytest.mark.parametrize("case", ["plain", "squeezed", "detuned"])
    def test_covariances_match_np_cov_on_the_stored_run(self, case):
        dp, temperature, cfg, _, _ = stream_cases()[case]
        acc = CovarianceAccumulator(cfg.n_trajectories)
        fold([(Chain(dp, temperature, cfg), acc)])
        trace = simulate(dp, temperature, cfg)
        expected = (np.einsum("tni,tnj->tij", trace.quadratures, trace.quadratures)
                    / trace.n_samples)
        np.testing.assert_allclose(acc.covariances(), expected, rtol=1e-12, atol=0)

    def test_chunk_size_changes_no_welch_bit(self, monkeypatch):
        dp, temperature, cfg, _, nper = stream_cases()["tone"]

        def folded():
            welch = WelchAccumulator(cfg.n_trajectories, nper)
            acc = CovarianceAccumulator(cfg.n_trajectories)
            fold([(Chain(dp, temperature, cfg, record_only=True), welch),
                  (Chain(dp, temperature, cfg), acc)])
            return welch.spectrum(cfg.dt)[1], acc.covariances()
        psd, covs = folded()
        for lanes in (2, 10):
            monkeypatch.setattr(simulation, "_CHUNK", lanes * simulation._LANE)
            other_psd, other_covs = folded()
            assert np.array_equal(other_psd, psd)
            np.testing.assert_allclose(other_covs, covs, rtol=1e-12, atol=0)

    def test_chained_runs_are_bit_identical_to_single_runs(self, monkeypatch):
        # every buffer is allocated full of NaN, the pass's workspace and the
        # Welch scratch the blocks take turns in among them, so a value a
        # reused buffer kept from an earlier chunk, batch, block or chain
        # cannot pass unseen
        empty = np.empty

        def stale(*args, **kwargs):
            array = empty(*args, **kwargs)
            if array.dtype.kind in "fc":
                array.fill(np.nan)
            return array
        monkeypatch.setattr(np, "empty", stale)

        # one draw stepped by a record-only chain of two reservoir blocks
        # gives each reservoir the spectrum of its own full run, three
        # trajectories filling part of a Welch batch
        dp = desk_dp(r_m=1.2)
        cfg = mid_lane_config(dp)
        reservoir = SqueezedReservoir(r_n=1.2, phi_n=math.pi)
        nper = 101
        chained = WelchAccumulator(cfg.n_trajectories, nper, 2)
        with np.errstate(invalid="raise"):
            fold([(Chain(dp, 0.05, cfg, (None, reservoir), record_only=True), chained)])
        omega, psds = chained.spectrum(cfg.dt)
        for psd, res in zip(psds, [None, reservoir]):
            single = WelchAccumulator(cfg.n_trajectories, nper)
            fold([(Chain(dp, 0.05, cfg, (res,), record_only=True), single)])
            stored = welch_psd(simulate(dp, 0.05, cfg, reservoir=res).output_record,
                               nper, cfg.dt)
            single_omega, [single_psd] = single.spectrum(cfg.dt)
            for other in ((single_omega, single_psd, single.segments), stored):
                assert np.array_equal(other[0], omega)
                assert np.array_equal(other[1], psd)
                assert other[2] == chained.segments == 3 * 11

        # one pass over chains of other parameters, steps, burn-ins,
        # trajectory counts, lengths, reservoirs and temperatures gives each
        # chain, and each reservoir block of a chain, the bits of its own
        # run, in chunks of 10 lanes of every row; a late chain keeps no
        # step of the chunks in which an early one does, so it is fed fewer
        # parts, and nothing may overflow or turn invalid
        monkeypatch.setattr(simulation, "_CHUNK", 10 * simulation._LANE)
        squeezed, detuned = desk_dp(r_m=1.5), coupled_detuned_dp()
        early = quick_config(dp, duration=0.6, n_trajectories=1)
        late = replace(early, burn_in=early.burn_in * 1.3, n_trajectories=3,
                       duration=early.duration - 0.3 * early.burn_in)
        assert early.dt == late.dt == cfg.dt
        assert simulation._drawn(early) == simulation._drawn(late) != simulation._drawn(cfg)
        chains = [
            Chain(dp, 0.05, cfg, (reservoir,)),
            Chain(squeezed, 0.05, quick_config(squeezed, 0.05, 5), record_only=True),
            Chain(detuned, 2.6, quick_config(detuned, 1.5, 2, accuracy=0.02)),
            Chain(squeezed, 0.05, quick_config(squeezed, 0.2, 1)),
            Chain(dp, 0.05, late, (reservoir,), record_only=True),
            Chain(dp, 0.05, early, record_only=True),
            Chain(dp, 2.6, cfg, record_only=True),
            Chain(dp, 0.05, early, (reservoir, None)),
            Chain(dp, 0.05, late, (reservoir,)),
            Chain(dp, 0.05, late, (None, reservoir), record_only=True),
        ]
        recorded = [Recorded() for _ in chains]
        with np.errstate(over="raise", invalid="raise"):
            fold(list(zip(chains, recorded)))
        assert len(recorded[4].parts) < len(recorded[5].parts)
        for chain, acc in zip(chains, recorded):
            traces = [simulate(chain.dp, chain.temperature, chain.cfg, reservoir=res)
                      for res in chain.reservoirs]
            part = np.concatenate(acc.parts, axis=-1)
            if chain.record_only:
                alone = np.concatenate([trace.output_record for trace in traces])
            else:
                alone = np.concatenate([np.moveaxis(trace.quadratures, -1, 0)
                                        for trace in traces], axis=1)
            assert np.array_equal(part, alone)
        # the two-reservoir record, folded into one two-block accumulator,
        # gives each block the spectrum of its reservoir's run alone
        welch = WelchAccumulator(late.n_trajectories, nper, 2)
        for part in recorded[-1].parts:
            welch.add(part)
        omega, psds = welch.spectrum(late.dt)
        for res, psd in zip(chains[-1].reservoirs, psds):
            single = WelchAccumulator(late.n_trajectories, nper)
            fold([(Chain(dp, 0.05, late, (res,), record_only=True), single)])
            single_omega, [single_psd] = single.spectrum(late.dt)
            assert np.array_equal(single_omega, omega) and np.array_equal(single_psd, psd)
            assert single.segments == welch.segments > 0
        with pytest.raises(ConfigurationError, match="one seed"):
            fold([(chains[0], Recorded()),
                  (replace(chains[1], cfg=replace(chains[1].cfg, seed=12)), Recorded())])

    def test_an_empty_pass_is_refused(self, monkeypatch):
        dp = desk_dp()
        cfg = quick_config(dp, duration=0.1, n_trajectories=2)
        with pytest.raises(ConfigurationError, match="at least one chain"):
            fold([])
        # a chain of no reservoir is refused before any stepping
        stepped = count_scans(monkeypatch)
        for chains in ([Chain(dp, 0.05, cfg, ())],
                       [Chain(dp, 0.05, cfg), Chain(dp, 0.05, cfg, (), record_only=True)]):
            with pytest.raises(ConfigurationError, match="at least one reservoir"):
                fold([(chain, Recorded()) for chain in chains])
        assert stepped == []

    def test_fold_refuses_a_chain_without_an_accumulator(self, monkeypatch):
        # a pass takes (chain, accumulator) pairs: a bare chain, or a chain
        # alone in a tuple, cannot be unpacked, and a chain paired with None
        # has nothing to add its steps to, so each is refused before any
        # scan is built, wherever it stands in the list
        dp = desk_dp()
        cfg = quick_config(dp, duration=0.1, n_trajectories=2)
        full, record = Chain(dp, 0.05, cfg), Chain(dp, 0.05, cfg, record_only=True)
        stepped = count_scans(monkeypatch)
        for pairs in ([full], [(full, CovarianceAccumulator(2)), record],
                      [(record,)], [(full, CovarianceAccumulator(2)), (record,)]):
            with pytest.raises((TypeError, ValueError), match="unpack"):
                fold(pairs)
        for pairs in ([(full, None)], [(record, None)],
                      [(full, CovarianceAccumulator(2)), (record, None)]):
            with pytest.raises(ConfigurationError, match="accumulator"):
                fold(pairs)
        assert stepped == []

    def test_fold_adds_each_chain_s_chunks_in_chain_order(self, monkeypatch):
        # each kept part goes to its own chain's accumulator, chunk by chunk
        # and chain by chain; a late chain keeps no step of the first chunks,
        # and those chunks of burn-in alone reach no accumulator.  A
        # record-only chain steps half a chunk, two stream steps a step, and
        # adds its record of a chunk in one part; a full chain adds a chunk's
        # quadratures in at most three, the lanes where its burn-in and its
        # run end and the whole lanes between
        monkeypatch.setattr(simulation, "_CHUNK", 10 * simulation._LANE)
        dp = desk_dp(r_m=1.2)
        early = quick_config(dp, duration=0.6, n_trajectories=1)
        late = replace(early, burn_in=early.burn_in * 1.3, n_trajectories=3)
        chains = [Chain(dp, 0.05, late, record_only=True), Chain(dp, 0.05, early),
                  Chain(dp, 0.05, early, record_only=True)]
        steps = []
        step = simulation._Stepper.step

        def logged_step(self, *args):
            steps.append([])
            step(self, *args)
        monkeypatch.setattr(simulation._Stepper, "step", logged_step)

        class Logged:
            def __init__(self, index):
                self.index = index

            def add(self, part):
                steps[-1].append((self.index, flat_copy(part)))
        fold([(chain, Logged(i)) for i, chain in enumerate(chains)])
        assert 1 < max(map(len, steps)) <= 3
        assert all(len(parts) <= 1 for parts in steps
                   if parts and chains[parts[0][0]].record_only)
        # one entry per chunk and chain that was fed, and every part in order
        fed = [{i for i, _ in parts} for parts in steps if parts]
        assert all(len(indices) == 1 for indices in fed)
        added = [part for parts in steps for part in parts]
        # the chunks in which each chain keeps a step, from its step counts
        chunk = simulation._CHUNK
        strides = [simulation._stride(c) for c in chains]
        assert strides == [2, 1, 2]
        expected = [i for pos in range(0, max(simulation._stream_extents(chains)), chunk)
                    for i, (c, stride) in enumerate(zip(chains, strides))
                    if max(pos // stride, simulation._steps(c.cfg)[0]) < min(
                        (pos + chunk) // stride, sum(simulation._steps(c.cfg)))]
        # the late chain keeps its first step after the early ones
        assert expected[0] == 1 and expected.index(2) < expected.index(0)
        assert [i for [i] in fed] == expected
        for i, chain in enumerate(chains):
            trace = simulate(chain.dp, chain.temperature, chain.cfg)
            alone = (trace.output_record if chain.record_only
                     else np.moveaxis(trace.quadratures, -1, 0))
            assert np.array_equal(np.concatenate([part for j, part in added if j == i],
                                                 axis=-1), alone)

    def test_pieces_fold_like_one_array(self):
        rng = np.random.default_rng(7)
        record = rng.standard_normal((3, 5000))
        whole = WelchAccumulator(3, 700)
        pieces = WelchAccumulator(3, 700)
        whole.add(record)
        for a, b in [(0, 1), (1, 699), (699, 2300), (2300, 5000)]:
            pieces.add(record[:, a:b])
        assert whole.segments == pieces.segments == 3 * 13
        assert np.array_equal(whole.spectrum(1e-3)[1], pieces.spectrum(1e-3)[1])
        acc = CovarianceAccumulator(2)
        states = rng.standard_normal((4, 2, 3001)) + 5.0
        acc.add(states[:, :, :1])
        acc.add(states[:, :, 1:])
        expected = np.einsum("itn,jtn->tij", states, states) / states.shape[2]
        np.testing.assert_allclose(acc.covariances(), expected, rtol=1e-12, atol=0)

    def test_blocks_fold_like_one_block_accumulators(self):
        # five rows a block: each block is batched as 4 rows and 1, and a
        # batch that ran on past its block would take the other's rows
        assert 5 % simulation._WELCH_ROWS
        record = np.random.default_rng(9).standard_normal((10, 3000))
        both = WelchAccumulator(5, 500, 2)
        for a, b in [(0, 700), (700, 3000)]:
            both.add(record[:, a:b])
        omega, psds = both.spectrum(1e-3)
        assert psds.shape == (2, 251)
        for rows, psd in zip((record[:5], record[5:]), psds):
            alone = WelchAccumulator(5, 500)
            alone.add(rows)
            assert alone.segments == both.segments == 5 * 11
            single_omega, [single] = alone.spectrum(1e-3)
            assert np.array_equal(single_omega, omega) and np.array_equal(single, psd)

    def test_a_record_shorter_than_a_segment_has_no_spectrum(self):
        welch = WelchAccumulator(2, 64)
        welch.add(np.ones((2, 63)))
        with pytest.raises(ParameterError, match="segment"):
            welch.spectrum(1e-3)
        with pytest.raises(ParameterError, match="segment_length"):
            WelchAccumulator(2, 1)
        dp = desk_dp()
        cfg = quick_config(dp, duration=1.0, n_trajectories=2)
        one_step = replace(cfg, duration=cfg.dt)
        welch = WelchAccumulator(2, 64)
        fold([(Chain(dp, 0.05, one_step, record_only=True), welch)])
        with pytest.raises(ParameterError, match="segment"):
            welch.spectrum(one_step.dt)
        with pytest.raises(ParameterError, match="one sample"):
            CovarianceAccumulator(2).covariances()

    def test_covariances_refuse_a_chunk_with_the_wrong_rows(self):
        # numpy would broadcast the single row into three covariances
        with pytest.raises(ParameterError, match="1 rows fed to 3"):
            CovarianceAccumulator(3).add(np.ones((4, 1, 10)))

    def test_welch_refuses_a_record_with_the_wrong_rows(self):
        # numpy would broadcast the single row into both rows of the ring
        with pytest.raises(ParameterError, match="1 rows fed to 2 rows"):
            WelchAccumulator(2, 64).add(np.ones((1, 200)))
        with pytest.raises(ParameterError, match="2 rows fed to 4 rows"):
            WelchAccumulator(2, 64, 2).add(np.ones((2, 200)))


def test_streamed_psd_memory_does_not_grow_with_the_run():
    # the Welch ring dominates the working set at this segment length.  A
    # pass's peak (its accumulator made and filled) is read apart from the
    # spectrum's, whose temporaries would otherwise set the run's peak
    dp = desk_dp(r_m=1.0)
    ntraj, nper = 4, 2**16
    ring, bins = ntraj * nper * 8, nper // 2 + 1
    # trajectory-steps of ntraj rows of a record-only chain's chunk, half
    # the pass's, since it reads two stream steps a step
    half = ntraj * simulation._CHUNK // 2

    def config(segments):
        dt = 0.015 / fastest_rate(dp)
        steps = int(nper * (1 + (segments - 1) * 0.5)) + 2
        return SimulationConfig(dt=dt, duration=steps * dt,
                                burn_in=13.0 / min(dp.kappa_a, dp.kappa_m),
                                n_trajectories=ntraj, seed=3)

    def peak(run):
        """The peak traced while ``run()`` runs, and what it returns."""
        tracemalloc.start()
        try:
            result = run()
            return tracemalloc.get_traced_memory()[1], result
        finally:
            tracemalloc.stop()

    def streamed(segments, reservoirs=(None,)):
        """The peaks of the pass and of the spectrum read after it."""
        def run():
            welch = WelchAccumulator(ntraj, nper, len(reservoirs))
            fold([(Chain(dp, 0.05, config(segments), reservoirs, record_only=True), welch)])
            return welch
        passed, welch = peak(run)
        return passed, peak(lambda: welch.spectrum(config(segments).dt))[0]

    def scratch(reservoirs):
        # the pass's scratch for a record-only chain, which steps X_M and P_a
        # in its lane slots and holds its record, over the record's own
        # increments, and a temporary for sums and products
        chain = Chain(dp, 0.05, config(4), reservoirs, record_only=True)
        return simulation._Stepper(chain, None).size * 8

    short, short_spectrum = streamed(4)
    long, _ = streamed(16)
    # two reservoirs on one chain add, each from its shape: a Welch ring
    # block, a power row, the scratch of ntraj more rows, whose lane slots
    # hold the increments and then the states, and numpy's buffered-iterator
    # copies of the three operands of an update on the lanes' strided views
    nulling = (None, SqueezedReservoir(r_n=1.0, phi_n=math.pi))
    grouped, grouped_spectrum = streamed(4, nulling)
    block = ring + bins * 8 + scratch(nulling) - scratch((None,)) + 3 * half * 8
    stored, _ = peak(lambda: simulate(dp, 0.05, config(4)))
    assert short <= 8 * ring
    assert long <= 1.02 * short
    assert grouped <= short + block
    # the spectrum holds a psd row per block, and rfftfreq's integer ramp,
    # its scaled copy and omega, all of bins entries
    assert short_spectrum <= (1 + 3) * bins * 8
    assert grouped_spectrum <= (2 + 3) * bins * 8
    assert stored > 8 * ring


def test_a_pass_allocates_nothing_per_chunk(monkeypatch):
    # once the first chunk is folded the pass's workspace and the Welch
    # scratch exist; no later chunk, segments completing and rings shifting
    # among them, may rise above its own start by a quarter of a Welch ring,
    # room for what numpy's buffered iterator takes inside a broadcasting
    # ufunc call (up to 2 x 64 kB).  The chunk is widened to 512 lanes so
    # that a temporary of one chain's chunk (8 rows), or of a batch's
    # segments, 512 kB or more, would stand above that.  Each chunk's rise
    # is read as its record is added, from the level after the last one's
    monkeypatch.setattr(simulation, "_CHUNK", 512 * simulation._LANE)
    dp = desk_dp(r_m=1.0)
    ntraj, nper = 4, 2**15
    ring = ntraj * nper * 8
    dt = 0.015 / fastest_rate(dp)
    cfg = SimulationConfig(dt=dt, duration=4 * nper * dt,
                           burn_in=13.0 / min(dp.kappa_a, dp.kappa_m),
                           n_trajectories=ntraj, seed=3)
    reservoirs = (None, SqueezedReservoir(r_n=1.0, phi_n=math.pi))

    class Measured:
        def __init__(self):
            self.start, self.rises = None, []

        def add(self, record):
            welch.add(record)
            if self.start is None:
                self.first_segments = welch.segments
            else:
                self.rises.append(tracemalloc.get_traced_memory()[1] - self.start)
            tracemalloc.reset_peak()
            self.start = tracemalloc.get_traced_memory()[0]
    measured = Measured()
    tracemalloc.start()
    try:
        welch = WelchAccumulator(ntraj, nper, len(reservoirs))
        fold([(Chain(dp, 0.05, cfg, reservoirs, record_only=True), measured)])
    finally:
        tracemalloc.stop()
    assert measured.first_segments == 0 and len(measured.rises) >= 6
    assert welch.segments >= 3 * ntraj
    assert max(measured.rises) <= ring / 4


def test_a_pass_reserves_increments_for_the_components_it_steps(monkeypatch):
    # at the backaction-evading point a record-only scan steps X_M and P_a
    # alone, so the lane slots of the pass's scratch hold their increments,
    # two components, not four, and a row beside them the record's own; a
    # full scan steps all four and holds no record.  Every chunk takes its
    # regions in the pass's one scratch, which is as large as its chain needs
    reserved = []
    regions = simulation._Stepper.regions

    def spy(self, work, n):
        scan, product, record = regions(self, work, n)
        reserved.append((self.scan.slots(scan, n).shape[1], record is not None,
                         id(work), work.size == self.size))
        return scan, product, record
    monkeypatch.setattr(simulation._Stepper, "regions", spy)
    dp, temperature, cfg, _, nper = stream_cases()["squeezed"]
    fold([(Chain(dp, temperature, cfg, record_only=True),
           WelchAccumulator(cfg.n_trajectories, nper))])
    record_only = reserved[:]
    fold([(Chain(dp, temperature, cfg), CovarianceAccumulator(cfg.n_trajectories))])
    full = reserved[len(record_only):]
    assert len(record_only) > 1 and len(full) > 1
    for kind, components, record in ((record_only, 2, True), (full, 4, False)):
        assert len(set(kind)) == 1
        assert kind[0][:2] == (components, record) and kind[0][3]


def test_a_pass_holds_no_buffer_per_chain():
    # each chain's states go over its spent increments in the pass's one
    # scratch, so a second full chain of the same shape adds its
    # accumulator's moments and its own scan and stepper: W (4 x 128
    # strided doubles, 8 kB), the smaller matrices and the lane carry's
    # states, about 13 kB, within a 32 kB margin.  A buffer of one chunk of
    # its states would add 4 x 16 rows x 1024 steps, 512 kB.  The first
    # pass is not read: it takes the one-time costs of the first call
    dp = desk_dp(r_m=1.0)
    ntraj = 16
    cfg = quick_config(dp, duration=0.5, n_trajectories=ntraj)
    assert simulation._drawn(cfg) > 2 * simulation._CHUNK
    accumulator = 4 * 4 * ntraj * 8
    margin = 32 * 1024

    def peak(chains):
        tracemalloc.start()
        try:
            fold([(Chain(dp, 0.05, cfg), CovarianceAccumulator(ntraj))
                  for _ in range(chains)])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak(1)
    one, two = peak(1), peak(2)
    assert two - one <= accumulator + margin


def test_a_full_pass_holds_each_chunk_once():
    # a pass of one full chain of 32 rows, four components stepped, peaks
    # (tracemalloc) within what its array shapes take: the chunk's normals,
    # the lane slots that hold its increments and then its states, and the
    # scan's lane ends, starts and terms, with room for one call's two 64 kB
    # iterator buffers and a margin for the stepper's, scan's and
    # accumulator's own arrays.  Its Cholesky factor is diagonal, so no
    # increment has several terms and the chain takes no temporary of sums
    # and products.  A region of the chunk's increments beside its lanes,
    # 1 MB, does not fit
    dp = desk_dp(r_m=1.0)
    rows, chunk, lane = 32, simulation._CHUNK, simulation._LANE
    cfg = quick_config(dp, duration=0.5, n_trajectories=rows)
    assert simulation._drawn(cfg) > 2 * chunk
    factor = np.linalg.cholesky(simulation._diffusion(dp, 0.05, None) * cfg.dt)
    assert np.count_nonzero(factor) == 4
    normals = rows * chunk * 4 * 8
    lanes = (lane + 1) * 4 * rows * chunk // lane * 8
    scan = (4 + 8) * rows * chunk // lane * 8
    bound = normals + lanes + scan + 2 * 64 * 1024 + 96 * 1024

    def peak():
        tracemalloc.start()
        try:
            fold([(Chain(dp, 0.05, cfg), CovarianceAccumulator(rows))])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    peak()
    measured = peak()
    assert measured <= bound < measured + 4 * rows * chunk * 8
