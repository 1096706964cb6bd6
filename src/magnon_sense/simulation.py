"""Stochastic Langevin oracle for the quadrature dynamics.

For linear dynamics with Gaussian inputs the symmetric-ordered correlators
coincide with those of a classical Gaussian process, so the quadrature
Langevin equations are integrated here as c-number SDEs and their output
statistics compared against the analytic spectra.  Integration is plain
Euler-Maruyama with fixed step: the noise is additive, so the scheme is
exact in distribution up to the O(dt) drift error controlled by the
configuration guard dt * max(kappa_a, kappa_m, |detunings|, 2 g') < 0.1.

Discretization choices that matter:

* The magnon-channel increments are drawn through the Cholesky factor of
  [[v_x, c_xp], [c_xp, v_p]] * dt so the squeezed (and, with a reservoir,
  cross-correlated) input statistics hold exactly at the increment level.
* The output record samples sqrt(kappa_a) * P_a(t_k) - dW_P[k]/dt using the
  *same* phase-quadrature increment that drives step k.  Re-drawing that
  noise independently would destroy the input-output interference that makes
  a passive cavity reflect unit noise (|k4| = 1).
* Each trajectory owns a counter-based RNG stream (numpy Philox) seeded from
  (seed, trajectory index), so traces are bit-reproducible regardless of
  execution order or trajectory count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, signal as _signal

from .model import ConfigurationError, DerivedParameters, ParameterError
from .spectra import (
    QuadratureVariances,
    SqueezedReservoir,
    _require_evading_point,
    input_densities,
)
from .transfer import drift_system, require_stable

__all__ = [
    "ConfigurationError",
    "SimulationConfig",
    "ToneSignal",
    "SimulationTrace",
    "simulate",
    "estimate_psd",
    "measure_gain",
    "lyapunov_covariance",
    "trace_covariances",
    "export_trace",
    "count_segments",
]

_RNG_NAME = f"numpy.random.Philox (numpy {np.__version__})"

#: dimensionless accuracy guard: dt times the fastest rate must stay below this
_DT_GUARD = 0.1

_CHUNK = 65536


@dataclass(frozen=True)
class SimulationConfig:
    """Integration settings.

    ``dt`` must resolve the fastest rate (see module docstring) and
    ``burn_in`` must cover at least 10 relaxation times of the slowest decay
    so that recorded samples are stationary.  Identical (parameters, config,
    seed) produce bit-identical traces.
    """

    dt: float
    duration: float
    burn_in: float
    n_trajectories: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.dt <= 0 or not math.isfinite(self.dt):
            raise ConfigurationError("dt must be positive and finite")
        if not (self.duration > 0 and self.burn_in >= 0
                and math.isfinite(self.duration) and math.isfinite(self.burn_in)):
            raise ConfigurationError(
                "duration must be finite and > 0, burn_in finite and >= 0")
        if self.n_trajectories < 1:
            raise ConfigurationError("n_trajectories must be >= 1")


@dataclass(frozen=True)
class ToneSignal:
    """Monochromatic test field B_ex(t) = amplitude * cos((carrier + frequency) t).

    ``frequency`` is the offset of the tone from the magnon pump (rad/s).
    In ``envelope`` mode only the slowly rotating part of the drive is
    injected, which is the regime the analysis frequencies live in; in
    ``full-rate`` mode the exact sin/cos products at the pump frequency are
    integrated, which requires ``carrier`` (the pump frequency omega_b) and a
    step small enough to resolve it.
    """

    amplitude: float            # Tesla
    frequency: float            # offset delta = omega_s - omega_b, rad/s
    mode: str = "envelope"
    carrier: float | None = None  # omega_b, rad/s; full-rate mode only

    def __post_init__(self):
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ParameterError("tone amplitude must be finite and >= 0")
        if not math.isfinite(self.frequency):
            raise ParameterError("tone frequency must be finite")
        if self.mode not in ("envelope", "full-rate"):
            raise ParameterError(f"unknown injection mode {self.mode!r}")
        if self.mode == "full-rate" and (self.carrier is None or self.carrier <= 0):
            raise ParameterError("full-rate injection requires a positive carrier frequency")


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled quadratures and reconstructed output record, after burn-in.

    ``quadratures`` has shape (n_trajectories, n_samples, 4) over the state
    order (X_M, P_M, X_a, P_a); ``output_record`` has shape
    (n_trajectories, n_samples).  ``metadata`` records the parameters, seed,
    RNG algorithm and step so a trace is self-describing.
    """

    times: np.ndarray
    quadratures: np.ndarray
    output_record: np.ndarray
    metadata: dict = field(default_factory=dict)

    @property
    def n_trajectories(self) -> int:
        return self.output_record.shape[0]

    @property
    def n_samples(self) -> int:
        return self.output_record.shape[1]


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def _validate_config(dp: DerivedParameters, cfg: SimulationConfig,
                     signal: ToneSignal | None, drift: np.ndarray) -> None:
    rates = [dp.kappa_a, dp.kappa_m, abs(dp.delta_a), abs(dp.delta_0p),
             2.0 * dp.g_prime]
    if signal is not None and signal.mode == "full-rate":
        rates.append(2.0 * signal.carrier + abs(signal.frequency))
    fastest = max(rates)
    if cfg.dt * fastest >= _DT_GUARD:
        raise ConfigurationError(
            f"dt = {cfg.dt!r} s does not resolve the fastest rate "
            f"{fastest!r} rad/s (need dt * rate < {_DT_GUARD})")
    slowest = min(dp.kappa_a, dp.kappa_m)
    if cfg.burn_in < 10.0 / slowest:
        raise ConfigurationError(
            f"burn_in = {cfg.burn_in!r} s is shorter than 10 relaxation times "
            f"(need >= {10.0 / slowest!r} s)")
    require_stable(drift)


def _input_noise(dp, temperature, reservoir, magnon_variances, cavity_variance):
    """Input densities from the parameters, unless the caller overrides them."""
    cavity, magnon = input_densities(dp, temperature, reservoir)
    return (magnon if magnon_variances is None else magnon_variances,
            cavity if cavity_variance is None else cavity_variance)


def _drive_arrays(signal: ToneSignal, dp: DerivedParameters,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic drive increments for the X_M and P_M equations over t."""
    b0 = signal.amplitude
    if signal.mode == "envelope":
        amp = dp.lambda_prime * b0 / math.sqrt(2.0)
        dx = amp * np.sin(signal.frequency * t)
        dpp = amp * np.cos(signal.frequency * t)
    else:
        omega_s = signal.carrier + signal.frequency
        b_ex = b0 * np.cos(omega_s * t)
        root2_lam = math.sqrt(2.0) * dp.lambda_prime
        dx = -root2_lam * b_ex * np.sin(signal.carrier * t)
        dpp = root2_lam * b_ex * np.cos(signal.carrier * t)
    return dx, dpp


def simulate(
    dp: DerivedParameters,
    temperature: float,
    cfg: SimulationConfig,
    reservoir: SqueezedReservoir | None = None,
    signal: ToneSignal | None = None,
    magnon_variances: QuadratureVariances | None = None,
    cavity_variance: float | None = None,
) -> SimulationTrace:
    """Integrate the quadrature Langevin equations and record the output.

    Noise statistics follow from the parameters through
    :func:`~magnon_sense.spectra.input_densities`: magnon increments have the
    squeezed or reservoir-engineered variances and cavity increments the
    thermal density nbar_a + 1/2 per quadrature.
    ``magnon_variances`` / ``cavity_variance`` override those values, which
    is useful for diagnostics (zero noise makes the homogeneous system decay
    to an identically zero trace from a zero initial state).

    Raises :class:`ConfigurationError` before any stepping if the
    configuration guard fails or the drift is unstable.
    """
    system = drift_system(dp)
    _validate_config(dp, cfg, signal, system.drift)
    magnon_variances, cavity_variance = _input_noise(
        dp, temperature, reservoir, magnon_variances, cavity_variance)
    if cavity_variance < 0:
        raise ParameterError("cavity variance density must be >= 0")

    dt = cfg.dt
    n_burn = int(round(cfg.burn_in / dt))
    n_keep = int(round(cfg.duration / dt))
    if n_keep < 1:
        raise ConfigurationError("duration shorter than one step")
    n_total = n_burn + n_keep
    ntraj = cfg.n_trajectories

    # one-step propagator and per-step noise scalings
    step = np.eye(4) + system.drift * dt
    step_t = np.ascontiguousarray(step.T)
    cov = np.array([[magnon_variances.v_x, magnon_variances.c_xp],
                    [magnon_variances.c_xp, magnon_variances.v_p]])
    try:
        chol = np.linalg.cholesky(cov) if np.any(cov) else np.zeros((2, 2))
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            "magnon variance matrix is not positive semidefinite") from exc
    chol_t = (chol * math.sqrt(dt)).T
    cav_scale = math.sqrt(cavity_variance * dt)
    sq_km = math.sqrt(dp.kappa_m)
    sq_ka = math.sqrt(dp.kappa_a)

    rngs = [_trajectory_rng(cfg.seed, i) for i in range(ntraj)]
    state = np.zeros((ntraj, 4))
    quad = np.empty((ntraj, n_keep, 4))
    out = np.empty((ntraj, n_keep))

    pos = 0
    while pos < n_total:
        n = min(_CHUNK, n_total - pos)
        z = np.stack([rng.standard_normal((n, 4)) for rng in rngs])
        dw_pa = z[:, :, 3] * cav_scale
        incr = np.empty_like(z)
        incr[:, :, :2] = (z[:, :, :2] @ chol_t) * sq_km
        incr[:, :, 2] = z[:, :, 2] * (cav_scale * sq_ka)
        incr[:, :, 3] = dw_pa * sq_ka
        if signal is not None and signal.amplitude > 0:
            t_chunk = (pos + np.arange(n)) * dt
            dx, dpp = _drive_arrays(signal, dp, t_chunk)
            incr[:, :, 0] += dx * dt
            incr[:, :, 1] += dpp * dt
        for j in range(n):
            idx = pos + j
            if idx >= n_burn:
                k = idx - n_burn
                quad[:, k, :] = state
                out[:, k] = sq_ka * state[:, 3] - dw_pa[:, j] / dt
            state = state @ step_t + incr[:, j]
        pos += n

    times = (n_burn + np.arange(n_keep)) * dt
    metadata = {
        "rng": _RNG_NAME,
        "seed": cfg.seed,
        "dt": dt,
        "burn_in": cfg.burn_in,
        "n_trajectories": ntraj,
        "temperature": temperature,
        "r_m": dp.r_m,
        "g_prime": dp.g_prime,
        "kappa_a": dp.kappa_a,
        "kappa_m": dp.kappa_m,
        "delta_a": dp.delta_a,
        "delta_0p": dp.delta_0p,
        "reservoir": None if reservoir is None else (reservoir.r_n, reservoir.phi_n),
        "signal": None if signal is None else (
            signal.amplitude, signal.frequency, signal.mode, signal.carrier),
    }
    return SimulationTrace(times=times, quadratures=quad, output_record=out,
                           metadata=metadata)


def count_segments(n_samples: int, segment_length: int, overlap: float) -> int:
    """Number of Welch segments per trajectory for the given settings."""
    step = max(1, int(round(segment_length * (1.0 - overlap))))
    if n_samples < segment_length:
        return 0
    return 1 + (n_samples - segment_length) // step


def estimate_psd(
    trace: SimulationTrace,
    segment_length: int,
    overlap: float = 0.5,
) -> tuple[np.ndarray, np.ndarray]:
    """Welch estimate of the symmetrized output spectral density.

    Returns (omega, psd) with omega in rad/s on [0, Nyquist].  The
    normalization matches the analytic spectra: a white record representing
    variance density V (delta-correlated in time) estimates flat at V, i.e.
    the one-sided scipy density is halved.  Segments are Hann-windowed and
    averaged within and across trajectories.
    """
    if trace.n_samples == 0 or trace.output_record.size == 0:
        raise ParameterError("trace is empty")
    if not 0 <= overlap < 1:
        raise ParameterError("overlap must satisfy 0 <= overlap < 1")
    segment_length = int(segment_length)
    if segment_length < 2 or segment_length > trace.n_samples:
        raise ParameterError(
            f"segment_length must be in [2, {trace.n_samples}], got {segment_length}")
    dt = float(trace.times[1] - trace.times[0]) if trace.n_samples > 1 else \
        float(trace.metadata.get("dt", 1.0))
    noverlap = int(round(segment_length * overlap))
    freq, pxx = _signal.welch(
        trace.output_record, fs=1.0 / dt, nperseg=segment_length,
        noverlap=noverlap, detrend="constant", axis=-1)
    psd = pxx.mean(axis=0) / 2.0
    return 2.0 * math.pi * freq, psd


def tone_power(omega: np.ndarray, psd: np.ndarray, omega_tone: float,
               peak_halfwidth_bins: int = 4,
               floor_bins: tuple[int, int] = (10, 30)) -> float:
    """Integrated power of a spectral line, floor-subtracted.

    The local noise floor is the median of an annulus of bins on both sides
    of the peak; the floor-subtracted density is integrated over the peak
    window.  With this module's density convention the mean-square power of
    a real tone is the integral over its (positive-frequency) line divided
    by pi.
    """
    ipk = int(np.argmin(np.abs(omega - omega_tone)))
    lo, hi = floor_bins
    annulus = np.concatenate([
        psd[max(ipk - hi, 0):max(ipk - lo, 0)],
        psd[ipk + lo:ipk + hi],
    ])
    if annulus.size == 0:
        raise ParameterError("spectrum too short to estimate a noise floor")
    floor = float(np.median(annulus))
    window = psd[max(ipk - peak_halfwidth_bins, 0):ipk + peak_halfwidth_bins + 1]
    d_omega = float(omega[1] - omega[0])
    return float(np.sum(window - floor) * d_omega / math.pi)


def measure_gain(
    dp: DerivedParameters,
    temperature: float,
    tone: ToneSignal,
    cfg: SimulationConfig,
    segment_length: int | None = None,
) -> float:
    """Empirical response at the tone frequency, by injection and PSD peak.

    The output line power is divided by the field-referred input density
    integrated over the tone, lambda^2 B0^2 / (4 kappa_m) with lambda the
    bare coupling; for matched conventions this ratio estimates the analytic
    response at the tone offset.  Requires the backaction-evading point,
    where the phase-channel image of the tone does not reach the output.
    """
    if tone.amplitude <= 0:
        raise ParameterError("measure_gain requires a tone with positive amplitude")
    _require_evading_point(dp)
    trace = simulate(dp, temperature, cfg, signal=tone)
    if segment_length is None:
        # resolve the tone with ~8 bins between 0 and the offset
        want = 8.0 * 2.0 * math.pi / (abs(tone.frequency) * cfg.dt)
        segment_length = int(min(max(want, 64), trace.n_samples))
    omega, psd = estimate_psd(trace, segment_length)
    p_line = tone_power(omega, psd, abs(tone.frequency))
    lam = dp.lambda_bare
    p_ref = lam**2 * tone.amplitude**2 / (4.0 * dp.kappa_m)
    return p_line / p_ref


def lyapunov_covariance(
    dp: DerivedParameters,
    temperature: float,
    reservoir: SqueezedReservoir | None = None,
    magnon_variances: QuadratureVariances | None = None,
    cavity_variance: float | None = None,
) -> np.ndarray:
    """Steady-state covariance of the quadratures from the Lyapunov equation.

    Solves A V + V A^T + D = 0 with the diffusion matrix D built from the
    same input variance densities the simulation draws its increments from.
    This is the analytic check used against long-run sample covariances.
    """
    system = drift_system(dp)
    magnon_variances, cavity_variance = _input_noise(
        dp, temperature, reservoir, magnon_variances, cavity_variance)
    diffusion = np.zeros((4, 4))
    diffusion[0, 0] = dp.kappa_m * magnon_variances.v_x
    diffusion[1, 1] = dp.kappa_m * magnon_variances.v_p
    diffusion[0, 1] = diffusion[1, 0] = dp.kappa_m * magnon_variances.c_xp
    diffusion[2, 2] = diffusion[3, 3] = dp.kappa_a * cavity_variance
    return linalg.solve_continuous_lyapunov(system.drift, -diffusion)


def trace_covariances(trace: SimulationTrace) -> np.ndarray:
    """Per-trajectory sample covariance matrices, shape (n_trajectories, 4, 4)."""
    quads = trace.quadratures
    out = np.empty((quads.shape[0], 4, 4))
    for i in range(quads.shape[0]):
        out[i] = np.cov(quads[i].T, bias=False)
    return out


def export_trace(trace: SimulationTrace, path, trajectory: int = 0) -> None:
    """Dump one trajectory as CSV with a metadata header.

    Columns: t, X_M, P_M, X_a, P_a, P_out.  The header comments record the
    parameters, seed, RNG algorithm and step size so the file is
    reproducible on its own.
    """
    if not 0 <= trajectory < trace.n_trajectories:
        raise ParameterError(
            f"trajectory index {trajectory} out of range [0, {trace.n_trajectories})")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for key in sorted(trace.metadata):
            fh.write(f"# {key} = {trace.metadata[key]!r}\n")
        fh.write(f"# trajectory = {trajectory}\n")
        fh.write("t,X_M,P_M,X_a,P_a,P_out\n")
        quads = trace.quadratures[trajectory]
        rec = trace.output_record[trajectory]
        for k in range(trace.n_samples):
            fh.write("%.12e,%.12e,%.12e,%.12e,%.12e,%.12e\n" % (
                trace.times[k], quads[k, 0], quads[k, 1], quads[k, 2],
                quads[k, 3], rec[k]))
