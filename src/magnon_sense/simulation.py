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

How the recursion x_{m+1} = S x_m + incr_m, S = I + A dt, is computed:

* It is a linear scan (Blelloch, "Prefix sums and their applications",
  1990), run without a per-step Python loop.  In the real Schur form
  S = Q T Q^T the quasi-triangular T turns it into first-order IIR filters
  (``scipy.signal.lfilter``), one real filter per real eigenvalue and one
  complex filter per complex pair, solved by back-substitution from the last
  block of T to the first (:class:`_SchurScan`).
* This is exact: it is the same linear map as stepping one step at a time,
  and differs from it only by floating-point rounding (about 1e-15 relative
  at zero detuning, 1e-13 detuned).  Back-substitution needs no eigenbasis
  of S, so the repeated eigenvalues -kappa_m/2, -kappa_a/2 at zero detuning,
  and the defective map when also kappa_a = kappa_m, are no special case.
* Steps are taken in chunks of ``_CHUNK`` = 2^15 trajectory-steps (256 kB
  per component array; 2^18 measured slower): each chunk draws its
  normals, forms its increments and filters them, and the filter states
  carry it into the next chunk exactly.  The working set besides the
  stored trace is therefore a few MB whatever the run length or trajectory
  count, and where the chunks end changes no bit of the result.  The chunk
  arithmetic is elementwise and makes no BLAS call, so concurrent runs do
  not contend through BLAS worker threads.
* Quadratures are stored quadrature-major, (4, n_trajectories, n_samples);
  ``SimulationTrace.quadratures`` is an (n_trajectories, n_samples, 4) view.

Spectra are Welch estimates (Welch, IEEE Trans. Audio Electroacoust. 15:70,
1967) whose consecutive segments share ``WELCH_OVERLAP`` of their length,
:func:`noverlap` samples; :func:`estimate_psd` and :func:`count_segments`
both hop by the rest of the segment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, signal as _signal

from .model import ConfigurationError, DerivedParameters, ParameterError
from .spectra import SqueezedReservoir, _require_evading_point, input_densities
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
    "fastest_rate",
    "noverlap",
    "WELCH_OVERLAP",
]

_RNG_NAME = f"numpy.random.Philox (numpy {np.__version__})"

#: dimensionless accuracy guard: dt times the fastest rate must stay below this
_DT_GUARD = 0.1

#: trajectory-steps per chunk of the scan: 256 kB per component array
_CHUNK = 1 << 15

#: fraction of each Welch segment shared with the next
WELCH_OVERLAP = 0.5


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
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


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
    order (X_M, P_M, X_a, P_a), a view of quadrature-major storage;
    ``output_record`` has shape
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


def fastest_rate(dp: DerivedParameters, signal: ToneSignal | None = None) -> float:
    """The fastest rate of the dynamics (rad/s), which the step must resolve.

    A full-rate tone adds its fastest product frequency, twice the carrier
    plus the offset.
    """
    rates = [dp.kappa_a, dp.kappa_m, abs(dp.delta_a), abs(dp.delta_0p),
             2.0 * dp.g_prime]
    if signal is not None and signal.mode == "full-rate":
        rates.append(2.0 * signal.carrier + abs(signal.frequency))
    return max(rates)


def _validate_config(dp: DerivedParameters, cfg: SimulationConfig,
                     signal: ToneSignal | None, drift: np.ndarray) -> None:
    fastest = fastest_rate(dp, signal)
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


def _combine(row: np.ndarray, arrays) -> np.ndarray:
    """sum_k row[k] * arrays[k] over the nonzero row[k], elementwise.

    Written out rather than as a matrix product, so that no BLAS call (and
    none of its threads) runs on the chunked path.  A lone unit coefficient
    returns its array itself, which callers only read.
    """
    total = None
    for coef, arr in zip(row, arrays):
        if coef != 0.0:
            term = arr if coef == 1.0 else coef * arr
            total = term if total is None else total + term
    return total


class _SchurScan:
    """The recursion x_{m+1} = S x_m + incr_m, one chunk of steps at a time.

    With the real Schur form S = Q T Q^T, each diagonal block of the
    quasi-triangular T is a first-order filter over the steps, driven by the
    blocks after it: a real block is one real ``lfilter`` pass with pole
    T_ii; a 2x2 block of a complex pair is one complex pass on c_i + i c_{i+1},
    where (c_i, c_{i+1}) are its coordinates in the real basis
    (Re v, Im v) of one of its eigenvectors v.  The blocks are solved from
    the last to the first, which needs no diagonalizable S, and the filter
    states carry each chunk into the next exactly, so splitting the steps
    into chunks changes no bit of the result.
    """

    def __init__(self, step: np.ndarray, x0: np.ndarray):
        t, q = linalg.schur(step, output="real")
        basis = np.eye(4)
        self._blocks = []                     # (first index, size, pole)
        i = 0
        while i < 4:
            if i < 3 and t[i + 1, i] != 0.0:
                lam, vec = np.linalg.eig(t[i:i + 2, i:i + 2])
                basis[i:i + 2, i:i + 2] = np.column_stack([vec[:, 0].real,
                                                           vec[:, 0].imag])
                self._blocks.append((i, 2, np.conj(lam[0])))
                i += 2
            else:
                self._blocks.append((i, 1, t[i, i]))
                i += 1
        self._blocks.reverse()
        inverse = np.linalg.inv(basis)
        self._to_state = q @ basis                  # x = E c
        self._from_state = inverse @ q.T            # forcing of c = F incr
        self._coupling = inverse @ t @ basis        # block upper triangular
        c0 = [_combine(row, x0) for row in self._from_state]
        self._zi = {i: (c0[i] if size == 1 else c0[i] + 1j * c0[i + 1])[:, None]
                    for i, size, _ in self._blocks}

    def __call__(self, incr, out: np.ndarray) -> np.ndarray:
        """States x_m before each increment of ``incr`` (4 arrays (ntraj, n)),
        written to ``out`` (4, ntraj, n) and returned."""
        c = [None] * 4
        for i, size, pole in self._blocks:
            later = range(i + size, 4)
            force = [_combine([*self._from_state[r], *self._coupling[r, later]],
                              [*incr, *(c[j] for j in later)])
                     for r in range(i, i + size)]
            if size == 1:
                y, zf = _signal.lfilter([0.0, 1.0], [1.0, -pole], force[0],
                                        zi=self._zi[i])
                c[i] = y
            else:
                w = np.empty(force[0].shape, complex)
                w.real, w.imag = force
                y, zf = _signal.lfilter([0.0, 1.0], [1.0, -pole], w,
                                        zi=self._zi[i])
                c[i], c[i + 1] = y.real, y.imag
            self._zi[i] = zf
        for k in range(4):
            out[k] = _combine(self._to_state[k], c)
        return out


def simulate(
    dp: DerivedParameters,
    temperature: float,
    cfg: SimulationConfig,
    reservoir: SqueezedReservoir | None = None,
    signal: ToneSignal | None = None,
) -> SimulationTrace:
    """Integrate the quadrature Langevin equations and record the output.

    Noise statistics follow from the parameters through
    :func:`~magnon_sense.spectra.input_densities`: magnon increments have the
    squeezed or reservoir-engineered variances and cavity increments the
    thermal density nbar_a + 1/2 per quadrature.

    Raises :class:`ConfigurationError` before any stepping if the
    configuration guard fails or the drift is unstable.
    """
    system = drift_system(dp)
    _validate_config(dp, cfg, signal, system.drift)
    cavity, magnon = input_densities(dp, temperature, reservoir)

    dt = cfg.dt
    n_burn = int(round(cfg.burn_in / dt))
    n_keep = int(round(cfg.duration / dt))
    if n_keep < 1:
        raise ConfigurationError("duration shorter than one step")
    n_total = n_burn + n_keep
    ntraj = cfg.n_trajectories

    step = np.eye(4) + system.drift * dt
    cov = np.array([[magnon.v_x, magnon.c_xp], [magnon.c_xp, magnon.v_p]])
    try:
        chol = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(
            "magnon variance matrix is not positive semidefinite") from exc
    mag = chol * math.sqrt(dt * dp.kappa_m)
    cav_scale = math.sqrt(cavity * dt)
    sq_ka = math.sqrt(dp.kappa_a)
    drive = signal is not None and signal.amplitude > 0

    rngs = [_trajectory_rng(cfg.seed, i) for i in range(ntraj)]
    scan = _SchurScan(step, np.zeros((4, ntraj)))
    quad = np.empty((4, ntraj, n_keep))
    out = np.empty((ntraj, n_keep))
    per_chunk = max(1, _CHUNK // ntraj)
    z = np.empty((ntraj, min(per_chunk, n_total), 4))
    burn = np.empty((4, ntraj, min(per_chunk, n_burn)))

    # chunks end at n_burn, so a kept chunk is written in place
    bounds = sorted({*range(0, n_burn, per_chunk), *range(n_burn, n_total, per_chunk)})
    for pos, end in zip(bounds, bounds[1:] + [n_total]):
        n = end - pos
        zc = z[:, :n]
        for rng, zi in zip(rngs, zc):
            rng.standard_normal(out=zi)
        dw_pa = zc[:, :, 3] * cav_scale
        incr = [zc[:, :, 0] * mag[0, 0],
                zc[:, :, 0] * mag[1, 0] + zc[:, :, 1] * mag[1, 1],
                zc[:, :, 2] * (cav_scale * sq_ka),
                dw_pa * sq_ka]
        if drive:
            dx, dpp = _drive_arrays(signal, dp, (pos + np.arange(n)) * dt)
            incr[0] += dx * dt
            incr[1] += dpp * dt
        if pos < n_burn:
            scan(incr, burn[:, :, :n])
        else:
            k = pos - n_burn
            states = scan(incr, quad[:, :, k:k + n])
            np.subtract(sq_ka * states[3], dw_pa / dt, out=out[:, k:k + n])

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
    return SimulationTrace(times=times, quadratures=np.moveaxis(quad, 0, -1),
                           output_record=out,
                           metadata=metadata)


def noverlap(segment_length: int) -> int:
    """Samples shared by consecutive Welch segments of this length."""
    return int(round(segment_length * WELCH_OVERLAP))


def count_segments(n_samples: int, segment_length: int) -> int:
    """Number of Welch segments per trajectory that :func:`estimate_psd` averages."""
    if n_samples < segment_length:
        return 0
    return 1 + (n_samples - segment_length) // (segment_length - noverlap(segment_length))


def estimate_psd(trace: SimulationTrace,
                 segment_length: int) -> tuple[np.ndarray, np.ndarray]:
    """Welch estimate of the symmetrized output spectral density.

    Returns (omega, psd) with omega in rad/s on [0, Nyquist].  The
    normalization matches the analytic spectra: a white record representing
    variance density V (delta-correlated in time) estimates flat at V, i.e.
    the one-sided scipy density is halved.  Segments are Hann-windowed and
    averaged within and across trajectories.
    """
    if trace.n_samples == 0 or trace.output_record.size == 0:
        raise ParameterError("trace is empty")
    segment_length = int(segment_length)
    if segment_length < 2 or segment_length > trace.n_samples:
        raise ParameterError(
            f"segment_length must be in [2, {trace.n_samples}], got {segment_length}")
    dt = float(trace.times[1] - trace.times[0])
    freq, pxx = _signal.welch(
        trace.output_record, fs=1.0 / dt, nperseg=segment_length,
        noverlap=noverlap(segment_length), detrend="constant", axis=-1)
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
    segment_length: int,
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
    omega, psd = estimate_psd(trace, segment_length)
    p_line = tone_power(omega, psd, abs(tone.frequency))
    lam = dp.lambda_bare
    p_ref = lam**2 * tone.amplitude**2 / (4.0 * dp.kappa_m)
    return p_line / p_ref


def lyapunov_covariance(
    dp: DerivedParameters,
    temperature: float,
    reservoir: SqueezedReservoir | None = None,
) -> np.ndarray:
    """Steady-state covariance of the quadratures from the Lyapunov equation.

    Solves A V + V A^T + D = 0 with the diffusion matrix D built from the
    same input variance densities the simulation draws its increments from.
    This is the analytic check used against long-run sample covariances.
    """
    system = drift_system(dp)
    cavity, magnon = input_densities(dp, temperature, reservoir)
    diffusion = np.zeros((4, 4))
    diffusion[0, 0] = dp.kappa_m * magnon.v_x
    diffusion[1, 1] = dp.kappa_m * magnon.v_p
    diffusion[0, 1] = diffusion[1, 0] = dp.kappa_m * magnon.c_xp
    diffusion[2, 2] = diffusion[3, 3] = dp.kappa_a * cavity
    return linalg.solve_continuous_lyapunov(system.drift, -diffusion)


def trace_covariances(trace: SimulationTrace) -> np.ndarray:
    """Per-trajectory sample covariance matrices, shape (n_trajectories, 4, 4).

    Unbiased (n - 1) estimates about each trajectory's own mean, as
    ``np.cov`` gives, for all trajectories at once.  The centred samples are
    taken a block of steps at a time, so no full-size copy of the trace is
    made.
    """
    quads = np.moveaxis(trace.quadratures, 1, -1)       # (ntraj, 4, n)
    n = quads.shape[-1]
    mean = quads.mean(axis=-1, keepdims=True)
    block = max(1, _CHUNK // quads.shape[0])
    total = np.zeros((quads.shape[0], 4, 4))
    for k in range(0, n, block):
        centred = quads[..., k:k + block] - mean
        total += centred @ np.swapaxes(centred, 1, 2)
    return total / (n - 1)


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
        rows = np.column_stack([trace.times, trace.quadratures[trajectory],
                                trace.output_record[trajectory]])
        np.savetxt(fh, rows, fmt="%.12e", delimiter=",")
