"""Stochastic Langevin oracle for the quadrature dynamics.

For linear dynamics with Gaussian inputs the symmetric-ordered correlators
coincide with those of a classical Gaussian process, so the quadrature
Langevin equations are integrated here as c-number SDEs and their output
statistics compared against the analytic spectra.  Integration is plain
Euler-Maruyama with fixed step under the guard dt * max(kappa_a, kappa_m,
|detunings|, 2 g') < 0.1; :func:`lyapunov_covariance` is the stationary
covariance of that stepped chain, its O(dt) bias included.

Discretization choices that matter:

* The increments are drawn through the Cholesky factor of D * dt, D the
  4x4 diffusion matrix (kappa_m V on the magnon block, V the magnon input
  covariance), so the squeezed (and, with a reservoir, cross-correlated)
  input statistics hold exactly at the increment level.
* The output record samples sqrt(kappa_a) * P_a(t_k) - dW_P[k]/dt using the
  *same* phase-quadrature increment that drives step k.  Re-drawing that
  noise independently would destroy the input-output interference that makes
  a passive cavity reflect unit noise (|k4| = 1).
* Each trajectory owns a counter-based RNG stream (numpy Philox) seeded from
  (seed, trajectory index), so traces are bit-reproducible regardless of
  execution order or trajectory count.

How the recursion x_{m+1} = S x_m + incr_m, S = I + A dt, is computed
(:class:`_LaneScan`, a two-level linear scan: Blelloch, "Prefix sums and
their applications", 1990):

* The steps are cut into lanes of ``_LANE`` = 32, anchored at the run's
  first step.  All lanes of a chunk are stepped from rest at once, one S x
  per step; a loop over the lanes, not the steps, carries each lane's
  starting state in from the last one's with S^L; and S^i times that start
  is added to the lane's i-th state.  This is the same linear map as
  stepping one step at a time, to rounding (a few 1e-15 relative), and it
  needs no eigenbasis, so a defective S (kappa_a = kappa_m at zero
  detuning) and the complex pairs of a detuned S are no special case.
* Chunks are ``_CHUNK`` = 2^15 trajectory-steps rounded down to whole lanes
  (256 kB per component array); the last is rounded up, the steps past the
  run drawn and dropped.  Inside the lanes the arithmetic is elementwise,
  skipping the zeros of S and its powers, and the carry is one 4x4 by 4x1
  product per trajectory and lane: no operation mixes lanes or
  trajectories, so neither the chunk size nor the trajectory count changes
  a bit of the states.

A run is one draw of the streams, stepped by :func:`simulate_chunks`,
the oracle's one stepping entry.  Its chains, one per (reservoir, signal)
pair, differ only in their reservoir or tone and read the same streams:
each chunk's normals are drawn once and stepped by one scan per chain, bit
for bit as if each chain ran alone, and each chunk yields every chain's
kept quadratures (4, n_trajectories, n) and output record
(n_trajectories, n).  Where the consumer reads only the output record, as
Welch and the gain do, each scan is record-only: it completes the P_a row
alone of its lane corrections and of its output, the other three rows
being needed only to step.  The consumers fold the chunks in:

* :class:`WelchAccumulator`: Welch's averaged periodogram (Welch, IEEE
  Trans. Audio Electroacoust. 15:70, 1967) of Hann-windowed segments, each
  sharing ``WELCH_OVERLAP`` of its length, :func:`noverlap` samples, with
  the next; it holds one segment per trajectory.
* :class:`CovarianceAccumulator`: per-trajectory second moments about
  zero, the runs' exact mean, so nothing is detrended or centred.
* :func:`simulate`: stores everything, as a :class:`SimulationTrace` with
  quadrature-major storage, for callers that read single samples.
* :func:`measure_gain`: the mean square of the difference between a chain
  with a tone and one without it, which is the tone's response alone.

:func:`stream_psd` and :func:`stream_covariances` feed a run straight into
an accumulator, so no consumer's memory grows with the run length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ConfigurationError, DerivedParameters, ParameterError
from .spectra import SqueezedReservoir, input_densities
from .transfer import drift_matrix, require_evading_point, require_stable

__all__ = [
    "SimulationConfig",
    "ToneSignal",
    "SimulationTrace",
    "simulate_chunks",
    "simulate",
    "WelchAccumulator",
    "CovarianceAccumulator",
    "stream_psd",
    "stream_covariances",
    "measure_gain",
    "lyapunov_covariance",
    "fastest_rate",
    "noverlap",
    "WELCH_OVERLAP",
]

#: dimensionless accuracy guard: dt times the fastest rate must stay below this
_DT_GUARD = 0.1

#: trajectory-steps per chunk of the scan: 256 kB per component array
_CHUNK = 1 << 15

#: steps per lane of the scan: verify's runs took 1-5 % less time than with 64 or 128
_LANE = 32

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
    """Monochromatic test field at ``frequency`` (rad/s) from the magnon pump.

    Injected in the frame rotating with the pump: only the slowly rotating
    envelope of the drive, amplitude * (sin, cos)(frequency * t) on
    (X_M, P_M) scaled by lambda' / sqrt(2), enters the equations, which is
    the regime the analysis frequencies live in.
    """

    amplitude: float            # Tesla
    frequency: float            # offset delta = omega_s - omega_b, rad/s

    def __post_init__(self):
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ParameterError("tone amplitude must be finite and >= 0")
        if not math.isfinite(self.frequency):
            raise ParameterError("tone frequency must be finite")


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled quadratures and reconstructed output record, after burn-in.

    ``quadratures`` has shape (n_trajectories, n_samples, 4) over the state
    order (X_M, P_M, X_a, P_a), a view of quadrature-major storage;
    ``output_record`` has shape (n_trajectories, n_samples).
    """

    times: np.ndarray
    quadratures: np.ndarray
    output_record: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.output_record.shape[1]


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def fastest_rate(dp: DerivedParameters) -> float:
    """The fastest rate of the dynamics (rad/s), which the step must resolve."""
    return max(dp.kappa_a, dp.kappa_m, abs(dp.delta_a), abs(dp.delta_0p),
               2.0 * dp.g_prime)


def _validate_config(dp: DerivedParameters, cfg: SimulationConfig) -> None:
    fastest = fastest_rate(dp)
    if cfg.dt * fastest >= _DT_GUARD:
        raise ConfigurationError(
            f"dt = {cfg.dt!r} s does not resolve the fastest rate "
            f"{fastest!r} rad/s (need dt * rate < {_DT_GUARD})")
    slowest = min(dp.kappa_a, dp.kappa_m)
    if cfg.burn_in < 10.0 / slowest:
        raise ConfigurationError(
            f"burn_in = {cfg.burn_in!r} s is shorter than 10 relaxation times "
            f"(need >= {10.0 / slowest!r} s)")
    require_stable(dp)


def _drive_arrays(signal: ToneSignal, dp: DerivedParameters,
                  t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic drive increments for the X_M and P_M equations over t."""
    amp = dp.lambda_prime * signal.amplitude / math.sqrt(2.0)
    return amp * np.sin(signal.frequency * t), amp * np.cos(signal.frequency * t)


def _diffusion(dp: DerivedParameters, temperature: float,
               reservoir: SqueezedReservoir | None) -> np.ndarray:
    """The inputs' 4x4 diffusion matrix D: kappa_m V on the magnon block, V
    the magnon input covariance, and kappa_a (nbar_a + 1/2) on the cavity's."""
    cavity, magnon = input_densities(dp, temperature, reservoir)
    diffusion = np.diag([0.0, 0.0, dp.kappa_a * cavity, dp.kappa_a * cavity])
    diffusion[:2, :2] = dp.kappa_m * magnon
    return diffusion


def _combine(row: np.ndarray, arrays) -> np.ndarray:
    """sum_k row[k] * arrays[k] over the nonzero row[k], elementwise.

    Written out rather than as a matrix product, so that the zero
    coefficients of the mostly diagonal Cholesky factor cost nothing.  A
    lone unit coefficient returns its array itself, which callers only read.
    """
    total = None
    for coef, arr in zip(row, arrays):
        if coef != 0.0:
            term = arr if coef == 1.0 else coef * arr
            total = term if total is None else total + term
    return total


class _LaneScan:
    """The recursion x_{m+1} = S x_m + incr_m over lanes of ``_LANE`` steps,
    anchored at the run's first step (see the module docstring)."""

    def __init__(self, step: np.ndarray, x0: np.ndarray, record_only: bool = False):
        powers = np.array([np.linalg.matrix_power(step, i) for i in range(_LANE + 1)])
        self._diagonal = np.diag(step)[:, None]
        self._off_diagonal = [(k, c, step[k, c]) for k in range(4) for c in range(4)
                              if k != c and step[k, c] != 0.0]
        #: the components completed and written out: P_a alone for a record-only run
        self._rows = slice(3, 4) if record_only else slice(0, 4)
        #: (k, c, S^i[k, c] for i = 1..L-1) of the entries not all zero
        self._corrections = [(k, c, powers[1:-1, k, c, None]) for k in range(4)[self._rows]
                             for c in range(4) if powers[1:-1, k, c].any()]
        self._lane = powers[-1]
        self._x = np.ascontiguousarray(x0.T)[:, :, None]     # (ntraj, 4, 1)

    def __call__(self, incr, out: np.ndarray) -> np.ndarray:
        """States x_m before each increment of ``incr`` (4 arrays (ntraj, n), n
        whole lanes), written to ``out`` (4, ntraj, n), or (1, ntraj, n) holding
        P_a alone for a record-only scan, and returned."""
        ntraj, n = incr[0].shape
        lanes = n // _LANE
        # rest[i, k]: component k of every lane (lane-major, then trajectory)
        # after i + 1 steps from rest, stepped in place over the increments
        rest = np.empty((_LANE, 4, lanes * ntraj))
        by_lane = rest.reshape(_LANE, 4, lanes, ntraj)
        for k in range(4):
            by_lane[:, k] = incr[k].reshape(ntraj, lanes, _LANE).T
        term = np.empty((4, lanes * ntraj))
        part = term[0]
        for prev, cur in zip(rest, rest[1:]):
            np.multiply(self._diagonal, prev, out=term)
            cur += term
            for k, c, coef in self._off_diagonal:
                np.multiply(coef, prev[c], out=part)
                cur[k] += part
        # one (4, 4) @ (4, 1) product per trajectory, so that ntraj changes no bit
        starts = np.empty((4, lanes, ntraj))
        ends = by_lane[-1].transpose(1, 2, 0)[..., None]
        for j in range(lanes):
            starts[:, j] = self._x[..., 0].T
            self._x = np.matmul(self._lane, self._x) + ends[j]
        # a lane's state i is rest[i - 1] + S^i start, its state 0 the start
        correction = np.empty((_LANE - 1, lanes * ntraj))
        for k, c, column in self._corrections:
            np.multiply(column, starts[c].reshape(-1), out=correction)
            rest[:-1, k] += correction
        states = out.reshape(-1, ntraj, lanes, _LANE)
        states[..., 0] = starts[self._rows].transpose(0, 2, 1)
        states[..., 1:] = by_lane[:-1, self._rows].transpose(1, 3, 2, 0)
        return out


def _steps(cfg: SimulationConfig) -> tuple[int, int]:
    """(burn-in steps, kept steps) of a run."""
    return int(round(cfg.burn_in / cfg.dt)), int(round(cfg.duration / cfg.dt))


def simulate_chunks(dp: DerivedParameters, temperature: float, cfg: SimulationConfig,
                    chains: list, record_only: bool = False):
    """Integrate the quadrature Langevin equations of one run, one chunk of
    kept steps at a time, for each (reservoir, signal) pair of ``chains``.

    Returns an iterator of lists in time order, one per kept chunk, holding
    each chain's (states, record) pair: ``states`` (4, n_trajectories, n)
    holds the quadratures before each step and ``record``
    (n_trajectories, n) the output record.  A ``record_only`` scan
    completes the P_a row alone, so its ``states`` is (1, n_trajectories,
    n).  Both are views of buffers that the next chunk overwrites, so a
    consumer copies what it keeps.  The increments are the rows of
    chol(D dt) times standard normals, D the diffusion matrix of the
    inputs; each chunk's normals are drawn once for all chains.

    Raises :class:`ConfigurationError` when called, before any stepping, if
    the configuration guard fails or the drift is unstable.
    """
    _validate_config(dp, cfg)
    dt = cfg.dt
    n_burn, n_keep = _steps(cfg)
    if n_keep < 1:
        raise ConfigurationError("duration shorter than one step")
    n_total = n_burn + n_keep
    ntraj = cfg.n_trajectories
    per_chunk = max(1, _CHUNK // (ntraj * _LANE)) * _LANE
    # whole lanes from step 0; the last lane's steps past the run are drawn and dropped
    n_steps = -(-n_total // _LANE) * _LANE
    width = min(per_chunk, n_steps)

    step = np.eye(4) + drift_matrix(dp) * dt
    prepared = []
    for reservoir, signal in chains:
        try:
            chol = np.linalg.cholesky(_diffusion(dp, temperature, reservoir) * dt)
        except np.linalg.LinAlgError as exc:
            raise ParameterError(
                "magnon variance matrix is not positive semidefinite") from exc
        drive = signal if signal is not None and signal.amplitude > 0 else None
        prepared.append((chol, drive, _LaneScan(step, np.zeros((4, ntraj)), record_only),
                         np.empty((1 if record_only else 4, ntraj, width)),
                         np.empty((ntraj, width))))
    sq_ka = math.sqrt(dp.kappa_a)
    rngs = [_trajectory_rng(cfg.seed, i) for i in range(ntraj)]
    z = np.empty((ntraj, width, 4))

    def chunks():
        for pos in range(0, n_steps, per_chunk):
            n = min(per_chunk, n_steps - pos)
            zc = z[:, :n]
            for rng, zi in zip(rngs, zc):
                rng.standard_normal(out=zi)
            normals = np.moveaxis(zc, -1, 0)
            lo, hi = max(n_burn - pos, 0), min(n_total - pos, n)
            out = []
            for chol, signal, scan, states, record in prepared:
                incr = [_combine(row, normals) for row in chol]
                if signal is not None:
                    dx, dpp = _drive_arrays(signal, dp, (pos + np.arange(n)) * dt)
                    incr[0], incr[1] = incr[0] + dx * dt, incr[1] + dpp * dt
                kept = scan(incr, states[:, :, :n])[:, :, lo:hi]
                if lo < hi:
                    np.subtract(sq_ka * kept[-1], incr[3][:, lo:hi] / (sq_ka * dt),
                                out=record[:, :hi - lo])
                    out.append((kept, record[:, :hi - lo]))
            if out:
                yield out

    return chunks()


def simulate(
    dp: DerivedParameters,
    temperature: float,
    cfg: SimulationConfig,
    reservoir: SqueezedReservoir | None = None,
    signal: ToneSignal | None = None,
) -> SimulationTrace:
    """Integrate the quadrature Langevin equations and store the whole run.

    The store-everything consumer of :func:`simulate_chunks`, for callers
    that read single samples; it raises what that raises.
    """
    chunks = simulate_chunks(dp, temperature, cfg, [(reservoir, signal)])
    n_burn, n_keep = _steps(cfg)
    quad = np.empty((4, cfg.n_trajectories, n_keep))
    out = np.empty((cfg.n_trajectories, n_keep))
    k = 0
    for [(states, record)] in chunks:
        n = record.shape[1]
        quad[:, :, k:k + n] = states
        out[:, k:k + n] = record
        k += n

    times = (n_burn + np.arange(n_keep)) * cfg.dt
    return SimulationTrace(times=times, quadratures=np.moveaxis(quad, 0, -1),
                           output_record=out)


def noverlap(segment_length: int) -> int:
    """Samples shared by consecutive Welch segments of this length."""
    return int(round(segment_length * WELCH_OVERLAP))


class WelchAccumulator:
    """Welch's averaged periodogram of output records fed in time order.

    Holds the last ``segment_length`` samples of every trajectory.  Each
    time a segment completes, it is Hann-windowed, not detrended (the
    record's mean is zero), and one batched real FFT over all trajectories
    is added to a running sum of periodograms; the next segment starts
    ``segment_length - noverlap(segment_length)`` samples later.  Memory is
    the ring and one segment's transform, whatever the record length, and
    the result does not depend on how the record is split between
    :meth:`add` calls.
    """

    def __init__(self, n_trajectories: int, segment_length: int):
        segment_length = int(segment_length)
        if segment_length < 2:
            raise ParameterError(
                f"segment_length must be at least 2, got {segment_length}")
        self._ring = np.empty((n_trajectories, segment_length))
        self._filled = 0
        self._hop = segment_length - noverlap(segment_length)
        # the periodic Hann window, 0.5 - 0.5 cos(2 pi n / L)
        self._window = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_length + 1)))[:-1]
        self._power = np.zeros(segment_length // 2 + 1)
        #: periodograms averaged so far, over all trajectories
        self.segments = 0

    def add(self, record: np.ndarray) -> None:
        """Fold in the next samples of every trajectory, shape (n_trajectories, n)."""
        length = self._ring.shape[1]
        pos = 0
        while pos < record.shape[1]:
            take = min(length - self._filled, record.shape[1] - pos)
            self._ring[:, self._filled:self._filled + take] = record[:, pos:pos + take]
            self._filled += take
            pos += take
            if self._filled == length:
                spec = np.fft.rfft(self._ring * self._window)
                # |rfft|^2 summed over trajectories, with no 2-D temporary
                self._power += np.einsum("ij,ij->j", spec.real, spec.real)
                self._power += np.einsum("ij,ij->j", spec.imag, spec.imag)
                self.segments += self._ring.shape[0]
                self._filled = length - self._hop
                self._ring[:, :self._filled] = self._ring[:, self._hop:]

    def spectrum(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(omega, psd) of the segments so far, for samples ``dt`` apart.

        omega is in rad/s on [0, Nyquist].  The normalization matches the
        analytic spectra: a white record representing variance density V
        (delta-correlated in time) estimates flat at V, i.e. half the
        one-sided density.
        """
        if self.segments == 0:
            raise ParameterError("record shorter than one Welch segment")
        length = self._ring.shape[1]
        scale = 1.0 / ((1.0 / dt) * (self._window * self._window).sum())
        psd = self._power * (scale / self.segments)
        # the one-sided density doubles every bin but DC and an even length's
        # Nyquist bin; halving it leaves those two halved and the rest as is
        psd[0] /= 2.0
        if length % 2 == 0:
            psd[-1] /= 2.0
        return 2.0 * math.pi * np.fft.rfftfreq(length, dt), psd


class CovarianceAccumulator:
    """Per-trajectory second moments of the quadratures about zero, fed in pieces.

    Every oracle run has zero mean (linear drift, zero-mean inputs and tone,
    a start at rest burnt in), so moments / count estimates the stationary
    covariance :func:`lyapunov_covariance` returns without bias; centring on
    a sample mean would read it low by the mean's variance, about
    4 / (kappa T) relative over a record of length T, and hide an offset.
    """

    def __init__(self, n_trajectories: int):
        self._count = 0
        self._moments = np.zeros((n_trajectories, 4, 4))

    def add(self, states: np.ndarray) -> None:
        """Fold in the next samples, shape (4, n_trajectories, n)."""
        self._moments += np.einsum("itn,jtn->tij", states, states)
        self._count += states.shape[2]

    def covariances(self) -> np.ndarray:
        """Covariance matrices about zero, shape (n_trajectories, 4, 4)."""
        if self._count == 0:
            raise ParameterError("a covariance needs at least one sample")
        return self._moments / self._count


def stream_psd(dp: DerivedParameters, temperature: float, cfg: SimulationConfig,
               segment_length: int, reservoirs: list) -> list[tuple]:
    """(omega, psd, segments) of the output record of one chain per entry of
    ``reservoirs``, all on one draw of the streams, with nothing stored.

    Each chain's chunks go straight into its own :class:`WelchAccumulator`,
    and ``segments`` is the number of periodograms averaged over all
    trajectories.  Welch reads the output record alone, so the scans are
    record-only.
    """
    welches = [WelchAccumulator(cfg.n_trajectories, segment_length) for _ in reservoirs]
    chains = [(reservoir, None) for reservoir in reservoirs]
    for chunk in simulate_chunks(dp, temperature, cfg, chains, record_only=True):
        for welch, (_, record) in zip(welches, chunk):
            welch.add(record)
    return [(*welch.spectrum(cfg.dt), welch.segments) for welch in welches]


def stream_covariances(
    dp: DerivedParameters,
    temperature: float,
    cfg: SimulationConfig,
) -> np.ndarray:
    """Per-trajectory covariances of a run about its zero mean, shape
    (n_trajectories, 4, 4), with nothing stored."""
    acc = CovarianceAccumulator(cfg.n_trajectories)
    for [(states, _)] in simulate_chunks(dp, temperature, cfg, [(None, None)]):
        acc.add(states)
    return acc.covariances()


def measure_gain(
    dp: DerivedParameters,
    temperature: float,
    tone: ToneSignal,
    cfg: SimulationConfig,
) -> float:
    """Empirical response at the tone frequency, from two chains on one draw.

    The oracle is linear and its noise comes only from the trajectories'
    streams, so a chain with the tone and one without it differ, to rounding,
    by the tone's deterministic response alone.  Its mean square, the line
    power of the output record, is divided by the field-referred input
    density integrated over the tone, lambda^2 B0^2 / (4 kappa_m) with
    lambda the bare coupling; the ratio estimates the analytic response at
    the tone offset, biased only by the step.  Requires the
    backaction-evading point, where the phase-channel image of the tone does
    not reach the output.
    """
    if tone.amplitude <= 0:
        raise ParameterError("measure_gain requires a tone with positive amplitude")
    require_evading_point(dp)
    total, count = 0.0, 0
    chains = [(None, tone), (None, None)]
    for (_, driven), (_, quiet) in simulate_chunks(dp, temperature, cfg, chains,
                                                   record_only=True):
        total += float(np.sum((driven - quiet)**2))
        count += driven.size
    p_ref = (dp.lambda_bare * tone.amplitude)**2 / (4.0 * dp.kappa_m)
    return total / count / p_ref


def lyapunov_covariance(dp: DerivedParameters, temperature: float,
                        dt: float) -> np.ndarray:
    """Stationary covariance of the chain :func:`simulate_chunks` steps with ``dt``.

    Solves V = S V S^T + D dt, S = I + A dt, D the increments' diffusion
    matrix, so the step's O(dt) variance bias is in the reference; as dt -> 0
    it tends linearly to the solution of A V + V A^T + D = 0.
    """
    step = np.eye(4) + drift_matrix(dp) * dt
    # row-major vec(S V S^T) = (S kron S) vec(V)
    noise = _diffusion(dp, temperature, None) * dt
    return np.linalg.solve(np.eye(16) - np.kron(step, step), noise.ravel()).reshape(4, 4)
