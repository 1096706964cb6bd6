"""Stochastic Langevin oracle for the quadrature dynamics.

For linear dynamics with Gaussian inputs the symmetric-ordered correlators
coincide with those of a classical Gaussian process, so the quadrature
Langevin equations are integrated here as c-number SDEs and their output
statistics compared against the analytic spectra.  A chain that feeds its
quadratures (a full chain) is integrated by plain Euler-Maruyama with fixed
step under the guard dt * max(kappa_a, kappa_m, |detunings|, 2 g') < 0.1;
:func:`lyapunov_covariance` is the stationary covariance of that stepped
chain, its O(dt) bias included.  A chain that feeds its output record (a
record-only chain) steps exactly, at any dt.

Discretization choices that matter:

* A full chain's increments are drawn through the Cholesky factor of
  D * dt, D the 4x4 diffusion matrix (kappa_m V on the magnon block, V the
  magnon input covariance), so the squeezed (and, with a reservoir,
  cross-correlated) input statistics hold exactly at the increment level.
* A record-only chain steps the exact discretization (:func:`_exact_step`)
  of the state augmented with the integrated record Y, dY = sqrt(kappa_a)
  P_a dt - dW_P / sqrt(kappa_a), dW_P the P_a input's increment: Van
  Loan's block exponential gives its transition Phi5 and the covariance Q5
  of its increment over a step.  Its record y_k = (Y_{k+1} - Y_k) / dt =
  (h . x_k + w_k[4]) / dt, h = Phi5[4, :4], is the record's mean over the
  step, and Q5 holds the P_a noise that drives the state and the record
  alike: re-drawing it independently would destroy the input-output
  interference that makes a passive cavity reflect unit noise (|k4| = 1).
  Its increments w_k are F z_k, F = U sqrt(max(lambda, 0)) from the
  eigendecomposition of the symmetrized Q5, whose eigenvalues span many
  decades (1e-9 to 3e3 at g'/kappa_m ~ 750), where a Cholesky factor
  could fail.  The chain's stationary covariance is the continuous one, and
  its step bias is that of its record's spectrum alone.
* Each trajectory owns a counter-based RNG stream (numpy Philox) seeded from
  (seed, trajectory index), so traces are bit-reproducible regardless of
  execution order or trajectory count.  Step k of a full chain reads the
  four normals of stream step k; step k of a record-only chain reads the
  first five of the eight normals of stream steps 2k and 2k + 1.

How the recursion x_{m+1} = S x_m + incr_m, S = I + A dt for a full chain
and Phi, the top left 4x4 of Phi5, for a record-only one, is computed
(:class:`_LaneScan`, a two-level linear scan: Blelloch, "Prefix sums and
their applications", 1990):

* The steps are cut into lanes of ``_LANE`` = 32, anchored at the run's
  first step, which starts at rest.  One contraction gives every lane of a
  chunk its end from rest, sum_m S^(L-1-m) incr_m; a loop over the lanes,
  not the steps, carries each lane's starting state in from the last one's
  with S^L; and every lane is then stepped once from its start, all lanes
  at once, one S x per step.  This is the same linear map as stepping one
  step at a time, to rounding (up to 1.5e-14 of the largest state in the
  tests), and it needs no eigenbasis, so a defective S (kappa_a = kappa_m
  at zero detuning) and the complex pairs of a detuned S are no special
  case.
* A scan steps only the components that the ones it writes out read: their
  closure under the nonzero pattern of S.  A record-only scan writes the
  components its record reads, where h is not zero, and P_a reads X_M and
  itself alone at the backaction-evading point (delta_a = delta_0p = 0,
  where only X_M reaches the output), so it writes and steps those two; a
  cavity detuning adds X_a, a magnon detuning all four.  The lane ends and
  the steps take the closure's block of S and of its powers, and a lane's
  first step the closure's rows of the full S, over the start's four
  components; the carry multiplies the full S^L into all four, the
  components not stepped ending their lanes at zero.  No power of S maps a
  component not stepped into a stepped one, exactly, so the terms a scan
  skips are exact zeros, which a scan of all four adds in order, and the
  stepped states keep every bit of that scan.
* A chunk is ``_CHUNK`` = 32 lanes, 1024 stream steps, of every row: 1024
  steps of a full chain, 512 of a record-only one; a run's last lane is
  drawn whole, the steps past the run dropped.  A chunk's memory grows with
  a chain's rows: 256 kB per component array of a full chain at 32 rows,
  1 MB for all four.  ``verify``'s chains have 32, 32, 16 and 32 rows, and
  the tests and the benchmark's self-test at most 16.  Inside the lanes
  each contraction is one two-index :func:`np.einsum` over every lane and
  row, whose matrices are strided (:func:`_strided`) so that it adds each
  state's terms in order whatever the number of columns, and the carry is
  one 4x4 by 4x1 product per row and lane: no operation mixes lanes or
  rows, so neither the chunk size nor the row count changes a bit of the
  states.

A pass is one draw of the seed's streams, stepped by :func:`fold`, the
oracle's one stepping entry for noise, which takes (chain, accumulator)
pairs.  Its chains (:class:`Chain`) each carry their own parameters,
temperature, settings and reservoirs, and share one seed.  A chain steps
on the leading ``n_trajectories`` streams, so step k of trajectory i reads
the same normals in every chain of its kind, whatever its dt or burn-in:
each stream is built once and drawn once, up to the furthest stream step
any chain reads from it.  A chain is one scan, whose rows are one block of
``n_trajectories`` per reservoir, reservoir-major, each block reading the
same streams through its own factor; ``verify``'s 4 chains are 4 scans.
Each chain's stepper is built with its pair's accumulator and adds the
steps it keeps of each chunk straight to it: a full chain its quadratures
(4, rows, n), which the covariances read, or a record-only chain its
output record (rows, n), which Welch reads; a chunk of burn-in alone
reaches no accumulator.  Each block is bit for bit that of the chain
stepped alone with its reservoir, and the chains of a pass are not
independent: they see the same noise.

A pass allocates its arrays once, before the first chunk: the normals of
one chunk and its one scratch (:func:`_scan_work`), sized for the largest
scan call and for the most increments a chain of the pass draws, and no
buffer per chain.  That scratch holds the lane scan's regions, the
increments of the chain being stepped and then its states, which the
chains take in turn, and one temporary for the increments' products.  A
chain's states go over the increments its scan has just read, and a
record-only chain's record over the states of the first component it
writes, in a fixed order of operations, so no bit depends on the buffers;
the part an accumulator is fed is overwritten by the next chain of the
same chunk.  A chunk allocates no array larger than the lane carry's
(rows, 4, 1) states (numpy's iterator buffers and FFT plans aside).
Temporaries of a chain's chunk (256 kB per component at 32 rows) would
otherwise cost page faults on every chunk wherever the C allocator maps
blocks that large on their own, as glibc does until it frees a larger
mapped block.  The accumulators take the chunks in:

* :class:`WelchAccumulator`: Welch's averaged periodogram (Welch, IEEE
  Trans. Audio Electroacoust. 15:70, 1967) of Hann-windowed segments, each
  sharing ``WELCH_OVERLAP`` of its length, :func:`noverlap` samples, with
  the next; it holds one segment per row and one power sum per
  reservoir block, and windows and transforms a few rows of one block at
  a time in its transform scratch.
* :class:`CovarianceAccumulator`: per-trajectory second moments about
  zero, the runs' exact mean, so nothing is detrended or centred.
* :func:`simulate`: folds a full chain and a record-only one, each
  paired with a store, and returns everything, as a
  :class:`SimulationTrace` with quadrature-major storage, for callers that
  read single samples.  The record is the exact chain's, on the same
  streams, not a read-out of the stored quadratures.

Only :func:`simulate`'s stores grow with the run length.  The covariances
sum per chunk, so they can differ from sums over the stored run in the
last bits.

The chain is linear, so a tone's response depends on neither the noise nor
its amplitude: :func:`measure_gain` steps a unit drive alone, from rest and
without noise, and draws no stream.  It builds the chain's stepper as
:func:`fold` does, with the same checks and scan, and feeds the drive,
written in its own :func:`_scan_work`, through :meth:`_Stepper.advance`,
which :meth:`_Stepper.step` calls on a pass's drawn increments, to an
accumulator of P_a's mean square.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .model import ConfigurationError, DerivedParameters, ParameterError
from .spectra import SqueezedReservoir, input_densities
from .transfer import drift_matrix, require_evading_point, require_stable

__all__ = [
    "SimulationConfig",
    "SimulationTrace",
    "Chain",
    "fold",
    "simulate",
    "WelchAccumulator",
    "CovarianceAccumulator",
    "measure_gain",
    "lyapunov_covariance",
    "fastest_rate",
    "noverlap",
    "WELCH_OVERLAP",
]

#: accuracy guard: dt times the fastest rate of a full chain must stay below this
_DT_GUARD = 0.1

#: steps per lane of the scan: verify's pass and gains at seed 42, chunks of
#: 1024 steps, took 1.13-1.14 s (best of 4, twice, 2-core x86 VM), against
#: 1.25-1.28 s at 16, 1.16-1.20 s at 64 and 1.31-1.58 s at 128, all at 41 MB
_LANE = 32

#: stream steps per chunk of a pass, an even number of lanes, so that the
#: half a record-only chain steps is whole lanes too: 256 kB per component
#: array of a full chain at 32 rows
_CHUNK = 32 * _LANE

#: rows of one block whose Welch segments are windowed and transformed at a time
_WELCH_ROWS = 4

#: fraction of each Welch segment shared with the next
WELCH_OVERLAP = 0.5


@dataclass(frozen=True)
class SimulationConfig:
    """Integration settings.

    ``dt`` must resolve the fastest rate in a full chain, which steps
    Euler-Maruyama (see module docstring), and ``burn_in`` must cover at
    least 10 relaxation times of the slowest decay so that recorded samples
    are stationary.  Identical (parameters, config,
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
        try:
            if operator.index(self.n_trajectories) < 1:
                raise ConfigurationError("n_trajectories must be >= 1")
            if operator.index(self.seed) < 0:
                raise ConfigurationError("seed must be >= 0")
        except TypeError:
            raise ConfigurationError("n_trajectories and seed must be integers") from None


@dataclass(frozen=True)
class SimulationTrace:
    """Sampled quadratures and output record, after burn-in.

    ``quadratures`` has shape (n_trajectories, n_samples, 4) over the state
    order (X_M, P_M, X_a, P_a), a view of quadrature-major storage, from
    the Euler-Maruyama chain; ``output_record`` has shape
    (n_trajectories, n_samples), from the exact chain on the same streams.
    """

    times: np.ndarray
    quadratures: np.ndarray
    output_record: np.ndarray

    @property
    def n_samples(self) -> int:
        return self.output_record.shape[1]


@dataclass(frozen=True)
class Chain:
    """The chain of one (chain, accumulator) pair of a pass of :func:`fold`.

    It steps ``dp`` at ``temperature`` with ``cfg``'s step, burn-in, length
    and trajectory count once per entry of ``reservoirs``, a squeezed
    reservoir or None (the thermal magnon input): a block of
    ``n_trajectories`` rows on the same streams, reservoir-major.  A
    ``record_only`` chain steps exactly, feeds its accumulator its output
    record and steps only the components that record reads; any other
    chain steps Euler-Maruyama and feeds its quadratures.
    """

    dp: DerivedParameters
    temperature: float
    cfg: SimulationConfig
    reservoirs: tuple[SqueezedReservoir | None, ...] = (None,)
    record_only: bool = False


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,))))


def fastest_rate(dp: DerivedParameters) -> float:
    """The fastest rate of the dynamics (rad/s), which the step must resolve."""
    return max(dp.kappa_a, dp.kappa_m, abs(dp.delta_a), abs(dp.delta_0p),
               2.0 * dp.g_prime)


def _diffusion(dp: DerivedParameters, temperature: float,
               reservoir: SqueezedReservoir | None) -> np.ndarray:
    """The inputs' 4x4 diffusion matrix D: kappa_m V on the magnon block, V
    the magnon input covariance, and kappa_a (nbar_a + 1/2) on the cavity's."""
    cavity, magnon = input_densities(dp, temperature, reservoir)
    diffusion = np.diag([0.0, 0.0, dp.kappa_a * cavity, dp.kappa_a * cavity])
    diffusion[:2, :2] = dp.kappa_m * magnon
    return diffusion


def _expm(matrix: np.ndarray) -> np.ndarray:
    """The exponential of a square ``matrix`` by scaling and squaring
    (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005): its Taylor
    polynomial of degree 18 on the matrix scaled by 2^-s to a 1-norm below
    1, whose remainder is under 1/19! relative, then squared s times.  It
    takes only sums and products, so an entry that no chain of nonzero
    entries reaches stays exactly zero."""
    squarings = max(0, math.frexp(float(np.abs(matrix).sum(axis=0).max()))[1])
    scaled = np.ldexp(matrix, -squarings)
    eye = np.eye(len(matrix))
    result = eye
    for k in range(18, 0, -1):
        result = eye + scaled @ result / k
    for _ in range(squarings):
        result = result @ result
    return result


def _van_loan(dp: DerivedParameters, temperature: float,
              reservoir: SqueezedReservoir | None, dt: float) -> np.ndarray:
    """Van Loan's block dt [[-A5, D5], [0, A5^T]] (Van Loan, IEEE Trans.
    Autom. Control 23:395, 1978) of the state augmented with the integrated
    record Y, dY = sqrt(kappa_a) P_a dt - dW_P / sqrt(kappa_a), dW_P the
    P_a input's increment: A5 is the drift with the row sqrt(kappa_a) e_P
    added, and D5 the diffusion of (x, Y)."""
    drift = np.zeros((5, 5))
    drift[:4, :4] = drift_matrix(dp)
    drift[4, 3] = math.sqrt(dp.kappa_a)
    spread = np.eye(5, 4)
    spread[4, 3] = -1.0 / math.sqrt(dp.kappa_a)
    block = np.zeros((10, 10))
    block[:5, :5] = -drift
    block[:5, 5:] = spread @ _diffusion(dp, temperature, reservoir) @ spread.T
    block[5:, 5:] = drift.T
    return block * dt


def _exact_step(dp: DerivedParameters, temperature: float,
                reservoir: SqueezedReservoir | None, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi5, Q5): the exact step over ``dt`` of the augmented state (x, Y)
    of :func:`_van_loan`, (x, Y) <- Phi5 (x, Y) + w, w ~ N(0, Q5), the
    exact Ornstein-Uhlenbeck update (Gillespie, Phys. Rev. E 54:2084,
    1996) with its record.  Q5 is Van Loan's F22^T F12; Phi5 is
    expm(A5 dt) taken alone, so that it keeps its bits whatever the
    reservoir."""
    block = _van_loan(dp, temperature, reservoir, dt)
    blocks = _expm(block)
    return _expm(block[5:, 5:].T), blocks[5:, 5:].T @ blocks[:5, 5:]


def _scan_work(trajectory_steps: int,
               components: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one scratch of a pass whose scan calls take up to
    ``trajectory_steps``, a chunk of whole lanes of its widest chain, and
    whose chains draw up to ``components`` increments, one per component
    stepped and a record-only chain's record's own, allocated once: three
    views of it.

    They hold :class:`_LaneScan`'s regions, for up to ``components``
    stepped components: a lane's increments and states, one term per
    component, and the lane starts and ends of all four; the increments of
    the chain being stepped, ``components`` rows of ``trajectory_steps`` at
    most, and then its states, written over the increments its scan has
    read, all dead once its part is kept, so the chains of a pass take
    turns in them; and one temporary of ``trajectory_steps``, which holds
    the increments' products.
    """
    scan = ((_LANE + 1) * components + 8) * (trajectory_steps // _LANE)
    increments = scan + components * trajectory_steps
    work = np.empty(increments + trajectory_steps)
    return work[:scan], work[scan:increments], work[increments:]


def _views(work: np.ndarray, *shapes):
    """Consecutive views of ``work`` with these shapes."""
    pos = 0
    for shape in shapes:
        size = math.prod(shape)
        yield work[pos:pos + size].reshape(shape)
        pos += size


def _closure(step: np.ndarray, components) -> tuple[int, ...]:
    """The components that ``components`` read under the nonzero pattern of
    ``step``, themselves included, in ascending order."""
    need = set(components)
    while grown := {c for k in need for c in range(4) if step[k, c] != 0.0} - need:
        need |= grown
    return tuple(sorted(need))


def _strided(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as every other entry of a buffer twice its size.

    Where the output has one column, :func:`np.einsum` contracts two
    operands that are both unit-stride along the summed axis with a
    vectorized dot product, which adds in another order than it does for
    more columns.  No row of this matrix is unit-stride, so a contraction
    with it adds each output's terms in order whatever the column count."""
    spread = np.zeros(matrix.shape + (2,))
    spread[..., 0] = matrix
    return spread[..., 0]


class _LaneScan:
    """The recursion x_{m+1} = S x_m + incr_m of ``rows`` rows, from rest,
    over lanes of ``_LANE`` steps anchored at the run's first step (see the
    module docstring): each lane's end from rest in one contraction, the
    lane starts carried with S^L, and each lane stepped once from its start.

    It writes out the components ``written``, in ascending order, and steps
    only ``components``, the closure of those under the nonzero pattern of
    S: no other component feeds them.
    """

    def __init__(self, step: np.ndarray, rows: int, written: tuple[int, ...] = (0, 1, 2, 3)):
        #: the components written out
        self.written = written
        self.components = comps = _closure(step, written)
        block = np.ix_(comps, comps)
        #: S on the stepped components, and their rows of the full S
        self._step, self._rows = _strided(step[block]), _strided(step[list(comps)])
        #: W[j, m c + k] = S^(L-1-m)[comps[j], comps[k]]: W times a lane's
        #: increments, step-major, is its end from rest
        self._ends = _strided(np.concatenate([np.linalg.matrix_power(step, i)[block]
                                              for i in range(_LANE - 1, -1, -1)], axis=1))
        #: (component, its position in components) of each written one
        self._outputs = [(k, comps.index(k)) for k in written]
        self._lane = np.linalg.matrix_power(step, _LANE)
        self._x = np.zeros((rows, 4, 1))

    def __call__(self, incr: list, out: np.ndarray, work: np.ndarray) -> np.ndarray:
        """States x_m before each increment, written to ``out``
        (len(written), ntraj, n), the written components in order, and
        returned; ``work`` is the scan's region of a :func:`_scan_work` of at
        least ntraj * n trajectory-steps and ``len(components)`` components.

        ``incr`` holds the increments indexed by component, (ntraj, n)
        arrays of whole lanes for the stepped ones.  They are read before
        any state is written, so ``out`` may hold them.
        """
        _, ntraj, n = out.shape
        lanes = n // _LANE
        cells = lanes * ntraj
        comps = self.components
        # lane[i, j]: increment i of component comps[j] of every lane
        # (lane-major, then trajectory), then its state i + 1, stepped in place
        lane, term, starts, ends = _views(
            work, (_LANE, len(comps), cells), (len(comps), cells), (4, lanes, ntraj),
            (4, lanes, ntraj))
        by_lane = lane.reshape(_LANE, len(comps), lanes, ntraj)
        for j, k in enumerate(comps):
            by_lane[:, j] = incr[k].reshape(ntraj, lanes, _LANE).T
        np.einsum("jk,kn->jn", self._ends, lane.reshape(-1, cells), out=term)
        # the full S^L carries every trajectory, one (4, 4) @ (4, 1) product
        # each, so that ntraj changes no bit; the components not stepped end
        # their lanes at zero, and S^L maps none of them into the stepped ones
        ends[...] = 0.0
        ends[list(comps)] = term.reshape(-1, lanes, ntraj)
        ends = ends.transpose(1, 2, 0)[..., None]
        for j in range(lanes):
            starts[:, j] = self._x[..., 0].T
            self._x = np.matmul(self._lane, self._x) + ends[j]
        # each lane stepped once from its start, the stepped rows of the full
        # S on the start's four components first
        prev, step = starts.reshape(4, cells), self._rows
        for cur in lane[:-1]:
            cur += np.einsum("jc,cn->jn", step, prev, out=term)
            prev, step = cur, self._step
        states = out.reshape(-1, ntraj, lanes, _LANE)
        for state, (k, j) in zip(states, self._outputs):
            state[..., 0] = starts[k].T
            state[..., 1:] = by_lane[:-1, j].transpose(2, 1, 0)
        return out


def _steps(cfg: SimulationConfig) -> tuple[int, int]:
    """(burn-in steps, kept steps) of a run."""
    return int(round(cfg.burn_in / cfg.dt)), int(round(cfg.duration / cfg.dt))


def _drawn(cfg: SimulationConfig) -> int:
    """Steps a run draws: whole lanes from step 0, the last lane's steps
    past the run drawn and dropped."""
    return -(-sum(_steps(cfg)) // _LANE) * _LANE


def _stride(chain: Chain) -> int:
    """Stream steps per step of ``chain``: a record-only chain's step reads
    the first five of the eight normals of two, any other chain's the four
    of one."""
    return 2 if chain.record_only else 1


class _Stepper:
    """A chain, checked and ready to step: one :class:`_LaneScan` over its
    reservoirs' blocks of rows and the accumulator its kept steps go to.
    It owns no array of a chunk: its increments and states are written in
    the pass's :func:`_scan_work`.
    :meth:`step` draws a chunk's increments from the pass's normals and
    :meth:`advance` scans them, keeps and adds; :func:`measure_gain`
    advances on a tone's increments instead.

    A full chain steps Euler-Maruyama, S = I + A dt, its increments the
    rows of chol(D dt) times four normals.  A record-only chain steps
    exactly (:func:`_exact_step`): S = Phi, the top left 4x4 of Phi5, its
    increments and the record's own those of F = U sqrt(max(lambda, 0)),
    U and lambda the eigenvectors and eigenvalues of the symmetrized Q5,
    times five normals, and it writes the components its record reads.
    """

    def __init__(self, chain: Chain, accumulator):
        dp, cfg = chain.dp, chain.cfg
        fastest = fastest_rate(dp)
        if not chain.record_only and cfg.dt * fastest >= _DT_GUARD:
            raise ConfigurationError(
                f"dt = {cfg.dt!r} s does not resolve the fastest rate "
                f"{fastest!r} rad/s (need dt * rate < {_DT_GUARD})")
        slowest = min(dp.kappa_a, dp.kappa_m)
        if cfg.burn_in < 10.0 / slowest:
            raise ConfigurationError(
                f"burn_in = {cfg.burn_in!r} s is shorter than 10 relaxation times "
                f"(need >= {10.0 / slowest!r} s)")
        require_stable(dp)
        self.n_burn, n_keep = _steps(cfg)
        if n_keep < 1:
            raise ConfigurationError("duration shorter than one step")
        if chain.record_only:
            factors = []
            for reservoir in chain.reservoirs:
                with np.errstate(over="ignore", invalid="ignore"):   # refused below
                    phi5, q5 = _exact_step(dp, chain.temperature, reservoir, cfg.dt)
                if not (np.isfinite(phi5).all() and np.isfinite(q5).all()):
                    raise ConfigurationError(
                        f"dt = {cfg.dt!r} s is too long for the exact step: its "
                        "transition or noise covariance is not finite")
                lam, vec = np.linalg.eigh((q5 + q5.T) / 2.0)
                factors.append(vec * np.sqrt(np.maximum(lam, 0.0)))
            # the record y_k = (h . x_k + the record's increment) / dt reads
            # the components where h = Phi5[4, :4] is not zero
            step, read = phi5[:4, :4], phi5[4, :4]
            written = tuple(c for c in range(4) if read[c] != 0.0)
            #: h on the written components
            self.read = [read[c] for c in written]
        else:
            try:
                factors = [np.linalg.cholesky(_diffusion(dp, chain.temperature, reservoir) * cfg.dt)
                           for reservoir in chain.reservoirs]
            except np.linalg.LinAlgError as exc:
                raise ParameterError(
                    "magnon variance matrix is not positive semidefinite") from exc
            step, written = np.eye(4) + drift_matrix(dp) * cfg.dt, (0, 1, 2, 3)
        #: per reservoir block, (c, factor[k, c]) of the nonzero entries of each row k
        self.terms = [[[(c, coef) for c, coef in enumerate(row) if coef != 0.0]
                       for row in factor] for factor in factors]
        self.chain, self.accumulator = chain, accumulator
        self.ntraj = cfg.n_trajectories
        self.rows = len(self.terms) * self.ntraj
        self.n_total = self.n_burn + n_keep
        self.end = _drawn(cfg)
        self.stride = _stride(chain)
        #: steps of a chunk of the pass: whole lanes
        self.chunk = _CHUNK // self.stride
        self.scan = _LaneScan(step, self.rows, written)
        #: the increments drawn, by component: the scan's, and for a
        #: record-only chain the record's own, 4
        self.drawn = self.scan.components + ((4,) if chain.record_only else ())
        #: trajectory-steps of the scan's largest call
        self.cells = self.rows * min(self.chunk, self.end)

    def increments(self, z: np.ndarray, out: np.ndarray, temp: np.ndarray) -> list:
        """The increments of :attr:`drawn`, P_a always among them, indexed
        by component (None for the others), on the normals ``z``
        (trajectory, step, normal) of this chain's steps in the chunk:
        (rows, n) views of ``out``, in the order of :attr:`drawn`, each
        block's rows through its own factor.  ``temp`` holds their products.

        Each is sum_c factor[k, c] * normal_c over the nonzero factor[k, c],
        the products added in order of c, so that the zero coefficients of a
        full chain's mostly diagonal Cholesky factor cost nothing; a unit
        coefficient multiplies by 1.0, which is exact.
        """
        n = z.shape[1]
        normals = z.transpose(2, 0, 1)
        blocks = out[:len(self.drawn) * self.rows * n].reshape(len(self.drawn), -1,
                                                                self.ntraj, n)
        product = temp[:self.ntraj * n].reshape(self.ntraj, n)
        incr = [None] * 5
        for k, totals in zip(self.drawn, blocks):
            for terms, total in zip(self.terms, totals):
                (c, coef), *others = terms[k]
                np.multiply(normals[c], coef, out=total)
                for c, coef in others:
                    total += np.multiply(normals[c], coef, out=product)
            incr[k] = totals.reshape(self.rows, -1)
        return incr

    def step(self, z: np.ndarray, pos: int, work: tuple) -> None:
        """Step the chunk from the pass's stream step ``pos``, ``chunk``
        steps or the rest of the run, on the normals ``z`` (stream, step, 4)
        of the pass's chunk, ``stride`` stream steps a step: its
        increments, then :meth:`advance`.  ``work`` is the pass's
        :func:`_scan_work`."""
        pos //= self.stride
        n = min(self.chunk, self.end - pos)
        normals = z[:self.ntraj, :self.stride * n].reshape(self.ntraj, n, -1)
        _, increments, temp = work
        self.advance(self.increments(normals, increments, temp), pos, work)

    def advance(self, incr: list, pos: int, work: tuple) -> None:
        """Scan the chunk from ``pos`` on ``incr``, the increments indexed
        by component, (rows, n) for the stepped ones, laid out in ``work``, a
        :func:`_scan_work`, as :meth:`increments` lays them.  The states go
        over the stepped components' increments, which the scan has read by
        then; a record-only chain's own increment, drawn last, stays for its
        record.  Adds the kept steps, if any, to the chain's accumulator: a
        full chain's quadratures (4, rows, m), or a record-only chain's
        output record (rows, m), written over its first written component's
        states."""
        scan_work, increments, _ = work
        n = incr[3].shape[1]
        shape = (len(self.scan.written), self.rows, n)
        states = self.scan(incr, increments[:math.prod(shape)].reshape(shape), scan_work)
        lo, hi = max(self.n_burn - pos, 0), min(self.n_total - pos, n)
        if lo >= hi:
            return
        kept = states[:, :, lo:hi]
        if self.chain.record_only:
            # (h . x + the record's increment) / dt, the spent states scaled
            # in place
            record = kept[0]
            record *= self.read[0]
            for component, coef in zip(kept[1:], self.read[1:]):
                record += np.multiply(component, coef, out=component)
            record += incr[4][:, lo:hi]
            record /= self.chain.cfg.dt
            kept = record
        self.accumulator.add(kept)


def _stream_extents(chains: list[Chain]) -> list[int]:
    """Steps drawn from each (seed, index) stream by a pass over ``chains``:
    the furthest step any chain reads from it."""
    return [max(_stride(c) * _drawn(c.cfg) for c in chains if c.cfg.n_trajectories > i)
            for i in range(max(c.cfg.n_trajectories for c in chains))]


def fold(pairs: list[tuple[Chain, object]]) -> None:
    """Integrate the quadrature Langevin equations of the chain of every
    (chain, accumulator) pair of ``pairs`` on one pass over their seed's
    streams, a chunk at a time, each chain adding its kept steps of each
    chunk to its own accumulator, in pair order.

    An accumulator's ``add`` takes a full chain's quadratures before each
    step, (4, rows, n), or a record-only chain's output record, (rows, n),
    the rows being one block of n_trajectories per reservoir; a chunk in
    which the chain keeps no step reaches it not at all.  Each part is a
    view of the pass's one scratch, which the next chain of the same chunk
    overwrites, so an accumulator copies what it keeps; the pass holds no
    buffer per chain.  A full chain's increments are the rows of
    chol(D dt) times standard normals, D the diffusion matrix of the inputs
    with the block's reservoir, and a record-only chain's those of a factor
    of its exact step's Q5; each stream's normals are drawn once for all
    chains and blocks, so they see the same noise, and each chain is
    stepped by one scan (see the module docstring).

    Raises :class:`ConfigurationError` before any stepping if ``pairs`` or
    a chain's reservoirs are empty, if a chain's accumulator is None, if
    the chains do not share one seed, or if a chain's configuration guard
    fails, its exact step is not finite or its drift is unstable.
    """
    if not pairs or not all(chain.reservoirs and acc is not None for chain, acc in pairs):
        raise ConfigurationError("a pass needs at least one chain, and each at least one "
                                 "reservoir and an accumulator")
    chains = [chain for chain, _ in pairs]
    if len({chain.cfg.seed for chain in chains}) != 1:
        raise ConfigurationError("the chains of one pass must share one seed")
    running = [_Stepper(chain, acc) for chain, acc in pairs]
    work = _scan_work(max(s.cells for s in running), max(len(s.drawn) for s in running))
    extents = _stream_extents(chains)
    rngs = [_trajectory_rng(chains[0].cfg.seed, i) for i in range(len(extents))]
    end = max(extents)
    # a chunk's normals, one row per stream; a stream that has ended leaves
    # its row stale, and no running chain reads it
    z = np.empty((len(rngs), min(_CHUNK, end), 4))
    for pos in range(0, end, _CHUNK):
        for rng, extent, zi in zip(rngs, extents, z):
            if extent > pos:
                rng.standard_normal(out=zi[:extent - pos])
        for stepper in running:
            stepper.step(z, pos, work)
        running = [s for s in running if s.stride * s.end > pos + _CHUNK]


class _Store:
    """An accumulator that copies the parts it is fed into ``array``, one
    after the other along its last axis."""

    def __init__(self, array: np.ndarray):
        self.array, self.filled = array, 0

    def add(self, part: np.ndarray) -> None:
        n = part.shape[-1]
        self.array[..., self.filled:self.filled + n] = part
        self.filled += n


def simulate(
    dp: DerivedParameters,
    temperature: float,
    cfg: SimulationConfig,
    reservoir: SqueezedReservoir | None = None,
) -> SimulationTrace:
    """Integrate the quadrature Langevin equations and store the whole run.

    One :func:`fold` of two pairs, a full chain with a store of its
    quadratures and a record-only one with a store of its output record,
    for callers that read single samples; it raises what that raises.  The
    two chains read the same streams through their own steps, so the
    record is not a read-out of the stored quadratures.
    """
    n_burn, n_keep = _steps(cfg)
    quad = np.empty((4, cfg.n_trajectories, n_keep))
    out = np.empty((cfg.n_trajectories, n_keep))
    fold([(Chain(dp, temperature, cfg, (reservoir,)), _Store(quad)),
          (Chain(dp, temperature, cfg, (reservoir,), record_only=True), _Store(out))])
    times = (n_burn + np.arange(n_keep)) * cfg.dt
    return SimulationTrace(times=times, quadratures=np.moveaxis(quad, 0, -1),
                           output_record=out)


def noverlap(segment_length: int) -> int:
    """Samples shared by consecutive Welch segments of this length."""
    return int(round(segment_length * WELCH_OVERLAP))


class WelchAccumulator:
    """Welch's averaged periodogram of output records fed in time order, one
    per block of ``n_trajectories`` rows.

    A record holds ``blocks`` such blocks, reservoir-major, as a record-only
    chain with that many reservoirs feeds them (:class:`Chain`), and each
    block has its own running sum of periodograms.  Holds the last
    ``segment_length`` samples of every row.  Each time a segment
    completes, it is Hann-windowed, not detrended (the record's mean is
    zero), and real FFTs batched over ``_WELCH_ROWS`` rows of one block at
    a time, restarting at each block, are added to that block's sum; the
    next segment starts ``segment_length - noverlap(segment_length)``
    samples later.  Memory is the ring and one transform scratch, whatever
    the record length: each batch is windowed and transformed in the
    scratch, so no segment allocates, and the result does not depend on
    how the record is split between :meth:`add` calls.
    """

    def __init__(self, n_trajectories: int, segment_length: int, blocks: int = 1):
        segment_length = int(segment_length)
        if segment_length < 2:
            raise ParameterError(
                f"segment_length must be at least 2, got {segment_length}")
        self._ring = np.empty((blocks, n_trajectories, segment_length))
        self._filled = 0
        self._hop = segment_length - noverlap(segment_length)
        # the periodic Hann window, 0.5 - 0.5 cos(2 pi n / L)
        self._window = (0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, segment_length + 1)))[:-1]
        self._power = np.zeros((blocks, segment_length // 2 + 1))
        #: periodograms averaged so far into each block's spectrum
        self.segments = 0
        # the transform scratch of a batch: its transforms as pairs of
        # floats, its windowed segments and one power sum
        rows, bins = min(_WELCH_ROWS, n_trajectories), self._power.shape[1]
        shapes = (rows, 2 * bins), (rows, segment_length), (bins,)
        self._scratch = tuple(_views(np.empty(sum(map(math.prod, shapes))), *shapes))

    def add(self, record: np.ndarray) -> None:
        """Fold in the next samples of every row, shape (blocks * n_trajectories, n)."""
        length = self._ring.shape[2]
        ring = self._ring.reshape(-1, length)
        if len(record) != len(ring):
            raise ParameterError(f"a record of {len(record)} rows fed to {len(ring)} rows")
        pos = 0
        while pos < record.shape[1]:
            take = min(length - self._filled, record.shape[1] - pos)
            ring[:, self._filled:self._filled + take] = record[:, pos:pos + take]
            self._filled += take
            pos += take
            if self._filled == length:
                # a few rows of one block at a time, so the transform stays small
                pairs, windowed, power = self._scratch
                for block, total in zip(self._ring, self._power):
                    for rows in range(0, block.shape[0], _WELCH_ROWS):
                        batch = block[rows:rows + _WELCH_ROWS]
                        spec = np.fft.rfft(
                            np.multiply(batch, self._window, out=windowed[:len(batch)]),
                            out=pairs[:len(batch)].view(complex))
                        # |rfft|^2 summed over rows, with no 2-D temporary
                        total += np.einsum("ij,ij->j", spec.real, spec.real, out=power)
                        total += np.einsum("ij,ij->j", spec.imag, spec.imag, out=power)
                self.segments += self._ring.shape[1]
                self._filled = length - self._hop
                # row by row: numpy copies an overlapping 1-D slice forward
                # in place, but a 2-D one through a temporary of its size
                for row in ring:
                    row[:self._filled] = row[self._hop:]

    def spectrum(self, dt: float) -> tuple[np.ndarray, np.ndarray]:
        """(omega, psd) of the segments so far, for samples ``dt`` apart,
        psd one row per block.

        omega is in rad/s on [0, Nyquist].  The normalization matches the
        analytic spectra: a white record representing variance density V
        (delta-correlated in time) estimates flat at V, i.e. half the
        one-sided density.
        """
        if self.segments == 0:
            raise ParameterError("record shorter than one Welch segment")
        length = self._ring.shape[2]
        scale = 1.0 / ((1.0 / dt) * (self._window * self._window).sum())
        psd = self._power * (scale / self.segments)
        # the one-sided density doubles every bin but DC and an even length's
        # Nyquist bin; halving it leaves those two halved and the rest as is
        psd[:, 0] /= 2.0
        if length % 2 == 0:
            psd[:, -1] /= 2.0
        return 2.0 * math.pi * np.fft.rfftfreq(length, dt), psd


class CovarianceAccumulator:
    """Per-trajectory second moments of the quadratures about zero, fed in pieces.

    Every oracle run has zero mean (linear drift, zero-mean inputs, a
    start at rest burnt in), so moments / count estimates the stationary
    covariance :func:`lyapunov_covariance` returns without bias; centring on
    a sample mean would read it low by the mean's variance, about
    4 / (kappa T) relative over a record of length T, and hide an offset.
    """

    def __init__(self, n_trajectories: int):
        self._count = 0
        self._moments = np.zeros((n_trajectories, 4, 4))

    def add(self, states: np.ndarray) -> None:
        """Fold in the next samples, shape (4, n_trajectories, n)."""
        if states.shape[1] != len(self._moments):
            raise ParameterError(f"states of {states.shape[1]} rows fed to {len(self._moments)}")
        self._moments += np.einsum("itn,jtn->tij", states, states)
        self._count += states.shape[2]

    def covariances(self) -> np.ndarray:
        """Covariance matrices about zero, shape (n_trajectories, 4, 4)."""
        if self._count == 0:
            raise ParameterError("a covariance needs at least one sample")
        return self._moments / self._count


class _MeanSquare:
    """An accumulator of the mean square of P_a over a full chain's rows
    and kept steps: one dot product per part, summed in the order the parts
    come."""

    def __init__(self):
        self.total, self.count = 0.0, 0

    def add(self, quadratures: np.ndarray) -> None:
        p_a = quadratures[3].reshape(-1)
        self.total += float(np.dot(p_a, p_a))
        self.count += p_a.size


def measure_gain(chain: Chain, frequency: float) -> float:
    """Response at ``frequency`` (rad/s) of ``chain``, stepped as
    :func:`fold` steps it but on a tone alone.

    A field tone B0 at the offset ``frequency`` = omega_s - omega_b from the
    magnon pump drives, in the frame rotating with the pump, only through
    its slowly rotating envelope lambda' B0 / sqrt(2) (sin, cos)(frequency t)
    on (X_M, P_M).  At the backaction-evading point, which this requires,
    the P_M drive does not reach the output.  The chain is linear, so a unit
    X_M drive, sin(frequency t) dt, is fed alone to every row, from rest
    and without noise, each increment but X_M's zero, and the chain's
    stepper advances on it a chunk at a time.  That is the field amplitude
    B0 = sqrt(2) / lambda', whose field-referred input power
    lambda^2 B0^2 / (4 kappa_m), lambda = lambda' e^{-r_m}, is
    1 / (2 kappa_m xi).  The mean square of the kept record sqrt(kappa_a)
    P_a over that power, 2 kappa_a kappa_m xi mean(P_a^2), estimates the
    analytic response at ``frequency``, biased only by the step.  The chain
    is stepped full, whatever its ``record_only``, and P_a read from its
    quadratures: a record holds sqrt(kappa_a) P_a, rounded, whose mean
    square would move the gain's last bits.
    """
    if not math.isfinite(frequency):
        raise ParameterError("tone frequency must be finite")
    require_evading_point(chain.dp)
    dp, dt = chain.dp, chain.cfg.dt
    stepper = _Stepper(replace(chain, record_only=False), _MeanSquare())
    work = _scan_work(stepper.cells, 4)
    for pos in range(0, stepper.end, _CHUNK):
        n = min(_CHUNK, stepper.end - pos)
        # the last chunk's states overwrote the drive-free rows
        incr = work[1][:4 * stepper.rows * n].reshape(4, stepper.rows, n)
        incr[1:] = 0.0
        # every row's X_M drive at once, the same bits in each
        t = np.multiply(np.arange(pos, pos + n, dtype=float), dt, out=incr[0])
        t *= frequency
        np.sin(t, out=t)
        t *= dt
        stepper.advance(incr, pos, work)
    power = stepper.accumulator
    return 2.0 * dp.kappa_a * dp.kappa_m * dp.xi * power.total / power.count


def lyapunov_covariance(dp: DerivedParameters, temperature: float,
                        dt: float) -> np.ndarray:
    """Stationary covariance of the chain :func:`fold` steps with ``dt``.

    Solves V = S V S^T + D dt, S = I + A dt, D the increments' diffusion
    matrix, so the step's O(dt) variance bias is in the reference; as dt -> 0
    it tends linearly to the solution of A V + V A^T + D = 0.
    """
    step = np.eye(4) + drift_matrix(dp) * dt
    # row-major vec(S V S^T) = (S kron S) vec(V)
    noise = _diffusion(dp, temperature, None) * dt
    return np.linalg.solve(np.eye(16) - np.kron(step, step), noise.ravel()).reshape(4, 4)
