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
  first step, which starts at rest.  A lane's L + 1 slots hold its
  increments, drawn into slots 1 to L, lane-major, and its start, carried
  into slot 0.  One contraction gives every lane of a chunk its end from
  rest, sum_m S^(L-1-m) incr_m; a loop over the lanes, not the steps,
  carries each lane's starting state in from the last one's with S^L; and
  every lane is then stepped once from its start, all lanes at once, one S x
  per step, in place, so that slot i ends holding the lane's state i.  The
  slots are a chunk's only copy: the kept states are read where they were
  stepped, as time-ordered views (:func:`_kept`).  This is the same linear
  map as stepping one step at a time, to rounding (up to 1.5e-14 of the
  largest state in the tests), and it needs no eigenbasis, so a defective S
  (kappa_a = kappa_m at zero detuning) and the complex pairs of a detuned S
  are no special case.
* A scan steps only the components that the ones its chain reads out read:
  their closure under the nonzero pattern of S.  A record-only chain reads
  out the components its record reads, where h is not zero, and P_a reads
  X_M and itself alone at the backaction-evading point (delta_a = delta_0p =
  0, where only X_M reaches the output), so its scan steps those two; a
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
  a chain's rows: 264 kB per component's lane slots of a full chain at 32
  rows, 1.03 MB for all four.  ``verify``'s chains have 32, 32, 16 and 32
  rows, and the tests and the benchmark's self-test at most 16.  Inside the
  lanes each contraction is one two-index :func:`np.einsum` over every lane
  and row, whose matrices are strided (:func:`_strided`) so that it adds
  each state's terms in order whatever the number of columns, and the carry
  is one 4x4 by 4x1 product per row and lane: no operation mixes lanes or
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
steps it keeps of each chunk straight to it: a full chain its quadratures,
views of its lane slots in at most three parts, (4, rows, n) for the lanes
where its burn-in and its run end and (4, rows, lanes, L) for the whole
lanes between, which the covariances read, or a record-only chain its
output record (rows, n), in one part, which Welch reads; a chunk of burn-in
alone reaches no accumulator.  Each block is bit for bit that of the chain
stepped alone with its reservoir, and the chains of a pass are not
independent: they see the same noise.

A pass allocates its arrays once, before the first chunk: the normals of one
chunk and its one scratch, sized for the chain of the pass whose chunk takes
the most (:attr:`_Stepper.size`), and no buffer per chain.  The chains take
the scratch in turn (:meth:`_Stepper.regions`): the lane scan's slots, lane
ends, starts and terms, a temporary for the sums and products of increments
of several terms and a record-only chain's h . x, and a record-only chain's
record, drawn as its own increments and written over them, in a fixed order
of operations, so no bit depends on the buffers; the part an accumulator is
fed is overwritten by the next chain of the same chunk.  At ``verify``'s
32-row, four-component Lyapunov chains the scratch is 147,456 doubles,
1.13 MB, the lane slots 1.03 MB of it; their Cholesky factors are
diagonal, so they take no temporary, and it holds no region of the chunk's
increments beside the lanes.  A chunk allocates no array larger than
the lane carry's (rows, 4, 1) states (numpy's iterator buffers and FFT
plans aside).  Temporaries of a chain's chunk (256 kB per component at 32
rows) would otherwise cost page faults on every chunk wherever the C
allocator maps blocks that large on their own, as glibc does until it frees
a larger mapped block.  The accumulators take the chunks in:

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
its amplitude: :func:`measure_gain` gives the mean square of P_a that the
Euler-Maruyama chain, driven by a unit tone alone from rest and without
noise, takes over its kept steps, in closed form, and draws no stream and
takes no step.  It builds the chain's stepper as :func:`fold` does, so it
refuses what a pass refuses, and sums the chain's forced response and its
decaying transient over the kept steps as geometric and discrete Lyapunov
sums of S.  It never reads the analytic response: the oracle stays
independent of :mod:`.transfer`'s solves.
"""

from __future__ import annotations

import cmath
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

    Its chain reads out the components ``written``, in ascending order, and
    it steps only ``components``, the closure of those under the nonzero
    pattern of S: no other component feeds them.
    """

    def __init__(self, step: np.ndarray, rows: int, written: tuple[int, ...] = (0, 1, 2, 3)):
        #: the components read out
        self.written = written
        self.components = comps = _closure(step, written)
        block = np.ix_(comps, comps)
        #: S on the stepped components, and their rows of the full S
        self._step, self._rows = _strided(step[block]), _strided(step[list(comps)])
        #: W[j, m c + k] = S^(L-1-m)[comps[j], comps[k]]: W times a lane's
        #: increments, step-major, is its end from rest
        self._ends = _strided(np.concatenate([np.linalg.matrix_power(step, i)[block]
                                              for i in range(_LANE - 1, -1, -1)], axis=1))
        self._lane = np.linalg.matrix_power(step, _LANE)
        self._x = np.zeros((rows, 4, 1))

    def size(self, n: int) -> int:
        """Doubles of the scratch of a call of ``n`` steps, whole lanes: the
        lane slots, then one term per stepped component and the lane starts
        and ends of all four, a term per lane and row each."""
        cells = n // _LANE * len(self._x)
        return ((_LANE + 2) * len(self.components) + 8) * cells

    def slots(self, work: np.ndarray, n: int) -> np.ndarray:
        """The lane slots of a call of ``n`` steps at the start of ``work``:
        (``_LANE`` + 1, stepped component, lane, row), slot i + 1 of a lane
        holding its increment i, written before the call, and slot 0 its
        carried start."""
        shape = (_LANE + 1, len(self.components), n // _LANE, len(self._x))
        return work[:math.prod(shape)].reshape(shape)

    def __call__(self, work: np.ndarray, n: int) -> np.ndarray:
        """Step the :meth:`slots` of a call of ``n`` steps in place, from the
        state the last call carried out, and return them: slot i of each lane
        then holds its state i, the state before its increment i, and the
        last slot its spent last increment.  ``work`` holds
        :meth:`size` doubles."""
        slots = self.slots(work, n)
        _, _, lanes, rows = slots.shape
        cells = lanes * rows
        comps = self.components
        # by_slot[i, j]: slot i of component comps[j] of every lane (lane-major,
        # then row)
        by_slot = slots.reshape(_LANE + 1, len(comps), cells)
        term, starts, ends = _views(work[slots.size:], (len(comps), cells), (4, lanes, rows),
                                    (4, lanes, rows))
        np.einsum("jk,kn->jn", self._ends, by_slot[1:].reshape(-1, cells), out=term)
        # the full S^L carries every row, one (4, 4) @ (4, 1) product each, so
        # that the row count changes no bit; the components not stepped end
        # their lanes at zero, and S^L maps none of them into the stepped ones
        ends[...] = 0.0
        ends[list(comps)] = term.reshape(-1, lanes, rows)
        ends = ends.transpose(1, 2, 0)[..., None]
        for j in range(lanes):
            starts[:, j] = self._x[..., 0].T
            self._x = np.matmul(self._lane, self._x) + ends[j]
        starts = starts.reshape(4, cells)
        for start, k in zip(by_slot[0], comps):
            start[...] = starts[k]
        # each lane stepped once from its start, the stepped rows of the full
        # S on the start's four components first
        prev, step = starts, self._rows
        for cur in by_slot[1:-1]:
            cur += np.einsum("jc,cn->jn", step, prev, out=term)
            prev, step = cur, self._step
        return slots


def _kept(slots: np.ndarray, lo: int, hi: int) -> list[tuple[int, int, np.ndarray]]:
    """The states of steps ``lo`` to ``hi`` - 1 of a call's stepped
    :meth:`_LaneScan.slots`, as (first step, end step, view) in time order:
    the partial lane where ``lo`` falls, (component, row, m), the whole lanes
    after it, (component, row, lane, ``_LANE``), and the partial lane where
    ``hi`` falls, (component, row, m), each view's steps along its trailing
    axes in order."""
    states = slots[:_LANE].transpose(1, 3, 2, 0)
    first, last = -(-lo // _LANE), hi // _LANE
    if first > last:
        return [(lo, hi, states[:, :, last, lo % _LANE:hi % _LANE])]
    pieces = []
    if lo < first * _LANE:
        pieces.append((lo, first * _LANE, states[:, :, first - 1, lo % _LANE:]))
    if first < last:
        pieces.append((first * _LANE, last * _LANE, states[:, :, first:last]))
    if last * _LANE < hi:
        pieces.append((last * _LANE, hi, states[:, :, last, :hi % _LANE]))
    return pieces


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
    It owns no array of a chunk: its increments, states and record are
    written in the pass's scratch, :attr:`size` doubles of it.
    :meth:`step` draws a chunk's increments from the pass's normals into the
    scan's lane slots and :meth:`advance` scans them, keeps and adds.

    A full chain steps Euler-Maruyama, S = I + A dt, its increments the
    rows of chol(D dt) times four normals.  A record-only chain steps
    exactly (:func:`_exact_step`): S = Phi, the top left 4x4 of Phi5, its
    increments and the record's own those of F = U sqrt(max(lambda, 0)),
    U and lambda the eigenvectors and eigenvalues of the symmetrized Q5,
    times five normals, and it reads out the components its record reads.
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
        if chain.record_only:
            #: (position among the stepped components, h) of each component read
            self.read = [(self.scan.components.index(c), read[c]) for c in written]
        drawn = [*self.scan.components, *[4] * chain.record_only]
        several = any(len(block[k]) > 1 for block in self.terms for k in drawn)
        #: rows of the temporary: a sum and a product, n_trajectories each,
        #: if an increment has several terms, and a record-only chain's h . x
        self.products = max(2 * self.ntraj * several, self.rows * chain.record_only)
        n = min(self.chunk, self.end)
        #: doubles of the pass's scratch the largest chunk takes (:meth:`regions`)
        self.size = self.scan.size(n) + (self.products + chain.record_only * self.rows) * n

    def regions(self, work: np.ndarray, n: int) -> tuple:
        """(scan scratch, products, record) of a chunk of ``n`` steps in
        ``work``: the scan's, whose lane slots come first, then a temporary
        of (:attr:`products`, n) for sums and products, and a record-only
        chain's record, (rows, n), or None."""
        scan = self.scan.size(n)
        shapes = [(self.products, n)] + [(self.rows, n)] * self.chain.record_only
        product, *record = _views(work[scan:], *shapes)
        return work[:scan], product, *(record or [None])

    def increments(self, z: np.ndarray, slots: np.ndarray, product: np.ndarray,
                   record: np.ndarray | None) -> None:
        """Draw the increments on the normals ``z`` (trajectory, step,
        normal) of this chain's steps in the chunk, each block's rows through
        its own factor: each stepped component's into its lane slots after
        the first, lane-major, and a record-only chain's record's own into
        ``record`` (rows, n).  ``product`` holds their sums and products.

        Each is sum_c factor[k, c] * normal_c over the nonzero factor[k, c],
        the products added in order of c, so that the zero coefficients of a
        full chain's mostly diagonal Cholesky factor cost nothing; a unit
        coefficient multiplies by 1.0, which is exact.  An increment of one
        term goes straight into the slots from a transposed view of ``z``,
        written by :func:`np.einsum`, which adds the product to the zeroed
        output, 0 + x c = x c, and needs no iterator buffers where a ufunc on
        these views takes two of 64 kB per call.  One of several terms is
        summed time-major, whose contiguous adds are faster than adds on the
        lanes' views, and copied into its slots once.
        """
        ntraj, n, _ = z.shape
        normals = z.transpose(2, 0, 1)
        # (normal, slot, lane, trajectory)
        by_lane = z.reshape(ntraj, n // _LANE, _LANE, -1).transpose(3, 2, 1, 0)
        total, temp = product[:ntraj], product[ntraj:2 * ntraj]
        for j, k in enumerate(self.scan.components):
            for terms, first in zip(self.terms, range(0, self.rows, ntraj)):
                lanes = slots[1:, j, :, first:first + ntraj]
                [(c, coef), *others] = terms[k]
                if others:
                    _combine(normals, terms[k], total, temp)
                    lanes[...] = total.reshape(ntraj, -1, _LANE).T
                else:
                    np.einsum("...,->...", by_lane[c], coef, out=lanes)
        if record is not None:
            for terms, first in zip(self.terms, range(0, self.rows, ntraj)):
                _combine(normals, terms[4], record[first:first + ntraj], temp)

    def step(self, z: np.ndarray, pos: int, work: np.ndarray) -> None:
        """Step the chunk from the pass's stream step ``pos``, ``chunk``
        steps or the rest of the run, on the normals ``z`` (stream, step, 4)
        of the pass's chunk, ``stride`` stream steps a step: its
        increments, then :meth:`advance`.  ``work`` is the pass's scratch."""
        pos //= self.stride
        n = min(self.chunk, self.end - pos)
        normals = z[:self.ntraj, :self.stride * n].reshape(self.ntraj, n, -1)
        scan, product, record = self.regions(work, n)
        self.increments(normals, self.scan.slots(scan, n), product, record)
        self.advance(scan, product, record, pos, n)

    def advance(self, scan: np.ndarray, product: np.ndarray, record: np.ndarray | None,
                pos: int, n: int) -> None:
        """Scan the chunk of ``n`` steps from ``pos``, its increments drawn
        in the :meth:`regions` ``scan`` and ``record``, and add the kept
        steps, if any, to the chain's accumulator.  A full chain adds its
        quadratures, views of the lane slots as :func:`_kept` cuts them: at
        most three parts, the steps along their trailing axes.  A record-only
        chain adds its output record (rows, m), written over its own
        increments."""
        slots = self.scan(scan, n)
        lo, hi = max(self.n_burn - pos, 0), min(self.n_total - pos, n)
        if lo >= hi:
            return
        if not self.chain.record_only:
            for _, _, quadratures in _kept(slots, lo, hi):
                self.accumulator.add(quadratures)
            return
        # (h . x + the record's increment) / dt: h . x summed in the
        # temporary, from the spent states scaled in place
        for first, end, states in _kept(slots, lo, hi):
            total = product[:self.rows, first:end].reshape(states.shape[1:])
            (j, coef), *others = self.read
            np.multiply(states[j], coef, out=total)
            for j, coef in others:
                total += np.multiply(states[j], coef, out=states[j])
        record = record[:, lo:hi]
        record += product[:self.rows, lo:hi]
        record /= self.chain.cfg.dt
        self.accumulator.add(record)


def _combine(normals: np.ndarray, terms: list, total: np.ndarray, temp: np.ndarray) -> None:
    """sum_c coef * normals[c] over ``terms``' (c, coef) into ``total``,
    the products added in order, ``temp`` holding each after the first."""
    (c, coef), *others = terms
    np.multiply(normals[c], coef, out=total)
    for c, coef in others:
        total += np.multiply(normals[c], coef, out=temp)


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
    step, (4, rows, n) or, for whole lanes, (4, rows, lanes, ``_LANE``),
    the steps along the trailing axes in order, in up to three parts a
    chunk, or a record-only chain's output record, (rows, n), one part a
    chunk, the rows being one block of n_trajectories per reservoir; a
    chunk in which the chain keeps no step reaches it not at all.  Each
    part is a view of the pass's one scratch, which the next chain of the
    same chunk overwrites, so an accumulator copies what it keeps; the pass
    holds no buffer per chain.  A full chain's increments are the rows of
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
    # the pass's one scratch, which the chains take in turn
    work = np.empty(max(s.size for s in running))
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
    after the other along its last axis: a part's steps run along its axes
    from the last of ``array``'s on, in order."""

    def __init__(self, array: np.ndarray):
        self.array, self.filled = array, 0

    def add(self, part: np.ndarray) -> None:
        n = math.prod(part.shape[self.array.ndim - 1:])
        # splitting the last axis is always a view
        self.array[..., self.filled:self.filled + n].reshape(part.shape)[...] = part
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
        """Fold in the next samples, shape (4, n_trajectories, ...), the
        samples along the trailing axes."""
        if states.shape[1] != len(self._moments):
            raise ParameterError(f"states of {states.shape[1]} rows fed to {len(self._moments)}")
        steps = "n" if states.ndim == 3 else "mn"
        self._moments += np.einsum(f"it{steps},jt{steps}->tij", states, states)
        self._count += math.prod(states.shape[2:])

    def covariances(self) -> np.ndarray:
        """Covariance matrices about zero, shape (n_trajectories, 4, 4)."""
        if self._count == 0:
            raise ParameterError("a covariance needs at least one sample")
        return self._moments / self._count


def _one_minus(angle: float) -> complex:
    """1 - e^{i angle}, as 2 sin^2(angle / 2) - i sin(angle), which does not
    cancel at small angles."""
    return complex(2.0 * math.sin(angle / 2.0)**2, -math.sin(angle))


def _dirichlet(angle: float, first: int, n: int) -> complex:
    """sum_k e^{i angle k} over k = first .. first + n - 1, the Dirichlet
    kernel, exact where sin(angle / 2) vanishes."""
    half = math.sin(angle / 2.0)
    ratio = n if half == 0.0 else math.sin(n * angle / 2.0) / half
    return ratio * complex(math.cos(angle * (first + (n - 1) / 2.0)),
                           math.sin(angle * (first + (n - 1) / 2.0)))


def measure_gain(chain: Chain, frequency: float) -> float:
    """Response at ``frequency`` (rad/s) of ``chain``, stepped as
    :func:`fold` steps it but on a tone alone, in closed form.

    A field tone B0 at the offset ``frequency`` = omega_s - omega_b from the
    magnon pump drives, in the frame rotating with the pump, only through
    its slowly rotating envelope lambda' B0 / sqrt(2) (sin, cos)(frequency t)
    on (X_M, P_M).  At the backaction-evading point, which this requires,
    the P_M drive does not reach the output.  The chain is linear, so a unit
    X_M drive, sin(frequency t_k) dt at step k, is fed alone, from rest and
    without noise.  That is the field amplitude B0 = sqrt(2) / lambda',
    whose field-referred input power lambda^2 B0^2 / (4 kappa_m), lambda =
    lambda' e^{-r_m}, is 1 / (2 kappa_m xi).  The mean square of the kept
    record sqrt(kappa_a) P_a over that power, 2 kappa_a kappa_m xi
    mean(P_a^2), estimates the analytic response at ``frequency``, biased
    only by the step.  The chain is the full Euler-Maruyama one, whatever
    its ``record_only``, with the checks :func:`fold` makes on it.

    Its steps are not taken: with S = I + A dt, z = e^{i frequency dt} and
    g = (zI - S)^-1 e_XM, the chain's P_a at step k is dt Im(u_k), u_k =
    z^k g_P - w_k, w_k = e_P^T S^k g, and Im(u)^2 = (|u|^2 - Re(u^2)) / 2.
    Over the kept steps, the sums of z^2k, of (z S)^k and (conj(z) S)^k,
    which are geometric, and of S^k M (S^k)^T, M = g g^H and g g^T, which
    are discrete Lyapunov sums, give the mean square.
    """
    if not math.isfinite(frequency):
        raise ParameterError("tone frequency must be finite")
    require_evading_point(chain.dp)
    stepper = _Stepper(replace(chain, record_only=False), None)
    dp, dt = chain.dp, chain.cfg.dt
    first, n = stepper.n_burn, stepper.n_total - stepper.n_burn
    eye = np.eye(4)
    step = eye + drift_matrix(dp) * dt
    # S - I, exact, and 1 - e^{i phi} keep the resolvents' differences of
    # numbers near one from cancelling: at g'/kappa_m ~ 750, kappa dt is
    # about 1e-5
    drift = step - eye
    angle = frequency * dt
    g = np.linalg.solve(-_one_minus(angle) * eye - drift, eye[0])
    # e_P^T S^first and e_P^T S^(first + n)
    p_first = np.linalg.matrix_power(step, first)[3]
    p_end = p_first @ np.linalg.matrix_power(step, n)

    def geometric(phi: float) -> complex:
        """e_P^T sum_k (c S)^k g over the kept steps, c = e^{i phi}:
        c^first e_P^T S^first (I - c^n S^n) (I - c S)^-1 g."""
        c = cmath.exp(1j * phi)
        rest = np.linalg.solve((_one_minus(phi) * eye - c * drift).T,
                               p_first - cmath.exp(1j * phi * n) * p_end)
        return cmath.exp(1j * phi * first) * complex(rest @ g)

    # the discrete Lyapunov sums X = S X S^T + M, row-major vec(S X S^T) =
    # (S kron S) vec(X), for M = g g^H and g g^T at once; I - S kron S is
    # -(D kron I + I kron D + D kron D), D = S - I
    sums = np.linalg.solve(-(np.kron(drift, eye) + np.kron(eye, drift) + np.kron(drift, drift)),
                           np.stack([np.outer(g, g.conj()).ravel(), np.outer(g, g).ravel()],
                                    axis=1))
    square, plain = [p_first @ x @ p_first - p_end @ x @ p_end
                     for x in sums.T.reshape(2, 4, 4)]
    g_p = g[3]
    total = (n * abs(g_p)**2 + square.real
             - 2.0 * (g_p * geometric(-angle).conjugate()).real
             - (g_p**2 * _dirichlet(2.0 * angle, first, n)).real
             + 2.0 * (g_p * geometric(angle)).real - plain.real) / 2.0
    return 2.0 * dp.kappa_a * dp.kappa_m * dp.xi * dt**2 * float(total) / n


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
