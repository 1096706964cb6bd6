"""Analytic-vs-oracle comparisons behind the `verify` command.

Two seed-free checks of the transfer routes come first: the exact
elimination of the output row against the printed closed forms, that is
the 1e-9 agreement of |k1| at the backaction-evading point and the
documented decoupled-resonant discrepancy (|K4(0)| = 1 from the drift
system vs 3 from the printed form).

The stochastic runs are one table, :func:`_runs`: each entry calls its
check family with the names of the checks it feeds, its parameters and
the seed.  The family sizes the run and returns it as a :class:`_Run`:
its chain, which holds the run's parameters, step, length and rows, the
accumulator the chain feeds (None for a gain run) and the judge of its
checks, which takes no argument.  The table sizes every run before any
is stepped, so a refusal costs no stepping.  Then the chains of the runs
that hold an accumulator, the Lyapunov and PSD runs, are folded into
them on one :func:`simulation.fold` pass over the seed's streams, and
every run's judge is called in table order.  Each (seed, trajectory
index) stream is drawn once, and every run reads a prefix of the same
streams, step for step.
The checks of one seed are therefore not independent draws; a rate of
"any check failed" cannot be formed by multiplying per-check rates.
``_check_lyapunov`` compares the stepped Euler-Maruyama chain's second
moments about its exact zero mean with its discrete Lyapunov covariance,
within three standard errors.  ``_check_psd`` compares Welch spectra of
the output with the analytic output spectrum over omega in [0.1, 5]
kappa_m.  Its record-only chain steps exactly (see :mod:`.simulation`), so
its step is set by the bands, not by the fastest rate: dt kappa_m =
``_PSD_STEP`` = 0.2, a Nyquist frequency of 15.7 kappa_m, and 15680
recorded steps a row in 48 Welch segments of 640 samples at any
parameters, after a burn-in of 13 relaxation times (65 steps on the desk
set); the step's own bias, seed-free, is under 1 % of the analytic
spectrum on the bands (a tier-1 test).  The ``psd_rm15`` run feeds two
checks, without and with the squeezed reservoir, from one chain of two
reservoir blocks and one Welch accumulator of two spectra; its judge cuts
the bands and the analytic grid once and judges each reservoir's spectrum
on them.
``_check_gain``'s chain is not folded: its judge, called after the pass,
calls :func:`simulation.measure_gain` on the chain, which gives in closed
form the mean square of P_a that the chain's Euler-Maruyama step takes
under a unit drive alone over 32 of its periods, without noise, so the
gain's deviation from the analytic response is the step's own bias,
whatever the seed, and no step is taken.

The default parameter set keeps the physical mode frequencies (which only
set thermal occupations) but scales all rates down to O(10 Hz) with
g'/kappa_m of order one: the dimensionless spectra checked do not depend on
the rate scale, while the Euler-Maruyama step of the Lyapunov runs must
resolve the fastest rate, which makes g'/kappa_m in the thousands costly
to simulate.  The gain runs take the same step but are summed, not
stepped, so their length costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .model import ConfigurationError, DerivedParameters, SystemParameters, derived_parameters
from . import simulation
from .simulation import (Chain, CovarianceAccumulator, SimulationConfig, WelchAccumulator,
                         fastest_rate, lyapunov_covariance, noverlap)
from .spectra import SqueezedReservoir, output_spectrum
from .transfer import closed_form_grid, require_evading_point, require_stable, response_grid

__all__ = ["CheckResult", "VerificationReport", "verification_parameters", "run_verification"]

_TWO_PI = 2.0 * math.pi

# sizing of the stochastic runs
_DT_ACCURACY = 0.015          # dt * fastest rate of the Lyapunov and gain runs
_PSD_STEP = 0.2               # dt * kappa_m of the PSD runs, which step exactly
_PSD_TRAJECTORIES = 16
_PSD_SEGMENTS_PER_TRAJECTORY = 48
_PSD_RESOLUTION = 0.05        # Welch bin spacing in units of kappa_m
_GAIN_PERIODS = 32            # tone periods recorded by each gain run
_LYAPUNOV_DURATION_RELAX = 2800.0   # duration in units of 1/kappa_m
_LYAPUNOV_TRAJECTORIES = 32
_MAX_TRAJECTORY_STEPS = 10**8      # recorded trajectory-steps one run may take

#: largest |sample - Lyapunov| of a covariance entry, in standard errors
_LYAPUNOV_TOLERANCE = 3.0
#: largest band-averaged relative deviation of a Welch spectrum from output_spectrum
_PSD_TOLERANCE = 0.10
#: largest relative deviation of an injected-tone gain from the analytic response
_GAIN_TOLERANCE = 0.15


@dataclass(frozen=True)
class CheckResult:
    """One comparison: it passes when ``value`` is at most ``tolerance``."""

    name: str
    value: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name:<28s} {status}  value={self.value:.6g}  "
                f"tol={self.tolerance:.6g}  {self.detail}")


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple
    seed: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"verification seed={self.seed}"]
        out.extend(c.line() for c in self.checks)
        out.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return out


def verification_parameters() -> SystemParameters:
    """Desk-scale parameter set for the stochastic oracle, at r_m = 0.

    Mode frequencies stay at 37.5 GHz (they only enter the thermal
    occupations, negligible at 50 mK); the rates are kappa_m = 2*pi*15,
    kappa_a = 2*pi*16.5 and A*g_0 = 2*pi*6 in rad/s, both detunings zero.
    The field coupling is arbitrary here: it cancels out of every
    dimensionless comparison.
    """
    return SystemParameters(
        omega_a=_TWO_PI * 37.5e9,
        omega_0=_TWO_PI * 37.5e9,
        g_0=_TWO_PI * 6.0,
        mod_amplitude=1.0,
        kappa_a=_TWO_PI * 16.5,
        kappa_m=_TWO_PI * 15.0,
        lambda_coupling=_TWO_PI * 10.0,
        temperature=0.05,
        r_m=0.0,
    )


@dataclass(frozen=True)
class _Run:
    """One sized run of :func:`_runs`: its chain, which holds the run's
    parameters, step, length and rows, the accumulator its chain feeds,
    and ``judge()``, which reads the accumulator once :func:`simulation.fold`
    has filled it.  A gain run's accumulator is None: its chain is not
    folded, and its judge steps the tone."""

    names: tuple[str, ...]
    chain: Chain
    judge: Callable[[], list[CheckResult]]
    accumulator: object = None
    segment: int | None = None    # Welch segment length in samples (PSD runs)
    frequency: float | None = None  # the tone offset in rad/s (gain runs)


def _runs(params: SystemParameters, seed: int) -> list[_Run]:
    """The stochastic runs of ``verify`` on ``params`` at ``seed``, in report
    order, every one sized and none stepped, so a refusal costs no stepping."""
    kappa_m = params.kappa_m
    hot = replace(params, temperature=2.6)
    return [
        _check_lyapunov("lyapunov_decoupled",
                        replace(hot.with_squeeze_amplitude(0.5), mod_amplitude=0.0,
                                delta_a=0.0, delta_0p=0.0), seed),
        _check_lyapunov("lyapunov_coupled",
                        replace(hot.with_squeeze_amplitude(0.0), g_0=0.4 * kappa_m,
                                mod_amplitude=1.0, delta_a=0.5 * kappa_m,
                                delta_0p=-0.3 * kappa_m), seed),
        _check_psd((("psd_rm0", None),), params.with_squeeze_amplitude(0.0), seed),
        _check_psd((("psd_rm15", None),
                    ("psd_rm15_reservoir", SqueezedReservoir(r_n=1.5, phi_n=math.pi))),
                   params.with_squeeze_amplitude(1.5), seed),
        *[_check_gain(f"gain_delta_{frac:g}km", frac, params.with_squeeze_amplitude(1.0), seed)
          for frac in (0.2, 0.5, 1.0)],
    ]


def _oracle_step(params: SystemParameters) -> tuple[DerivedParameters, float]:
    """The derived parameters of ``params`` and the Euler-Maruyama step of
    the Lyapunov and gain runs on them."""
    dp = derived_parameters(params)
    return dp, _DT_ACCURACY / fastest_rate(dp)


def _chain(dp: DerivedParameters, temperature: float, seed: int, dt: float, steps: float,
           trajectories: int, reservoirs: tuple[SqueezedReservoir | None, ...] = (None,),
           record_only: bool = False) -> Chain:
    """The chain of one oracle run: ``dp`` at ``temperature``, ``steps``
    recorded steps of ``dt``, rounded, after a burn-in of 13 relaxation
    times of the slower mode, on a block of ``trajectories`` rows per entry
    of ``reservoirs``.  The budget counts the rows of the chain it returns.

    Refuses an unstable drift, and a run of more than ``_MAX_TRAJECTORY_STEPS``
    recorded trajectory-steps over all its rows, or of steps too many to
    round, as it stands: a time budget, not a memory guard, since the runs
    store nothing that grows with their length.  On a 2-core x86 machine
    (Python 3.11, numpy 2.4.6), burn-in counted, the folded runs step
    3.7-9.0 million trajectory-steps a second, each run folded alone (best
    of five, measured three times): the two Lyapunov runs make the fast
    end, and the exact record-only ``psd_rm0`` run of 16 rows, which draws
    two stream steps a step, the slow one; 1e8 of them are 11-27 s.  A gain
    run is one row, which :func:`simulation.measure_gain` does not step:
    it sums the chain's response in closed form, the three gain runs in
    under 2 ms at any length (the reference set's 9.9e7 steps included),
    and the budget refuses a gain run by the same rule as the others.  The
    budget is 15.2x the largest desk run, each Lyapunov run's 32 rows of
    205333 steps; the PSD runs' step is set by the bands, so they take
    15680 steps a row at any parameters.
    """
    require_stable(dp)
    rows = len(reservoirs) * trajectories
    if not (math.isfinite(steps) and rows * round(steps) <= _MAX_TRAJECTORY_STEPS):
        raise ConfigurationError(
            "parameter set is too stiff for the stochastic oracle: "
            f"{rows} rows ({len(reservoirs)} x {trajectories} trajectories) of {steps:.3g} "
            f"steps are {rows * steps:.3g} trajectory-steps, over the "
            f"{_MAX_TRAJECTORY_STEPS:.0e} budget; reduce the ratio of the "
            "fastest rate to kappa_m")
    cfg = SimulationConfig(dt=dt, duration=round(steps) * dt,
                           burn_in=13.0 / min(dp.kappa_a, dp.kappa_m),
                           n_trajectories=trajectories, seed=seed)
    return Chain(dp, temperature, cfg, reservoirs, record_only)


def _check_routes(params: SystemParameters) -> list[CheckResult]:
    dp = derived_parameters(params.with_squeeze_amplitude(1.5))
    grid = np.linspace(0.0, 10.0 * dp.kappa_m, 2001)
    k1_num = np.abs(response_grid(dp, grid)[0])
    k1_closed = np.abs(closed_form_grid(dp, grid)[0])
    rel = float(np.max(np.abs(k1_num - k1_closed) / k1_num))
    checks = [CheckResult(
        name="k1_route_agreement",
        value=rel,
        tolerance=1e-9,
        detail="max relative |k1| difference, exact elimination vs closed form, "
               "omega/kappa_m in [0, 10]",
    )]

    # decoupled resonant limit: zero coupling, zero detunings
    dp0 = derived_parameters(replace(params.with_squeeze_amplitude(0.0),
                                     mod_amplitude=0.0, delta_a=0.0, delta_0p=0.0))
    k4_direct = abs(response_grid(dp0, [0.0])[3][0])
    k4_closed = abs(closed_form_grid(dp0, [0.0])[3][0])
    checks.append(CheckResult(
        name="k4_dc_discrepancy",
        value=max(abs(k4_direct - 1.0), abs(k4_closed - 3.0)),
        tolerance=1e-12,
        detail=(f"decoupled resonant limit: authoritative |K4(0)| = "
                f"{k4_direct:.12f}, closed form |K4(0)| = {k4_closed:.12f} "
                "(known inconsistency of the printed form, documented here)"),
    ))
    return checks


def _check_lyapunov(name: str, params: SystemParameters, seed: int) -> _Run:
    dp, dt = _oracle_step(params)
    chain = _chain(dp, params.temperature, seed, dt,
                   _LYAPUNOV_DURATION_RELAX / dp.kappa_m / dt, _LYAPUNOV_TRAJECTORIES)
    acc = CovarianceAccumulator(chain.cfg.n_trajectories)

    def judge() -> list[CheckResult]:
        covs = acc.covariances()
        se = covs.std(axis=0, ddof=1) / math.sqrt(covs.shape[0])
        target = lyapunov_covariance(dp, chain.temperature, dt)
        iu = np.triu_indices(4)
        sigmas = np.abs(covs.mean(axis=0) - target)[iu] / np.maximum(se[iu], 1e-300)
        return [CheckResult(
            name=name,
            value=float(np.max(sigmas)),
            tolerance=_LYAPUNOV_TOLERANCE,
            detail="max |sample - Lyapunov| in standard errors over the 10 "
                   f"covariance entries, {covs.shape[0]} trajectories",
        )]
    return _Run((name,), chain, judge, acc)


def _psd_bands(omega: np.ndarray, kappa_m: float) -> list[np.ndarray]:
    """Index sets of log-spaced comparison bands covering [0.1, 5] kappa_m."""
    bands = []
    for center in np.geomspace(0.12 * kappa_m, 4.2 * kappa_m, 12):
        lo, hi = center / 1.3, center * 1.3
        lo, hi = max(lo, 0.1 * kappa_m), min(hi, 5.0 * kappa_m)
        sel = np.nonzero((omega >= lo) & (omega <= hi))[0]
        if sel.size == 0:
            sel = np.array([int(np.argmin(np.abs(omega - center)))])
        bands.append(sel)
    return bands


def _five_smooth(n: int) -> int:
    """The least length >= n with no prime factor over 5, which the FFT
    transforms fast."""
    n = max(n, 1)
    best = 1 << (n - 1).bit_length()
    # per odd part 3^b 5^c below the best so far, the least power of two
    # that lifts it to n
    five = 1
    while five < best:
        odd = five
        while odd < best:
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        five *= 5
    return best


def _check_psd(checks: tuple, params: SystemParameters, seed: int) -> _Run:
    """The PSD run of ``checks``, (name, reservoir) pairs on one chain."""
    dp = derived_parameters(params)
    dt = _PSD_STEP / dp.kappa_m
    # _PSD_SEGMENTS_PER_TRAJECTORY Welch segments of nper samples, a 5-smooth
    # length at about _PSD_RESOLUTION kappa_m bin spacing: 640 at any kappa_m
    nper = _five_smooth(round(_TWO_PI / (_PSD_RESOLUTION * _PSD_STEP)))
    steps = nper + (_PSD_SEGMENTS_PER_TRAJECTORY - 1) * (nper - noverlap(nper))
    # the checks differ only in their reservoirs; Welch reads the record alone
    names, reservoirs = zip(*checks)
    chain = _chain(dp, params.temperature, seed, dt, steps, _PSD_TRAJECTORIES,
                   reservoirs, record_only=True)
    welch = WelchAccumulator(chain.cfg.n_trajectories, nper, len(chain.reservoirs))

    def judge() -> list[CheckResult]:
        omega, psds = welch.spectrum(dt)
        bands = _psd_bands(omega, dp.kappa_m)
        # the bands read about a hundred low bins; each is solved alone, so
        # the grid's top changes no bit of them
        top = max(int(sel[-1]) for sel in bands) + 1
        references = [output_spectrum(dp, chain.temperature, omega[:top], reservoir=reservoir)
                      for reservoir in chain.reservoirs]
        return [CheckResult(
            name=name,
            value=max(abs(float(np.mean(psd[sel])) / float(np.mean(reference[sel])) - 1.0)
                      for sel in bands),
            tolerance=_PSD_TOLERANCE,
            detail=f"max band-averaged relative deviation, {welch.segments} Welch "
                   "segments, omega/kappa_m in [0.1, 5]",
        ) for name, psd, reference in zip(names, psds, references)]
    return _Run(names, chain, judge, welch, segment=nper)


def _check_gain(name: str, frac: float, params: SystemParameters, seed: int) -> _Run:
    """The gain run of a tone ``frac`` kappa_m from the pump."""
    dp, dt = _oracle_step(params)
    require_evading_point(dp)
    delta = frac * dp.kappa_m
    k1, _, _, _ = response_grid(dp, [delta])
    gain_analytic = dp.xi * float(np.abs(k1[0])**2)
    if not gain_analytic > 0:
        raise ConfigurationError("the gain checks need a magnon-cavity coupling "
                                 "(mod_amplitude > 0 and g_0 > 0)")
    chain = _chain(dp, params.temperature, seed, dt, _GAIN_PERIODS * _TWO_PI / (delta * dt), 1)

    def judge() -> list[CheckResult]:
        gain = simulation.measure_gain(chain, delta)
        return [CheckResult(
            name=name,
            value=abs(gain / gain_analytic - 1.0),
            tolerance=_GAIN_TOLERANCE,
            detail=f"empirical {gain:.4g} vs analytic {gain_analytic:.4g} "
                   f"at delta = {frac:g} kappa_m, r_m = 1",
        )]
    return _Run((name,), chain, judge, frequency=delta)


def _judge(runs: list[_Run]) -> list[CheckResult]:
    """The results of ``runs`` in table order, once the chains of those
    with an accumulator are stepped on one pass, which frees its buffers
    when it ends."""
    pairs = [(run.chain, run.accumulator) for run in runs if run.accumulator is not None]
    if pairs:
        simulation.fold(pairs)
    return [result for run in runs for result in run.judge()]


def run_verification(
    params: SystemParameters | None = None,
    seed: int = 42,
) -> VerificationReport:
    """Run the route checks and every run of the run table, and collect a report.

    ``params`` defaults to :func:`verification_parameters`; a custom set must
    keep the fastest rate within a few hundred kappa_m or the stochastic
    runs are refused as intractable.  All runs are sized before any is
    stepped, so a refusal costs no stepping; then every run is stepped on
    one pass over the seed's streams, so all checks read the same normals.
    """
    if params is None:
        params = verification_parameters()
    runs = _runs(params, seed)
    checks = _check_routes(params) + _judge(runs)
    return VerificationReport(checks=tuple(checks), seed=seed)
