"""Input variances, output noise spectra, noise budget and sensitivity.

The homodyne output spectrum of the phase quadrature is assembled from the
transfer coefficients and the symmetrized variance densities of the four
white inputs.  The magnon input is one Gaussian covariance over its
amplitude and phase quadratures (X, P): the bath covariance V_bath seen
through the magnon's squeezing transformation S(r_m) = diag(e^{-r_m}, e^{+r_m}),

    V = S(r_m) V_bath S(r_m)^T

(Weedbrook et al., Rev. Mod. Phys. 84, 621, 2012, sec. II).  The thermal
bath is V_bath = (nbar_m + 1/2) I, so X is squeezed and P anti-squeezed.
A squeezed vacuum reservoir (squeeze amplitude r_n, phase phi_n) replaces
the thermal bath with

    V_bath = 1/2 [cosh(2 r_n) I - sinh(2 r_n) R(phi_n)],
    R(phi) = [[cos phi, sin phi], [sin phi, -cos phi]],

whose X quadrature is anti-squeezed at phi_n = pi.  It undoes S(r_m)
exactly at r_n = r_m, phi_n = pi, leaving the vacuum V = I/2.

At the backaction-evading point (both detunings zero) the spectrum separates
into response * (thermal noise + additional noise + signal), which is the
decomposition reported by :func:`noise_budget_grid` as one
:class:`NoiseBudget` of per-frequency columns, together with the
field-referred total noise and the sensitivity.

The preconditions live in :mod:`magnon_sense.transfer`, which owns the
drift matrix: :func:`output_spectrum` calls ``require_stable`` (no
stationary spectrum exists otherwise), the budget functions call
``require_evading_point``, and every grid passes ``frequency_grid``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import _MAX_SQUEEZE, DerivedParameters, ParameterError, thermal_occupation
from .transfer import frequency_grid, require_evading_point, require_stable, response_grid

__all__ = [
    "SqueezedReservoir",
    "NoiseBudget",
    "input_quadrature_variances",
    "input_densities",
    "output_spectrum",
    "noise_budget_grid",
    "approx_suppressed_sensitivity",
]

#: below this value of |k1|^2 the magnon channel transduces nothing and the
#: field-referred noise is reported as infinity rather than an error
_K1_SQ_FLOOR = 1e-30


@dataclass(frozen=True)
class SqueezedReservoir:
    """Squeezed vacuum reservoir for the magnon mode.

    ``phi_n`` is stored reduced to [0, 2*pi).  The reservoir cancels the
    transformed-mode occupation completely at ``r_n = r_m``, ``phi_n = pi``.
    ``r_n`` is bounded like ``r_m``, below 354, where sinh(2 r_n) is still
    finite.
    """

    r_n: float
    phi_n: float

    def __post_init__(self):
        if not 0.0 <= self.r_n < _MAX_SQUEEZE:
            raise ParameterError(
                f"reservoir squeeze amplitude r_n must be >= 0 and < "
                f"{_MAX_SQUEEZE:g}, got {self.r_n!r}")
        if not math.isfinite(self.phi_n):
            raise ParameterError("reservoir phase phi_n must be finite")
        phi = math.fmod(self.phi_n, 2.0 * math.pi)
        if phi < 0.0:
            phi += 2.0 * math.pi
        object.__setattr__(self, "phi_n", phi)


@dataclass(frozen=True)
class NoiseBudget:
    """Decomposition of the output noise, one column per quantity.

    Each field is an array aligned with the analysis frequencies ``omega``
    (rad/s), and ``len()`` is their number.  ``response`` is the gain
    from the field-referred signal density to the output spectrum;
    ``additional_noise`` the cavity (shot/backaction) contribution and
    ``thermal_noise`` the magnon thermal contribution, both referred to the
    same input; ``s_out`` the output spectrum value; ``s_bnoise`` the total
    noise density referred to magnetic field (T^2/Hz) and ``sensitivity``
    its square root (T/sqrt(Hz)).
    """

    omega: np.ndarray
    response: np.ndarray
    additional_noise: np.ndarray
    thermal_noise: np.ndarray
    s_out: np.ndarray
    s_bnoise: np.ndarray
    sensitivity: np.ndarray

    def __len__(self) -> int:
        return len(self.omega)


def input_quadrature_variances(
    r_m: float,
    nbar_m: float,
    reservoir: SqueezedReservoir | None = None,
) -> np.ndarray:
    """Symmetrized 2x2 variance density V of the magnon (X, P) input.

    V = S(r_m) V_bath S(r_m)^T with S(r_m) = diag(e^{-r_m}, e^{+r_m}) and
    V_bath the thermal bath (nbar_m + 1/2) I or, with ``reservoir``, the
    squeezed vacuum 1/2 [cosh(2 r_n) I - sinh(2 r_n) R(phi_n)] with
    R(phi) = [[cos phi, sin phi], [sin phi, -cos phi]].  ``nbar_m`` does
    not enter then: the reservoir replaces the thermal bath.  With this
    sign of phi_n the input is the vacuum I/2 at r_n = r_m, phi_n = pi.

    S is diagonal, so V[0, 0] = e^{-2 r_m} V_bath[0, 0],
    V[1, 1] = e^{+2 r_m} V_bath[1, 1] and V[0, 1] = V_bath[0, 1].  The
    reservoir's diagonal is evaluated in the equal half-angle form
    e^{-2 r_n}/2 + sinh(2 r_n) {sin^2, cos^2}(phi_n/2), a sum of
    nonnegative terms, so nothing cancels near the nulling point.  A pure
    bath (nbar_m = 0, or any reservoir) gives det V = 1/4, and
    (tr V - 1)/2 is the occupation N_e of the transformed mode.
    """
    if nbar_m < 0:
        raise ParameterError("nbar_m must be >= 0")
    if reservoir is None:
        bath_x = bath_p = nbar_m + 0.5
        bath_xp = 0.0
    else:
        r_n, phi_n = reservoir.r_n, reservoir.phi_n
        vacuum, sh = 0.5 * math.exp(-2.0 * r_n), math.sinh(2.0 * r_n)
        bath_x = vacuum + sh * math.sin(0.5 * phi_n)**2
        bath_p = vacuum + sh * math.cos(0.5 * phi_n)**2
        bath_xp = -0.5 * sh * math.sin(phi_n)
    return np.array([[math.exp(-2.0 * r_m) * bath_x, bath_xp],
                     [bath_xp, math.exp(2.0 * r_m) * bath_p]])


def input_densities(
    dp: DerivedParameters,
    temperature: float,
    reservoir: SqueezedReservoir | None = None,
) -> tuple[float, np.ndarray]:
    """Variance densities of the four white inputs at ``temperature``.

    Returns the density nbar_a + 1/2 of each cavity quadrature and the
    magnon 2x2 covariance of :func:`input_quadrature_variances`, with each
    mode's thermal occupation taken at its own frequency.  Every spectrum,
    budget, Lyapunov solution and simulation draws its input noise from
    here.
    """
    cavity = thermal_occupation(dp.omega_a, temperature) + 0.5
    nbar_m = thermal_occupation(dp.omega_0, temperature)
    return cavity, input_quadrature_variances(dp.r_m, nbar_m, reservoir)


def _s_out(ks, cavity: float, magnon: np.ndarray):
    """The s_out expression of :func:`output_spectrum` on solved k1..k4."""
    k1, k2, k3, k4 = ks
    return (cavity * (np.abs(k3)**2 + np.abs(k4)**2)
            + np.abs(k1)**2 * magnon[0, 0]
            + np.abs(k2)**2 * magnon[1, 1]
            + 2.0 * np.real(k1 * np.conj(k2)) * magnon[0, 1])


def output_spectrum(
    dp: DerivedParameters,
    temperature: float,
    grid,
    reservoir: SqueezedReservoir | None = None,
) -> np.ndarray:
    """Homodyne output spectrum of the phase quadrature on a frequency grid.

        s_out = (nbar_a + 1/2) (|k3|^2 + |k4|^2)
               + |k1|^2 v_x + |k2|^2 v_p
               + 2 Re(k1 conj(k2)) c_xp

    where v_x, v_p and c_xp are the entries V[0, 0], V[1, 1] and V[0, 1] of
    the magnon input covariance of :func:`input_quadrature_variances`.
    The cross term vanishes whenever c_xp = 0
    (no reservoir, or reservoir phase 0/pi) or k2 = 0 (zero magnon detuning),
    which covers every reported operating point; it is kept for arbitrary
    reservoir phases.

    Raises :class:`ConfigurationError` if the drift is unstable, since no
    stationary spectrum exists then.
    """
    grid = frequency_grid(grid)
    require_stable(dp)
    cavity, magnon = input_densities(dp, temperature, reservoir)
    return _s_out(response_grid(dp, grid), cavity, magnon)


def _additional_noise(dp: DerivedParameters, cavity: float, k1, k4) -> np.ndarray:
    """N_qn = (nbar_a + 1/2)/xi |k4|^2/|k1|^2, infinite where k1 vanishes."""
    k1_sq = np.abs(k1)**2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        additional = cavity / dp.xi * np.abs(k4)**2 / k1_sq
    return np.where(k1_sq < _K1_SQ_FLOOR, math.inf, additional)


def noise_budget_grid(
    dp: DerivedParameters,
    temperature: float,
    omegas,
    reservoir: SqueezedReservoir | None = None,
) -> NoiseBudget:
    """Response, additional noise, thermal noise, total noise and sensitivity.

    Only defined at the backaction-evading point delta_a = delta_0p = 0:

        response          A_m  = xi |k1|^2
        additional noise  N_qn = (nbar_a + 1/2)/xi * |k4|^2 / |k1|^2
        thermal noise     N_mth = V[0, 0] / xi
                          (= (nbar_m + 1/2)/xi^2 without reservoir)
        s_bnoise = (2 kappa_m / lambda^2) (N_mth + N_qn)     [T^2/Hz]
        sensitivity = sqrt(s_bnoise)                         [T/sqrt(Hz)]

    with lambda the bare field coupling, each evaluated at every frequency
    of ``omegas`` and returned as one column per field.  Thermal noise is a
    normalized background: independent of omega, kappa_a and the coupling.
    At zero coupling |k1|^2 vanishes and the field-referred quantities are
    reported as infinity (no transduction), not as an error.
    """
    require_evading_point(dp)
    omegas = frequency_grid(omegas)
    cavity, magnon = input_densities(dp, temperature, reservoir)
    ks = response_grid(dp, omegas)
    thermal = np.full_like(omegas, magnon[0, 0] / dp.xi)
    additional = _additional_noise(dp, cavity, ks[0], ks[3])
    # in numpy, so that np.errstate sees an overflowing referral
    s_bnoise = 2.0 * dp.kappa_m / np.float64(dp.lambda_bare)**2 * (thermal + additional)
    return NoiseBudget(
        omega=omegas,
        response=dp.xi * np.abs(ks[0])**2,
        additional_noise=additional,
        thermal_noise=thermal,
        s_out=_s_out(ks, cavity, magnon),
        s_bnoise=s_bnoise,
        sensitivity=np.sqrt(s_bnoise),
    )


def approx_suppressed_sensitivity(
    dp: DerivedParameters,
    temperature: float,
    grid,
) -> np.ndarray:
    """Sensitivity with the magnon thermal channel dropped entirely.

    Returns sqrt(2 kappa_m N_qn(omega)) / lambda on the frequency grid, the
    approximation valid when a nulling reservoir (r_n = r_m, phi_n = pi)
    removes the effective magnon occupation.  Note the exact budget retains
    the residual vacuum half-quantum V[0, 0]/xi = 1/(2 xi), which this
    expression discards; compare against :func:`noise_budget_grid` with the
    reservoir supplied to see the difference.  Independent of the magnon
    occupation by construction.
    """
    require_evading_point(dp)
    grid = frequency_grid(grid)
    cavity, _ = input_densities(dp, temperature)
    k1, _, _, k4 = response_grid(dp, grid)
    return np.sqrt(2.0 * dp.kappa_m * _additional_noise(dp, cavity, k1, k4)) / dp.lambda_bare
