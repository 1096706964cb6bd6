"""Frequency-domain transfer coefficients of the output phase quadrature.

The linear quadrature dynamics over the state order (X_M, P_M, X_a, P_a) is

    du/dt = A u + B u_in,      B = diag(sqrt(kappa_m), sqrt(kappa_m),
                                        sqrt(kappa_a), sqrt(kappa_a)),

and with the Fourier convention O(omega) = \\int dt O(t) e^{i omega t}
(so d/dt -> -i omega) the susceptibility is chi(omega) = (-i omega I - A)^-1 B.
The detected quantity is the output phase quadrature
P_a_out = sqrt(kappa_a) P_a - P_a_in, whose four coefficients k1..k4 multiply
the magnon amplitude / magnon phase / cavity amplitude / cavity phase inputs.

Two routes are provided.  :func:`response_grid` computes k1..k4 by exact
elimination of the output row of chi from the drift system and is
authoritative for all spectra.  :func:`closed_form_grid` evaluates a set of
printed rational expressions kept as a comparison surface; its k4 (and the
phase of k1) disagree with the drift system's, which is why it is never used
downstream.  In the decoupled resonant limit the drift system gives
|k4(0)| = 1 (a passive cavity reflects unit noise) while the closed form
gives 3; the `verify` command reports both numbers.

This module owns the drift matrix (:func:`drift_matrix`) and the checks the
other layers rely on: :func:`require_stable` (every eigenvalue in the open
left half-plane, or no stationary state exists), :func:`require_evading_point`
(both detunings zero, so k2 = k3 = 0 and only the squeezed X_M channel
reaches the output) and :func:`frequency_grid` (a nonempty, finite grid).
"""

from __future__ import annotations

import numpy as np

from .model import ConfigurationError, DerivedParameters, ParameterError, PreconditionError

__all__ = [
    "PoleError",
    "SingularResponseError",
    "drift_matrix",
    "require_stable",
    "require_evading_point",
    "frequency_grid",
    "response_grid",
    "closed_form_grid",
]

#: detunings are considered zero when below this fraction of the linewidths
_EVASION_RTOL = 1e-9


class PoleError(ArithmeticError):
    """Closed-form denominator vanished at the requested frequency."""

    def __init__(self, omega: float):
        self.omega = omega
        super().__init__(
            f"transfer denominator vanishes at omega = {omega!r} rad/s")


class SingularResponseError(ArithmeticError):
    """The response matrix -i*omega*I - A is numerically singular."""


def drift_matrix(dp: DerivedParameters) -> np.ndarray:
    """The (4, 4) drift matrix A of the quadrature dynamics, in rad/s.

    At delta_a = delta_0p = 0 the drift matrix is lower triangular in the
    reordering (X_M, X_a, P_M, P_a); its eigenvalues are then exactly
    {-kappa_m/2, -kappa_a/2} twice, independent of the coupling, so the
    backaction-evading point is unconditionally stable.
    """
    km, ka = dp.kappa_m, dp.kappa_a
    d0, da, g2 = dp.delta_0p, dp.delta_a, 2.0 * dp.g_prime
    return np.array([
        [-km / 2.0,  d0,        0.0,       0.0],
        [-d0,       -km / 2.0, -g2,        0.0],
        [0.0,        0.0,      -ka / 2.0,  da],
        [-g2,        0.0,      -da,       -ka / 2.0],
    ])


def require_stable(dp: DerivedParameters) -> None:
    """Raise :class:`ConfigurationError` unless the drift has a steady state.

    Stationary spectra and long-run simulations both need every eigenvalue
    of the drift matrix in the open left half-plane.
    """
    growth = float(np.linalg.eigvals(drift_matrix(dp)).real.max())
    if growth >= 0:
        raise ConfigurationError(
            "drift matrix is dynamically unstable for these parameters "
            f"(max Re eigenvalue = {growth!r} rad/s)")


def require_evading_point(dp: DerivedParameters) -> None:
    """Raise :class:`PreconditionError` unless both detunings are zero,
    to 1e-9 of the smaller linewidth."""
    tol = _EVASION_RTOL * min(dp.kappa_a, dp.kappa_m)
    if abs(dp.delta_a) > tol:
        raise PreconditionError(
            f"noise budget is defined only at the backaction-evading point; "
            f"delta_a = {dp.delta_a!r} rad/s is nonzero")
    if abs(dp.delta_0p) > tol:
        raise PreconditionError(
            f"noise budget is defined only at the backaction-evading point; "
            f"delta_0p = {dp.delta_0p!r} rad/s is nonzero")


def frequency_grid(grid) -> np.ndarray:
    """``grid`` as a 1-d float array of analysis frequencies (rad/s).

    Raises :class:`ParameterError` if it is empty or not finite.
    """
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size == 0:
        raise ParameterError("frequency grid must be nonempty")
    if not np.all(np.isfinite(grid)):
        raise ParameterError("frequency grid must be finite")
    return grid


def response_grid(dp: DerivedParameters, omegas) -> tuple[np.ndarray, ...]:
    """Transfer coefficients k1..k4 on a frequency grid, by exact elimination
    of the output row.

    Returns four complex arrays aligned with ``omegas`` (rad/s).  This is the
    authoritative route.  Only the P_a row of chi = M^-1 B, M = -i omega I - A,
    is needed, so the row y of M^-1 solving y^T M = e_3^T is eliminated
    column by column from the sparse drift of :func:`drift_matrix`, and
    k_j = sqrt(kappa_a) B_jj y_j, with the direct reflection -1 subtracted
    on the cavity phase input channel.  Every product is a rate times a
    ratio of rates, so no rate is squared and a rescaled parameter set keeps
    its precision.
    """
    omegas = frequency_grid(omegas)
    km, ka = dp.kappa_m, dp.kappa_a
    d0, da, g2 = dp.delta_0p, dp.delta_a, 2.0 * dp.g_prime
    with np.errstate(all="ignore"):  # a zero or tiny dissipation gives inf or NaN
        a_m = km / 2.0 - 1j * omegas
        a_a = ka / 2.0 - 1j * omegas
        # magnon columns: y1 = (d0 / a_m) y0 and (a_m + d0^2 / a_m) y0 = -g2 y3
        r0 = d0 / a_m
        c = g2 / (a_m + d0 * r0)
        # cavity columns: a_a y2 = -(da - g2 r0 c) y3 and a_a y3 - da y2 = 1
        s = (da - g2 * r0 * c) / a_a
        y3 = 1.0 / (a_a + da * s)
        y0 = -c * y3
        root_m, root_a = np.sqrt(km), np.sqrt(ka)
        k1 = root_a * (y0 * root_m)
        k2 = root_a * (r0 * y0 * root_m)
        k3 = root_a * (-s * y3 * root_a)
        k4 = root_a * (y3 * root_a) - 1.0
    if not all(np.isfinite(k).all() for k in (k1, k2, k3, k4)):
        raise SingularResponseError(
            "response matrix is singular or numerically singular: its inverse "
            "is not finite (a dissipation rate at or near 0)")
    return k1, k2, k3, k4


def closed_form_grid(dp: DerivedParameters, omegas) -> tuple[np.ndarray, ...]:
    """Printed rational expressions for k1..k4, evaluated verbatim.

    Kept as a documented comparison surface; see the module docstring for the
    known k4 discrepancy against :func:`response_grid`.  Raises :class:`PoleError`
    if the common denominator falls below 1e-12 of its largest contribution.
    """
    omegas = frequency_grid(omegas)
    km, ka = dp.kappa_m, dp.kappa_a
    d0, da, gp = dp.delta_0p, dp.delta_a, dp.g_prime

    cm = km - 2j * omegas
    ca = ka - 2j * omegas
    magnon_term = cm**2 + 4.0 * d0**2
    term_a = 64.0 * d0 * da * gp**2
    term_b = magnon_term * (4.0 * omegas**2 + ka**2 - 4.0 * da**2)
    denom = term_a + term_b

    scale = np.maximum(np.abs(term_a), np.abs(term_b))
    bad = np.abs(denom) < 1e-12 * np.maximum(scale, 1e-300)
    if np.any(bad):
        raise PoleError(float(omegas[np.argmax(bad)]))

    root = np.sqrt(ka * km)
    k1 = 8.0 * gp * root * ca * cm / denom
    k2 = 16.0 * gp * d0 * root * ca / denom
    k3 = 4.0 * ka * (-16.0 * gp**2 * d0 + da * magnon_term) / denom
    k4 = -1.0 - 2.0 * ka * ca * magnon_term / denom
    return k1, k2, k3, np.asarray(k4)
