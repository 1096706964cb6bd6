"""Physics of the cavity-magnon sensor, computed apart from ``magnon_sense``.

Every expected value the benchmark compares the program's outputs against
comes from this module.  It imports nothing from the package under test:
the transfer coefficients come from the closed forms at zero detuning or
from a drift matrix derived here from the Hamiltonian
H = delta_a a^+a + delta_0' m^+m + g'(a + a^+)(m + m^+), the input noise of
the magnon from an explicit product of 2x2 Bogoliubov matrices, and the
oracle's stationary covariance from the exact Euler-Maruyama recursion.

Units follow the package's documented convention: every rate is angular
(rad/s); the reference set below is written in Hz and multiplied by 2*pi.
"""

from __future__ import annotations

import math

import numpy as np

HBAR = 1.054571817e-34  # J s, CODATA 2018
K_B = 1.380649e-23      # J/K, CODATA 2018
TWO_PI = 2.0 * math.pi

#: the documented reference set (README, "Parameter files")
REFERENCE = {
    "omega_a": TWO_PI * 37.5e9,
    "omega_0": TWO_PI * 37.5e9,
    "g_0": TWO_PI * 2.5e9,
    "kappa_a": TWO_PI * 16.5e6,
    "kappa_m": TWO_PI * 15e6,
    "lam": TWO_PI * 14.0 * math.sqrt(17.5) * 1e12,
}


def bose(omega: float, temperature: float) -> float:
    """Thermal occupation 1 / (exp(hbar omega / k_B T) - 1)."""
    if temperature == 0.0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega / (K_B * temperature))


def budget_columns(omegas, r_m, kappa_a, kappa_m, g_0, temperature,
                   omega_a=REFERENCE["omega_a"], omega_0=REFERENCE["omega_0"],
                   lam=REFERENCE["lam"]) -> dict:
    """Noise budget at zero detuning from the closed forms.

    With chi = 1/(kappa/2 - i omega): |k1|^2 = 4 g'^2 kappa_a kappa_m
    |chi_a chi_m|^2 and |k4| = 1, and the thermal noise is
    (nbar_m + 1/2) e^{-4 r_m}.
    """
    w = np.asarray(omegas, dtype=float)
    g_p = g_0 * math.exp(r_m)
    chi_a = 1.0 / (kappa_a / 2.0 - 1j * w)
    chi_m = 1.0 / (kappa_m / 2.0 - 1j * w)
    k1_sq = 4.0 * g_p**2 * kappa_a * kappa_m * np.abs(chi_a * chi_m) ** 2
    xi = math.exp(2.0 * r_m)
    cavity = bose(omega_a, temperature) + 0.5
    magnon = bose(omega_0, temperature) + 0.5
    response = xi * k1_sq
    additional = cavity / response
    thermal = np.full_like(w, magnon * math.exp(-4.0 * r_m))
    s_bnoise = 2.0 * kappa_m / lam**2 * (thermal + additional)
    return {
        "omega_rad_s": w,
        "omega_over_kappa_m": w / kappa_m,
        "response": response,
        "additional_noise": additional,
        "thermal_noise": thermal,
        "s_out": cavity + k1_sq * magnon * math.exp(-2.0 * r_m),
        "s_bnoise_t2_per_hz": s_bnoise,
        "sensitivity_t_per_sqrt_hz": np.sqrt(s_bnoise),
        # fig8: the magnon thermal channel dropped entirely
        "suppressed_sensitivity": np.sqrt(2.0 * kappa_m * additional) / lam,
    }


def bogoliubov(r: float, phi: float) -> np.ndarray:
    """Mode transformation (b, b^+) -> (cosh r b + e^{i phi} sinh r b^+, ...)."""
    ch, sh = math.cosh(r), math.sinh(r)
    phase = complex(math.cos(phi), math.sin(phi))
    return np.array([[ch, phase * sh], [phase.conjugate() * sh, ch]])


def reservoir_modes(r_n: float, phi_n: float, r_m: float) -> tuple[complex, complex]:
    """(U, V) of the squeezed-magnon input c = U v + V v^+ with v vacuum.

    The squeezed vacuum reservoir (r_n, phi_n) seen through the magnon's own
    Bogoliubov transformation (r_m, 0): the numerical product of the two
    matrices.  N_e = |V|^2 and the input vanishes to vacuum at r_n = r_m,
    phi_n = pi.
    """
    total = bogoliubov(r_m, 0.0) @ bogoliubov(r_n, phi_n)
    return complex(total[0, 0]), complex(total[0, 1])


def magnon_input(r_m: float, nbar_m: float, reservoir=None) -> np.ndarray:
    """Symmetrized 2x2 covariance density of the magnon (X, P) input.

    Without a reservoir the thermal bath is squeezed in X:
    diag(e^{-2 r_m}, e^{2 r_m}) (nbar_m + 1/2).  With a reservoir the input
    is c = U v + V v^+, whose quadratures X = a v + a* v^+ and
    P = b v + b* v^+ have a = (U + V*)/sqrt2 and b = (U - V*)/(i sqrt2).
    """
    if reservoir is None:
        base = nbar_m + 0.5
        return np.diag([math.exp(-2.0 * r_m) * base, math.exp(2.0 * r_m) * base])
    u, v = reservoir_modes(reservoir[0], reservoir[1], r_m)
    a = (u + v.conjugate()) / math.sqrt(2.0)
    b = (u - v.conjugate()) / (1j * math.sqrt(2.0))
    c_xp = (a * b.conjugate()).real
    return np.array([[abs(a) ** 2, c_xp], [c_xp, abs(b) ** 2]])


def drift(kappa_a, kappa_m, g_prime, delta_a, delta_0p) -> np.ndarray:
    """Real drift matrix over (X_M, P_M, X_a, P_a) from the Hamiltonian.

    Heisenberg equations over the mode vector (a, a^+, m, m^+) give
    d/dt = -i C - kappa/2 with C the commutator coefficients of H; the
    quadratures X = (b + b^+)/sqrt2, P = (b - b^+)/(i sqrt2) turn that into
    T (-i C - kappa/2) T^-1.
    """
    g = g_prime
    c = np.array([
        [delta_a, 0.0, g, g],          # [a, H]
        [0.0, -delta_a, -g, -g],       # [a^+, H]
        [g, g, delta_0p, 0.0],         # [m, H]
        [-g, -g, 0.0, -delta_0p],      # [m^+, H]
    ], dtype=complex)
    loss = np.diag([kappa_a, kappa_a, kappa_m, kappa_m]) / 2.0
    modes = -1j * c - loss
    s = 1.0 / math.sqrt(2.0)
    t = np.array([
        [0.0, 0.0, s, s],              # X_M
        [0.0, 0.0, -1j * s, 1j * s],   # P_M
        [s, s, 0.0, 0.0],              # X_a
        [-1j * s, 1j * s, 0.0, 0.0],   # P_a
    ])
    quad = t @ modes @ np.linalg.inv(t)
    if np.max(np.abs(quad.imag)) > 1e-9 * np.max(np.abs(quad)):
        raise ArithmeticError("quadrature drift is not real")
    return quad.real


def input_covariance(magnon: np.ndarray, cavity_variance: float) -> np.ndarray:
    """4x4 input covariance density over (X_M, P_M, X_a, P_a)."""
    n = np.zeros((4, 4))
    n[:2, :2] = magnon
    n[2, 2] = n[3, 3] = cavity_variance
    return n


def output_spectrum(omegas, a: np.ndarray, kappa_a, kappa_m,
                    noise: np.ndarray) -> np.ndarray:
    """Symmetrized spectrum of P_out = sqrt(kappa_a) P_a - P_a,in.

    Solves (-i omega I - A) q = B q_in per frequency, reads the P_a row and
    contracts the four output coefficients k with the input covariance:
    s_out = Re(k N k^H).
    """
    w = np.atleast_1d(np.asarray(omegas, dtype=float))
    gain = np.sqrt([kappa_m, kappa_m, kappa_a, kappa_a])
    system = -1j * w[:, None, None] * np.eye(4) - a
    chi = np.linalg.solve(system, np.broadcast_to(np.diag(gain), system.shape))
    k = math.sqrt(kappa_a) * chi[:, 3, :]
    k[:, 3] -= 1.0
    return np.einsum("fi,ij,fj->f", k, noise, k.conj()).real


def discrete_stationary_covariance(a: np.ndarray, dt: float, kappa_a, kappa_m,
                                   noise: np.ndarray) -> np.ndarray:
    """Exact stationary covariance of x_{k+1} = S x_k + w_k.

    S = I + A dt is the Euler-Maruyama one-step map and the increments have
    covariance Sigma = B N B dt.  Solves V = S V S^T + Sigma through its
    vectorised form (I - S kron S) vec V = vec Sigma.
    """
    step = np.eye(4) + a * dt
    gain = np.sqrt([kappa_m, kappa_m, kappa_a, kappa_a])
    sigma = gain[:, None] * noise * gain[None, :] * dt
    lhs = np.eye(16) - np.kron(step, step)
    v = np.linalg.solve(lhs, sigma.reshape(16)).reshape(4, 4)
    return 0.5 * (v + v.T)
