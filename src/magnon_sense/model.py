"""Physical parameters of the squeezed-magnon cavity sensor and derived quantities.

Everything downstream (transfer functions, spectra, stochastic simulation)
consumes :class:`DerivedParameters`, which collects the quantities left after
the anisotropy term of the magnon mode has been diagonalised by a Bogoliubov
(squeezing) transformation: squeeze amplitude ``r_m``, amplification
coefficient ``xi = exp(2 r_m)``, the corrected magnon frequency and the
enhanced couplings, together with the two mode frequencies that set the
thermal occupations.

Unit convention: every frequency, rate and detuning is stored as an angular
frequency in rad/s.  Parameter files accept plain frequencies in Hz and are
multiplied by 2*pi on ingestion, so "15 MHz linewidth" is written as
``kappa_m_hz = 15e6``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

__all__ = [
    "HBAR",
    "K_B",
    "ParameterError",
    "PreconditionError",
    "ConfigurationError",
    "RotatingWaveWarning",
    "DriveSettings",
    "SystemParameters",
    "DerivedParameters",
    "thermal_occupation",
    "derive_squeeze_amplitude",
    "derived_parameters",
    "parse_parameters",
    "load_parameters",
    "baseline_parameters",
]

# CODATA-2018 values, J*s and J/K.
HBAR = 1.054571817e-34
K_B = 1.380649e-23

_TWO_PI = 2.0 * math.pi

#: bound on |r_m| that keeps exp(2 r_m) and cosh(2 r_m) finite in double
#: precision (they overflow near |r_m| = 354.9)
_MAX_SQUEEZE = 354.0
#: bounds on |lambda| in rad/(s*T) that keep lambda^2, which the
#: field-referred noise divides by, a nonzero normal double
_COUPLING_RANGE = (1e-150, 1e150)


class ParameterError(ValueError):
    """Raised for physically invalid or malformed parameters and inputs."""


class PreconditionError(ValueError):
    """Raised when an operation is called outside its validity domain."""


class ConfigurationError(ValueError):
    """Raised when a configuration fails a stability or accuracy guard."""


class RotatingWaveWarning(UserWarning):
    """Effective coupling too large relative to the drive frequencies."""


@dataclass(frozen=True)
class DriveSettings:
    """Frequencies of the two classical pumps.

    They are read by the rotating-wave check on g' only.  The pump
    amplitudes are not kept: the fluctuation dynamics solved by this
    package never depend on them (the steady-state displacements are split
    off and dropped).
    """

    omega_l: float  # cavity pump, rad/s
    omega_b: float  # magnon pump, rad/s


@dataclass(frozen=True)
class SystemParameters:
    """Raw physical inputs, validated on construction.

    Exactly one of ``omega_m`` (anisotropy coupling coefficient, rad/s) or
    ``r_m`` (dimensionless squeeze amplitude) must be given; the other is
    derived.  All rates are angular frequencies in rad/s,
    ``lambda_coupling`` is in rad/(s*T) and ``temperature`` in K.
    """

    omega_a: float
    omega_0: float
    g_0: float
    mod_amplitude: float
    kappa_a: float
    kappa_m: float
    lambda_coupling: float
    temperature: float
    delta_a: float = 0.0
    delta_0p: float = 0.0
    omega_m: float | None = None
    r_m: float | None = None
    drive: DriveSettings | None = None

    def __post_init__(self):
        if (self.omega_m is None) == (self.r_m is None):
            raise ParameterError(
                "exactly one of omega_m or r_m must be specified")
        for name in ("omega_a", "omega_0", "g_0", "mod_amplitude",
                     "kappa_a", "kappa_m", "lambda_coupling", "temperature",
                     "delta_a", "delta_0p"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if self.kappa_a <= 0 or self.kappa_m <= 0:
            raise ParameterError("dissipation rates kappa_a, kappa_m must be > 0")
        if self.omega_a <= 0 or self.omega_0 <= 0:
            raise ParameterError("mode frequencies omega_a, omega_0 must be > 0")
        if self.temperature < 0:
            raise ParameterError("temperature must be >= 0 K")
        if self.g_0 < 0 or self.mod_amplitude < 0:
            raise ParameterError("g_0 and mod_amplitude must be >= 0")
        lo, hi = _COUPLING_RANGE
        if not lo <= abs(self.lambda_coupling) <= hi:
            raise ParameterError(
                f"field coupling |lambda| must be in [{lo:g}, {hi:g}] rad/(s*T), got "
                f"{self.lambda_coupling!r}: the noise referred to the field divides "
                "by lambda^2")
        if self.omega_m is not None and abs(self.omega_m) >= self.omega_0:
            raise ParameterError(
                "|omega_m| must be < omega_0 for the squeeze amplitude to be real")
        if self.r_m is not None and not abs(self.r_m) < _MAX_SQUEEZE:
            raise ParameterError(
                f"|r_m| must be < {_MAX_SQUEEZE:g} for exp(2 r_m) to be "
                f"finite, got {self.r_m!r}")
        g_eff = self.mod_amplitude * self.g_0 * math.exp(self.squeeze_amplitude)
        if not math.isfinite(2.0 * g_eff):  # the drift matrix holds 2 g'
            raise ParameterError(f"effective coupling 2 g' = 2 A g_0 exp(r_m) overflows: "
                                 f"A = {self.mod_amplitude!r}, g_0 = {self.g_0!r} rad/s")
        if self.drive is not None and g_eff >= self.drive.omega_l + self.drive.omega_b:
            warnings.warn(
                "effective coupling g' exceeds omega_l + omega_b; the "
                "rotating-wave treatment of the coupling modulation is "
                "not justified for these drives",
                RotatingWaveWarning,
                stacklevel=2,
            )

    @property
    def squeeze_amplitude(self) -> float:
        """Squeeze amplitude ``r_m``, derived from ``omega_m`` if needed."""
        if self.r_m is not None:
            return self.r_m
        return derive_squeeze_amplitude(self.omega_0, self.omega_m)

    def with_squeeze_amplitude(self, r_m: float) -> "SystemParameters":
        """Copy of these parameters with the squeeze amplitude replaced."""
        return replace(self, omega_m=None, r_m=r_m)


@dataclass(frozen=True)
class DerivedParameters:
    """Post-squeezing quantities consumed by all solvers.

    ``omega_a`` and ``omega_0`` are carried along so that thermal occupations
    can be evaluated at any analysis temperature.
    """

    r_m: float
    xi: float
    omega_0_prime: float
    g_prime: float
    lambda_prime: float
    kappa_a: float
    kappa_m: float
    delta_a: float
    delta_0p: float
    omega_a: float
    omega_0: float

    @property
    def lambda_bare(self) -> float:
        """Field coupling before squeezing enhancement, rad/(s*T)."""
        return self.lambda_prime * math.exp(-self.r_m)


def thermal_occupation(omega: float, temperature: float) -> float:
    """Bose occupation ``1 / (exp(hbar*omega / k_B T) - 1)``.

    Returns exactly 0 where ``k_B T`` is 0 (T = 0 or T < 1.8e-301 K).  For
    ``hbar*omega / (k_B T) < 1e-6`` the two-term series
    ``k_B T / (hbar omega) - 1/2`` is used to avoid loss of significance.

    Raises
    ------
    ParameterError
        If ``omega <= 0``, ``temperature < 0``, or the occupation is not
        finite (``hbar*omega / k_B T`` underflows).
    """
    if omega <= 0 or not math.isfinite(omega):
        raise ParameterError(f"omega must be > 0, got {omega!r}")
    if temperature < 0:
        raise ParameterError("temperature must be >= 0 K")
    k_t = K_B * temperature
    if k_t == 0:
        return 0.0
    x = HBAR * omega / k_t
    if x < 1e-6:
        n = 1.0 / x - 0.5 if x > 0 else math.inf
        if n == math.inf:  # hbar*omega / (k_B T) underflows
            raise ParameterError(f"thermal occupation at omega = {omega!r} rad/s "
                                 f"and T = {temperature!r} K is not finite")
        return n
    if x > 745.0:  # exp(-x) underflows double precision
        return 0.0
    return 1.0 / math.expm1(x)


def derive_squeeze_amplitude(omega_0: float, omega_m: float) -> float:
    """Squeeze amplitude ``r_m = (1/4) ln((omega_0+omega_m)/(omega_0-omega_m))``.

    Evaluated as ``atanh(omega_m/omega_0) / 2``, which is the same quantity
    and round-trips ``omega_m = omega_0 * tanh(2 r_m)`` to better than
    1e-12 relative for r_m up to 3.

    Raises
    ------
    ParameterError
        If ``|omega_m| >= omega_0`` (squeeze amplitude undefined).
    """
    if omega_0 <= 0:
        raise ParameterError("omega_0 must be > 0")
    if abs(omega_m) >= omega_0:
        raise ParameterError(
            f"|omega_m| = {abs(omega_m)!r} must be < omega_0 = {omega_0!r}")
    return 0.5 * math.atanh(omega_m / omega_0)


def derived_parameters(params: SystemParameters) -> DerivedParameters:
    """Evaluate the squeezing transformation.

    Populates ``xi = exp(2 r_m)``, the corrected magnon frequency
    ``omega_0' = omega_0 / cosh(2 r_m)`` and the enhanced couplings
    ``g' = A g_0 exp(r_m)`` and ``lambda' = lambda exp(r_m)``.
    """
    r_m = params.squeeze_amplitude
    return DerivedParameters(
        r_m=r_m,
        xi=math.exp(2.0 * r_m),
        omega_0_prime=params.omega_0 / math.cosh(2.0 * r_m),
        g_prime=params.mod_amplitude * params.g_0 * math.exp(r_m),
        lambda_prime=params.lambda_coupling * math.exp(r_m),
        kappa_a=params.kappa_a,
        kappa_m=params.kappa_m,
        delta_a=params.delta_a,
        delta_0p=params.delta_0p,
        omega_a=params.omega_a,
        omega_0=params.omega_0,
    )


# --------------------------------------------------------------------------
# Parameter files: flat "key = value" documents, frequencies in Hz.
# --------------------------------------------------------------------------

#: keys accepted in a parameter file; frequencies in Hz are converted to rad/s
_FREQUENCY_KEYS = {
    "omega_a_hz": "omega_a",
    "omega_0_hz": "omega_0",
    "omega_m_hz": "omega_m",
    "g_0_hz": "g_0",
    "kappa_a_hz": "kappa_a",
    "kappa_m_hz": "kappa_m",
    "delta_a_hz": "delta_a",
    "delta_0p_hz": "delta_0p",
}
_PLAIN_KEYS = {
    "r_m": "r_m",
    "mod_amplitude": "mod_amplitude",
    "temperature_k": "temperature",
}
_COUPLING_KEYS = ("lambda_hz_per_tesla", "gamma_hz_per_tesla", "spin_number")
_DRIVE_KEYS = ("omega_l_hz", "omega_b_hz", "e_l", "e_b")
_ALL_KEYS = (
    set(_FREQUENCY_KEYS) | set(_PLAIN_KEYS) | set(_COUPLING_KEYS) | set(_DRIVE_KEYS)
)

_REQUIRED_KEYS = (
    "omega_a_hz", "omega_0_hz", "g_0_hz", "mod_amplitude",
    "kappa_a_hz", "kappa_m_hz", "temperature_k",
)


def parse_parameters(text: str, source: str = "<string>") -> SystemParameters:
    """Parse a flat key-value parameter document.

    One ``key = value`` assignment per line; ``#`` starts a comment; all
    values are numeric.  Frequencies are given in Hz (converted to rad/s),
    temperature in K, dimensionless fields unitless.  Unknown or duplicate
    keys are hard errors.  Exactly one of ``omega_m_hz`` or ``r_m`` must be
    present, and the field coupling is given either as
    ``lambda_hz_per_tesla`` or as ``gamma_hz_per_tesla`` together with
    ``spin_number`` (then ``lambda = gamma * sqrt(5 N) / 2``).
    """
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ParameterError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ParameterError(f"{source}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = float(value.strip())
        except ValueError:
            raise ParameterError(
                f"{source}:{lineno}: value for {key!r} is not numeric: {value.strip()!r}"
            ) from None

    missing = [k for k in _REQUIRED_KEYS if k not in values]
    if missing:
        raise ParameterError(f"{source}: missing required keys: {', '.join(missing)}")
    if ("omega_m_hz" in values) == ("r_m" in values):
        raise ParameterError(
            f"{source}: exactly one of 'omega_m_hz' or 'r_m' must be present")

    has_lambda = "lambda_hz_per_tesla" in values
    has_gamma = "gamma_hz_per_tesla" in values or "spin_number" in values
    if has_lambda == has_gamma:
        raise ParameterError(
            f"{source}: give either 'lambda_hz_per_tesla' or both "
            "'gamma_hz_per_tesla' and 'spin_number'")
    if has_lambda:
        lam = _TWO_PI * values["lambda_hz_per_tesla"]
    else:
        if "gamma_hz_per_tesla" not in values or "spin_number" not in values:
            raise ParameterError(
                f"{source}: 'gamma_hz_per_tesla' and 'spin_number' must be given together")
        if not values["spin_number"] > 0:
            raise ParameterError(
                f"{source}: spin_number must be > 0, got {values['spin_number']!r}")
        gamma = _TWO_PI * values["gamma_hz_per_tesla"]
        lam = gamma * math.sqrt(5.0 * values["spin_number"]) / 2.0

    drive = None
    if "omega_l_hz" in values or "omega_b_hz" in values:
        if not ("omega_l_hz" in values and "omega_b_hz" in values):
            raise ParameterError(
                f"{source}: drive frequencies omega_l_hz and omega_b_hz must both be given")
        drive = DriveSettings(
            omega_l=_TWO_PI * values["omega_l_hz"],
            omega_b=_TWO_PI * values["omega_b_hz"],
        )
    elif "e_l" in values or "e_b" in values:
        raise ParameterError(
            f"{source}: drive amplitudes require omega_l_hz and omega_b_hz")

    kwargs = {attr: _TWO_PI * values[key]
              for key, attr in _FREQUENCY_KEYS.items() if key in values}
    kwargs.update({attr: values[key]
                   for key, attr in _PLAIN_KEYS.items() if key in values})
    return SystemParameters(lambda_coupling=lam, drive=drive, **kwargs)


def load_parameters(path) -> SystemParameters:
    """Read a parameter file from disk.  See :func:`parse_parameters`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_parameters(fh.read(), source=str(path))
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not a UTF-8 text file ({exc.reason})") from exc


def baseline_parameters(r_m: float = 1.5, temperature: float = 0.05) -> SystemParameters:
    """Reference parameter set of a 37.5 GHz cavity-magnon magnetometer.

    Degenerate cavity and magnon modes at 37.5 GHz, effective coupling
    A*g_0 = 2*pi*2.5 GHz, linewidths kappa_m = 2*pi*15 MHz and
    kappa_a = 2*pi*16.5 MHz, field coupling lambda = 2*pi*14*sqrt(17.5) THz/T
    (a YIG-sphere spin number of 3.5e6 at gamma = 2*pi*28 GHz/T), both
    detunings zero.  The modulation amplitude is folded into g_0 (A = 1);
    only the product enters the dynamics.
    """
    return SystemParameters(
        omega_a=_TWO_PI * 37.5e9,
        omega_0=_TWO_PI * 37.5e9,
        g_0=_TWO_PI * 2.5e9,
        mod_amplitude=1.0,
        kappa_a=_TWO_PI * 16.5e6,
        kappa_m=_TWO_PI * 15e6,
        lambda_coupling=_TWO_PI * 14.0 * math.sqrt(17.5) * 1e12,
        temperature=temperature,
        delta_a=0.0,
        delta_0p=0.0,
        r_m=r_m,
    )
