"""Squeezed-magnon cavity magnetometry: analytic noise spectra, noise
budgets, sensitivity curves, and a stochastic Langevin oracle to verify them.

The oracle (``simulation``, ``verification``) is exported here too, but its
modules load on first use, so the analytic layers and the commands built on
them start without it.
"""

import importlib

from .model import (
    HBAR,
    K_B,
    ConfigurationError,
    DerivedParameters,
    DriveSettings,
    ParameterError,
    PreconditionError,
    RotatingWaveWarning,
    SystemParameters,
    baseline_parameters,
    derive_squeeze_amplitude,
    derived_parameters,
    load_parameters,
    parse_parameters,
    thermal_occupation,
)
from .transfer import (
    PoleError,
    SingularResponseError,
    drift_matrix,
    require_stable,
    response_grid,
)
from .spectra import (
    NoiseBudget,
    SqueezedReservoir,
    approx_suppressed_sensitivity,
    input_densities,
    input_quadrature_variances,
    noise_budget_grid,
    output_spectrum,
)

#: the Langevin oracle's names, loaded on first use (PEP 562) so that the
#: analytic commands never import the oracle's modules
_LAZY = {
    **dict.fromkeys(("SimulationConfig", "SimulationTrace", "lyapunov_covariance",
                     "measure_gain", "simulate"), "simulation"),
    **dict.fromkeys(("run_verification", "verification_parameters"), "verification"),
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"
