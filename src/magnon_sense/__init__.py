"""Squeezed-magnon cavity magnetometry: analytic noise spectra, noise
budgets, sensitivity curves, and a stochastic Langevin oracle to verify them.
"""

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
from .simulation import (
    SimulationConfig,
    SimulationTrace,
    ToneSignal,
    lyapunov_covariance,
    measure_gain,
    simulate,
)
from .verification import run_verification, verification_parameters

__version__ = "0.1.0"
