"""Squeezed-magnon cavity magnetometry: analytic noise spectra, noise
budgets, sensitivity curves, and a stochastic Langevin oracle to verify them.

The analytic names are exported here.  The oracle's names are imported
from its own modules, ``magnon_sense.simulation`` and
``magnon_sense.verification``, which ``import magnon_sense`` does not load,
so the analytic layers and the commands built on them start without the
oracle.
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

__version__ = "0.1.0"
