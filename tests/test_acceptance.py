"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-7 are analytic and run in well under a second each; criteria
8-10 consume a single shared run of the stochastic verification (the same
machinery behind ``magnon-sense verify``), and criterion 11 inspects that
run's report text.
"""

import math
import re

import numpy as np
import pytest

from magnon_sense import (
    SqueezedReservoir,
    approx_suppressed_sensitivity,
    baseline_parameters,
    derived_parameters,
    input_quadrature_variances,
    noise_budget_grid,
    response_grid,
)
from magnon_sense.transfer import closed_form_grid
from magnon_sense.verification import run_verification

TWO_PI = 2.0 * math.pi


def _announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


@pytest.fixture(scope="session")
def verification_report():
    return run_verification(seed=42)


def dp_at(r_m, temperature=0.05):
    return derived_parameters(baseline_parameters(r_m=r_m, temperature=temperature))


def test_criterion_1_backaction_evasion():
    dp = dp_at(1.5)
    omegas = np.linspace(0.0, 10.0 * dp.kappa_m, 2001)
    for route in (response_grid, closed_form_grid):
        k1, k2, k3, _ = route(dp, omegas)
        assert np.all(np.abs(k2) < 1e-12 * np.abs(k1))
        assert np.all(np.abs(k3) < 1e-12 * np.abs(k1))
    _announce(1, "|k2|, |k3| < 1e-12 |k1| over omega/kappa_m in [0, 10], both routes")


def test_criterion_2_thermal_noise_suppression():
    reference = noise_budget_grid(dp_at(0.0), 0.05, [0.0]).thermal_noise[0]
    for r_m in (0.5, 1.0, 1.5, 2.0):
        ratio = noise_budget_grid(dp_at(r_m), 0.05, [0.0]).thermal_noise[0] / reference
        assert ratio == pytest.approx(math.exp(-4.0 * r_m), rel=1e-14)
    ratio_15 = noise_budget_grid(dp_at(1.5), 0.05, [0.0]).thermal_noise[0] / reference
    assert ratio_15 == pytest.approx(2.4787521766663585e-3, rel=1e-12)
    assert 1e-3 < ratio_15 < 1e-2  # "approximately three orders of magnitude"
    _announce(2, f"thermal noise ratio exp(-4 r_m) exact; e^-6 = {ratio_15:.6g} at r_m = 1.5")


def test_criterion_3_thermal_noise_kappa_a_invariance():
    from dataclasses import replace
    base = baseline_parameters(r_m=1.5)
    values = []
    for factor in (0.5, 1.0, 2.0):
        params = replace(base, kappa_a=factor * base.kappa_a)
        values.append(
            noise_budget_grid(derived_parameters(params), 0.05, [0.0]).thermal_noise[0])
    assert values[0] == values[1] == values[2]
    _announce(3, "thermal noise bitwise identical across kappa_a in {0.5, 1, 2} x baseline")


def test_criterion_4_monotonic_response_and_additional_noise():
    from dataclasses import replace
    base = baseline_parameters(r_m=1.5)
    factors = np.linspace(0.5, 2.0, 7)  # g' spans a factor 4
    responses, extra = [], []
    for f in factors:
        dp = derived_parameters(replace(base, g_0=f * base.g_0))
        budget = noise_budget_grid(dp, 0.05, [0.0])
        responses.append(budget.response[0])
        extra.append(budget.additional_noise[0])
    assert all(a < b for a, b in zip(responses, responses[1:]))
    assert all(a > b for a, b in zip(extra, extra[1:]))
    _announce(4, "A_m(0) strictly increasing, N_qn(0) strictly decreasing over a 4x g' span")


def test_criterion_5_sensitivity_improvement():
    y0 = noise_budget_grid(dp_at(0.0, 280.0), 280.0, [0.0]).sensitivity[0]
    y15 = noise_budget_grid(dp_at(1.5, 280.0), 280.0, [0.0]).sensitivity[0]
    assert y15 / y0 == pytest.approx(math.exp(-3.0), rel=0.01)
    _announce(5, f"Y(r_m=1.5)/Y(0) = {y15 / y0:.6f} vs e^-3 = {math.exp(-3):.6f} at 280 K")


def test_criterion_6_reservoir_nulling_and_bogoliubov_identity():
    def magnon_input(r_n, phi_n, r_m):
        return input_quadrature_variances(r_m, 0.0, SqueezedReservoir(r_n, phi_n))

    np.testing.assert_allclose(magnon_input(1.5, math.pi, 1.5), np.eye(2) / 2,
                               rtol=0, atol=1e-12)
    rng = np.random.default_rng(2718)
    for _ in range(1000):
        v = magnon_input(rng.uniform(0, 3), rng.uniform(0, TWO_PI), rng.uniform(-2, 3))
        assert v[0, 0] * v[1, 1] - v[0, 1] ** 2 == pytest.approx(0.25, rel=1e-9, abs=1e-12)
    _announce(6, "magnon input V = I/2 within 1e-12 at the nulling point; "
                 "det V = 1/4 (|M_e|^2 = N_e(N_e+1)) over 1000 draws")


def test_criterion_7_femtotesla_level():
    value = approx_suppressed_sensitivity(dp_at(1.5, 280.0), 280.0, [0.0])[0]
    assert 1e-15 <= value <= 1e-13
    _announce(7, f"suppressed-thermal sensitivity {value:.3g} T/sqrt(Hz) at 280 K, r_m = 1.5")


def _checks_by_prefix(report, prefix):
    found = [c for c in report.checks if c.name.startswith(prefix)]
    assert found, f"no verification checks named {prefix}*"
    return found


def test_criterion_8_oracle_psd_equivalence(verification_report):
    checks = _checks_by_prefix(verification_report, "psd_")
    assert len(checks) == 3
    for check in checks:
        segments = int(re.search(r"(\d+) Welch segments", check.detail).group(1))
        assert segments >= 200
        assert check.value <= 0.10, f"{check.name}: {check.value:.3f}"
        assert check.passed
    _announce(8, "simulated PSD within 10% of the analytic spectrum for all three configurations")


def test_criterion_9_oracle_gain_equivalence(verification_report):
    checks = _checks_by_prefix(verification_report, "gain_delta_")
    assert len(checks) == 3
    for check in checks:
        assert check.value <= 0.15, f"{check.name}: {check.value:.3f}"
        assert check.passed
    _announce(9, "injected-tone gains within 15% of the analytic response at all offsets")


def test_criterion_10_lyapunov_variances(verification_report):
    checks = _checks_by_prefix(verification_report, "lyapunov_")
    assert len(checks) == 2
    for check in checks:
        assert check.value <= 3.0, f"{check.name}: {check.value:.2f} standard errors"
        assert check.passed
    _announce(10, "steady-state covariances within 3 standard errors of the Lyapunov solution")


def test_criterion_11_route_discrepancy_is_documented(verification_report):
    text = "\n".join(verification_report.lines())
    assert "authoritative |K4(0)| = 1.000000000000" in text
    assert "closed form |K4(0)| = 3.000000000000" in text
    # the value is what the check tests: both |K4(0)| within 1e-12 of 1 and 3
    k4_check = next(c for c in verification_report.checks
                    if c.name == "k4_dc_discrepancy")
    assert k4_check.value <= k4_check.tolerance == 1e-12
    k1_check = next(c for c in verification_report.checks
                    if c.name == "k1_route_agreement")
    assert k1_check.value <= 1e-9
    assert k1_check.passed
    _announce(11, "verify report pins |K4(0)| = 1 vs 3 and |k1| route agreement <= 1e-9")


#: the seed-42 values `verify` prints, to rel 1e-6 (its printed precision)
SEED_42_VALUES = {
    "lyapunov_decoupled": 2.640256858,
    "lyapunov_coupled": 1.268994013,
    "psd_rm0": 0.0310175774,
    "psd_rm15": 0.03529558172,
    "psd_rm15_reservoir": 0.06267857688,
    "gain_delta_0.2km": 0.0009423208665,
    "gain_delta_0.5km": 0.003395626055,
    "gain_delta_1km": 0.005548422221,
}


#: the seed-1 values, which the benchmark's oracle workload checks beside
#: seed 42's; the gains are seed-free and read as at seed 42
SEED_1_VALUES = {
    "lyapunov_decoupled": 2.944650604,
    "lyapunov_coupled": 1.467368235,
    "psd_rm0": 0.04513072082,
    "psd_rm15": 0.06915511577,
    "psd_rm15_reservoir": 0.05487614792,
    **{name: value for name, value in SEED_42_VALUES.items() if name.startswith("gain_")},
}


def _assert_pinned(report, pinned):
    values = {c.name: c.value for c in report.checks}
    assert list(values) == ["k1_route_agreement", "k4_dc_discrepancy", *pinned]
    for name, value in pinned.items():
        assert values[name] == pytest.approx(value, rel=1e-6, abs=0), name


def test_verify_report_values_are_pinned(verification_report):
    # a change to the oracle's stepping or folds that moves a printed value
    # shows here; the two route values are rounding residues of linear
    # solves (about 1e-15), which criterion 11 bounds instead
    _assert_pinned(verification_report, SEED_42_VALUES)


def test_verify_report_values_are_pinned_at_seed_1():
    _assert_pinned(run_verification(seed=1), SEED_1_VALUES)
