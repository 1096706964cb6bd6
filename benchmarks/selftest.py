"""Tests that each output check of the benchmark rejects a wrong output.

    python3 benchmarks/selftest.py

Each test first lets the program write a real output and sees the check
accept it, then damages the output in one plain way and sees the check
refuse it.  The file name keeps it out of the package's pytest suite.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import reference as ref  # noqa: E402
from magnon_sense import cli  # noqa: E402
from magnon_sense.model import SystemParameters, derived_parameters  # noqa: E402
from magnon_sense.simulation import SimulationConfig, simulate  # noqa: E402


def _run(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"magnon-sense {' '.join(argv)} exited {code}")
    return out.getvalue()


def _scale_column(path: Path, column: str, factor: float) -> None:
    lines = path.read_text().splitlines()
    j = lines[1].split(",").index(column)
    for i in range(2, len(lines)):
        cells = lines[i].split(",")
        cells[j] = "%.12e" % (float(cells[j]) * factor)
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class OutputChecks(unittest.TestCase):
    def setUp(self):
        build = HERE.parent / ".bench_build"
        build.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=build)
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def test_figure_column_scaled_by_squeezing_gain(self):
        _run("reproduce", "fig3", "--outdir", str(self.dir))
        checks.check_figure(self.dir, "fig3")
        _scale_column(self.dir / "fig3_thermal_noise.csv", "rm_1.5", math.exp(3.0))
        with self.assertRaises(checks.CheckError):
            checks.check_figure(self.dir, "fig3")

    def test_fig7_offset_at_the_null(self):
        _run("reproduce", "fig7", "--outdir", str(self.dir))
        checks.check_figure(self.dir, "fig7")
        path = self.dir / "fig7_ne_vs_rn.csv"
        lines = path.read_text().splitlines()
        x, n_e = lines[2 + 100].split(",")        # r_n / r_m = 1, the null
        lines[2 + 100] = f"{x},{float(n_e) + 1e-6:.12e}"
        path.write_text("\n".join(lines) + "\n")
        with self.assertRaises(checks.CheckError):
            checks.check_figure(self.dir, "fig7")

    def test_budget_thermal_noise_without_squeezing(self):
        path = self.dir / "budget.csv"
        _run("budget", "--rm", "1.2", "--temp", "3", "--out", str(path))
        checks.check_budget(path, 1.2, 3.0)
        _scale_column(path, "thermal_noise", math.exp(2 * 1.2))
        with self.assertRaises(checks.CheckError):
            checks.check_budget(path, 1.2, 3.0)

    def test_detuned_spectrum_off_by_a_part_per_million(self):
        path = self.dir / "spectrum.csv"
        _run("spectrum", "--rm", "1.5", "--temp", "20",
             "--reservoir", f"1.5,{math.pi!r}", "--config", str(self._config(3e6)),
             "--out", str(path))
        args = (path, 1.5, 20.0, (1.5, math.pi))
        checks.check_spectrum(*args, delta_a=ref.TWO_PI * 3e6)
        with self.assertRaises(checks.CheckError):   # the thermal input, not vacuum
            checks.check_spectrum(path, 1.5, 20.0, None, delta_a=ref.TWO_PI * 3e6)
        _scale_column(path, "s_out", 1.0 + 1e-6)
        with self.assertRaises(checks.CheckError):
            checks.check_spectrum(*args, delta_a=ref.TWO_PI * 3e6)

    def _config(self, delta_a_hz: float) -> Path:
        path = self.dir / "detuned.cfg"
        path.write_text(
            "omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\nr_m = 1.5\n"
            "g_0_hz = 2.5e9\nmod_amplitude = 1\nkappa_a_hz = 16.5e6\n"
            "kappa_m_hz = 15e6\nlambda_hz_per_tesla = 5.8566201857385e13\n"
            f"temperature_k = 0.05\ndelta_a_hz = {delta_a_hz!r}\n")
        return path

    def test_svg_missing_a_series_or_not_xml(self):
        _run("reproduce", "fig6", "--outdir", str(self.dir))
        svg = self.dir / "fig6_sensitivity.svg"
        text = svg.read_text()
        start = text.index("<polyline")
        svg.write_text(text[:start] + text[text.index("/>", start) + 2:])
        with self.assertRaises(checks.CheckError):
            checks.check_svg(svg, ["rm_0", "rm_0.5", "rm_1", "rm_1.5"])
        svg.write_text(text[:-20])
        with self.assertRaises(checks.CheckError):
            checks.check_svg(svg, ["rm_0", "rm_0.5", "rm_1", "rm_1.5"])

    def test_manifest_hash_with_one_digit_changed(self):
        _run("sweep", "--axis", "r_m=0.5,1", "--axis", "temperature_k=1",
             "--outdir", str(self.dir))
        names = ["sweep_budget_r_m-0.5_temperature_k-1.csv",
                 "sweep_budget_r_m-1_temperature_k-1.csv"]
        axes = [["r_m", [0.5, 1.0]], ["temperature_k", [1.0]]]
        checks.check_manifest(self.dir, names, axes)
        path = self.dir / "run_manifest.json"
        manifest = json.loads(path.read_text())
        digest = manifest["outputs"][1]["sha256"]
        manifest["outputs"][1]["sha256"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        path.write_text(json.dumps(manifest))
        with self.assertRaises(checks.CheckError):
            checks.check_manifest(self.dir, names, axes)
        with self.assertRaises(checks.CheckError):
            checks.check_manifest(self.dir, names[:1], axes)


def _report(seed: int, failing=(), k4=(1.0, 3.0), gain_scale=1.0) -> str:
    """A verify report in the printed format, with closed-form gains."""
    v = checks.VERIFY_SET
    names = ["k1_route_agreement", "k4_dc_discrepancy", "lyapunov_decoupled",
             "lyapunov_coupled", "psd_rm0"]
    details = {"k4_dc_discrepancy": f"decoupled resonant limit: authoritative "
                                    f"|K4(0)| = {k4[0]:.12f}, closed form |K4(0)| = "
                                    f"{k4[1]:.12f} (known inconsistency)"}
    for frac in (0.2, 0.5, 1.0):
        gain = ref.budget_columns([frac * v["kappa_m"]], r_m=1.0, kappa_a=v["kappa_a"],
                                  kappa_m=v["kappa_m"], g_0=v["g_0"],
                                  temperature=0.05)["response"][0] * gain_scale
        name = f"gain_delta_{frac:g}km"
        names.append(name)
        details[name] = (f"empirical {gain * 1.03:.4g} vs analytic {gain:.4g} "
                         f"at delta = {frac:g} kappa_m, r_m = 1")
    lines = [f"verification seed={seed}"]
    for name in names:
        status = "FAIL" if name in failing else "PASS"
        lines.append(f"{name:<28s} {status}  value=0.5  tol=1  {details.get(name, '')}")
    lines.append("overall: " + ("FAIL" if failing else "PASS"))
    return "\n".join(lines) + "\n"


class VerifyChecks(unittest.TestCase):
    def test_accepts_the_expected_reports(self):
        checks.check_verify(_report(42), 0, 42)
        checks.check_verify(_report(1, failing=["lyapunov_decoupled"]), 3, 1)
        checks.check_verify(_report(1), 0, 1)   # once the false alarm is mended

    def test_rejects_wrong_reports(self):
        wrong = [
            (_report(42, failing=["psd_rm0"]), 3, 42),
            (_report(1, failing=["lyapunov_decoupled", "psd_rm0"]), 3, 1),
            (_report(1, failing=["lyapunov_decoupled"]), 0, 1),
            (_report(42), 1, 42),
            (_report(42, k4=(3.0, 3.0)), 0, 42),
            (_report(42, gain_scale=1.01), 0, 42),
            (_report(1), 0, 42),
        ]
        for stdout, code, seed in wrong:
            with self.subTest(code=code, seed=seed), self.assertRaises(checks.CheckError):
                checks.check_verify(stdout, code, seed)


class TraceCovariance(unittest.TestCase):
    def test_rejects_doubled_cavity_variance(self):
        kappa_m, kappa_a = ref.TWO_PI * 15.0, ref.TWO_PI * 16.5
        params = SystemParameters(
            omega_a=ref.REFERENCE["omega_a"], omega_0=ref.REFERENCE["omega_0"],
            g_0=ref.TWO_PI * 6.0, mod_amplitude=1.0, kappa_a=kappa_a,
            kappa_m=kappa_m, lambda_coupling=ref.TWO_PI * 10.0,
            temperature=2.6, r_m=0.5)
        dp = derived_parameters(params)
        dt = 0.015 / (2.0 * dp.g_prime)
        cfg = SimulationConfig(dt=dt, duration=300.0 / kappa_m,
                               burn_in=13.0 / kappa_m, n_trajectories=16, seed=7)
        trace = simulate(dp, 2.6, cfg)
        noise = ref.input_covariance(
            ref.magnon_input(0.5, ref.bose(dp.omega_0, 2.6)),
            ref.bose(dp.omega_a, 2.6) + 0.5)
        a = ref.drift(kappa_a, kappa_m, dp.g_prime, 0.0, 0.0)
        target = checks.expected_sample_covariance(a, dt, trace.n_samples,
                                                   kappa_a, kappa_m, noise)
        checks.check_trace(trace.quadratures, target, "nominal")
        doubled = trace.quadratures.copy()
        doubled[:, :, 2:] *= math.sqrt(2.0)
        with self.assertRaises(checks.CheckError):
            checks.check_trace(doubled, target, "doubled cavity variance")


if __name__ == "__main__":
    unittest.main()
