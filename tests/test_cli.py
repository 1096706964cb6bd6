import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import magnon_sense.cli as cli
from magnon_sense.verification import CheckResult, VerificationReport


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# params_sha256=")
    columns = lines[1].split(",")
    data = np.array([[float(v) for v in line.split(",")]
                     for line in lines[2:]])
    return columns, data


class TestBudgetCommand:
    def test_writes_budget_table(self, tmp_path):
        out = tmp_path / "budget.csv"
        assert cli.main(["budget", "--rm", "1.5", "--temp", "280",
                         "--out", str(out)]) == 0
        columns, data = read_csv(out)
        assert columns[0] == "omega_rad_s"
        assert "sensitivity_t_per_sqrt_hz" in columns
        assert data.shape == (1001, len(columns))
        # grid spans omega/kappa_m in [0, 5]
        assert data[0, 1] == 0.0
        assert data[-1, 1] == pytest.approx(5.0)

    def test_squeezing_improves_dc_sensitivity_by_e_cubed(self, tmp_path):
        paths = {}
        for rm in ("0", "1.5"):
            paths[rm] = tmp_path / f"b{rm}.csv"
            assert cli.main(["budget", "--rm", rm, "--temp", "280",
                             "--out", str(paths[rm])]) == 0
        _, d0 = read_csv(paths["0"])
        _, d15 = read_csv(paths["1.5"])
        ratio = d15[0, -1] / d0[0, -1]
        assert ratio == pytest.approx(math.exp(-3.0), rel=1e-4)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["budget", "--out", str(a)])
        cli.main(["budget", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()
        # signed zeros, infinities, NaN and subnormals keep their spelling
        rows = tmp_path / "rows.csv"
        cli._write_csv(rows, ("x", "y"), [[0.0, -0.0, math.inf],
                                         [-math.inf, math.nan, 5e-324]], "0" * 64)
        assert rows.read_bytes() == (
            b"# params_sha256=" + b"0" * 64 + b"\nx,y\n"
            b"0.000000000000e+00,-inf\n-0.000000000000e+00,nan\n"
            b"inf,4.940656458412e-324\n")

    def test_reservoir_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        assert cli.main(["budget", "--rm", "1.5", "--temp", "280",
                         "--reservoir", f"1.5,{math.pi}",
                         "--out", str(out)]) == 0
        _, data = read_csv(out)
        # nulling reservoir leaves only the vacuum half-quantum thermal term
        thermal = data[0, 4]
        assert thermal == pytest.approx(0.5 / math.exp(3.0), rel=1e-9)

    def test_detuned_budget_exits_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text(
            "omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\nr_m = 1.0\n"
            "g_0_hz = 2.5e9\nmod_amplitude = 1\nkappa_a_hz = 16.5e6\n"
            "kappa_m_hz = 15e6\nlambda_hz_per_tesla = 5.85e13\n"
            "temperature_k = 0.05\ndelta_a_hz = 1e6\n")
        assert cli.main(["budget", "--config", str(config),
                         "--out", str(tmp_path / "x.csv")]) == 2


UNSTABLE_CONFIG = (
    "omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\nr_m = 1.5\n"
    "g_0_hz = 2.5e9\nmod_amplitude = 1\nkappa_a_hz = 16.5e6\n"
    "kappa_m_hz = 15e6\nlambda_hz_per_tesla = 5.85e13\n"
    "temperature_k = 0.05\ndelta_a_hz = 5e6\ndelta_0p_hz = 5e6\n")


class TestSpectrumCommand:
    def test_matches_library_values(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.main(["spectrum", "--rm", "0", "--temp", "0.05",
                         "--grid-points", "11", "--out", str(out)]) == 0
        from magnon_sense import baseline_parameters, derived_parameters, output_spectrum
        params = baseline_parameters(r_m=0.0, temperature=0.05)
        dp = derived_parameters(params)
        _, data = read_csv(out)
        expected = output_spectrum(dp, 0.05, data[:, 0])
        np.testing.assert_allclose(data[:, 2], expected, rtol=1e-10)

    def test_unstable_drift_exits_2(self, tmp_path, capsys):
        # both detunings at 5 MHz: the drift has no steady state, so there
        # is no stationary spectrum to print
        config = tmp_path / "unstable.cfg"
        config.write_text(UNSTABLE_CONFIG)
        out = tmp_path / "s.csv"
        assert cli.main(["spectrum", "--config", str(config),
                         "--out", str(out)]) == 2
        assert "unstable" in capsys.readouterr().err
        assert not out.exists()
        assert cli.main(["sweep", "--config", str(config), "--quantity", "spectrum",
                         "--axis", "kappa_a_hz=16.5e6",
                         "--outdir", str(tmp_path / "sw")]) == 2


class TestSweepCommand:
    def test_files_and_manifest(self, tmp_path):
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", "r_m=0,1.5",
                         "--axis", "kappa_a_hz=8.25e6,16.5e6",
                         "--temp", "280", "--grid-points", "21",
                         "--outdir", str(outdir)]) == 0
        manifest = json.loads((outdir / "run_manifest.json").read_text())
        assert manifest["command"] == "sweep"
        assert manifest["sweep_axes"] == [["r_m", [0.0, 1.5]],
                                          ["kappa_a_hz", [8.25e6, 16.5e6]]]
        assert len(manifest["outputs"]) == 4
        for entry in manifest["outputs"]:
            path = outdir / entry["path"]
            assert path.exists()
            assert cli._file_sha256(path) == entry["sha256"]

    def test_unknown_axis_is_usage_error(self, tmp_path):
        assert cli.main(["sweep", "--axis", "nonsense=1,2",
                         "--outdir", str(tmp_path)]) == 1

    def test_failing_point_writes_nothing(self, tmp_path, capsys):
        # delta_a = 5 MHz with delta_0p = 5 MHz has no steady state; the
        # stable first point must not be written either
        config = tmp_path / "unstable.cfg"
        config.write_text(UNSTABLE_CONFIG)
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--config", str(config), "--quantity", "spectrum",
                         "--axis", "delta_a_hz=0,5e6", "--outdir", str(outdir)]) == 2
        assert "unstable" in capsys.readouterr().err
        assert not outdir.exists()
        assert cli.main(["sweep", "--quantity", "budget", "--axis", "delta_a_hz=0,5e6",
                         "--outdir", str(outdir)]) == 2
        assert not outdir.exists()

    def test_spectrum_quantity_handles_detuned_points(self, tmp_path):
        outdir = tmp_path / "sp"
        assert cli.main(["sweep", "--axis", "delta_a_hz=0,2e6",
                         "--quantity", "spectrum", "--grid-points", "11",
                         "--outdir", str(outdir)]) == 0
        assert len(list(outdir.glob("sweep_spectrum_*.csv"))) == 2


class TestReproduceCommand:
    def test_fig3_emits_three_panels(self, tmp_path):
        assert cli.main(["reproduce", "fig3", "--outdir", str(tmp_path)]) == 0
        for panel in ("response", "additional_noise", "thermal_noise"):
            assert (tmp_path / f"fig3_{panel}.csv").exists()
            assert (tmp_path / f"fig3_{panel}.svg").exists()
        columns, data = read_csv(tmp_path / "fig3_thermal_noise.csv")
        assert columns == ["omega_over_kappa_m", "rm_0", "rm_0.5", "rm_1", "rm_1.5"]
        ratio = data[0, 4] / data[0, 1]
        assert ratio == pytest.approx(math.exp(-6.0), rel=1e-12)
        # thermal noise is frequency independent
        assert np.all(data[:, 4] == data[0, 4])

    def test_fig7_nulls_at_matched_reservoir(self, tmp_path):
        assert cli.main(["reproduce", "fig7", "--outdir", str(tmp_path)]) == 0
        _, by_ratio = read_csv(tmp_path / "fig7_ne_vs_rn.csv")
        _, by_phase = read_csv(tmp_path / "fig7_ne_vs_phase.csv")
        row = by_ratio[np.isclose(by_ratio[:, 0], 1.0)]
        assert abs(row[0, 1]) < 1e-12
        row = by_phase[np.isclose(by_phase[:, 0], 1.0)]
        assert abs(row[0, 1]) < 1e-12
        assert by_ratio[:, 1].min() >= -1e-12

    def test_fig6_and_fig8_sensitivity_tables(self, tmp_path):
        assert cli.main(["reproduce", "fig6", "--outdir", str(tmp_path)]) == 0
        assert cli.main(["reproduce", "fig8", "--outdir", str(tmp_path)]) == 0
        _, fig6 = read_csv(tmp_path / "fig6_sensitivity.csv")
        assert fig6[0, 4] / fig6[0, 1] == pytest.approx(math.exp(-3.0), rel=1e-3)
        _, fig8 = read_csv(tmp_path / "fig8_suppressed_sensitivity.csv")
        assert 1e-15 <= fig8[0, 4] <= 1e-13

    def test_fig4_and_fig5_sweep_panels(self, tmp_path):
        assert cli.main(["reproduce", "fig4", "--outdir", str(tmp_path)]) == 0
        columns, data = read_csv(tmp_path / "fig4_thermal_noise.csv")
        # thermal noise unaffected by cavity dissipation: identical columns
        assert np.all(data[:, 1:] == data[:, 1:2])
        assert cli.main(["reproduce", "fig5", "--outdir", str(tmp_path)]) == 0
        assert (tmp_path / "fig5_response.csv").exists()
        assert not (tmp_path / "fig5_thermal_noise.csv").exists()
        _, resp = read_csv(tmp_path / "fig5_response.csv")
        assert np.all(np.diff(resp[0, 1:]) > 0)  # response grows with coupling

    def test_reruns_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["reproduce", "fig7", "--outdir", str(a)])
        cli.main(["reproduce", "fig7", "--outdir", str(b)])
        for name in ("fig7_ne_vs_rn.csv", "fig7_ne_vs_rn.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_svg_is_wellformed(self, tmp_path):
        cli.main(["reproduce", "fig6", "--outdir", str(tmp_path)])
        import xml.etree.ElementTree as ET
        tree = ET.parse(tmp_path / "fig6_sensitivity.svg")
        assert tree.getroot().tag.endswith("svg")


class TestExitCodes:
    def test_malformed_arguments_exit_1(self, tmp_path):
        assert cli.main(["budget", "--reservoir", "oops"]) == 1
        assert cli.main(["nonsense"]) == 1

    def test_bad_values_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "b.csv")
        for points in ("0", "-3"):
            assert cli.main(["budget", "--grid-points", points, "--out", out]) == 1
        for option, value in (("--seed", "-1"), ("--seed", "1.5"),
                              ("--tolerance", "nan"), ("--tolerance", "inf"),
                              ("--tolerance", "0"), ("--tolerance", "-0.1")):
            capsys.readouterr()
            assert cli.main(["verify", option, value]) == 1
            err = capsys.readouterr().err
            assert option in err and err.count("\n") == 1
        assert cli.main(["sweep", "--axis", "r_m=0,1", "--axis", "r_m=2",
                         "--outdir", str(tmp_path)]) == 1
        # options are never matched by abbreviation: --out is not --outdir
        assert cli.main(["sweep", "--axis", "r_m=0", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("command", ["budget", "spectrum"])
    @pytest.mark.parametrize("grid_max", ["0", "-2", "nan", "inf"])
    def test_bad_grid_max_exits_1(self, tmp_path, capsys, command, grid_max):
        out = tmp_path / "b.csv"
        assert cli.main([command, "--grid-max", grid_max, "--grid-points", "3",
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--grid-max" in err and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_squeeze_amplitude_exits_2(self, tmp_path, capsys):
        assert cli.main(["budget", "--rm", "400",
                         "--out", str(tmp_path / "b.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_exits_2(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert cli.main(["reproduce", "fig7", "--outdir", str(blocker)]) == 2
        assert cli.main(["budget", "--grid-points", "5", "--out", str(tmp_path)]) == 2

    def test_verify_refuses_a_run_it_cannot_size(self, tmp_path, capsys):
        # kappa_a / kappa_m = 1000 would need 3.7e8 steps per trajectory
        config = tmp_path / "stiff.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\ng_0_hz = 6\n"
                          "mod_amplitude = 1\nkappa_a_hz = 15000\nkappa_m_hz = 15\n"
                          "temperature_k = 0.05\nlambda_hz_per_tesla = 10\nr_m = 0\n")
        start = time.perf_counter()
        assert cli.main(["verify", "--config", str(config)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too stiff" in err
        assert err.count("\n") == 1

    def test_invalid_parameter_file_exit_2(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("unknown_thing = 3\n")
        assert cli.main(["budget", "--config", str(config)]) == 2
        assert cli.main(["budget", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_verify_exit_code_follows_report(self, monkeypatch, capsys):
        def fake_run(params=None, seed=42, psd_tolerance=0.1, gain_tolerance=0.15):
            check = CheckResult(name="stub", passed=True, value=0.0,
                                tolerance=1.0, detail="")
            return VerificationReport(checks=(check,), seed=seed)

        monkeypatch.setattr(cli, "run_verification", fake_run)
        assert cli.main(["verify", "--seed", "7"]) == 0
        assert "stub" in capsys.readouterr().out

        def fake_fail(params=None, seed=42, psd_tolerance=0.1, gain_tolerance=0.15):
            check = CheckResult(name="stub", passed=False, value=9.0,
                                tolerance=1.0, detail="")
            return VerificationReport(checks=(check,), seed=seed)

        monkeypatch.setattr(cli, "run_verification", fake_fail)
        assert cli.main(["verify"]) == 3

    def test_module_entry_point(self, tmp_path):
        # the child imports the same package as this process, installed or not
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run(
            [sys.executable, "-m", "magnon_sense", "budget",
             "--grid-points", "5", "--out", str(tmp_path / "b.csv")],
            capture_output=True, text=True, env=env)
        assert result.returncode == 0
        assert (tmp_path / "b.csv").exists()
