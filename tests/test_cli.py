import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import magnon_sense.cli as cli
from magnon_sense import (ConfigurationError, ParameterError, PoleError, PreconditionError,
                          SingularResponseError, derived_parameters, noise_budget_grid,
                          parse_parameters, simulation, verification)
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

    @pytest.mark.parametrize("shape", [(1001, 8), (1001, 3), (1, 1), (9000, 5)])
    def test_csv_body_is_savetxt(self, tmp_path, shape):
        # exponents from 1e-300 to 1e300 and both signs; (9000, 5) spans
        # more than two blocks of rows
        rng = np.random.default_rng(sum(shape))
        table = (rng.standard_normal(shape)
                 * 10.0 ** rng.integers(-300, 300, size=shape))
        path = tmp_path / "t.csv"
        digest = cli._write_csv(path, [f"c{i}" for i in range(shape[1])], list(table.T),
                                "0" * 64)
        # the returned hash is the hash of the bytes on disk
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
        expected = io.StringIO()
        np.savetxt(expected, table, fmt="%.12e", delimiter=",")
        body = path.read_text().split("\n", 2)[2]
        assert body == expected.getvalue()

    def test_csv_rows_are_percent_formatted(self, tmp_path, monkeypatch):
        # the vectorized renderer against '%.12e', on the values where its
        # fast path could go wrong; '%' itself settles the ties and the edges
        fallbacks, rendered = [], []
        percent_fields = cli._percent_fields

        def counted(values):
            fallbacks.append(len(values))
            return percent_fields(values)
        monkeypatch.setattr(cli, "_percent_fields", counted)
        path = tmp_path / "t.csv"

        @settings(derandomize=True, max_examples=200, deadline=None, database=None)
        @given(CSV_TABLES)
        def rows_match(table):
            with np.errstate(all="raise"):
                cli._write_csv(path, [f"c{i}" for i in range(table.shape[1])],
                               list(table.T), "0" * 64)
            expected = "".join(",".join("%.12e" % v for v in row) + "\n"
                               for row in table.tolist())
            assert path.read_bytes().split(b"\n", 2)[2] == expected.encode("ascii")
            if np.isfinite(table).all():
                rendered.append(table.size)

        rows_match()
        assert 0 < sum(fallbacks) < sum(rendered)

    def test_an_underflowing_temperature_is_zero_temperature(self, tmp_path):
        tiny, zero = tmp_path / "tiny.csv", tmp_path / "zero.csv"
        assert cli.main(["budget", "--temp", "1e-320", "--grid-points", "5",
                         "--out", str(tiny)]) == 0
        assert cli.main(["budget", "--temp", "0", "--grid-points", "5",
                         "--out", str(zero)]) == 0
        assert tiny.read_text().splitlines()[1:] == zero.read_text().splitlines()[1:]

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


#: the reference set without its field coupling line
COUPLING_CONFIG = (
    "omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\nr_m = 1.5\n"
    "g_0_hz = 2.5e9\nmod_amplitude = 1\nkappa_a_hz = 16.5e6\n"
    "kappa_m_hz = 15e6\ntemperature_k = 0.05\n")

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

    def test_vacuum_reservoir_is_the_zero_temperature_spectrum(self, tmp_path):
        # a squeezed vacuum of zero amplitude is the vacuum bath at 0 K
        plain, vacuum = tmp_path / "plain.csv", tmp_path / "vacuum.csv"
        assert cli.main(["spectrum", "--temp", "0", "--out", str(plain)]) == 0
        assert cli.main(["spectrum", "--temp", "0", "--reservoir", "0,0",
                         "--out", str(vacuum)]) == 0
        assert (plain.read_text().splitlines()[1:]
                == vacuum.read_text().splitlines()[1:])

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
            assert hashlib.sha256(path.read_bytes()).hexdigest() == entry["sha256"]
        # the provenance names the quantity and the grid, as budget's does
        parameters = manifest["parameters"]
        assert (parameters["command"], parameters["quantity"], parameters["grid_max"],
                parameters["grid_points"]) == ("sweep", "budget", 5.0, 21)
        assert parameters["temperature"] == 280.0
        coarse = tmp_path / "coarse"
        assert cli.main(["sweep", "--axis", "r_m=0,1.5",
                         "--axis", "kappa_a_hz=8.25e6,16.5e6",
                         "--temp", "280", "--grid-points", "11",
                         "--outdir", str(coarse)]) == 0
        for entry in manifest["outputs"]:
            fine_hash = (outdir / entry["path"]).read_text().splitlines()[0]
            assert (coarse / entry["path"]).read_text().splitlines()[0] != fine_hash

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

    def test_panels_equal_the_budget_command(self, tmp_path):
        assert cli.main(["reproduce", "fig3", "--outdir", str(tmp_path)]) == 0
        assert cli.main(["reproduce", "fig6", "--outdir", str(tmp_path)]) == 0
        for rm, temp, panels in (
                ("1.5", "0.05", {"fig3_response": "response",
                                 "fig3_additional_noise": "additional_noise",
                                 "fig3_thermal_noise": "thermal_noise"}),
                ("0.5", "280", {"fig6_sensitivity": "sensitivity_t_per_sqrt_hz"})):
            out = tmp_path / f"budget_{rm}.csv"
            assert cli.main(["budget", "--rm", rm, "--temp", temp,
                             "--out", str(out)]) == 0
            budget_columns, budget = read_csv(out)
            for stem, column in panels.items():
                columns, panel = read_csv(tmp_path / f"{stem}.csv")
                np.testing.assert_array_equal(panel[:, columns.index(f"rm_{rm}")],
                                              budget[:, budget_columns.index(column)])

    @pytest.mark.parametrize("fig", ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"])
    def test_reruns_are_byte_identical(self, tmp_path, fig):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["reproduce", fig, "--outdir", str(a)]) == 0
        assert cli.main(["reproduce", fig, "--outdir", str(b)]) == 0
        names = sorted(path.name for path in a.iterdir())
        assert names == sorted(path.name for path in b.iterdir())
        for name in names:
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
        for option, value in (("--seed", "-1"), ("--seed", "1.5")):
            capsys.readouterr()
            assert cli.main(["verify", option, value]) == 1
            err = capsys.readouterr().err
            assert option in err and err.count("\n") == 1
        # the PSD check's bound is fixed, not an option
        assert cli.main(["verify", "--tolerance", "0.1"]) == 1
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        assert cli.main(["sweep", "--axis", "r_m=0,1", "--axis", "r_m=2",
                         "--outdir", str(tmp_path)]) == 1
        # options are never matched by abbreviation: --out is not --outdir
        assert cli.main(["sweep", "--axis", "r_m=0", "--out", str(tmp_path)]) == 1
        # sinh(2 r_n) would overflow: the reservoir has the bound r_m has
        for command in ("budget", "spectrum"):
            capsys.readouterr()
            assert cli.main([command, "--reservoir", "400,0", "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "--reservoir" in err
            assert err.count("\n") == 1

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

    @pytest.mark.parametrize("command, option, value", [
        ("budget", "--rm", "353"),
        ("spectrum", "--reservoir", "353,3.141592653589793"),
    ])
    def test_non_finite_output_exits_2(self, tmp_path, capsys, command, option, value):
        # each factor is finite below the 354 bound, their products are not
        out = tmp_path / "b.csv"
        assert cli.main([command, option, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not finite" in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_non_finite_sweep_point_stops_without_manifest(self, tmp_path, capsys):
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", "r_m=1,353", "--grid-points", "5",
                         "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert sorted(p.name for p in outdir.iterdir()) == ["sweep_budget_r_m-1.csv"]

    # at 1e-160 |k1|^2 is subnormal and N_qn's quotient overflows before
    # the k1 floor replaces it with infinity
    @pytest.mark.parametrize("mod_amplitude", ["0", "1e-160"])
    def test_zero_coupling_budget_is_infinite_by_design(self, tmp_path, mod_amplitude):
        config = tmp_path / "uncoupled.cfg"
        config.write_text(COUPLING_CONFIG.replace("mod_amplitude = 1",
                                                  f"mod_amplitude = {mod_amplitude}")
                          + "lambda_hz_per_tesla = 5.85e13\n")
        out = tmp_path / "b.csv"
        assert cli.main(["budget", "--config", str(config), "--grid-points", "5",
                         "--out", str(out)]) == 0
        columns, data = read_csv(out)
        for name in ("additional_noise", "sensitivity_t_per_sqrt_hz"):
            assert np.all(np.isinf(data[:, columns.index(name)]))

    @pytest.mark.parametrize("coupling", [
        "lambda_hz_per_tesla = 0",
        "gamma_hz_per_tesla = 28e9\nspin_number = 0",
        "gamma_hz_per_tesla = 28e9\nspin_number = -1",
        "gamma_hz_per_tesla = 0\nspin_number = 3.5e6",
    ])
    def test_zero_field_coupling_exits_2(self, tmp_path, capsys, coupling):
        config = tmp_path / "uncoupled.cfg"
        config.write_text(COUPLING_CONFIG + coupling + "\n")
        out = tmp_path / "b.csv"
        assert cli.main(["budget", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["omega_a_hz", "omega_0_hz"])
    def test_vanishing_mode_frequency_exits_2(self, tmp_path, capsys, mode):
        # hbar * omega underflows to 0, so the thermal occupation is not finite
        config = tmp_path / "slow.cfg"
        config.write_text(COUPLING_CONFIG.replace(f"{mode} = 37.5e9", f"{mode} = 1e-300")
                          + "lambda_hz_per_tesla = 5.85e13\n")
        out = tmp_path / "b.csv"
        assert cli.main(["budget", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("axes", [["r_m=0.5", "omega_m_hz=1e9"],
                                      ["omega_m_hz=1e9", "r_m=0.5"]])
    def test_two_squeeze_axes_exit_1(self, tmp_path, capsys, axes):
        # both set the squeeze amplitude: the later one would win silently
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", axes[0], "--axis", axes[1],
                         "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("coupling, reason", [
        ("1e-170", "lambda"),        # lambda^2 underflows to 0
        ("1e160", "lambda"),         # lambda^2 overflows
        ("1.6e-151", "not finite"),  # lambda^2 is in range, 2 kappa_m / lambda^2 is not
    ])
    def test_extreme_field_coupling_exits_2(self, tmp_path, capsys, coupling, reason):
        config = tmp_path / "extreme.cfg"
        config.write_text(COUPLING_CONFIG + f"lambda_hz_per_tesla = {coupling}\n")
        out = tmp_path / "b.csv"
        assert cli.main(["budget", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err
        assert err.count("\n") == 1
        assert not out.exists()

    def test_extreme_field_coupling_sweep_writes_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", "lambda_hz_per_tesla=1e-170,1",
                         "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("command", ["budget", "spectrum", "verify"])
    def test_overflowing_effective_coupling_exits_2(self, tmp_path, capsys, command):
        # g' = A g_0 exp(r_m) overflows to inf: budget wrote NaN, spectrum's
        # stability check and verify's step size (0.015 / g') broke on it
        config = tmp_path / "strong.cfg"
        config.write_text(COUPLING_CONFIG.replace("mod_amplitude = 1", "mod_amplitude = 1e300")
                          + "lambda_hz_per_tesla = 5.85e13\n")
        out = tmp_path / "b.csv"
        argv = [command, "--config", str(config)]
        if command != "verify":
            argv += ["--grid-points", "11", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "g'" in err and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_effective_coupling_sweep_writes_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", "mod_amplitude=1,1e300",
                         "--outdir", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "g'" in err and err.count("\n") == 1
        assert not outdir.exists()

    def test_zero_field_coupling_sweep_writes_nothing(self, tmp_path, capsys):
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", "lambda_hz_per_tesla=1e12,0",
                         "--outdir", str(outdir)]) == 2
        assert capsys.readouterr().err.count("\n") == 1
        assert not outdir.exists()

    @pytest.mark.parametrize("values", ["0.1234567,0.1234568", "1,1.0"])
    def test_sweep_file_name_collision_exits_1(self, tmp_path, capsys, values):
        # both points would write one sweep_budget_r_m-<{:g}>.csv
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", f"r_m={values}", "--outdir", str(outdir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not outdir.exists()

    def test_sweep_file_name_collision_at_the_end_of_a_long_axis(self, tmp_path, capsys):
        # 20,000 distinct names, then 1.99990001 and 0.50000001 each repeat
        # one: the first repeat in point order is named, before any output
        values = [f"{i / 1e4!r}" for i in range(20000)] + ["1.99990001", "0.50000001"]
        outdir = tmp_path / "sw"
        assert cli.main(["sweep", "--axis", "r_m=" + ",".join(values),
                         "--outdir", str(outdir)]) == 1
        assert capsys.readouterr().err == (
            "error: two sweep points would both write sweep_budget_r_m-1.9999.csv\n")
        assert not outdir.exists()

    def test_allocation_failure_exits_2(self, tmp_path, capsys, monkeypatch):
        # the grid is never allocated for real: under memory overcommit a
        # request this size could succeed and only fail when touched
        requested = []

        def no_memory(start, stop, num, *args, **kwargs):
            requested.append(num)
            raise MemoryError(f"Unable to allocate {num * 8 / 2**30:.0f} GiB")

        monkeypatch.setattr(cli.np, "linspace", no_memory)
        out = tmp_path / "b.csv"
        assert cli.main(["budget", "--grid-points", "100000000000",
                         "--out", str(out)]) == 2
        assert requested == [100000000000]
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "allocate" in err
        assert err.count("\n") == 1
        assert not out.exists()

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

    def test_verify_refuses_a_vanishing_closed_form_denominator(self, tmp_path, capsys):
        # the desk set with every rate scaled by 1e-170: the closed form's
        # denominator underflows to 0 although the dimensionless problem is
        # unchanged, and the route check runs before any stepping
        config = tmp_path / "tiny.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\ng_0_hz = 6e-170\n"
                          "mod_amplitude = 1\nkappa_a_hz = 16.5e-170\n"
                          "kappa_m_hz = 15e-170\ntemperature_k = 0.05\n"
                          "lambda_hz_per_tesla = 10\nr_m = 0\n")
        assert cli.main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "denominator vanishes" in err
        assert err.count("\n") == 1

    def test_verify_refuses_a_run_it_cannot_store(self, tmp_path, capsys, monkeypatch):
        # kappa_a / kappa_m = 50: the Lyapunov runs need 9.33e6 steps of 32
        # trajectories, over the trajectory-step budget, and must be refused
        # before the pass starts
        def no_stepping(*args, **kwargs):
            raise AssertionError("fold called")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        config = tmp_path / "long.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\ng_0_hz = 6\n"
                          "mod_amplitude = 1\nkappa_a_hz = 750\nkappa_m_hz = 15\n"
                          "temperature_k = 0.05\nlambda_hz_per_tesla = 10\nr_m = 0\n")
        assert cli.main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trajectory-steps" in err
        assert err.count("\n") == 1

    def test_verify_counts_every_row_of_a_two_reservoir_run(self, tmp_path, capsys,
                                                            monkeypatch):
        # the PSD runs' step is set by the bands, so their length is a count
        # of Welch segments, 640 + 320 (segments - 1) steps a row, at any
        # parameters.  At 15000 segments the psd_rm15 run steps two
        # reservoir blocks of 16 trajectories, 32 rows of 4.80e6 steps, which
        # are 1.54e8 trajectory-steps, over the budget, though one block's
        # 7.68e7 (and psd_rm0's) is not; at 9000 segments every run fits and
        # reaches the pass
        def no_stepping(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        monkeypatch.setattr(simulation, "measure_gain", no_stepping)
        monkeypatch.setattr(verification, "_PSD_SEGMENTS_PER_TRAJECTORY", 15000)
        config = tmp_path / "desk.cfg"
        config.write_text("".join(f"{key} = {value!r}\n" for key, value in DESK.items()))
        assert cli.main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "too stiff" in err and "32 rows" in err and "1.54e+08 trajectory-steps" in err
        monkeypatch.setattr(verification, "_PSD_SEGMENTS_PER_TRAJECTORY", 9000)
        with pytest.raises(AssertionError, match="stepped"):
            cli.main(["verify", "--config", str(config)])

    def test_verify_refuses_a_stiff_set_at_once(self, tmp_path, capsys):
        # the desk set at g_0 = 6e8 Hz: the Lyapunov rows pass, and so do
        # the PSD rows, whose step and segments are set by the bands; the
        # gain rows' Euler-Maruyama step resolves 2 g', so their 32 tone
        # periods take about 1.5e13 steps, and the budget refuses them
        config = tmp_path / "stiff.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\ng_0_hz = 6e8\n"
                          "mod_amplitude = 1\nkappa_a_hz = 16.5\nkappa_m_hz = 15\n"
                          "temperature_k = 0.05\nlambda_hz_per_tesla = 10\nr_m = 0\n")
        start = time.perf_counter()
        assert cli.main(["verify", "--config", str(config)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trajectory-steps" in err
        assert err.count("\n") == 1

    def test_verify_sizes_every_run_before_stepping(self, tmp_path, capsys, monkeypatch):
        # the reference set at twice its coupling: the Lyapunov runs are
        # desk-sized and the PSD runs band-set, and only the gain runs, the
        # last of the table (g'/kappa_m ~ 900 at r_m = 1), are over the
        # budget: 1.2e8 trajectory-steps at 0.2 kappa_m
        def no_stepping(*args, **kwargs):
            raise AssertionError("fold called")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        config = tmp_path / "reference.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\ng_0_hz = 5e9\n"
                          "mod_amplitude = 1\nkappa_a_hz = 16.5e6\nkappa_m_hz = 15e6\n"
                          "temperature_k = 0.05\nlambda_hz_per_tesla = 10\nr_m = 1.5\n")
        assert cli.main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too stiff" in err
        assert err.count("\n") == 1

    def test_verify_refuses_a_detuned_gain_run_before_stepping(self, tmp_path, capsys,
                                                               monkeypatch):
        # the desk set detuned: the gain checks need the backaction-evading
        # point, and the refusal must come before any run is stepped
        def no_stepping(*args, **kwargs):
            raise AssertionError("fold called")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        config = tmp_path / "detuned.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\ng_0_hz = 6\n"
                          "mod_amplitude = 1\nkappa_a_hz = 16.5\nkappa_m_hz = 15\n"
                          "temperature_k = 0.05\nlambda_hz_per_tesla = 10\nr_m = 0\n"
                          "delta_a_hz = 3\n")
        start = time.perf_counter()
        assert cli.main(["verify", "--config", str(config)]) == 2
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "backaction-evading point" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("coupling", ["mod_amplitude = 0\ng_0_hz = 6",
                                          "mod_amplitude = 1\ng_0_hz = 0"])
    def test_verify_refuses_an_uncoupled_gain_run_before_stepping(self, tmp_path, capsys,
                                                                  monkeypatch, coupling):
        # without a magnon-cavity coupling the analytic gain is 0, and the
        # gain checks cannot be divided by it
        def no_stepping(*args, **kwargs):
            raise AssertionError("fold called")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        config = tmp_path / "uncoupled.cfg"
        config.write_text("omega_a_hz = 37.5e9\nomega_0_hz = 37.5e9\n"
                          f"{coupling}\nkappa_a_hz = 16.5\nkappa_m_hz = 15\n"
                          "temperature_k = 0.05\nlambda_hz_per_tesla = 10\nr_m = 0\n")
        assert cli.main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "magnon-cavity coupling" in err
        assert err.count("\n") == 1

    def test_verify_runs_the_gain_checks_for_a_negative_coupling(self, tmp_path, monkeypatch):
        # the gain does not depend on the sign of lambda, and budget runs the
        # same file: a negative lambda_hz_per_tesla is planned and reaches the pass
        def no_stepping(*args, **kwargs):
            raise AssertionError("fold called")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        config = tmp_path / "negative.cfg"
        config.write_text("".join(f"{key} = {value!r}\n" for key, value in
                                  {**DESK, "lambda_hz_per_tesla": -10.0}.items()))
        assert run_cli(["budget", "--config", str(config),
                        "--out", str(tmp_path / "budget.csv")]) == (0, "")
        with pytest.raises(AssertionError, match="fold called"):
            run_cli(["verify", "--config", str(config)])

    @pytest.mark.parametrize("changes", [
        {"kappa_m_hz": 8.666e-321},
        {"kappa_m_hz": 3.370382272419516e-309},
        {"kappa_m_hz": 1e-300},
        {"delta_a_hz": -4.38695416107654e+303},
        {"delta_0p_hz": 1.0725327269530598e+303, "g_0_hz": 6.317371190561268e-190},
        {"kappa_a_hz": 1e-305, "kappa_m_hz": 1e-305}])
    def test_verify_refuses_extreme_rates_before_stepping(self, tmp_path, capsys,
                                                          monkeypatch, changes):
        # desk sets whose step counts are infinite, or finite but past any
        # integer that prints in a line: each run is sized in floats and
        # refused before its count is rounded, and the counts print in %.3g.
        # The PSD runs' counts are set by the bands, so the detuned sets are
        # refused by the gain runs' evading-point check, and the vanishing
        # rates by their singular response, before stepping as well
        refusal = {"delta_a_hz": "backaction-evading point",
                   "delta_0p_hz": "backaction-evading point", "kappa_a_hz": "singular"}
        expected = next((refusal[key] for key in changes if key in refusal), "too stiff")

        def no_stepping(*args, **kwargs):
            raise AssertionError("stepped")

        monkeypatch.setattr(simulation, "fold", no_stepping)
        monkeypatch.setattr(simulation, "measure_gain", no_stepping)
        config = tmp_path / "extreme.cfg"
        config.write_text("".join(f"{key} = {value!r}\n"
                                  for key, value in {**DESK, **changes}.items()))
        assert cli.main(["verify", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and expected in err
        assert err.count("\n") == 1 and len(err) < 300

    def test_invalid_parameter_file_exit_2(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("unknown_thing = 3\n")
        not_utf8 = tmp_path / "utf16.cfg"
        not_utf8.write_bytes(b"\xff\xfer\x00_\x00m\x00 \x00=\x00 \x001\x00\n\x00")
        for path in (config, tmp_path / "missing.cfg", not_utf8):
            capsys.readouterr()
            assert cli.main(["budget", "--config", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
        assert cli.main(["verify", "--config", str(not_utf8)]) == 2

    def test_verify_exit_code_follows_report(self, monkeypatch, capsys):
        def fake_run(params=None, seed=42):
            check = CheckResult(name="stub", value=0.0, tolerance=1.0, detail="")
            return VerificationReport(checks=(check,), seed=seed)

        monkeypatch.setattr("magnon_sense.verification.run_verification", fake_run)
        assert cli.main(["verify", "--seed", "7"]) == 0
        assert "stub" in capsys.readouterr().out

        def fake_fail(params=None, seed=42):
            check = CheckResult(name="stub", value=9.0, tolerance=1.0, detail="")
            return VerificationReport(checks=(check,), seed=seed)

        monkeypatch.setattr("magnon_sense.verification.run_verification", fake_fail)
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


#: the reference parameter file, key by key, for the generated inputs
REFERENCE = {"omega_a_hz": 37.5e9, "omega_0_hz": 37.5e9, "r_m": 1.5, "g_0_hz": 2.5e9,
             "mod_amplitude": 1.0, "kappa_a_hz": 16.5e6, "kappa_m_hz": 15e6,
             "lambda_hz_per_tesla": 5.85e13, "temperature_k": 0.05,
             "delta_a_hz": 0.0, "delta_0p_hz": 0.0}

#: the desk set of ``verify``, ``verification.verification_parameters``, key by key
DESK = {"omega_a_hz": 37.5e9, "omega_0_hz": 37.5e9, "r_m": 0.0, "g_0_hz": 6.0,
        "mod_amplitude": 1.0, "kappa_a_hz": 16.5, "kappa_m_hz": 15.0,
        "lambda_hz_per_tesla": 10.0, "temperature_k": 0.05,
        "delta_a_hz": 0.0, "delta_0p_hz": 0.0}

#: the budget columns that are infinite, by design, where nothing is transduced
TRANSDUCED = ("additional_noise", "s_bnoise_t2_per_hz", "sensitivity_t_per_sqrt_hz")

#: doubles spread log-uniformly over the whole range, either sign, and zero
DOUBLES = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mantissa, exponent: sign * float(f"{mantissa!r}e{exponent}"),
              st.sampled_from([1.0, -1.0]), st.floats(1.0, 9.99), st.integers(-323, 307)))


def _nudged(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


_SIGNS = st.sampled_from((1.0, -1.0))
#: a float64 anywhere in the double range, subnormals, signed zeros and
#: infinities included; within an ulp of a power of ten, where log10 may
#: misplace the exponent; next to a 13-digit decimal tie d.ddd...d5 x 10^q,
#: or on one, where the last digit may round two ways
CSV_VALUES = st.one_of(
    DOUBLES,
    st.floats(allow_nan=False),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.builds(lambda p, ulps, sign: sign * _nudged(float(f"1e{p}"), ulps),
              st.integers(-323, 308), st.integers(-1, 1), _SIGNS),
    st.builds(lambda n, q, ulps, sign: sign * _nudged(float(f"{10 * n + 5}e{q}"), ulps),
              st.integers(10**12, 10**13 - 1), st.integers(-336, 294),
              st.integers(-1, 1), _SIGNS),
    st.builds(lambda n, q, sign: sign * float(Fraction(10 * n + 5) * Fraction(10) ** q),
              st.integers(10**12, 10**13 - 1), st.integers(-1, 3), _SIGNS),
)


@st.composite
def _csv_tables(draw):
    rows, columns = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    values = draw(st.lists(CSV_VALUES, min_size=rows * columns, max_size=rows * columns))
    return np.array(values, dtype=np.float64).reshape(rows, columns)


CSV_TABLES = _csv_tables()


def run_cli(argv):
    """(exit code, stderr) of one in-process command."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_finite_csv(path):
    columns, data = read_csv(path)
    for name, column in zip(columns, data.T):
        if name in TRANSDUCED:
            column = column[column != math.inf]
        assert np.all(np.isfinite(column)), (path.name, name)


# the examples are the inputs the generator found: g' = A g_0 exp(r_m)
# overflowing, 2 g' overflowing in the drift matrix, and a cavity linewidth
# so small that the solve's inverse overflows at omega = 0
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@example({"mod_amplitude": 1e300})
@example({"mod_amplitude": 1.2769674608220456e297})
@example({"kappa_a_hz": 1e-306})
@given(st.dictionaries(st.sampled_from(sorted(REFERENCE)), DOUBLES, min_size=1, max_size=3))
def test_generated_parameter_files_end_in_a_documented_exit(changes):
    # budget, spectrum and a two-point sweep of the first changed key, from
    # the reference point to the drawn value: exit 0 with finite tables, or
    # 1 or 2 with one error line and no table, and no manifest of a sweep
    # that stopped
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        config = tmp / "drawn.cfg"
        config.write_text("".join(f"{key} = {value!r}\n"
                                  for key, value in {**REFERENCE, **changes}.items()))
        key, value = next(iter(changes.items()))
        for command, extra, out in [
                ("budget", ["--out"], tmp / "budget.csv"),
                ("spectrum", ["--out"], tmp / "spectrum.csv"),
                ("sweep", ["--axis", f"{key}={REFERENCE[key]!r},{value!r}", "--outdir"],
                 tmp / "sweep")]:
            code, err = run_cli([command, "--config", str(config), "--grid-points", "5",
                                 *extra, str(out)])
            assert code in (0, 1, 2), (command, code, err)
            if code == 0:
                assert err == ""
                for path in sorted(out.glob("*.csv")) if command == "sweep" else [out]:
                    assert_finite_csv(path)
            else:
                assert err.startswith("error: ") and err.count("\n") == 1, (command, err)
                if command == "sweep":
                    assert not (out / "run_manifest.json").exists()
                else:
                    assert not out.exists()


#: the errors the commands refuse an input with, by exit 2
REFUSALS = (ParameterError, PreconditionError, ConfigurationError, PoleError,
            SingularResponseError)

#: the keys that hold a rate, a detuning or the field coupling
RATE_KEYS = ("g_0_hz", "kappa_a_hz", "kappa_m_hz", "delta_a_hz", "delta_0p_hz",
             "lambda_hz_per_tesla")


def budget_in_kappa_m(values):
    """The dimensionless budget columns of a parameter file's values, on 41
    frequencies from 0 to 5 kappa_m."""
    params = parse_parameters("".join(f"{key} = {value!r}\n" for key, value in values.items()))
    budget = noise_budget_grid(derived_parameters(params), params.temperature,
                               np.linspace(0.0, 5.0, 41) * params.kappa_m)
    return {name: getattr(budget, name)
            for name in ("response", "additional_noise", "thermal_noise", "s_out")}


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from([REFERENCE, DESK]), st.floats(-150.0, 100.0))
def test_scaling_every_rate_leaves_the_budget_unchanged(base, exponent):
    # scaling every rate, every detuning and lambda by c = 10^exponent
    # rescales time alone: on a grid in units of kappa_m the dimensionless
    # budget is unchanged, or the scaled file is refused with a documented
    # error
    scale = 10.0 ** exponent
    reference = budget_in_kappa_m(base)
    try:
        scaled = budget_in_kappa_m({key: value * scale if key in RATE_KEYS else value
                                    for key, value in base.items()})
    except REFUSALS:
        return
    for name, column in reference.items():
        np.testing.assert_allclose(scaled[name], column, rtol=1e-12, atol=0, err_msg=name)


class _Stepped(Exception):
    """Raised where ``verify`` would start stepping the oracle."""


# the examples are the inputs a probe of 15,000 files found: a Lyapunov
# step count that is infinite, PSD step counts past any float, and a count
# some 300 digits long
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@example({"kappa_m_hz": 8.666e-321})
@example({"kappa_m_hz": 3.370382272419516e-309})
@example({"kappa_m_hz": 1e-300})
@example({"delta_a_hz": -4.38695416107654e+303})
@example({"delta_0p_hz": 1.0725327269530598e+303, "g_0_hz": 6.317371190561268e-190})
@example({"kappa_a_hz": 1e-305, "kappa_m_hz": 1e-305})
@given(st.dictionaries(st.sampled_from(sorted(DESK)), DOUBLES, min_size=1, max_size=3))
def test_generated_verify_files_are_planned_before_any_stepping(changes):
    # verify --config on the desk set with one to three keys drawn, the
    # stepping patched out: each file reaches the stepping, or exits 1 or 2
    # with one error line
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "drawn.cfg"
        config.write_text("".join(f"{key} = {value!r}\n"
                                  for key, value in {**DESK, **changes}.items()))
        with mock.patch.object(simulation, "fold", side_effect=_Stepped), \
                mock.patch.object(simulation, "measure_gain", side_effect=_Stepped):
            try:
                code, err = run_cli(["verify", "--config", str(config)])
            except _Stepped:
                return
    assert code in (1, 2), (code, err)
    assert err.startswith("error: ") and err.count("\n") == 1, err
