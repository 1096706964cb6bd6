"""Command-line front end.

Subcommands: ``budget``, ``spectrum``, ``sweep``, ``verify`` and
``reproduce``.  CSV is the canonical output (RFC-4180-style, '.' decimal
separator, scientific notation); SVG charts are convenience renderings of
the same rows.  Every CSV starts with a comment line carrying the sha256
hash of the resolved parameter snapshot, and identical inputs produce
byte-identical files.  Exit codes: 0 success, 1 malformed arguments,
2 invalid parameter file or unusable configuration, 3 verification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import svg
from .model import (
    _FREQUENCY_KEYS,
    _PLAIN_KEYS,
    ConfigurationError,
    ParameterError,
    PreconditionError,
    SystemParameters,
    baseline_parameters,
    derived_parameters,
    load_parameters,
)
from .spectra import (
    SqueezedReservoir,
    _require_evading_point,
    noise_budget_grid,
    output_spectrum,
    reservoir_occupations,
    approx_suppressed_sensitivity,
)
from .transfer import drift_system, require_stable
from .verification import run_verification, verification_parameters

__all__ = ["main"]

_TWO_PI = 2.0 * math.pi

_BUDGET_COLUMNS = (
    "omega_rad_s", "omega_over_kappa_m", "response", "additional_noise",
    "thermal_noise", "s_out", "s_bnoise_t2_per_hz", "sensitivity_t_per_sqrt_hz",
)
_SPECTRUM_COLUMNS = ("omega_rad_s", "omega_over_kappa_m", "s_out")

#: sweep axes are the parameter-file keys that set one scalar field
#: -> (attribute, unit scale)
_SWEEPABLE = {
    **{key: (attr, _TWO_PI) for key, attr in _FREQUENCY_KEYS.items()},
    **{key: (attr, 1.0) for key, attr in _PLAIN_KEYS.items()},
    "lambda_hz_per_tesla": ("lambda_coupling", _TWO_PI),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _snapshot(params: SystemParameters, reservoir=None, **extra) -> dict:
    snap = {f.name: getattr(params, f.name) for f in fields(params)
            if f.name not in ("omega_m", "r_m", "drive")}
    snap["r_m"] = params.squeeze_amplitude
    if reservoir is not None:
        snap.update(reservoir_r_n=reservoir.r_n, reservoir_phi_n=reservoir.phi_n)
    snap.update(extra)
    return snap


def _snapshot_hash(snapshot: dict) -> str:
    payload = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _write_csv(path, header, columns, snapshot_hash: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# params_sha256={snapshot_hash}\n")
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, np.column_stack(columns), fmt="%.12e", delimiter=",")


def _file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


def _parse_reservoir(text: str | None) -> SqueezedReservoir | None:
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError("--reservoir expects 'r_n,phi_n' (phase in radians)")
    try:
        return SqueezedReservoir(r_n=float(parts[0]), phi_n=float(parts[1]))
    except (ValueError, ParameterError) as exc:
        raise _UsageError(f"invalid --reservoir value: {exc}") from exc


def _resolve_params(args) -> SystemParameters:
    if getattr(args, "config", None):
        params = load_parameters(args.config)
    else:
        params = baseline_parameters()
    if getattr(args, "rm", None) is not None:
        params = params.with_squeeze_amplitude(args.rm)
    if getattr(args, "temp", None) is not None:
        params = replace(params, temperature=args.temp)
    return params


def _table(quantity: str, params: SystemParameters, reservoir, args):
    """Column names and columns of a budget or spectrum CSV on the grid."""
    omegas = np.linspace(0.0, args.grid_max * params.kappa_m, args.grid_points)
    x = omegas / params.kappa_m
    dp = derived_parameters(params)
    if quantity == "budget":
        b = noise_budget_grid(dp, params.temperature, omegas, reservoir)
        return _BUDGET_COLUMNS, [omegas, x, b.response, b.additional_noise,
                                 b.thermal_noise, b.s_out, b.s_bnoise, b.sensitivity]
    s_out = output_spectrum(dp, params.temperature, omegas, reservoir=reservoir)
    return _SPECTRUM_COLUMNS, [omegas, x, s_out]


def _cmd_table(args) -> int:
    params = _resolve_params(args)
    reservoir = _parse_reservoir(args.reservoir)
    header, columns = _table(args.command, params, reservoir, args)
    snap = _snapshot(params, reservoir, command=args.command,
                     grid_max=args.grid_max, grid_points=args.grid_points)
    _write_csv(args.out, header, columns, _snapshot_hash(snap))
    print(f"wrote {args.out}")
    return 0


def _apply_axis(params: SystemParameters, key: str, value: float) -> SystemParameters:
    attr, scale = _SWEEPABLE[key]
    changes = {attr: value * scale}
    if attr in ("r_m", "omega_m"):  # exactly one of the two is set
        changes = {"r_m": None, "omega_m": None, **changes}
    return replace(params, **changes)


def _parse_axes(specs: list[str]) -> list[tuple[str, list[float]]]:
    axes = {}
    for spec_text in specs:
        name, _, values = spec_text.partition("=")
        name = name.strip()
        if name not in _SWEEPABLE:
            raise _UsageError(
                f"unknown sweep axis {name!r}; choose from "
                + ", ".join(sorted(_SWEEPABLE)))
        if name in axes:
            raise _UsageError(f"sweep axis {name!r} is given twice")
        try:
            parsed = [float(v) for v in values.split(",") if v.strip()]
        except ValueError:
            raise _UsageError(f"non-numeric value in axis {name!r}") from None
        if not parsed:
            raise _UsageError(f"axis {name!r} has no values")
        axes[name] = parsed
    return list(axes.items())


def _cmd_sweep(args) -> int:
    params = _resolve_params(args)
    reservoir = _parse_reservoir(args.reservoir)
    axes = _parse_axes(args.axis)
    names = [name for name, _ in axes]
    combos = list(itertools.product(*[values for _, values in axes]))
    points = []
    for combo in combos:
        point = params
        for name, value in zip(names, combo):
            point = _apply_axis(point, name, value)
        # refuse a point _table would refuse before any output exists
        dp = derived_parameters(point)
        if args.quantity == "budget":
            _require_evading_point(dp)
        else:
            require_stable(drift_system(dp).drift)
        points.append(point)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    outputs = []
    for combo, point in zip(combos, points):
        header, columns = _table(args.quantity, point, reservoir, args)
        tag = "_".join(f"{name}-{value:g}" for name, value in zip(names, combo))
        path = outdir / f"sweep_{args.quantity}_{tag}.csv"
        snap = _snapshot(point, reservoir, command="sweep", quantity=args.quantity,
                         **dict(zip(names, combo)))
        _write_csv(path, header, columns, _snapshot_hash(snap))
        outputs.append(path)

    manifest = {
        "command": "sweep",
        "parameters": _snapshot(params),
        "sweep_axes": [[name, values] for name, values in axes],
        "outputs": [{"path": p.name, "sha256": _file_sha256(p)} for p in outputs],
    }
    manifest_path = outdir / "run_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} sweep files and {manifest_path}")
    return 0


def _cmd_verify(args) -> int:
    if args.config:
        params = load_parameters(args.config)
    else:
        params = verification_parameters()
    report = run_verification(params=params, seed=args.seed,
                              psd_tolerance=args.tolerance)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


# --------------------------------------------------------------------------
# figure-dataset reproduction at the reference parameters
# --------------------------------------------------------------------------

_RM_VALUES = (0.0, 0.5, 1.0, 1.5)
_FIG4_KAPPA_FRACTIONS = (0.2, 0.5, 1.0, 2.0)
_FIG5_G_FACTORS = (0.5, 1.0, 1.5, 2.0)
_GRID_POINTS = 1001


def _budget_panel_tables(variants, temperature, kappa_m_ref, panels):
    """Column-per-variant tables of the requested noise-budget fields."""
    omegas = np.linspace(0.0, 5.0 * kappa_m_ref, _GRID_POINTS)
    budgets = [noise_budget_grid(derived_parameters(point), temperature, omegas)
               for _, point in variants]
    return {panel: [omegas / kappa_m_ref] + [getattr(b, panel) for b in budgets]
            for panel in panels}


def _write_panel(outdir, stem, labels, table, snapshot_hash, ylabel, ylog=True):
    csv_path = outdir / f"{stem}.csv"
    _write_csv(csv_path, ["omega_over_kappa_m"] + labels, table, snapshot_hash)
    series = [(label, table[i + 1]) for i, label in enumerate(labels)]
    svg.line_chart(outdir / f"{stem}.svg", table[0], series,
                   title=stem, xlabel="omega / kappa_m", ylabel=ylabel,
                   ylog=ylog)
    return [csv_path, outdir / f"{stem}.svg"]


def _cmd_reproduce(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    fig = args.figure
    written = []

    if fig in ("fig3", "fig4", "fig5"):
        temperature = 0.05
        if fig == "fig3":
            base = baseline_parameters(temperature=temperature)
            variants = [(f"rm_{r:g}", base.with_squeeze_amplitude(r))
                        for r in _RM_VALUES]
        elif fig == "fig4":
            base = baseline_parameters(r_m=1.5, temperature=temperature)
            variants = [(f"kappa_a_{f:g}km",
                         replace(base, kappa_a=f * base.kappa_m))
                        for f in _FIG4_KAPPA_FRACTIONS]
        else:
            base = baseline_parameters(r_m=1.5, temperature=temperature)
            base = replace(base, kappa_a=0.2 * base.kappa_m)
            variants = [(f"g_{f:g}g0", replace(base, g_0=f * base.g_0))
                        for f in _FIG5_G_FACTORS]
        labels = [label for label, _ in variants]
        panels = ("response", "additional_noise") if fig == "fig5" else \
            ("response", "additional_noise", "thermal_noise")
        tables = _budget_panel_tables(variants, temperature, base.kappa_m, panels)
        snap_hash = _snapshot_hash(_snapshot(base, command=f"reproduce-{fig}"))
        for panel in panels:
            written += _write_panel(outdir, f"{fig}_{panel}", labels,
                                    tables[panel], snap_hash, panel)

    elif fig in ("fig6", "fig8"):
        temperature = 280.0
        base = baseline_parameters(temperature=temperature)
        omegas = np.linspace(0.0, 5.0 * base.kappa_m, _GRID_POINTS)
        table = [omegas / base.kappa_m]
        for r in _RM_VALUES:
            dp = derived_parameters(base.with_squeeze_amplitude(r))
            if fig == "fig6":
                table.append(noise_budget_grid(dp, temperature, omegas).sensitivity)
            else:
                table.append(approx_suppressed_sensitivity(dp, temperature, omegas))
        labels = [f"rm_{r:g}" for r in _RM_VALUES]
        stem = f"{fig}_sensitivity" if fig == "fig6" else f"{fig}_suppressed_sensitivity"
        snap_hash = _snapshot_hash(_snapshot(base, command=f"reproduce-{fig}"))
        written += _write_panel(outdir, stem, labels, table, snap_hash,
                                "sensitivity (T/sqrt(Hz))")

    else:  # fig7
        r_m = 1.5
        base = baseline_parameters(r_m=r_m)
        snap_hash = _snapshot_hash(_snapshot(base, command="reproduce-fig7"))
        ratios = np.linspace(0.0, 2.0, 201)
        n_e_ratio = np.array([
            reservoir_occupations(ratio * r_m, math.pi, r_m)[0]
            for ratio in ratios])
        phases = np.linspace(0.0, 2.0, 201)
        n_e_phase = np.array([
            reservoir_occupations(r_m, frac * math.pi, r_m)[0]
            for frac in phases])
        for stem, xlabel, x, n_e in (
                ("fig7_ne_vs_rn", "r_n / r_m", ratios, n_e_ratio),
                ("fig7_ne_vs_phase", "phi_n / pi", phases, n_e_phase)):
            csv_path = outdir / f"{stem}.csv"
            _write_csv(csv_path, (xlabel.replace(" ", ""), "n_e"), [x, n_e], snap_hash)
            svg.line_chart(outdir / f"{stem}.svg", x, [("n_e", n_e)],
                           title=stem, xlabel=xlabel, ylabel="N_e")
            written += [csv_path, outdir / f"{stem}.svg"]

    print(f"wrote {len(written)} files to {outdir}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="magnon-sense",
                     description="Squeezed-magnon magnetometer noise and "
                                 "sensitivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_grid=True):
        p.add_argument("--config", help="parameter file (defaults to the "
                                        "built-in reference set)")
        p.add_argument("--rm", type=float, default=None,
                       help="override the squeeze amplitude r_m")
        p.add_argument("--temp", type=float, default=None,
                       help="override the bath temperature (K)")
        p.add_argument("--reservoir", default=None, metavar="RN,PHI",
                       help="squeezed vacuum reservoir 'r_n,phi_n' (radians)")
        if with_grid:
            p.add_argument("--grid-max", type=_positive_float, default=5.0,
                           help="grid end in units of kappa_m (default 5)")
            p.add_argument("--grid-points", type=_positive_int, default=1001,
                           help="number of grid points (default 1001)")

    p_budget = sub.add_parser("budget", help="noise budget rows over a frequency grid")
    add_common(p_budget)
    p_budget.add_argument("--out", default="budget.csv")
    p_budget.set_defaults(func=_cmd_table)

    p_spectrum = sub.add_parser("spectrum", help="homodyne output spectrum over a grid")
    add_common(p_spectrum)
    p_spectrum.add_argument("--out", default="spectrum.csv")
    p_spectrum.set_defaults(func=_cmd_table)

    p_sweep = sub.add_parser("sweep", help="parameter sweep, one CSV per combination")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", action="append", required=True,
                         metavar="NAME=V1,V2,...",
                         help="sweep axis; repeat for a cartesian product")
    p_sweep.add_argument("--quantity", choices=("budget", "spectrum"),
                         default="budget")
    p_sweep.add_argument("--outdir", default=".")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the stochastic-oracle comparisons")
    p_verify.add_argument("--config", help="parameter file (defaults to the "
                                           "desk-scale verification set)")
    p_verify.add_argument("--seed", type=_non_negative_int, default=42)
    p_verify.add_argument("--tolerance", type=_positive_float, default=0.10,
                          help="relative tolerance for the spectrum "
                               "comparison (default 0.10)")
    p_verify.set_defaults(func=_cmd_verify)

    p_repro = sub.add_parser("reproduce", help="emit figure datasets (CSV + SVG)")
    p_repro.add_argument("figure",
                         choices=("fig3", "fig4", "fig5", "fig6", "fig7", "fig8"))
    p_repro.add_argument("--outdir", default=".")
    p_repro.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ParameterError, PreconditionError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
