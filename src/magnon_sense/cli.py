"""Command-line front end.

Subcommands: ``budget``, ``spectrum``, ``sweep``, ``verify`` and
``reproduce``.  CSV is the canonical output (RFC-4180-style, '.' decimal
separator, scientific notation); SVG charts are convenience renderings of
the same rows.  Every CSV starts with a comment line carrying the sha256
hash of the resolved parameter snapshot, and identical inputs produce
byte-identical files.  Exit codes: 0 success, 1 malformed arguments,
2 invalid parameter file, unusable configuration, a grid or run too large
to allocate or a result that overflows or is undefined, 3 verification
failure.  The field-referred noise of a magnon channel that transduces
nothing is the one infinity written on purpose.
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
    noise_budget_grid,
    output_spectrum,
    input_quadrature_variances,
    approx_suppressed_sensitivity,
)
from .transfer import (
    PoleError,
    SingularResponseError,
    require_evading_point,
    require_stable,
)

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


#: rows formatted per write, so a large grid is never one string
_CSV_BLOCK_ROWS = 2 ** 12

#: 10**k for 0 <= k <= 22, each exact in binary64 (5**22 < 2**53)
_POW10 = np.array([float(10 ** k) for k in range(23)])


def _percent_fields(values):
    """Mantissa digits (one 13-digit integer) and exponent of each value's
    '%.12e', read back from Python's own formatting."""
    mantissa = np.empty(len(values), np.int64)
    exponent = np.empty(len(values), np.int64)
    for i, value in enumerate(values.tolist()):
        digits, _, exp = ("%.12e" % value).lstrip("-").partition("e")
        mantissa[i] = int(digits.replace(".", ""))
        exponent[i] = int(exp)
    return mantissa, exponent


def _ascii_digits(values, width: int):
    """(width, len(values)) ASCII codes of the decimal digits of each value < 10**width."""
    values = values.astype(np.int32)
    quotient = np.empty_like(values)
    digits = np.empty((width, len(values)), np.uint8)
    for i in range(width):
        digits[i] = np.floor_divide(values, 10 ** (width - 1 - i), out=quotient)
    digits[1:] -= 10 * digits[:-1]  # exact modulo 256
    digits += ord("0")
    return digits


def _decimal_fields(values):
    """Mantissa digits (one 13-digit integer) and exponent of each value's
    '%.12e', for a 1-D array of finite values.

    A value a with decimal exponent e is scaled to s = a 10**(12 - e) in
    [1e12, 1e13) by at most two correctly rounded steps with exact powers
    of ten, so s is within 2 ulp of the exact product and rint(s) is the
    correctly rounded 13-digit mantissa unless s lies within 2 ulp of a
    half-integer.  Those values, a scaled value outside [1e12, 1e13 - 1]
    (e off by one next to a power of ten), |12 - e| > 44, zero and the
    subnormals take Python's '%' and are parsed back into the same fields.
    """
    a = np.abs(values)
    normal = a >= sys.float_info.min
    e = np.floor(np.log10(np.where(normal, a, 1.0)))
    k = (12.0 - e).astype(np.int64)
    fast = normal & (np.abs(k) <= 44)
    a = np.where(fast, a, 1e12)  # the others scale to a placeholder
    k[~fast] = 0
    up = k >= 0
    k = np.abs(k)
    k1 = np.minimum(k, 22)
    p1, p2 = _POW10[k1], _POW10[k - k1]
    s = np.where(up, a * p1 * p2, a / p1 / p2)
    r = np.rint(s)
    fast &= (s >= 1e12) & (r < 1e13) & (np.abs(s - r) < 0.5 - 2 * np.spacing(s))
    mantissa = r.astype(np.int64)
    exponent = e.astype(np.int64)
    slow = np.flatnonzero(~fast)
    if len(slow):
        mantissa[slow], exponent[slow] = _percent_fields(values[slow])
    return mantissa, exponent


def _render_rows(block) -> bytes:
    """The rows of a finite 2-D block as '%.12e' CSV lines, byte for byte."""
    n, m = block.shape
    flat = block.ravel()
    mantissa, exponent = _decimal_fields(flat)
    # slots: '-', d, '.', 12 digits, 'e', sign, the exponent's 2 or 3
    # digits and ',' or '\n'; the third exponent slot exists only if a
    # value of the block needs it
    neg = np.signbit(flat)
    big = np.abs(exponent) >= 100
    wide = bool(big.any())
    table = np.empty((len(flat), 20 + wide), np.uint8)
    head = mantissa // 10 ** 6
    leading = _ascii_digits(head, 7)
    table[:, 0] = ord("-")
    table[:, 1] = leading[0]
    table[:, 2] = ord(".")
    table[:, 3:9] = leading[1:].T
    table[:, 9:15] = _ascii_digits(mantissa - head * 10 ** 6, 6).T
    table[:, 15] = ord("e")
    table[:, 16] = np.where(exponent < 0, ord("-"), ord("+"))
    table[:, 17:-1] = _ascii_digits(np.abs(exponent), 2 + wide).T
    table[:, -1] = ord(",")
    table.reshape(n, m, -1)[:, -1, -1] = ord("\n")
    if not neg.any() and big.all() == wide:  # every value drops the '-' slot alone
        return table[:, 1:].tobytes()
    keep = np.ones(table.shape, bool)
    keep[:, 0] = neg
    if wide:
        keep[:, 17] = big
    return table[keep].tobytes()


def _write_csv(path, header, columns, snapshot_hash: str) -> str:
    """Write one CSV and return the sha256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        def write(data: bytes) -> None:
            digest.update(data)
            fh.write(data)

        write(f"# params_sha256={snapshot_hash}\n{','.join(header)}\n".encode("utf-8"))
        table = np.column_stack(columns)
        row = ",".join(["%.12e"] * table.shape[1]) + "\n"
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            if np.isfinite(block).all():
                write(_render_rows(block))
            else:  # inf and nan keep Python's spelling
                write((row * len(block) % tuple(block.ravel().tolist())).encode("ascii"))
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
    if args.config:
        params = load_parameters(args.config)
    else:
        params = baseline_parameters()
    if args.rm is not None:
        params = params.with_squeeze_amplitude(args.rm)
    if args.temp is not None:
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
    if "r_m" in axes and "omega_m_hz" in axes:
        raise _UsageError("sweep axes 'r_m' and 'omega_m_hz' both set the squeeze "
                          "amplitude; give one of them")
    return list(axes.items())


def _cmd_sweep(args) -> int:
    params = _resolve_params(args)
    reservoir = _parse_reservoir(args.reservoir)
    axes = _parse_axes(args.axis)
    names = [name for name, _ in axes]
    combos = list(itertools.product(*[values for _, values in axes]))
    run = dict(command="sweep", quantity=args.quantity, grid_max=args.grid_max,
               grid_points=args.grid_points)
    tags = ["_".join(f"{name}-{value:g}" for name, value in zip(names, combo))
            for combo in combos]
    seen = set()
    for tag in tags:
        if tag in seen:
            raise _UsageError(f"two sweep points would both write "
                              f"sweep_{args.quantity}_{tag}.csv")
        seen.add(tag)
    points = []
    for combo in combos:
        point = params
        for name, value in zip(names, combo):
            point = _apply_axis(point, name, value)
        # refuse a point _table would refuse before any output exists
        dp = derived_parameters(point)
        if args.quantity == "budget":
            require_evading_point(dp)
        else:
            require_stable(dp)
        points.append(point)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    outputs = []
    for combo, point, tag in zip(combos, points, tags):
        header, columns = _table(args.quantity, point, reservoir, args)
        path = outdir / f"sweep_{args.quantity}_{tag}.csv"
        snap = _snapshot(point, reservoir, **run, **dict(zip(names, combo)))
        outputs.append({"path": path.name,
                        "sha256": _write_csv(path, header, columns, _snapshot_hash(snap))})

    manifest = {
        "command": "sweep",
        "parameters": _snapshot(params, reservoir, **run),
        "sweep_axes": [[name, values] for name, values in axes],
        "outputs": outputs,
    }
    manifest_path = outdir / "run_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(outputs)} sweep files and {manifest_path}")
    return 0


def _cmd_verify(args) -> int:
    from .verification import run_verification  # only verify loads the oracle

    params = load_parameters(args.config) if args.config else None
    report = run_verification(params=params, seed=args.seed)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 3


# --------------------------------------------------------------------------
# figure-dataset reproduction at the reference parameters
# --------------------------------------------------------------------------

_RM_VALUES = (0.0, 0.5, 1.0, 1.5)
_GRID_POINTS = 1001
_SENSITIVITY = "sensitivity (T/sqrt(Hz))"
_NOISE_COLUMNS = ("response", "additional_noise", "thermal_noise")

#: figure -> (file stem, column of each variant's evaluation, y label) per panel
_PANELS = {
    "fig3": [(f"fig3_{column}", column, column) for column in _NOISE_COLUMNS],
    "fig4": [(f"fig4_{column}", column, column) for column in _NOISE_COLUMNS],
    "fig5": [(f"fig5_{column}", column, column) for column in _NOISE_COLUMNS[:2]],
    "fig6": [("fig6_sensitivity", "sensitivity", _SENSITIVITY)],
    "fig8": [("fig8_suppressed_sensitivity", "sensitivity", _SENSITIVITY)],
}


def _variants(fig: str) -> tuple[SystemParameters, list]:
    """Base parameters of ``fig`` and the (column label, parameters) of its curves."""
    base = baseline_parameters(temperature=280.0 if fig in ("fig6", "fig8") else 0.05)
    if fig == "fig4":
        return base, [(f"kappa_a_{f:g}km", replace(base, kappa_a=f * base.kappa_m))
                      for f in (0.2, 0.5, 1.0, 2.0)]
    if fig == "fig5":
        base = replace(base, kappa_a=0.2 * base.kappa_m)
        return base, [(f"g_{f:g}g0", replace(base, g_0=f * base.g_0))
                      for f in (0.5, 1.0, 1.5, 2.0)]
    return base, [(f"rm_{r:g}", base.with_squeeze_amplitude(r)) for r in _RM_VALUES]


def _evaluate(fig: str, params: SystemParameters, omegas) -> dict:
    """Columns of one figure variant, keyed as the panels name them."""
    dp = derived_parameters(params)
    if fig == "fig8":
        return {"sensitivity": approx_suppressed_sensitivity(dp, params.temperature, omegas)}
    return vars(noise_budget_grid(dp, params.temperature, omegas))


def _write_panel(outdir, stem, xheader, xlabel, x, series, ylabel, ylog, snapshot_hash):
    csv_path = outdir / f"{stem}.csv"
    _write_csv(csv_path, [xheader] + [label for label, _ in series],
               [x] + [y for _, y in series], snapshot_hash)
    svg.line_chart(outdir / f"{stem}.svg", x, series, title=stem, xlabel=xlabel,
                   ylabel=ylabel, ylog=ylog)
    return [csv_path, outdir / f"{stem}.svg"]


def _cmd_reproduce(args) -> int:
    fig = args.figure
    if fig == "fig7":  # N_e = (tr V - 1)/2 of the vacuum-bath magnon input
        r_m = 1.5
        base = baseline_parameters(r_m=r_m)
        x = np.linspace(0.0, 2.0, 201)
        panels = []
        for stem, xlabel, reservoirs in (
                ("fig7_ne_vs_rn", "r_n / r_m",
                 [SqueezedReservoir(f * r_m, math.pi) for f in x]),
                ("fig7_ne_vs_phase", "phi_n / pi",
                 [SqueezedReservoir(r_m, f * math.pi) for f in x])):
            n_e = [(np.trace(input_quadrature_variances(r_m, 0.0, reservoir)) - 1.0) / 2.0
                   for reservoir in reservoirs]
            panels.append((stem, xlabel.replace(" ", ""), xlabel, x,
                           [("n_e", np.array(n_e))], "N_e", False))
    else:
        base, variants = _variants(fig)
        omegas = np.linspace(0.0, 5.0 * base.kappa_m, _GRID_POINTS)
        columns = [_evaluate(fig, point, omegas) for _, point in variants]
        panels = [(stem, "omega_over_kappa_m", "omega / kappa_m", omegas / base.kappa_m,
                   [(label, c[column]) for (label, _), c in zip(variants, columns)],
                   ylabel, True)
                  for stem, column, ylabel in _PANELS[fig]]
    snap_hash = _snapshot_hash(_snapshot(base, command=f"reproduce-{fig}"))
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []
    for panel in panels:
        written += _write_panel(outdir, *panel, snap_hash)
    print(f"wrote {len(written)} files to {outdir}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="magnon-sense",
                     description="Squeezed-magnon magnetometer noise and "
                                 "sensitivity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="parameter file (defaults to the "
                                        "built-in reference set)")
        p.add_argument("--rm", type=float, default=None,
                       help="override the squeeze amplitude r_m")
        p.add_argument("--temp", type=float, default=None,
                       help="override the bath temperature (K)")
        p.add_argument("--reservoir", default=None, metavar="RN,PHI",
                       help="squeezed vacuum reservoir 'r_n,phi_n' (radians)")
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
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, ParameterError, PreconditionError, ConfigurationError,
            PoleError, SingularResponseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(f"error: result is not finite: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
