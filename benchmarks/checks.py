"""Checks of the program's outputs against the closed forms in ``reference``.

Each ``check_*`` function raises :class:`CheckError` with a one-line reason
when an output is wrong and returns quietly otherwise.  Expected values are
never stored copies of earlier output: they are recomputed from the
benchmark's own physics and from the inputs the benchmark generated.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

import reference as ref

#: relative tolerance for every CSV cell; the files carry 13 significant digits
CSV_RTOL = 1e-9

#: family-wise false-alarm rate of the trace-covariance test, per tone-free
#: trace; a run with at most ten such traces stays at or below 1e-6
TRACE_ALPHA = 1e-7

_SVG = "{http://www.w3.org/2000/svg}"

RM_VALUES = (0.0, 0.5, 1.0, 1.5)
GRID_POINTS = 1001


class CheckError(AssertionError):
    """An output of the program disagrees with the benchmark's expectation."""


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Columns and values of a CSV the program wrote (hash line first)."""
    with open(path, encoding="utf-8") as fh:
        first = fh.readline()
        if not re.fullmatch(r"# params_sha256=[0-9a-f]{64}\n", first):
            raise CheckError(f"{path.name}: missing params_sha256 line")
        columns = fh.readline().rstrip("\n").split(",")
        rows = [line.split(",") for line in fh.read().splitlines()]
    if not rows or any(len(r) != len(columns) for r in rows):
        raise CheckError(f"{path.name}: no rows or ragged rows")
    return columns, np.array(rows, dtype=float)


def _close(name: str, got: np.ndarray, want: np.ndarray, rtol: float,
           atol: np.ndarray | float = 0.0) -> None:
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    err = np.abs(got - want)
    bad = ~(err <= rtol * np.abs(want) + atol)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise CheckError(f"{name}: row {i} reads {got[i]!r}, expected {want[i]!r}")


def check_table(path: Path, expected: dict, atol: dict | None = None) -> None:
    """Every cell of ``path`` against ``expected`` (column name -> values)."""
    columns, data = read_csv(path)
    if columns != list(expected):
        raise CheckError(f"{path.name}: columns {columns}, expected {list(expected)}")
    n = len(next(iter(expected.values())))
    if data.shape[0] != n:
        raise CheckError(f"{path.name}: {data.shape[0]} rows, expected {n}")
    for j, (col, want) in enumerate(expected.items()):
        _close(f"{path.name}:{col}", data[:, j], want, CSV_RTOL,
               (atol or {}).get(col, 0.0))


def check_svg(path: Path, labels: list[str]) -> None:
    """The chart parses as SVG and draws one labelled series per column."""
    try:
        root = ET.parse(path).getroot()
    except (ET.ParseError, OSError) as exc:
        raise CheckError(f"{path.name}: not parseable XML ({exc})") from None
    if root.tag != _SVG + "svg":
        raise CheckError(f"{path.name}: root element is {root.tag}")
    lines = root.findall(_SVG + "polyline")
    texts = [t.text for t in root.findall(_SVG + "text")]
    if len(lines) != len(labels) or any(label not in texts for label in labels):
        raise CheckError(f"{path.name}: {len(lines)} series, expected the "
                         f"{len(labels)} columns {labels}")


def check_manifest(outdir: Path, expected_names: list[str], axes: list) -> None:
    """run_manifest.json lists exactly the expected files with true hashes."""
    try:
        manifest = json.loads((outdir / "run_manifest.json").read_text())
        outputs = manifest["outputs"]
        names = [entry["path"] for entry in outputs]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckError(f"{outdir.name}: unreadable manifest ({exc})") from None
    if sorted(names) != sorted(expected_names):
        raise CheckError(f"{outdir.name}: manifest lists {len(names)} files, "
                         f"expected {len(expected_names)}")
    if manifest.get("sweep_axes") != axes:
        raise CheckError(f"{outdir.name}: manifest axes {manifest.get('sweep_axes')}")
    for entry in outputs:
        digest = hashlib.sha256((outdir / entry["path"]).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            raise CheckError(f"{outdir.name}: sha256 of {entry['path']} does not match")


# ---------------------------------------------------------------------------
# figures: the documented reference-set datasets
# ---------------------------------------------------------------------------

def _grid() -> np.ndarray:
    return np.linspace(0.0, 5.0 * ref.REFERENCE["kappa_m"], GRID_POINTS)


def _variants(fig: str) -> tuple[float, list[tuple[str, dict]]]:
    """Temperature and (column label, budget arguments) of a figure panel."""
    r = ref.REFERENCE
    base = {"r_m": 1.5, "kappa_a": r["kappa_a"], "kappa_m": r["kappa_m"],
            "g_0": r["g_0"]}
    if fig in ("fig3", "fig6", "fig8"):
        variants = [(f"rm_{v:g}", {**base, "r_m": v}) for v in RM_VALUES]
    elif fig == "fig4":
        variants = [(f"kappa_a_{f:g}km", {**base, "kappa_a": f * r["kappa_m"]})
                    for f in (0.2, 0.5, 1.0, 2.0)]
    elif fig == "fig5":
        variants = [(f"g_{f:g}g0", {**base, "kappa_a": 0.2 * r["kappa_m"],
                                     "g_0": f * r["g_0"]})
                    for f in (0.5, 1.0, 1.5, 2.0)]
    else:
        raise ValueError(fig)
    return (280.0 if fig in ("fig6", "fig8") else 0.05), variants


_PANELS = {
    "fig3": [("fig3_response", "response"),
             ("fig3_additional_noise", "additional_noise"),
             ("fig3_thermal_noise", "thermal_noise")],
    "fig4": [("fig4_response", "response"),
             ("fig4_additional_noise", "additional_noise"),
             ("fig4_thermal_noise", "thermal_noise")],
    "fig5": [("fig5_response", "response"),
             ("fig5_additional_noise", "additional_noise")],
    "fig6": [("fig6_sensitivity", "sensitivity_t_per_sqrt_hz")],
    "fig8": [("fig8_suppressed_sensitivity", "suppressed_sensitivity")],
}


def fig7_expected() -> dict:
    """N_e along both fig7 cuts, from the product of Bogoliubov matrices."""
    r_m = 1.5
    x = np.linspace(0.0, 2.0, 201)
    cuts = {"fig7_ne_vs_rn": ("r_n/r_m", [(f * r_m, math.pi) for f in x]),
            "fig7_ne_vs_phase": ("phi_n/pi", [(r_m, f * math.pi) for f in x])}
    out = {}
    for stem, (xname, points) in cuts.items():
        n_e = np.array([abs(ref.reservoir_modes(rn, phi, r_m)[1]) ** 2
                        for rn, phi in points])
        # near the null at r_n = r_m, phi_n = pi the printed value is a
        # difference of O(cosh^2 r_n cosh^2 r_m) terms
        scale = np.array([(math.cosh(rn) * math.cosh(r_m)) ** 2
                          for rn, _ in points])
        out[stem] = ({xname: x, "n_e": n_e}, {"n_e": CSV_RTOL * scale})
    return out


def check_figure(outdir: Path, fig: str) -> None:
    """All CSVs and SVGs of ``reproduce <fig>``."""
    if fig == "fig7":
        for stem, (expected, atol) in fig7_expected().items():
            check_table(outdir / f"{stem}.csv", expected, atol=atol)
            check_svg(outdir / f"{stem}.svg", ["n_e"])
        return
    temperature, variants = _variants(fig)
    w = _grid()
    tables = [ref.budget_columns(w, temperature=temperature, **kw)
              for _, kw in variants]
    labels = [label for label, _ in variants]
    for stem, column in _PANELS[fig]:
        expected = {"omega_over_kappa_m": w / ref.REFERENCE["kappa_m"]}
        expected.update((label, t[column]) for label, t in zip(labels, tables))
        check_table(outdir / f"{stem}.csv", expected)
        check_svg(outdir / f"{stem}.svg", labels)


BUDGET_COLUMNS = ("omega_rad_s", "omega_over_kappa_m", "response",
                  "additional_noise", "thermal_noise", "s_out",
                  "s_bnoise_t2_per_hz", "sensitivity_t_per_sqrt_hz")


def check_budget(path: Path, r_m: float, temperature: float,
                 kappa_a: float = ref.REFERENCE["kappa_a"]) -> None:
    """A ``budget`` CSV (or a budget-sweep file) on the default grid."""
    r = ref.REFERENCE
    w = _grid()
    cols = ref.budget_columns(w, r_m=r_m, kappa_a=kappa_a, kappa_m=r["kappa_m"],
                              g_0=r["g_0"], temperature=temperature)
    check_table(path, {c: cols[c] for c in BUDGET_COLUMNS})


def check_spectrum(path: Path, r_m: float, temperature: float, reservoir,
                   kappa_a: float = ref.REFERENCE["kappa_a"],
                   delta_a: float = 0.0, delta_0p: float = 0.0) -> None:
    """A ``spectrum`` CSV against the benchmark's own Langevin solve."""
    r = ref.REFERENCE
    w = _grid()
    a = ref.drift(kappa_a, r["kappa_m"], r["g_0"] * math.exp(r_m),
                  delta_a, delta_0p)
    noise = ref.input_covariance(
        ref.magnon_input(r_m, ref.bose(r["omega_0"], temperature), reservoir),
        ref.bose(r["omega_a"], temperature) + 0.5)
    s_out = ref.output_spectrum(w, a, kappa_a, r["kappa_m"], noise)
    check_table(path, {"omega_rad_s": w,
                       "omega_over_kappa_m": w / r["kappa_m"],
                       "s_out": s_out})


# ---------------------------------------------------------------------------
# oracle: the printed report of ``verify``
# ---------------------------------------------------------------------------

#: the desk-scale set ``verify`` documents; its gain check runs at r_m = 1
VERIFY_SET = {"kappa_a": ref.TWO_PI * 16.5, "kappa_m": ref.TWO_PI * 15.0,
              "g_0": ref.TWO_PI * 6.0, "gain_r_m": 1.0}

_CHECK_LINE = re.compile(
    r"^(\S+)\s+(PASS|FAIL)\s+value=(\S+)\s+tol=(\S+)\s+(.*)$")
_K4 = re.compile(r"authoritative \|K4\(0\)\| = ([0-9.eE+-]+), "
                 r"closed form \|K4\(0\)\| = ([0-9.eE+-]+)")
_GAIN = re.compile(r"empirical (\S+) vs analytic (\S+) at delta = (\S+) kappa_m")


def parse_verify(stdout: str) -> dict:
    """Check name -> (passed, detail) from the printed report."""
    checks = {}
    for line in stdout.splitlines():
        m = _CHECK_LINE.match(line)
        if m:
            checks[m.group(1)] = (m.group(2) == "PASS", m.group(5))
    return checks


def _printed_tolerance(text: str) -> float:
    """Half a unit in the last place of a number printed with %.4g."""
    value = abs(float(text))
    return 0.5 * 10.0 ** (math.floor(math.log10(value)) - 3) if value else 0.0


def check_verify(stdout: str, code: int, seed: int) -> None:
    """Exit code, failing checks, |K4(0)| and the analytic gains."""
    checks = parse_verify(stdout)
    failing = sorted(name for name, (ok, _) in checks.items() if not ok)
    if f"verification seed={seed}" not in stdout.splitlines()[:1]:
        raise CheckError(f"verify --seed {seed}: report does not start with its seed")
    # the max-of-10 Lyapunov statistic has no stated false-alarm rate; at
    # seed 1 its decoupled case reads 3.32 against 3, which is the one
    # failure this workload expects
    allowed = {1: ["lyapunov_decoupled"]}.get(seed, [])
    if code not in (0, 3) or (code == 3) != bool(failing) or \
            any(name not in allowed for name in failing):
        raise CheckError(f"verify --seed {seed}: exit {code}, failing {failing}")
    m = _K4.search(checks.get("k4_dc_discrepancy", (None, ""))[1])
    if not m or abs(float(m.group(1)) - 1.0) > 1e-9 or abs(float(m.group(2)) - 3.0) > 1e-9:
        raise CheckError(f"verify --seed {seed}: |K4(0)| values not 1 and 3")
    v = VERIFY_SET
    gains = [(name, _GAIN.search(detail)) for name, (_, detail) in checks.items()
             if name.startswith("gain_")]
    if len(gains) != 3 or not all(g for _, g in gains):
        raise CheckError(f"verify --seed {seed}: expected three gain lines")
    for name, g in gains:
        delta = float(g.group(3)) * v["kappa_m"]
        want = ref.budget_columns([delta], r_m=v["gain_r_m"], kappa_a=v["kappa_a"],
                                  kappa_m=v["kappa_m"], g_0=v["g_0"],
                                  temperature=0.05)["response"][0]
        if abs(float(g.group(2)) - want) > _printed_tolerance(g.group(2)):
            raise CheckError(f"verify --seed {seed}: {name} analytic gain "
                             f"{g.group(2)}, expected {want:.6g}")


# ---------------------------------------------------------------------------
# oracle traces: sample covariance against the exact discrete-time target
# ---------------------------------------------------------------------------

def expected_sample_covariance(a: np.ndarray, dt: float, n_samples: int,
                               kappa_a: float, kappa_m: float,
                               noise: np.ndarray) -> np.ndarray:
    """Expectation of one trajectory's ``np.cov`` of its stationary record.

    V solves V = S V S^T + Sigma exactly for the Euler-Maruyama map.  Taking
    out the record's own mean removes Cov(mean), which for n samples of a
    stationary AR(1) process is (1/n) [(I-S)^-1 V + V (I-S)^-T - V] up to
    O((tau/n)^2); np.cov then rescales by n/(n-1).
    """
    v = ref.discrete_stationary_covariance(a, dt, kappa_a, kappa_m, noise)
    resolvent = np.linalg.inv(-a * dt)       # (I - S)^-1
    cov_mean = (resolvent @ v + v @ resolvent.T - v) / n_samples
    return (v - cov_mean) * n_samples / (n_samples - 1)


def check_trace(quadratures: np.ndarray, target: np.ndarray,
                label: str) -> tuple[float, float]:
    """Largest |t| of a trace's 10 covariance entries, and its bound.

    Each entry's t statistic is taken over the trajectories' sample
    covariances and tested two-sided at TRACE_ALPHA / 10 (Bonferroni).
    Raises when an entry lies beyond the bound.
    """
    from scipy import stats

    covs = np.stack([np.cov(q.T) for q in quadratures])
    n = covs.shape[0]
    iu = np.triu_indices(4)
    se = covs.std(axis=0, ddof=1)[iu] / math.sqrt(n)
    worst = float(np.max(np.abs(covs.mean(axis=0)[iu] - target[iu]) / se))
    bound = float(stats.t.isf(TRACE_ALPHA / (2 * 10), n - 1))
    if not worst <= bound:
        raise CheckError(f"{label}: covariance entry {worst:.3g} standard errors "
                         f"from the discrete-time target (bound {bound:.3g})")
    return worst, bound
