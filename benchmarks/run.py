"""End-to-end and per-layer benchmark of magnon-sense.

    python3 benchmarks/run.py --workload oracle|figures|sweep \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is used from ``src/`` of
that checkout.  Every command runs in its own process, as a user runs it,
and the run repeats whole rounds of its workload's commands until
``--seconds`` have passed.  Afterwards every output is checked against
values computed by ``reference.py`` from the inputs the benchmark
generated.  With ``--trace 1`` the same commands run through ``cli.main``
in this process, with every public function of the package's layers
wrapped, and the per-layer metrics are reported instead.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference as ref  # noqa: E402

#: fresh-interpreter imports per run; setup_s is their median
SETUP_SAMPLES = 3

_IMPORT_PROBE = ("import time; t0 = time.perf_counter(); import magnon_sense.cli as c; "
                 "print(repr(time.perf_counter() - t0)); print(c.__file__)")

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7", "fig8")
PI = repr(math.pi)

_CHECK_FAILURES = (checks.CheckError, OSError, ValueError, KeyError, IndexError)


@dataclass
class Op:
    """One command of a workload and the check of what it wrote or printed."""

    name: str
    argv: Callable[[Path], list[str]]            # output directory -> CLI arguments
    check: Callable[[Path, str, int], None]      # (output directory, stdout, exit code)
    checks_failure: bool = False                 # check the report of a failed run too


def _num(value: float) -> str:
    return f"{value:.4g}"


def _distinct(draw: Callable[[], str], n: int) -> list[str]:
    values: list[str] = []
    while len(values) < n:
        v = draw()
        if all(float(v) != float(w) for w in values):
            values.append(v)
    return values


def oracle_ops(rng: random.Random) -> list[Op]:
    """verify at seeds 42 and 1; fixed inputs, so the seed-1 failure repeats."""
    def op(seed: int) -> Op:
        return Op(f"verify --seed {seed}",
                  lambda out: ["verify", "--seed", str(seed)],
                  lambda out, stdout, code: checks.check_verify(stdout, code, seed),
                  checks_failure=True)
    return [op(42), op(1)]


def figures_ops(rng: random.Random) -> list[Op]:
    """reproduce fig3..fig8, budget and spectrum on the reference set."""
    ops = [Op(f"reproduce {fig}",
              lambda out, fig=fig: ["reproduce", fig, "--outdir", str(out)],
              lambda out, stdout, code, fig=fig: checks.check_figure(out, fig))
           for fig in FIGURES]
    rm, temp = _num(rng.uniform(0.2, 2.0)), _num(10 ** rng.uniform(-1.3, 2.5))
    ops.append(Op("budget",
                  lambda out: ["budget", "--rm", rm, "--temp", temp,
                               "--out", str(out / "budget.csv")],
                  lambda out, stdout, code: checks.check_budget(
                      out / "budget.csv", float(rm), float(temp))))
    rm2, temp2 = _num(rng.uniform(0.2, 2.0)), _num(10 ** rng.uniform(-1.3, 2.5))
    ops.append(Op("spectrum",
                  lambda out: ["spectrum", "--rm", rm2, "--temp", temp2,
                               "--reservoir", f"{rm2},{PI}",
                               "--out", str(out / "spectrum.csv")],
                  lambda out, stdout, code: checks.check_spectrum(
                      out / "spectrum.csv", float(rm2), float(temp2),
                      (float(rm2), math.pi))))
    return ops


def _sweep_op(name: str, quantity: str, axes: list[tuple[str, list[str]]],
              extra: list[str], check_point: Callable[[Path, dict], None]) -> Op:
    def argv(out: Path) -> list[str]:
        args = ["sweep", "--quantity", quantity, *extra, "--outdir", str(out)]
        for axis, values in axes:
            args += ["--axis", f"{axis}={','.join(values)}"]
        return args

    def check(out: Path, stdout: str, code: int) -> None:
        names, points = [], []
        for combo in itertools.product(*[values for _, values in axes]):
            point = {axis: float(v) for (axis, _), v in zip(axes, combo)}
            tag = "_".join(f"{axis}-{value:g}" for axis, value in point.items())
            names.append(f"sweep_{quantity}_{tag}.csv")
            points.append(point)
        checks.check_manifest(out, names, [[a, [float(v) for v in vals]]
                                           for a, vals in axes])
        for fname, point in zip(names, points):
            check_point(out / fname, point)

    return Op(name, argv, check)


def sweep_ops(rng: random.Random) -> list[Op]:
    """A 180-point budget sweep and two detuned 64-point spectrum sweeps."""
    km_hz = ref.REFERENCE["kappa_m"] / ref.TWO_PI
    kappa_a = lambda: _num(rng.uniform(0.2, 4.0) * km_hz)  # noqa: E731
    budget_axes = [
        ("r_m", _distinct(lambda: f"{rng.randrange(0, 41) * 0.05:g}", 6)),
        ("kappa_a_hz", _distinct(kappa_a, 6)),
        ("temperature_k", _distinct(lambda: _num(10 ** rng.uniform(-1.5, 2.5)), 5)),
    ]
    ops = [_sweep_op("sweep budget r_m x kappa_a x T", "budget", budget_axes, [],
                     lambda path, p: checks.check_budget(
                         path, p["r_m"], p["temperature_k"],
                         kappa_a=ref.TWO_PI * p["kappa_a_hz"]))]
    # one detuning per sweep: with both nonzero at g'/kappa_m ~ 750 the
    # drift is unstable and a stationary spectrum does not exist
    temp = _num(10 ** rng.uniform(0.0, 2.5))
    nulling = ["--rm", "1.5", "--temp", temp, "--reservoir", f"1.5,{PI}"]
    for detuning in ("delta_a_hz", "delta_0p_hz"):
        axes = [(detuning, _distinct(
                    lambda: _num(rng.choice((-1, 1)) * rng.uniform(0.2, 3.0) * km_hz), 8)),
                ("kappa_a_hz", _distinct(kappa_a, 8))]
        ops.append(_sweep_op(
            f"sweep spectrum {detuning} x kappa_a", "spectrum", axes, nulling,
            lambda path, p: checks.check_spectrum(
                path, 1.5, float(temp), (1.5, math.pi),
                kappa_a=ref.TWO_PI * p["kappa_a_hz"],
                delta_a=ref.TWO_PI * p.get("delta_a_hz", 0.0),
                delta_0p=ref.TWO_PI * p.get("delta_0p_hz", 0.0))))
    return ops


#: workload -> (operations, whether one round's processes run at once)
WORKLOADS = {
    "oracle": (oracle_ops, True),
    "figures": (figures_ops, False),
    "sweep": (sweep_ops, False),
}

#: the README's name for the wall time a user of each workload sees
NAMES = {"figures": "figures_s", "sweep": "sweep_s"}


# ---------------------------------------------------------------------------
# processes
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("MAGNON_SENSE_THREADS", None)  # the sweep runs at its default
    return env


def _run_processes(commands: list[tuple[list[str], Path]], concurrent: bool) -> list[dict]:
    """Run commands (args, cwd), one after another or all at once.

    Returns per command its exit code, wall seconds and peak RSS (MiB, from
    wait4), in order.  Output goes to stdout.txt/stderr.txt in its cwd.
    """
    env = _child_env()
    results: list[dict] = [{} for _ in commands]
    batches = [list(range(len(commands)))] if concurrent else [[i] for i in range(len(commands))]
    for batch in batches:
        pending = {}
        for i in batch:
            args, cwd = commands[i]
            cwd.mkdir(parents=True, exist_ok=True)
            with open(cwd / "stdout.txt", "w") as out, open(cwd / "stderr.txt", "w") as err:
                start = time.perf_counter()
                proc = subprocess.Popen(args, cwd=cwd, env=env, stdout=out, stderr=err)
            pending[proc.pid] = (i, proc, start)
        while pending:
            pid, status, usage = os.wait4(-1, 0)
            end = time.perf_counter()
            if pid not in pending:
                continue
            i, proc, start = pending.pop(pid)
            proc.returncode = os.waitstatus_to_exitcode(status)
            results[i] = {"code": proc.returncode, "wall": end - start,
                          "rss_mb": usage.ru_maxrss / 1024.0}
    return results


def _measure_setup(work: Path, importtime: bool) -> tuple[list[dict], list[str]]:
    """Fresh-interpreter imports of magnon_sense.cli from this checkout."""
    flags = ["-X", "importtime"] if importtime else []
    cmds = [([sys.executable, *flags, "-c", _IMPORT_PROBE], work / f"setup{i}")
            for i in range(SETUP_SAMPLES)]
    results = _run_processes(cmds, concurrent=False)
    for res, (_, cwd) in zip(results, cmds):
        lines = (cwd / "stdout.txt").read_text().split("\n")
        if res["code"] != 0 or Path(lines[1]).resolve() != SRC / "magnon_sense" / "cli.py":
            raise RuntimeError(f"cannot import magnon_sense.cli from {SRC}: "
                               + (cwd / "stderr.txt").read_text()[-400:])
        res["import_s"] = float(lines[0])
    return results, [(cwd / "stderr.txt").read_text() for _, cwd in cmds]


def _importtime_self(stderr: str) -> dict[str, float]:
    """Self seconds per top-level package from ``-X importtime`` output."""
    totals = {"numpy": 0.0, "scipy": 0.0, "magnon_sense": 0.0}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m and m.group(2).split(".")[0] in totals:
            totals[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
    return totals


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------

def _check_round(ops: list[Op], outdirs: list[Path], stdouts: list[str],
                 codes: list[int], errors: list[str]) -> int:
    """Check one round's outputs; returns the number of failed commands."""
    failed = 0
    for op, out, stdout, code in zip(ops, outdirs, stdouts, codes):
        failed += code != 0
        if code != 0 and not op.checks_failure:
            continue
        try:
            op.check(out, stdout, code)
        except _CHECK_FAILURES as exc:
            errors.append(f"{op.name}: {exc}")
    return failed


def _rounds(seconds: float, run_round: Callable[[int], None]) -> int:
    start = time.perf_counter()
    n = 0
    while True:
        run_round(n)
        n += 1
        if time.perf_counter() - start >= seconds:
            return n


def run_untraced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    make_ops, concurrent = WORKLOADS[workload]
    ops = make_ops(random.Random(seed))
    setup, _ = _measure_setup(work, importtime=False)
    rss = [r["rss_mb"] for r in setup]
    walls, per_op, outcomes = [], [], []  # per round

    def run_round(k: int) -> None:
        outdirs = [work / f"round{k}" / f"op{i}" for i in range(len(ops))]
        cmds = [([sys.executable, "-m", "magnon_sense", *op.argv(out)], out)
                for op, out in zip(ops, outdirs)]
        start = time.perf_counter()
        results = _run_processes(cmds, concurrent)
        walls.append(time.perf_counter() - start)
        per_op.append([r["wall"] for r in results])
        rss.extend(r["rss_mb"] for r in results)
        outcomes.append((outdirs, [r["code"] for r in results]))

    rounds = _rounds(seconds, run_round)
    errors: list[str] = []
    failed = 0
    for outdirs, codes in outcomes:
        stdouts = [(out / "stdout.txt").read_text() for out in outdirs]
        failed += _check_round(ops, outdirs, stdouts, codes, errors)
        shutil.rmtree(outdirs[0].parent, ignore_errors=True)

    setup_s = statistics.median(r["import_s"] for r in setup)
    wall_s = statistics.median(walls)
    peak = max(rss)
    op_walls = [statistics.median(col) for col in zip(*per_op)]
    print(f"workload {workload}, seed {seed}: {rounds} round(s), "
          f"{rounds * len(ops)} commands attempted, {failed} failed")
    print(f"  {'wall_s':<12} {wall_s:.4f} s  (one round, "
          f"{'processes at once' if concurrent else 'one process after another'})")
    if workload == "oracle":
        print(f"  {'verify_s':<12} {statistics.median(op_walls):.4f} s  "
              "(one verify process, median of the two)")
    else:
        print(f"  {NAMES[workload]:<12} {wall_s:.4f} s  (= wall_s)")
    print(f"  {'setup_s':<12} {setup_s:.4f} s  (import magnon_sense.cli, "
          f"median of {SETUP_SAMPLES})")
    print(f"  {'peak_rss_mb':<12} {peak:.1f} MB")
    for op, wall, code in zip(ops, op_walls, outcomes[-1][1]):
        print(f"    {wall:8.3f} s  exit {code}  {op.name}")
    for err in errors:
        print(f"  WRONG OUTPUT {err}")
    return {
        "correct": not errors,
        "attempted": rounds * len(ops),
        "failed": failed,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall_s, "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        },
    }


_SIMULATE_ARGS = ("dp", "temperature", "cfg", "reservoir", "signal",
                  "magnon_variances", "cavity_variance")


def _install_hooks(tracer, trace_checks: list, errors: list[str]) -> None:
    import numpy as np

    def simulate(tr, args, kwargs, trace):
        call = dict(zip(_SIMULATE_ARGS, args), **kwargs)
        cfg, dp, temperature = call["cfg"], call["dp"], call["temperature"]
        steps = round(cfg.burn_in / cfg.dt) + round(cfg.duration / cfg.dt)
        tr.count("simulate.traj_steps", cfg.n_trajectories * steps)
        tr.count("simulate.output_mb", (trace.times.nbytes + trace.quadratures.nbytes
                                        + trace.output_record.nbytes) / 1e6)
        if call.get("signal") is not None:
            return
        mv, res = call.get("magnon_variances"), call.get("reservoir")
        magnon = (np.array([[mv.v_x, mv.c_xp], [mv.c_xp, mv.v_p]]) if mv is not None
                  else ref.magnon_input(dp.r_m, ref.bose(dp.omega_0, temperature),
                                        None if res is None else (res.r_n, res.phi_n)))
        cavity = call.get("cavity_variance")
        if cavity is None:
            cavity = ref.bose(dp.omega_a, temperature) + 0.5
        a = ref.drift(dp.kappa_a, dp.kappa_m, dp.g_prime, dp.delta_a, dp.delta_0p)
        target = checks.expected_sample_covariance(
            a, cfg.dt, trace.n_samples, dp.kappa_a, dp.kappa_m,
            ref.input_covariance(magnon, cavity))
        label = f"simulate r_m={dp.r_m:g} seed={cfg.seed} ({len(trace_checks) + 1})"
        try:
            trace_checks.append((label, *checks.check_trace(trace.quadratures, target, label)))
        except checks.CheckError as exc:
            errors.append(str(exc))

    tracer.hooks.update({
        "simulation.simulate": simulate,
        "transfer.response_grid": lambda tr, a, k, r: tr.count(
            "response_grid.points", float(np.size(r[0]))),
        "spectra.noise_budget_grid": lambda tr, a, k, r: tr.count(
            "noise_budget_grid.rows", len(r)),
        "spectra.output_spectrum": lambda tr, a, k, r: tr.count(
            "output_spectrum.points", float(np.size(r))),
        "simulation.estimate_psd": lambda tr, a, k, r: tr.count(
            "estimate_psd.samples", float((a[0] if a else k["trace"]).output_record.size)),
        "svg.line_chart": lambda tr, a, k, r: tr.count(
            "line_chart.mb", os.path.getsize(a[0] if a else k["path"]) / 1e6),
    })


def run_traced(workload: str, seed: int, seconds: float, work: Path) -> dict:
    from tracer import CHECK_SPAN, Tracer, layer_times, span_cost, verification_phases

    make_ops, _ = WORKLOADS[workload]
    ops = make_ops(random.Random(seed))
    setup, importtimes = _measure_setup(work, importtime=True)
    sys.path.insert(0, str(SRC))
    import magnon_sense.cli
    if Path(magnon_sense.cli.__file__).resolve() != SRC / "magnon_sense" / "cli.py":
        raise RuntimeError(f"magnon_sense was not imported from {SRC}")

    tracer = Tracer()
    tracer.install()
    errors: list[str] = []
    trace_checks: list = []
    _install_hooks(tracer, trace_checks, errors)
    failed, wall, csv_mb, sweep_points = 0, 0.0, 0.0, 0.0

    def run_round(k: int) -> None:
        nonlocal failed, wall, csv_mb, sweep_points
        outdirs = [work / f"round{k}" / f"op{i}" for i in range(len(ops))]
        stdouts, codes = [], []
        for op, out in zip(ops, outdirs):
            out.mkdir(parents=True)
            buf, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = magnon_sense.cli.main(op.argv(out))
                except Exception:  # a traceback is the command failing
                    traceback.print_exc()
                    code = 1
            wall += time.perf_counter() - start
            stdouts.append(buf.getvalue())
            codes.append(code)
            csv_mb += sum(p.stat().st_size for p in out.rglob("*.csv")) / 1e6
            if op.argv(out)[0] == "sweep":
                sweep_points += len(list(out.glob("sweep_*.csv")))
        failed += _check_round(ops, outdirs, stdouts, codes, errors)
        shutil.rmtree(outdirs[0].parent, ignore_errors=True)

    rounds = _rounds(seconds, run_round)
    spans = tracer.spans
    times = layer_times(spans)
    phases = verification_phases(spans)
    check_s = times.get(CHECK_SPAN, {}).get("s", 0.0)
    cost = span_cost()

    def t(name: str, key: str) -> float:
        return times.get(name, {}).get(key, 0.0) / rounds

    def c(key: str) -> float:
        return tracer.counts.get(key, 0.0) / rounds

    sim_s = t("simulation.simulate", "s")
    values = {
        "setup.import_numpy_s": ("s", "numpy"),
        "setup.import_scipy_s": ("s", "scipy"),
        "setup.import_magnon_sense_s": ("s", "magnon_sense"),
    }
    metrics = {name: {"value": statistics.median(_importtime_self(e)[pkg] for e in importtimes),
                      "unit": unit} for name, (unit, pkg) in values.items()}
    rows = [
        ("transfer.response_grid.calls", t("transfer.response_grid", "calls"), "count"),
        ("transfer.response_grid.points", c("response_grid.points"), "count"),
        ("transfer.response_grid.s", t("transfer.response_grid", "s"), "s"),
        ("spectra.noise_budget_grid.calls", t("spectra.noise_budget_grid", "calls"), "count"),
        ("spectra.noise_budget_grid.rows", c("noise_budget_grid.rows"), "count"),
        ("spectra.noise_budget_grid.s", t("spectra.noise_budget_grid", "s"), "s"),
        ("spectra.noise_budget_grid.self_s", t("spectra.noise_budget_grid", "self_s"), "s"),
        ("spectra.output_spectrum.calls", t("spectra.output_spectrum", "calls"), "count"),
        ("spectra.output_spectrum.points", c("output_spectrum.points"), "count"),
        ("spectra.output_spectrum.s", t("spectra.output_spectrum", "s"), "s"),
        ("spectra.approx_suppressed_sensitivity.calls",
         t("spectra.approx_suppressed_sensitivity", "calls"), "count"),
        ("spectra.approx_suppressed_sensitivity.s",
         t("spectra.approx_suppressed_sensitivity", "s"), "s"),
        ("spectra.reservoir_occupations.calls",
         t("spectra.reservoir_occupations", "calls"), "count"),
        ("simulation.simulate.calls", t("simulation.simulate", "calls"), "count"),
        ("simulation.simulate.traj_steps", c("simulate.traj_steps"), "count"),
        ("simulation.simulate.s", sim_s, "s"),
        ("simulation.simulate.traj_steps_per_s",
         c("simulate.traj_steps") / sim_s if sim_s else 0.0, "1/s"),
        ("simulation.simulate.output_mb", c("simulate.output_mb"), "MB"),
        ("simulation.estimate_psd.calls", t("simulation.estimate_psd", "calls"), "count"),
        ("simulation.estimate_psd.samples", c("estimate_psd.samples"), "count"),
        ("simulation.estimate_psd.s", t("simulation.estimate_psd", "s"), "s"),
        ("simulation.trace_covariances.s", t("simulation.trace_covariances", "s"), "s"),
        ("simulation.lyapunov_covariance.s", t("simulation.lyapunov_covariance", "s"), "s"),
        ("simulation.measure_gain.self_s", t("simulation.measure_gain", "self_s"), "s"),
        ("verification.routes_s", phases["routes"] / rounds, "s"),
        ("verification.lyapunov_s", phases["lyapunov"] / rounds, "s"),
        ("verification.psd_s", phases["psd"] / rounds, "s"),
        ("verification.gain_s", phases["gain"] / rounds, "s"),
        ("verification.run_verification.self_s",
         t("verification.run_verification", "self_s"), "s"),
        ("svg.line_chart.calls", t("svg.line_chart", "calls"), "count"),
        ("svg.line_chart.s", t("svg.line_chart", "s"), "s"),
        ("svg.line_chart.mb", c("line_chart.mb"), "MB"),
        ("cli.main.self_s", t("cli.main", "self_s"), "s"),
        ("cli.csv_mb", csv_mb / rounds, "MB"),
        ("cli.sweep.points", sweep_points / rounds, "count"),
        ("trace.spans", len(spans) / rounds, "count"),
        ("trace.overhead_s", cost * len(spans) / rounds, "s"),
        ("trace.wall_s", (wall - check_s) / rounds, "s"),
    ]
    metrics.update({name: {"value": value, "unit": unit} for name, value, unit in rows})

    trace_dir = ROOT / ".bench_build" / "perfbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    (trace_dir / f"{workload}-seed{seed}.json").write_text(json.dumps(spans))

    print(f"workload {workload}, seed {seed}, traced: {rounds} round(s), "
          f"{rounds * len(ops)} commands attempted, {failed} failed")
    for name, value in metrics.items():
        print(f"  {name:<46} {value['value']:.6g} {value['unit']}")
    for label, worst, bound in trace_checks:
        print(f"  covariance {label}: max |t| {worst:.3f}, bound {bound:.3f}")
    for err in errors:
        print(f"  WRONG OUTPUT {err}")
    return {"correct": not errors, "attempted": rounds * len(ops),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "magnon_sense" / "cli.py").is_file():
        print(f"error: {SRC / 'magnon_sense'} not found; run from a checkout "
              "of magnon-sense", file=sys.stderr)
        return 2
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        result = run(args.workload, args.seed, args.seconds, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
