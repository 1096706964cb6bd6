"""Record repeated rounds of the benchmark as a BENCH_<pr>.json file.

    python tools/bench_record.py --pr 40 [--rounds 5] [--pair PARENT_TREE]

Run from anywhere; the tree recorded is the checkout this script lives in.
Each round runs ``benchmarks/run.py --workload W --seed i --seconds 0``
unchanged for each workload W of ``WORKLOADS``, one process each, seed i
the round's number.  Around each run the script reads
``resource.getrusage(RUSAGE_CHILDREN)``: the difference is the run's CPU
seconds (user + system) and minor page faults, its grandchildren included,
since ``run.py`` waits for every command it starts.  With ``--pair`` every round runs the same workload and seed on
PARENT_TREE too, the two trees alternating which goes first, and the file
holds each metric's paired differences (this tree minus the parent).

The file holds the machine (cores, CPU model, Python, numpy and scipy
versions), the commit, and per tree and workload the median and
interquartile range of ``setup_s``, ``wall_s``, ``peak_rss_mb``, CPU
seconds and minor faults, with each round's values.  Standard library
only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the benchmark's workloads, in the order a round runs them
WORKLOADS = ("oracle", "figures", "sweep")

#: the metrics of a round, in the order they are reported
METRICS = ("setup_s", "wall_s", "peak_rss_mb", "cpu_s", "minor_faults")


def parse_run(stdout: str) -> dict:
    """The last line of a ``run.py`` output, a JSON object, as the round's
    ``correct`` and ``failed`` and the values of its end-to-end metrics."""
    result = json.loads(stdout.strip().splitlines()[-1])
    metrics = result["metrics"]
    return {"correct": result["correct"], "failed": result["failed"],
            **{name: metrics[name]["value"] for name in METRICS[:3]}}


def run_round(tree: Path, workload: str, seed: int) -> dict:
    """One ``run.py`` round of ``workload`` at ``seed`` in ``tree``, with its
    CPU seconds and minor faults."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run([sys.executable, str(tree / "benchmarks" / "run.py"),
                           "--workload", workload, "--seed", str(seed), "--seconds", "0"],
                          cwd=tree, capture_output=True, text=True, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {**parse_run(done.stdout),
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "minor_faults": after.ru_minflt - before.ru_minflt}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), by the inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(rounds: list[dict]) -> dict:
    """Per metric the median, quartiles and IQR of ``rounds``, with the
    rounds' correctness and failed commands."""
    summary = {"rounds": len(rounds), "all_correct": all(r["correct"] for r in rounds),
               "failed": sum(r["failed"] for r in rounds)}
    for name in METRICS:
        values = [r[name] for r in rounds]
        q1, median, q3 = quartiles(values)
        summary[name] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
                         "values": values}
    return summary


def paired(this: list[dict], parent: list[dict]) -> dict:
    """Per metric the differences this - parent of rounds run side by side:
    their median, how many are below zero, and the parent's IQR, the
    spread a median difference has to clear."""
    if len(this) != len(parent):
        raise ValueError(f"{len(this)} rounds paired with {len(parent)}")
    out = {}
    for name in METRICS:
        diffs = [a[name] - b[name] for a, b in zip(this, parent)]
        q1, _, q3 = quartiles([b[name] for b in parent])
        out[name] = {"median_difference": statistics.median(diffs),
                     "lower_in": sum(d < 0 for d in diffs), "pairs": len(diffs),
                     "parent_iqr": q3 - q1, "differences": diffs}
    return out


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def machine() -> dict:
    """Cores, CPU model and the versions that set the benchmark's speed."""
    model = platform.processor() or None
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"cores": os.cpu_count(), "cpu_model": model, "system": platform.system(),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy")}


def commit(tree: Path) -> str | None:
    """The tree's git commit, marked ``-dirty`` when it has changes, or
    None outside a git checkout."""
    done = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        return None
    return done.stdout.strip() or None


def record(workloads: tuple[str, ...], rounds: int, pair: Path | None) -> dict:
    """Run the rounds and return the file's contents."""
    trees = {"this": ROOT, **({"parent": pair} if pair else {})}
    runs: dict[str, dict[str, list[dict]]] = {name: {w: [] for w in workloads} for name in trees}
    for seed in range(1, rounds + 1):
        for workload in workloads:
            order = list(trees.items())
            if seed % 2 == 0:
                order.reverse()
            for name, tree in order:
                result = run_round(tree, workload, seed)
                runs[name][workload].append(result)
                print(f"round {seed} {workload:<8} {name:<6} " + "  ".join(
                    f"{m}={result[m]:.4g}" for m in METRICS), flush=True)
    out = {"machine": machine(), "commit": commit(ROOT),
           "command": "benchmarks/run.py --workload W --seed i --seconds 0, i = 1..rounds",
           "rounds": rounds,
           "workloads": {w: summarize(runs["this"][w]) for w in workloads}}
    if pair:
        out["parent"] = {"commit": commit(pair),
                         "workloads": {w: summarize(runs["parent"][w]) for w in workloads}}
        out["paired"] = {w: paired(runs["this"][w], runs["parent"][w]) for w in workloads}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--pair", type=Path, help="a parent tree to alternate with")
    parser.add_argument("--out", type=Path, help="the file to write (default: the tree's root)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    if args.pair and not (args.pair / "benchmarks" / "run.py").is_file():
        parser.error(f"{args.pair} has no benchmarks/run.py")
    out = record(WORKLOADS, args.rounds, args.pair.resolve() if args.pair else None)
    path = args.out or ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
