"""tools/bench_record.py's aggregation, on canned benchmarks/run.py output:
no benchmark round runs here."""

import importlib.util
import json
import statistics
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", TOOL)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def run_output(setup_s, wall_s, peak_rss_mb, correct=True, failed=0):
    """The stdout of one benchmarks/run.py round: report lines, then the
    JSON object on the last line."""
    result = {"correct": correct, "attempted": 2, "failed": failed, "metrics": {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}}
    return ("workload oracle, seed 1: 1 round(s), 2 commands attempted, 0 failed\n"
            f"  wall_s       {wall_s:.4f} s  (one round, processes at once)\n"
            + json.dumps(result) + "\n")


def canned(walls, rss, cpu, faults):
    return [{**bench_record.parse_run(run_output(0.1, w, r)), "cpu_s": c, "minor_faults": f}
            for w, r, c, f in zip(walls, rss, cpu, faults)]


def test_parse_reads_the_last_line():
    parsed = bench_record.parse_run(run_output(0.09, 1.5, 41.7, correct=False, failed=1))
    assert parsed == {"correct": False, "failed": 1, "setup_s": 0.09, "wall_s": 1.5,
                      "peak_rss_mb": 41.7}


def test_summary_is_the_median_and_quartiles_of_the_rounds():
    rounds = canned([1.6, 1.4, 1.5, 2.0, 1.45], [41.7, 41.6, 41.7, 41.8, 41.7],
                    [3.7, 3.9, 4.1, 3.8, 3.75], [32510, 32500, 32511, 32505, 32509])
    summary = bench_record.summarize(rounds)
    assert (summary["rounds"], summary["all_correct"], summary["failed"]) == (5, True, 0)
    wall = summary["wall_s"]
    assert wall["median"] == 1.5 == statistics.median(wall["values"])
    # the inclusive quartiles of 1.4, 1.45, 1.5, 1.6, 2.0
    assert (wall["q1"], wall["q3"]) == (1.45, 1.6)
    assert wall["iqr"] == pytest.approx(0.15)
    assert summary["minor_faults"]["median"] == 32509
    assert set(summary) == {"rounds", "all_correct", "failed", *bench_record.METRICS}


def test_pairs_are_differences_of_rounds_run_side_by_side():
    this = canned([1.3, 1.5, 1.4], [40.7, 40.8, 40.9], [3.7, 3.7, 3.8], [32000] * 3)
    parent = canned([1.5, 1.4, 1.6], [41.7, 41.6, 41.7], [3.8, 3.7, 4.4], [32500] * 3)
    pairs = bench_record.paired(this, parent)
    rss = pairs["peak_rss_mb"]
    assert rss["differences"] == pytest.approx([-1.0, -0.8, -0.8])
    assert rss["median_difference"] == pytest.approx(-0.8)
    assert (rss["lower_in"], rss["pairs"]) == (3, 3)
    assert rss["parent_iqr"] == pytest.approx(0.05)
    assert pairs["wall_s"]["lower_in"] == 2
    assert pairs["minor_faults"]["median_difference"] == -500
    with pytest.raises(ValueError):
        bench_record.paired(this, parent[:2])


def test_record_alternates_the_trees_and_writes_both(monkeypatch, tmp_path):
    # each round runs every workload on both trees, the tree that goes first
    # alternating round by round
    calls = []

    def fake_round(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        rss = 41.7 if tree.name == "parent" else 40.8
        return {**bench_record.parse_run(run_output(0.1, 1.5, rss)), "cpu_s": 3.8,
                "minor_faults": 32000}
    monkeypatch.setattr(bench_record, "run_round", fake_round)
    this, parent = tmp_path / "this", tmp_path / "parent"
    this.mkdir()
    parent.mkdir()
    monkeypatch.setattr(bench_record, "ROOT", this)
    out = bench_record.record(("oracle", "sweep"), 2, parent)
    assert calls == [("this", "oracle", 1), ("parent", "oracle", 1),
                     ("this", "sweep", 1), ("parent", "sweep", 1),
                     ("parent", "oracle", 2), ("this", "oracle", 2),
                     ("parent", "sweep", 2), ("this", "sweep", 2)]
    assert set(out["workloads"]) == set(out["paired"]) == {"oracle", "sweep"}
    assert out["paired"]["oracle"]["peak_rss_mb"]["median_difference"] == pytest.approx(-0.9)
    assert out["parent"]["workloads"]["sweep"]["peak_rss_mb"]["median"] == 41.7
    assert {"cores", "cpu_model", "python", "numpy", "scipy"} <= set(out["machine"])
    # neither directory is a git checkout
    assert out["commit"] is None and out["parent"]["commit"] is None
    json.dumps(out)
