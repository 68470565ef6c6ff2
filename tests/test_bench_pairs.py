"""scripts/bench_pairs.py's summary of paired runs, on fixed numbers."""

from __future__ import annotations

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def test_quartiles_are_inclusive():
    assert bench_pairs.quartiles([5, 1, 4, 2, 3]) == {"median": 3, "q1": 2, "q3": 4}
    # Ten runs: the quartiles interpolate at 2.25 and 6.75 of the sorted runs.
    assert bench_pairs.quartiles(list(range(10, 0, -1))) == {
        "median": 5.5, "q1": 3.25, "q3": 7.75}


@pytest.mark.parametrize("better, wins, losses", [("higher", 3, 1), ("lower", 1, 3)])
def test_summary_counts_wins_pair_by_pair(better, wins, losses):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [2.0, 2.0, 4.0, 3.0, 8.0]  # the second pair is a tie
    s = bench_pairs.summarize(parent, change, better)
    assert (s["change_wins"], s["change_losses"]) == (wins, losses)
    assert s["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["change"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["median_ratio_change_over_parent"] == 1.0
    assert s["parent_runs"] == parent and s["change_runs"] == change


def test_summary_ratio_is_change_over_parent():
    s = bench_pairs.summarize([400.0, 410.0, 420.0], [550.0, 560.0, 570.0], "higher")
    assert s["change_wins"] == 3 and s["change_losses"] == 0
    assert s["median_ratio_change_over_parent"] == pytest.approx(560 / 410)


def test_bench_takes_run_length_and_workloads_from_the_benchmark(tmp_path, monkeypatch):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"run_seconds": 7, "workloads": [{"name": "w"}],
            "end_to_end": [{"name": "jobs_per_s", "unit": "jobs/s", "better": "higher",
                            "bound": 0.25}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        value = seed + (100 if checkout == change else 0)
        return "host", {"correct": True, "metrics": {"jobs_per_s": {"value": value}}}
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "git_sha", lambda checkout: checkout.name)
    args = argparse.Namespace(seed=5, describe="", host_note="", claim_workload=None, claim="")
    report = bench_pairs.bench(parent, change, args)
    seeds = list(range(5, 5 + bench_pairs.PAIRS))
    assert bench_pairs.PAIRS == 10
    # The sides alternate which goes first, the parent in pair 0.
    assert calls[:4] == [("parent", "w", 5, 7), ("change", "w", 5, 7),
                         ("change", "w", 6, 7), ("parent", "w", 6, 7)]
    assert sorted(calls) == sorted((side, "w", s, 7) for s in seeds
                                   for side in ("parent", "change"))
    assert report["command"].endswith("--seconds 7 --trace 0")
    w = report["workloads"]["w"]
    assert w["seeds"] == seeds and w["pairs"] == 10
    assert w["metrics"]["jobs_per_s"]["change_wins"] == 10
