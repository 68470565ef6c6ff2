"""scripts/bench_pairs.py's summary of paired runs, on fixed numbers."""

from __future__ import annotations

import argparse
import importlib.util
import json
import subprocess
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


END_TO_END = [{"name": "jobs_per_s", "unit": "jobs/s", "better": "higher", "bound": 0.25},
              {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def write_job_times(checkout, workload, seed, faster):
    """The record a run leaves in perfbench/out: jobs of kind "a" take 1, 2
    and 6 ms, less 1 ms on the faster side; one job of kind "b" takes seed
    ms; kind "c" runs only with the parent's even seeds."""
    jobs = [["a", "a1", 0.001, 0.5], ["b", "b1", seed * 1e-3, 0.5],
            ["a", "a2", 0.002, 0.5], ["a", "a3", 0.006, 0.5]]
    if faster:
        jobs = [[k, label, t - 0.001 * (k == "a"), w] for k, label, t, w in jobs]
    elif seed % 2 == 0:
        jobs.append(["c", "c1", 0.003, 0.5])
    out = checkout / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace0.json").write_text(
        json.dumps({"extra": {"job_times": jobs}}))


@pytest.fixture
def checkouts(tmp_path, monkeypatch):
    """A parent and a change checkout with a one-workload BENCHMARK.json, and
    the list of runs made in them: perfbench runs as (side, workload, seed,
    seconds), CLI runs as (side, args).  The change reads 100 jobs/s more
    and 0.25 s less set-up and CLI time than the parent."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    spec = {"run_seconds": 7, "workloads": [{"name": "w"}], "end_to_end": END_TO_END}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed, seconds))
        faster = checkout == change
        write_job_times(checkout, workload, seed, faster)
        return "host", {"correct": True,
                        "metrics": {"jobs_per_s": {"value": seed + 100 * faster},
                                    "setup_s": {"value": 1.0 - 0.25 * faster}}}

    def time_cli(checkout, args):
        calls.append((checkout.name, args))
        return 1.0 - 0.25 * (checkout == change)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    monkeypatch.setattr(bench_pairs, "time_cli", time_cli)
    monkeypatch.setattr(bench_pairs, "git_sha", lambda checkout: checkout.name)
    return parent, change, calls


def bench_args(**claim) -> argparse.Namespace:
    return argparse.Namespace(**{"seed": 5, "describe": "", "host_note": "", "claim": "",
                                 "claim_workload": None, "claim_metric": "jobs_per_s",
                                 **claim})


def test_bench_takes_run_length_and_workloads_from_the_benchmark(checkouts):
    parent, change, calls = checkouts
    report = bench_pairs.bench(parent, change, bench_args())
    calls = [c for c in calls if len(c) == 4]
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
    assert "claimed_metric" not in report


def test_bench_records_each_kinds_median_job_time(checkouts):
    parent, change, _ = checkouts
    report = bench_pairs.bench(parent, change, bench_args())
    kinds = report["workloads"]["w"]["kind_job_s_p50"]
    # Kind "c" is missing from the change's runs, so it has no pairs.
    assert list(kinds) == ["a", "b"]
    a, b = kinds["a"], kinds["b"]
    assert a["parent_runs"] == [0.002] * 10 and a["change_runs"] == [0.001] * 10
    assert (a["change_wins"], a["change_losses"], a["unit"]) == (10, 0, "s")
    assert a["median_ratio_change_over_parent"] == 0.5
    seeds = range(5, 15)
    assert b["parent_runs"] == b["change_runs"] == [s * 1e-3 for s in seeds]
    assert (b["change_wins"], b["change_losses"]) == (0, 0)


def test_kind_medians_read_the_runs_record(tmp_path):
    write_job_times(tmp_path, "w", 4, False)
    assert bench_pairs.kind_medians(tmp_path, "w", 4) == {"a": 0.002, "b": 0.004,
                                                          "c": 0.003}


def test_bench_records_the_claimed_metric_and_workload(checkouts):
    parent, change, _ = checkouts
    args = bench_args(claim_workload="w", claim_metric="setup_s", claim="set-up falls")
    report = bench_pairs.bench(parent, change, args)
    assert report["claimed_metric"] == {"claim": "set-up falls", "metric": "setup_s",
                                        "workload": "w"}
    assert report["workloads"]["w"]["metrics"]["setup_s"]["change_wins"] == 10


@pytest.mark.parametrize("flag, name", [("--claim-metric", "setup_seconds"),
                                        ("--claim-workload", "feilds")])
def test_unknown_claim_name_exits_2_before_any_run(checkouts, capsys, flag, name):
    parent, change, calls = checkouts
    out = parent.parent / "BENCH.json"
    argv = [str(parent), str(change), "--out", str(out), "--claim-workload", "w", flag, name]
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(argv)
    assert exc.value.code == 2
    assert calls == [] and not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err and repr(name) in err


def test_bench_records_the_source_lines_of_both_checkouts(checkouts):
    parent, change, _ = checkouts
    for checkout, poly_lines in ((parent, 3), (change, 2)):
        qfe = checkout / "src" / "qfe"
        qfe.mkdir(parents=True)
        (qfe / "poly.py").write_text("x = 1\n" * poly_lines)
        (qfe / "cli.py").write_text("import sys\n\nprint(sys.argv)\n")
        (qfe / "notes.txt").write_text("not a module\n")
    report = bench_pairs.bench(parent, change, bench_args())
    assert report["src_lines"] == {
        "parent": {"modules": {"cli": 3, "poly": 3}, "total": 6},
        "change": {"modules": {"cli": 3, "poly": 2}, "total": 5}}


def test_checkout_without_a_git_sha_stops_before_any_run(checkouts, monkeypatch):
    parent, change, calls = checkouts
    out = parent.parent / "BENCH.json"

    def git_sha(checkout):
        raise subprocess.CalledProcessError(128, ["git", "rev-parse", "HEAD"])
    monkeypatch.setattr(bench_pairs, "git_sha", git_sha)
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main([str(parent), str(change), "--out", str(out)])
    assert calls == [] and not out.exists()


def test_cli_runs_alternate_sides_and_summarize_each_command(checkouts):
    parent, change, calls = checkouts
    report = bench_pairs.bench(parent, change, bench_args())
    cli = report["cli_runs"]
    runs = bench_pairs.CLI_RUNS_PER_SIDE
    assert runs == 15
    assert {k: v for k, v in cli.items() if k != "commands"} == {
        "command": "python -m qfe <args>", "runs_per_side": 15, "unit": "s",
        "better": "lower"}
    assert list(cli["commands"]) == list(bench_pairs.CLI_RUNS) == [
        "verify quantum --upto 50", "decompose quantum --upto 50",
        "construct tests/golden/seeds-257.json --upto 20", "demo nathanson-257",
        "construct tests/golden/seeds-23-frac.json --upto 3000",
        "verify monomial --upto 3000", "verify tests/golden/seeds-2357-q31.json --upto 3000",
        "verify tests/golden/seeds-2357-zq.json --upto 3000",
        "verify tests/golden/seeds-713-z12.json --upto 3000",
        "verify tests/golden/seeds-23-z105.json --upto 3000",
        "decompose tests/golden/seeds-713-z12.json --upto 3000",
        "decompose tests/golden/seeds-23-z105.json --upto 32"]
    cli_calls = [c for c in calls if len(c) == 2]
    # Every CLI run comes before the first workload run.
    assert calls[:len(cli_calls)] == cli_calls
    assert cli_calls[:4] == [("parent", "verify quantum --upto 50"),
                             ("change", "verify quantum --upto 50"),
                             ("change", "verify quantum --upto 50"),
                             ("parent", "verify quantum --upto 50")]
    assert len(cli_calls) == 2 * runs * len(bench_pairs.CLI_RUNS)
    for summary in cli["commands"].values():
        assert summary["parent_runs"] == [1.0] * runs
        assert summary["change_runs"] == [0.75] * runs
        assert summary["change"] == {"median": 0.75, "q1": 0.75, "q3": 0.75}
        assert (summary["change_wins"], summary["change_losses"]) == (runs, 0)


def test_time_cli_runs_the_checkouts_qfe(tmp_path):
    main = tmp_path / "src" / "qfe" / "__main__.py"
    main.parent.mkdir(parents=True)
    (main.parent / "__init__.py").write_text("")
    main.write_text("import os, sys\n"
                    "open('ran', 'w').write(' '.join(sys.argv[1:]))\n"
                    "sys.exit(int(os.path.exists('fail')))\n")
    assert bench_pairs.time_cli(tmp_path, "demo nathanson-257") > 0
    assert (tmp_path / "ran").read_text() == "demo nathanson-257"
    (tmp_path / "fail").write_text("")
    with pytest.raises(SystemExit, match="exited 1"):
        bench_pairs.time_cli(tmp_path, "verify quantum")
