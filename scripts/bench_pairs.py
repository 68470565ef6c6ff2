#!/usr/bin/env python3
"""Benchmark a change against its parent in alternating pairs of runs.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_16.json

PARENT_DIR and CHANGE_DIR are two checkouts of the repository.  For each
workload of CHANGE_DIR's BENCHMARK.json and each of PAIRS seeds, counting
up from --seed, the script runs ``perfbench/run.py --workload W --seed S
--seconds T --trace 0`` once in each checkout, one after the other, with T
the benchmark's run_seconds, and alternates which side goes first from pair
to pair.  Runs are sequential, one process at a time.  It writes the
end-to-end metrics of every run in the layout of BENCH_15.json: per side
the runs, the median and the quartiles, and per metric the pairs the change
wins and loses.  Per workload it also records each run's median job time
per job kind, read from the record the run leaves in its checkout's
perfbench/out, and summarises those medians per kind in the same layout,
so a move in an end-to-end metric can be traced to the kinds behind it.
A claimed gain names its workload and end-to-end metric
(--claim-workload, --claim-metric); both are checked against BENCHMARK.json
before the first run, and an unknown name exits 2.  Both checkouts' git
SHAs are read before the first run too, so a checkout that is not a git
repository fails at once, and so is src_lines: the line count of each
src/qfe/*.py module of either checkout, and their total.

Before the workloads, each command of CLI_RUNS runs as a whole CLI process,
``python -m qfe ARGS`` in each checkout with that checkout's src first on
PYTHONPATH and the environment otherwise inherited, CLI_RUNS_PER_SIDE
times per side in alternating order.  Its wall times go to the cli_runs
section in the same layout, so start-up that a change moves out of the
benchmark's set-up still shows.  Neither checkout is modified.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
CLI_RUNS = ("verify quantum --upto 50", "decompose quantum --upto 50",
            "construct tests/golden/seeds-257.json --upto 20", "demo nathanson-257",
            "construct tests/golden/seeds-23-frac.json --upto 3000",
            "verify monomial --upto 3000", "verify tests/golden/seeds-2357-q31.json --upto 3000",
            "verify tests/golden/seeds-2357-zq.json --upto 3000",
            "verify tests/golden/seeds-713-z12.json --upto 3000",
            "verify tests/golden/seeds-23-z105.json --upto 3000",
            "decompose tests/golden/seeds-713-z12.json --upto 3000")
CLI_RUNS_PER_SIDE = 15
METHOD = ("Each side runs from its own checkout. One seed per pair; the parent "
          "runs first in even-numbered pairs (counting from 0) and the change "
          "first in odd ones. Quartiles are statistics.quantiles(n=4, "
          "method='inclusive') over the runs of a side. A win is a pair in which "
          "the change reads better; ties count for neither side. The per-kind "
          "medians of a side are the medians, run by run, of the job times of "
          "each kind. Times are the "
          "benchmark's reference seconds, except in cli_runs, which holds wall "
          "seconds of whole CLI processes, run side by side in the same "
          "alternating order.")


def quartiles(runs: list[float]) -> dict:
    """The median and quartiles of one side's runs."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """One metric over paired runs: both sides' quartiles, the pairs the
    change wins and loses (ties count for neither) and the median ratio."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    return {"parent": p, "change": c, "parent_runs": parent, "change_runs": change,
            "change_wins": wins, "change_losses": losses,
            "median_ratio_change_over_parent": c["median"] / p["median"]}


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    """(host line, result) of one perfbench run in a checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {checkout}: {' '.join(argv[1:])} exited {done.returncode}: "
                 f"{done.stderr.strip()}")
    return lines[0], json.loads(lines[-1])


def kind_medians(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """The median job time per job kind of the run just made in a checkout,
    read from the record perfbench/run.py writes in its perfbench/out."""
    record = checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    times: dict[str, list[float]] = {}
    for kind, _label, t, _wall in json.loads(record.read_text())["extra"]["job_times"]:
        times.setdefault(kind, []).append(t)
    return {kind: statistics.median(ts) for kind, ts in times.items()}


def time_cli(checkout: Path, args: str) -> float:
    """Wall seconds of one ``python -m qfe ARGS`` run in a checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "qfe", *args.split()], cwd=checkout,
                          env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    if done.returncode != 0:
        sys.exit(f"error: {checkout}: qfe {args} exited {done.returncode}: "
                 f"{done.stderr.decode().strip()}")
    return wall


def cli_runs(sides: dict[str, Path]) -> dict:
    """Wall seconds of every CLI_RUNS command, alternating sides run by run."""
    out = {}
    for args in CLI_RUNS:
        times = {"parent": [], "change": []}
        for i in range(CLI_RUNS_PER_SIDE):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                times[side].append(time_cli(sides[side], args))
        out[args] = summarize(times["parent"], times["change"], "lower")
        print(f"qfe {args}: {out[args]['parent']['median'] * 1e3:.1f} -> "
              f"{out[args]['change']['median'] * 1e3:.1f} ms", flush=True)
    return {"command": "python -m qfe <args>", "runs_per_side": CLI_RUNS_PER_SIDE,
            "unit": "s", "better": "lower", "commands": out}


def check_name(kind: str, name: str, known: list[str]) -> None:
    """Exit 2 with one line unless BENCHMARK.json lists name."""
    if name not in known:
        print(f"error: {kind} {name!r} is not in BENCHMARK.json ({', '.join(known)})",
              file=sys.stderr)
        sys.exit(2)


def git_sha(checkout: Path) -> str:
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, capture_output=True,
                          text=True, check=True).stdout.strip()


def src_lines(checkout: Path) -> dict:
    """The line count of each src/qfe/*.py module of a checkout, as ``wc -l``
    counts them, and their total."""
    modules = {path.stem: path.read_bytes().count(b"\n")
               for path in sorted((checkout / "src" / "qfe").glob("*.py"))}
    return {"modules": modules, "total": sum(modules.values())}


def bench(parent: Path, change: Path, args) -> dict:
    spec = json.loads((change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    check_name("--claim-metric", args.claim_metric, [m["name"] for m in spec["end_to_end"]])
    if args.claim_workload is not None:
        check_name("--claim-workload", args.claim_workload, workloads)
    # A checkout that is not a git repository fails here, before any run.
    shas = {"change_sha": git_sha(change), "parent_sha": git_sha(parent)}
    seeds = list(range(args.seed, args.seed + PAIRS))
    sides = {"parent": parent, "change": change}
    lines = {side: src_lines(checkout) for side, checkout in sides.items()}
    cli = cli_runs(sides)
    host, out = {}, {}
    for workload in workloads:
        results = {"parent": [], "change": []}
        by_kind = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                line, result = run_once(sides[side], workload, seed, seconds)
                host.setdefault(workload, {}).setdefault(side, line)
                results[side].append(result)
                by_kind[side].append(kind_medians(sides[side], workload, seed))
                print(f"{workload} seed {seed} {side}: "
                      f"{result['metrics']['jobs_per_s']['value']:.1f} jobs/s", flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            name = m["name"]
            runs = {side: [r["metrics"][name]["value"] for r in results[side]]
                    for side in sides}
            metrics[name] = dict(summarize(runs["parent"], runs["change"], m["better"]),
                                 better=m["better"], bound=m["bound"], unit=m["unit"])
        # Only kinds that every run of both sides timed pair up run by run.
        kinds = set.intersection(*(set(r) for side in sides for r in by_kind[side]))
        kind_p50 = {}
        for kind in sorted(kinds):
            runs = {side: [r[kind] for r in by_kind[side]] for side in sides}
            kind_p50[kind] = dict(summarize(runs["parent"], runs["change"], "lower"),
                                  unit="s")
        out[workload] = {"correct": {side: all(r["correct"] for r in results[side])
                                     for side in sides},
                         "metrics": metrics, "pairs": PAIRS, "seeds": seeds,
                         "kind_job_s_p50": kind_p50}
    report = {"change": args.describe, **shas,
              "command": (f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                          f"--seconds {seconds} --trace 0"),
              "host": host, "host_note": args.host_note, "method": METHOD,
              "workloads": out, "cli_runs": cli, "src_lines": lines}
    if args.claim_workload is not None:
        report["claimed_metric"] = {"claim": args.claim, "metric": args.claim_metric,
                                    "workload": args.claim_workload}
    return report


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--describe", default="", help="one line on what the change does")
    p.add_argument("--host-note", default="", help="one line on the host")
    p.add_argument("--claim-workload", help="the workload of a claimed gain")
    p.add_argument("--claim-metric", default="jobs_per_s",
                   help="the end-to-end metric of a claimed gain (default jobs_per_s)")
    p.add_argument("--claim", default="", help="the claim, in words")
    args = p.parse_args(argv)
    report = bench(args.parent.resolve(), args.change.resolve(), args)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
