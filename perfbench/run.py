#!/usr/bin/env python3
"""The qfe benchmark: one seeded workload, timed end to end or traced by layer.

    python3 perfbench/run.py --workload verify-full --seed 1 --seconds 30 --trace 0

Run from anywhere; qfe is imported from ``src/`` beside this directory and
nothing needs building.  The load is a closed loop: one client in one
process, the next job starting when the previous one returns.

``--trace 0`` runs one warm-up round and then a fixed list of whole blocks
of jobs (see ``jobs.py``), times a host-speed chunk (``hostspeed.py``)
between every two jobs, scales each job's wall time to reference seconds,
and prints the end-to-end metrics.  ``--trace 1`` runs the first block of
the same stream twice, untraced and then traced, and prints the per-layer
metrics and kernel probes; its job list is fixed by the seed, so its
counts repeat exactly.  Either way every job's output is checked outside
the timed region, each failure is printed, and the last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full result goes to
``perfbench/out/``.  See README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_BEFORE, SETUP_PER_BLOCK = 5, 3   # set-ups timed before the jobs and after each block
# About one block's wall time on the reference machine (2 CPUs, Python
# 3.11).  A run measures round(--seconds / BLOCK_SECONDS) whole blocks, at
# least one, so every run of a seed does the same work whatever the host's
# or the program's speed.
BLOCK_SECONDS = 10
MIN_TAIL_BEYOND = 10    # the tail percentile keeps this many jobs above it

SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import qfe, qfe.cli\n"
              "for spec in sys.argv[2:]: qfe.cli.parse_ring_flag(spec)\n")


def git_sha() -> str:
    """HEAD's commit id when the checkout is a git repository, else "unknown"."""
    try:
        top, sha = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30).stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        return "unknown"
    return sha if Path(top).resolve() == ROOT else "unknown"


def setup_seconds(workload) -> tuple[float, float]:
    """(reference seconds, wall seconds) of a fresh interpreter that imports
    qfe and qfe.cli and builds every ring the workload uses, from spawn to
    exit.  Host-speed chunks timed just before and after set the scale."""
    import jobs
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC), *jobs.SETUP_RINGS[workload]]
    chunks = [hostspeed.chunk() for _ in range(hostspeed.WINDOW)]
    t0 = time.perf_counter()
    # A pipe returns at the child's exit.  Without one, a wait with a timeout
    # polls in steps of up to 50 ms, and the time reads in steps of 50 ms.
    subprocess.run(argv, cwd=ROOT, check=True, timeout=120, stdout=subprocess.PIPE)
    wall = time.perf_counter() - t0
    chunks += [hostspeed.chunk() for _ in range(hostspeed.WINDOW)]
    return wall * hostspeed.scale(chunks, hostspeed.WINDOW - 1), wall


class Runner:
    """Runs jobs one after another, timing each and checking its output."""

    def __init__(self):
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, job, call=lambda run: run()) -> float:
        """Time call(job.run), then check its outcome; the seconds taken."""
        if job.prepare:
            job.prepare()
        t0 = time.perf_counter()
        try:
            outcome = call(job.run)
            why = None
        except Exception as exc:  # an uncaught exception is a failed job
            outcome, why = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if why is None:
            why = job.check(outcome)
        del outcome
        gc.collect()    # free this job's memos before the next job is timed
        self.attempted += 1
        if why is not None:
            msg = f"FAIL job {self.attempted} [{job.kind}] {job.label}: {why}"
            self.failures.append(msg)
            print(msg, flush=True)
        return elapsed


def quantile(times, p) -> float:
    """Harrell-Davis estimate of the p-quantile: a weighted mean of the
    sorted times, the i-th of n weighted by the chance that a
    Beta((n+1)p, (n+1)(1-p)) variable falls in ((i-1)/n, i/n), integrated
    by the midpoint rule.  Job costs come in clusters, and a single order
    statistic jumps across the gap between two of them from seed to seed."""
    s = sorted(times)
    n = len(s)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 32
    h = 1 / (n * steps)
    weights = [h * sum(math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
                       for x in ((i * steps + k + 0.5) * h for k in range(steps)))
               for i in range(n)]
    return sum(w * t for w, t in zip(weights, s)) / sum(weights)


def tail(times):
    """(value, percentile): the highest percentile with at least
    MIN_TAIL_BEYOND jobs above it."""
    n = len(times)
    if n <= MIN_TAIL_BEYOND:
        return max(times), 100.0
    p = (n - MIN_TAIL_BEYOND) / n
    return quantile(times, p), 100.0 * p


def end_to_end(args, tmp) -> tuple[Runner, dict, dict]:
    import jobs
    # Set-up is timed several times, spread over the run, so that a short
    # phase of host speed does not decide its median.
    setups = [setup_seconds(args.workload) for _ in range(SETUP_BEFORE)]
    runner = Runner()
    stream = jobs.blocks(args.workload, args.seed, tmp)
    # One untimed round, a job of each kind, so that lazy set-up and
    # first-call costs fall outside the timed jobs.
    warmup = next(stream)
    for job in warmup[:len(warmup) // jobs.STRATA]:
        runner.run(job)
    job_list, walls, chunks = [], [], [hostspeed.chunk()]
    for _ in range(max(1, round(args.seconds / BLOCK_SECONDS))):
        block = next(stream)
        for job in block:
            walls.append(runner.run(job))
            chunks.append(hostspeed.chunk())
        job_list += block
        setups += [setup_seconds(args.workload) for _ in range(SETUP_PER_BLOCK)]
    times = [w * hostspeed.scale(chunks, i) for i, w in enumerate(walls)]
    n = len(job_list)
    tail_s, pct = tail(times)
    failed = len(runner.failures)
    metrics = {
        "jobs_per_s": (n / sum(times), "jobs/s"),
        "job_s_p50": (quantile(times, 0.5), "s"),
        "job_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "ok_ratio": ((runner.attempted - failed) / runner.attempted, "1"),
    }
    extra = {"fail_ratio": failed / runner.attempted, "tail_percentile": pct, "jobs": n,
             "wall": {"jobs_per_s": n / sum(walls), "job_s_p50": quantile(walls, 0.5),
                      "job_s_tail": tail(walls)[0],
                      "setup_s": statistics.median(w for _, w in setups)},
             "chunk_ms": [c * 1e3 for c in chunks],
             "job_times": [[job.kind, job.label, t, w]
                           for job, t, w in zip(job_list, times, walls)]}
    return runner, metrics, extra


def traced(args, tmp) -> tuple[Runner, dict, dict]:
    import jobs
    import probes
    import qfe
    from tracing import Tracer
    job_list = next(jobs.blocks(args.workload, args.seed, tmp))
    runner = Runner()
    untraced_s = sum(runner.run(job) for job in job_list)
    tracer = Tracer()
    traced_s = 0.0
    for i, job in enumerate(job_list):
        tracer.install()
        try:
            traced_s += runner.run(job, lambda run: tracer.run_job(i, run))
        finally:
            tracer.uninstall()
    metrics = tracer.summary()
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "1")
    metrics.update(probes.run_probes(qfe))
    spans = OUT / f"{args.workload}-seed{args.seed}.spans.tsv.gz"
    tracer.write(spans)
    extra = {"jobs": len(job_list), "spans": len(tracer.sp_start),
             "spans_file": str(spans.relative_to(ROOT)),
             "untraced_s": untraced_s, "traced_s": traced_s}
    return runner, metrics, extra


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qfe" / "__init__.py").is_file():
        print(f"error: no qfe sources at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jobs
    import qfe
    if Path(qfe.__file__).resolve().parent != SRC / "qfe":
        print(f"error: imported qfe from {qfe.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in jobs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {', '.join(jobs.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    env = {"python": platform.python_version(), "nproc": os.cpu_count(), "git_sha": git_sha()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  nproc {env['nproc']}  git {env['git_sha'][:12]}", flush=True)
    host_start = hostspeed.probe_ms()
    try:
        runner, metrics, extra = (traced if args.trace else end_to_end)(args, str(tmp))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    extra["host_chunk_ms"] = {"start": host_start, "end": hostspeed.probe_ms()}

    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"{'fail_ratio':28s} {extra['fail_ratio']:.6g} 1")
        print(f"job_s_tail is p{extra['tail_percentile']:.1f} of {extra['jobs']} jobs")
    print(f"host-speed chunk {extra['host_chunk_ms']['start']:.3f} ms at start, "
          f"{extra['host_chunk_ms']['end']:.3f} ms at end "
          f"(reference {hostspeed.REFERENCE_S * 1e3:.3f} ms)")

    failed = len(runner.failures)
    result = {"correct": failed == 0, "attempted": runner.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, extra=extra, failures=runner.failures)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(run())
