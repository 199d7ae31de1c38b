"""srlab benchmark: time to a verified number, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): spectral-lowest, spectral-count, thinness-mc,
quadrature.  Every repetition runs in a fresh process (child.py) with both
thread settings pinned to one: SRL_THREADS=1 and OPENBLAS_NUM_THREADS=1.
On a shared 2-core x86 virtual machine, the default two
BLAS threads made the Lanczos solves about 1.8x slower and their spread
about 2.5x wider, and two Monte Carlo workers gave no speed-up (0.85-1.03x)
while the thinness-mc wall time spread over 0.68 s across five runs against
0.17 s with one worker.  The traced run's probes time both paths: the
thinness-mc integral at 1 and at nproc workers, and the largest
spectral-lowest solve at 1 BLAS thread and at the library default.  All
repetitions of a run use the same seed, so the same inputs.

--trace 0 repeats the workload until S seconds have passed (at least once)
and reports the medians of wall_s, setup_s and peak_rss_mb.  On that shared
2-core machine, speed wandered by up to 1.45x over spells of
3-30 s (a fixed pure-Python loop showed it in CPU time as well as in wall
time), so a run is many short repetitions and reports their median; their
minimum or lower quartile was no steadier from run to run.

--trace 1 ignores S: it alternates two untraced and two traced runs of the
workload in one process, then runs the direct and thread probes and two
OpenBLAS probes (1 thread and the library default), and reports every
per-layer metric; the spans and self times go to
.perfbench/trace-NAME-seedN.json.  Metric names and units come from
BENCHMARK.json.  Failed correctness checks are counted in `failed`
(check_fail_ratio = failed / attempted); a repetition that raises or dies
fails all of its checks.  The last stdout line is the JSON result.

Exits 2 without a result when the srlab sources or BENCHMARK.json are
missing.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUTDIR = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def spawn(mode: str, workload: str, seed: int, env: dict, deadline: float):
    """Run one child; its JSON record, or None if it failed or timed out."""
    spawned = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), mode, workload, str(seed),
           repr(spawned), str(OUTDIR)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"{mode} repetition timed out\n")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.stderr.write(f"{mode} repetition failed (exit {proc.returncode}):\n{proc.stderr[-4000:]}")
    return None


def tally(records, n_checks: int):
    attempted = failed = 0
    for rec in records:
        checks = rec["checks"] if rec is not None else [["no_result", False]] * n_checks
        attempted += len(checks)
        failed += sum(not ok for _, ok in checks)
    return attempted, failed


def measured(args, env, deadline):
    records = []
    stop = time.monotonic() + args.seconds
    while True:
        rec = spawn("run", args.workload, args.seed, env, deadline)
        records.append(rec)
        if rec is None or "wall_s" not in rec:
            break
        print(f"rep {len(records)}: wall_s={rec['wall_s']:.4f} setup_s={rec['setup_s']:.4f} "
              f"peak_rss_mb={rec['peak_rss_mb']:.1f} "
              f"checks_ok={sum(ok for _, ok in rec['checks'])}/{len(rec['checks'])}")
        if time.monotonic() >= stop:
            break
    timed = [r for r in records if r is not None and "wall_s" in r]
    if not timed:
        return records, {}
    print(f"medians over {len(timed)} repetitions")
    return records, {key: statistics.median(r[key] for r in timed)
                     for key in ("wall_s", "setup_s", "peak_rss_mb")}


def traced(args, env, deadline):
    trace = spawn("trace", args.workload, args.seed, env, deadline)
    blas1 = spawn("blas", args.workload, args.seed, env, deadline)
    default_env = {k: v for k, v in env.items() if k not in BLAS_THREAD_VARS}
    blas_default = spawn("blas", args.workload, args.seed, default_env, deadline)
    if trace is None or "metrics" not in trace or None in (blas1, blas_default):
        return [trace], {}
    metrics = dict(trace["metrics"])
    metrics["spectral.lanczos_lowest.blas1_s"] = blas1["solve_s"]
    metrics["spectral.lanczos_lowest.blas_default_s"] = blas_default["solve_s"]
    trace["facts"]["openblas_threads_default_probe"] = blas_default["facts"]["openblas_threads"]
    width = max(len(name) for name in trace["self_time"])
    print(f"{'span':<{width}}  calls   total_s    self_s")
    for name, row in sorted(trace["self_time"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:<{width}}  {row['calls']:5d}  {row['total_s']:8.4f}  {row['self_s']:8.4f}")
    return [trace], metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"cannot read BENCHMARK.json: {exc}\n")
        return 2
    if not (SRC / "srlab" / "__init__.py").is_file():
        sys.stderr.write(f"srlab sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}\n")
        return 2
    # byte-compile up front so no repetition pays for it inside setup_s
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)
    OUTDIR.mkdir(exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, SRL_THREADS="1", OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    deadline = time.monotonic() + HARD_LIMIT_S
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={nproc}")

    run = traced if args.trace else measured
    records, values = run(args, env, deadline)
    attempted, failed = tally(records, WORKLOADS[args.workload].n_checks)
    facts = next((r["facts"] for r in reversed(records) if r is not None), None)
    print("facts: " + json.dumps(facts))
    print(f"check_fail_ratio: {failed / attempted} ({failed} of {attempted} checks failed)")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    if set(values) != {m["name"] for m in declared}:
        sys.stderr.write("no complete set of metrics: "
                         f"missing {sorted({m['name'] for m in declared} - set(values))}, "
                         f"undeclared {sorted(set(values) - {m['name'] for m in declared})}\n")
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
