"""One measured process of the benchmark (started by run.py).

    python3 perfbench/child.py MODE WORKLOAD SEED SPAWNED OUTDIR

MODE is `run` (one untraced run), `trace` (untraced and traced runs, then
the direct and thread probes) or `blas` (the largest spectral-lowest solve
alone, under whatever OpenBLAS thread setting the environment gives).
SPAWNED is the parent's time.monotonic() just before the spawn; the clock is
system-wide on Linux, so setup_s = (first layer call) - SPAWNED covers the
interpreter, `import srlab` and generating the inputs.  ru_maxrss is a
lifetime peak, which is why every repetition gets a fresh process.  The last
line on stdout is one JSON object.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import srlab  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, lowest_inputs, thinness_inputs  # noqa: E402


def openblas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, by library file name."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.rsplit("/", 1)[-1] and "/" in line})
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(path).name] = fn()
                break
    return out


def cache_sizes() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def facts() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": len(os.sched_getaffinity(0)), "caches": cache_sizes(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "openblas": blas.get("version", "unknown"),
            "git_commit": git_commit(),
            "SRL_THREADS": os.environ.get("SRL_THREADS"),
            "srlab_workers": srlab.sublevel.worker_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "openblas_threads": openblas_threads()}


def checks_of(workload, inputs, results) -> list:
    try:
        checks = [[name, bool(ok)] for name, ok in workload.check(inputs, results)]
    except Exception:  # a check that raises fails every check of the repetition
        traceback.print_exc()
        return [["check_raised", False]] * workload.n_checks
    if len(checks) != workload.n_checks:
        return [["check_count_mismatch", False]] * workload.n_checks
    return checks


def timed_run(workload, inputs, outdir: Path, tracer=None):
    """(start, end, results, checks) of one run; results is None if it raised."""
    workdir = outdir / f"rep-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if tracer is not None:
            layers.install(tracer)
        start = time.monotonic()
        try:
            results = workload.run(inputs, workdir)
        except Exception:  # a workload that raises fails all of its checks
            traceback.print_exc()
            return start, time.monotonic(), None, [["workload_raised", False]] * workload.n_checks
        finally:
            if tracer is not None:
                tracer.restore()
        end = time.monotonic()
        return start, end, results, checks_of(workload, inputs, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(name: str, seed: int, spawned: float, outdir: Path) -> dict:
    workload = WORKLOADS[name]
    start, end, results, checks = timed_run(workload, workload.inputs(seed), outdir)
    if results is None:
        return {"checks": checks}
    return {"setup_s": start - spawned, "wall_s": end - start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "checks": checks}


def trace(name: str, seed: int, outdir: Path) -> dict:
    """Untraced and traced runs alternated twice, then the probes.

    trace.overhead_ratio compares the faster run of each kind, so that a
    slow spell of the machine during one run does not pass for overhead.
    The spans of the last traced run give the per-layer metrics.
    """
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    walls = {False: [], True: []}
    checks = []
    for traced in (False, True, False, True):
        tracer = Tracer() if traced else None
        start, end, results, rep_checks = timed_run(workload, inputs, outdir, tracer)
        checks += rep_checks
        if results is None:
            return {"checks": checks}
        walls[traced].append(end - start)
    metrics = layers.traced_metrics(tracer.spans, results)
    metrics["trace.overhead_ratio"] = min(walls[True]) / min(walls[False])
    self_time = summarize(tracer.spans)
    record = {"workload": name, "seed": seed, "self_time": self_time,
              "counters": dict(tracer.counters),
              "spans": [[s.id, s.name, s.start, s.end, s.parent, s.attrs]
                        for s in tracer.spans]}
    (outdir / f"trace-{name}-seed{seed}.json").write_text(json.dumps(record))
    metrics.update(layers.direct_probes(seed))
    probe_metrics, probe_checks = layers.thread_probe(thinness_inputs(seed),
                                                      len(os.sched_getaffinity(0)))
    metrics.update(probe_metrics)
    return {"checks": checks + probe_checks, "metrics": metrics, "self_time": self_time}


def main(argv) -> int:
    mode, name, seed, spawned, outdir = argv
    if Path(srlab.__file__).resolve().parent != (SRC / "srlab").resolve():
        sys.stderr.write(f"srlab imported from {srlab.__file__}, not from {SRC}\n")
        return 3
    if mode == "blas":
        record = {"solve_s": layers.blas_probe(lowest_inputs(int(seed)))}
    elif mode == "trace":
        record = trace(name, int(seed), Path(outdir))
    else:
        record = measure(name, int(seed), float(spawned), Path(outdir))
    record["facts"] = facts()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
