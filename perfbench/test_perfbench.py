"""Tests of the benchmark itself: python3 -m pytest perfbench -q (about a minute)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from srlab import cli, forms, spectral, sublevel  # noqa: E402
from tracer import Span, Tracer, self_times, summarize  # noqa: E402
from workloads import COUNT_BOXES, HEIS, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def test_names_and_units_follow_the_contract():
    names = ([w["name"] for w in SPEC["workloads"]]
             + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]])
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(names) == len(set(names))
    assert all(UNIT.fullmatch(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25


def test_self_time_on_a_hand_built_tree():
    spans = [Span(0, "root", 0.0, 10.0, None),
             Span(1, "a", 1.0, 4.0, 0),
             Span(2, "b", 3.0, 6.0, 0),      # overlaps a, as pool workers do
             Span(3, "a.child", 2.0, 3.0, 1),
             Span(4, "late", 9.0, 12.0, 0),  # outlasts its parent: clipped at 10
             Span(5, "lone", 20.0, 21.5, None)]
    assert self_times(spans) == pytest.approx(
        {0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0, 5: 1.5})
    table = summarize(spans + [Span(6, "a", 30.0, 31.0, None)])
    assert table["a"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 3.0})


def test_tracer_is_thread_safe():
    tracer = Tracer()
    leaf = tracer.wrap("leaf", lambda: None)
    outer = tracer.wrap("outer", lambda work: work())
    n_threads, n_calls = 8, 500

    def worker():
        for _ in range(n_calls):
            leaf()

    def fan_out():
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        return [t.is_alive() for t in threads]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        alive = outer(fan_out)
    finally:
        sys.setswitchinterval(interval)
    assert not any(alive)
    assert tracer.counters["leaf.calls"] == n_threads * n_calls
    leaves = [s for s in tracer.spans if s.name == "leaf"]
    assert len({s.id for s in tracer.spans}) == len(tracer.spans) == n_threads * n_calls + 1
    root = next(s for s in tracer.spans if s.name == "outer")
    assert all(s.parent == root.id for s in leaves)


def test_seed_reaches_every_generated_input():
    """Each library call that draws random numbers gets the benchmark seed."""
    seeded = [(spectral, "lanczos_lowest"), (spectral, "eigen_count_below"),
              (sublevel, "thinness_integral"), (sublevel, "scaling_fit"),
              (forms, "weyl_scan")]
    tracer = Tracer()
    for module, attr in seeded:
        tracer.patch(module, attr, attr, lambda a, r: {"seed": a["seed"]})
    tracer.patch(cli, "run", "cli.run", lambda a, r: {"seed": a["argv"]})
    seed = 918273
    try:
        for name, workload in WORKLOADS.items():
            inputs = workload.inputs(seed)
            assert inputs == workload.inputs(seed)
            assert inputs != workload.inputs(seed + 1)
            tmp = ROOT / ".perfbench" / "test-seed"
            tmp.mkdir(parents=True, exist_ok=True)
            try:
                out = workload.run(inputs, tmp)
                assert all(ok for _, ok in workload.check(inputs, out)), name
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    finally:
        tracer.restore()
    seen = {s.name for s in tracer.spans}
    assert seen == {attr for _, attr in seeded} | {"cli.run"}
    for s in tracer.spans:
        if s.name == "cli.run":
            argv = s.attrs["seed"]
            assert argv[argv.index("--seed") + 1] == str(seed)
        else:
            assert s.attrs["seed"] == seed, s.name

    a, b = layers.probe_inputs(1), layers.probe_inputs(2)
    again = layers.probe_inputs(1)
    for key in ("x1", "t1", "x2", "t2", "ball_seeds"):
        assert np.array_equal(a[key], again[key]) and not np.array_equal(a[key], b[key])
    assert not np.array_equal(a["center"].t, b["center"].t)


def test_reference_counts_are_the_dense_counts():
    for box, _, _, _, reference in COUNT_BOXES:
        op = spectral.assemble_operator(2.0, HEIS, spectral.Grid3(HEIS, *box))
        assert int(np.sum(np.linalg.eigvalsh(op.to_dense()) < 3.1)) == reference


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_passes_its_checks(workload):
    proc = run_bench(workload, 5, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] % WORKLOADS[workload].n_checks == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("spectral-count", 6, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    trace = json.loads((ROOT / ".perfbench" / "trace-spectral-count-seed6.json").read_text())
    assert {"spans", "self_time", "counters"} <= set(trace)


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench("spectral-count", 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
