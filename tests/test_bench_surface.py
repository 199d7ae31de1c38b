"""Smoke test of the benchmark's call surface (`perfbench/`).

Every srlab attribute the traced benchmark wraps must exist, and every
workload must run once at seed 0 with all of its checks passing, so a
signature change that breaks the benchmark fails here and not only in a
full benchmark run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_traced_attributes_exist_and_are_restored():
    from srlab import cli, forms, potential, spectral, sublevel
    modules = (cli, forms, potential, spectral, sublevel)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    layers.install(tracer)
    tracer.restore()
    assert [dict(vars(m)) for m in modules] == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_checks_pass(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.inputs(0)
    checks = workload.check(inputs, workload.run(inputs, tmp_path))
    assert len(checks) == workload.n_checks
    assert [label for label, ok in checks if not ok] == []
