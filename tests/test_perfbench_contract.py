"""The benchmark's workloads build, run and pass their checks on the library,
and every function the benchmark traces is still there to trace.

``perfbench/workloads.py`` calls the library by name. A name removed or
renamed there makes the workload's set-up or op raise: the benchmark run
exits with code 1 and is reported as failed. ``perfbench/spans.py`` names
the functions a traced run (``--trace 1``) wraps, in ``TARGETS``. One that
is gone, or whose counter no longer applies, still lets the run exit with
code 0, but its per-layer values read ``null``, and the run is reported as
malformed. These tests fail on either. Both modules are loaded from their
files; nothing in ``perfbench/`` is changed.
"""
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS
SPANS = _load("spans")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_checks(name):
    tracer = SPANS.Tracer()
    try:
        tracer.install()
        workload = WORKLOADS[name](1)
        out = workload.op()
    finally:
        tracer.uninstall()
    assert workload.check(out) == []
    assert tracer.unavailable() == set()
