"""The benchmark's workloads build, run and pass their checks on the library.

``perfbench/workloads.py`` calls the library by name. A name removed or
renamed there fails these tests, where the benchmark would only report a
run without a result line. The module is loaded from its file; nothing in
``perfbench/`` is changed.
"""
import importlib.util
from pathlib import Path

import pytest

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_op_passes_its_checks(name):
    workload = WORKLOADS[name](1)
    assert workload.check(workload.op()) == []
