"""What the benchmark harness in ``perfbench/`` needs from the package.

The harness traces functions by module and attribute name, and each
workload names the traced layers it must exercise.  These tests read the
harness and change nothing there, so a refactor of ``src/`` that would
break the benchmark fails here first.
"""
import json
import sys
import types
from pathlib import Path

import pytest

import qbmgrad
import qbmgrad.linalg

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
_write_bytecode = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # leave no __pycache__ in perfbench/
try:
    import tracer
    import workloads
finally:
    sys.dont_write_bytecode = _write_bytecode

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("key", list(tracer.TARGETS))
def test_trace_target_resolves(key):
    module, path = tracer.TARGETS[key]
    pairs = tracer._resolve(module, path)
    assert pairs, f"{key}: {module}:{path} matches nothing"
    for owner, attr in pairs:
        assert callable(vars(owner)[attr]), f"{key}: {owner!r}.{attr} is not callable"


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_expects_only_traced_layers(name):
    expected = workloads.WORKLOADS[name].expected_layers
    assert set(expected) <= set(tracer.TARGETS), set(expected) - set(tracer.TARGETS)


def test_package_root_exports_only_eigh():
    assert qbmgrad.eigh is qbmgrad.linalg.eigh
    public = {name for name, value in vars(qbmgrad).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == {"eigh"}


@pytest.mark.parametrize("name", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_smoke_step_ok(tmp_path, name):
    # the calls each workload makes into src/, on tiny inputs, traced as the
    # harness traces them: every layer the workload gates on must record a call
    workload = workloads.WORKLOADS[name](seed=5, smoke=True, out_dir=tmp_path)
    workload.setup()
    with tracer.Tracer() as tr:
        ops = workload.step(0)
    assert ops and all(op.ok for op in ops), [op.kind for op in ops if not op.ok]
    assert workload.final_checks() == []
    assert tr.zero_call_layers(workload.expected_layers) == []
