"""Smoke test of the benchmark harness on tiny inputs.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload in ``--smoke`` mode, untraced and traced, and checks the
result line against BENCHMARK.json, the bit-identity of traced and untraced
outputs, the tracer's restoration of every binding, and the non-zero exit in
a directory that holds only the benchmark.
"""
import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int) -> tuple[int, dict, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.2",
                         "--trace", str(trace), "--smoke"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    tag = f"{workload}-seed5-trace{trace}-smoke"
    record = json.loads((ROOT / ".perfbench" / "results" / f"{tag}.json").read_text())
    return code, result, record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_smoke(workload):
    code0, res0, rec0 = _run(workload, 0)
    code1, res1, rec1 = _run(workload, 1)
    for code, res, metrics in ((code0, res0, SPEC["end_to_end"]), (code1, res1, SPEC["per_layer"])):
        assert code == 0 and res["correct"] is True
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["attempted"] >= 1 and res["failed"] == 0
        assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in metrics}
    # traced and untraced loops replay the same seeded operations
    assert rec0["fingerprint"] == rec1["fingerprint"]
    env = rec0["environment"]
    assert env["seed"] == 5 and env["nproc"] >= 1 and env["numpy"]


def test_raising_operation_counts_as_failed(monkeypatch):
    import qbmgrad.errors
    import workloads

    def broken(self, k):
        raise qbmgrad.errors.GuardError("injected")

    monkeypatch.setattr(workloads.ShotHoeffding, "step", broken)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "shot-hoeffding", "--seed", "5", "--seconds", "0.2",
                         "--trace", "0", "--smoke"])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def test_tracer_restores_bindings():
    import qbmgrad.linalg
    import qbmgrad.models
    import tracer

    before = qbmgrad.linalg.eigh, qbmgrad.linalg.Eigensystem.apply
    with tracer.Tracer():
        assert qbmgrad.models.eigh is not before[0]  # the copy in models is traced too
        qbmgrad.models.thermalize(qbmgrad.models.ParamHamiltonian(
            dims=qbmgrad.linalg.BipartiteDims(2, 1),
            terms=(qbmgrad.linalg.as_hermitian([[1, 0], [0, -1]]),), theta=[0.3]))
    assert (qbmgrad.linalg.eigh, qbmgrad.linalg.Eigensystem.apply) == before
    assert qbmgrad.models.eigh is before[0] and qbmgrad.eigh is before[0]


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
