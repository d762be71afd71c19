"""The CLI as a cold process: ``python -m qbmgrad`` with stdout closed or open."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qbmgrad
from qbmgrad.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"
COMMANDS = {
    "grad": ["grad", "--spec", DEMOS / "grad_qubit.json"],
    "train": ["train", "--spec", DEMOS / "train_qubit.json", "--iterations", "3"],
    "estimate": ["estimate", "--spec", DEMOS / "estimate.json", "--shots", "64"],
    "verify": ["verify", "--suite", "densities"],
}


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "QBMGRAD_SEED")}
    env["PYTHONPATH"] = str(Path(qbmgrad.__file__).resolve().parents[1])
    return env


def _cold(argv, out: Path, stdout, unbuffered: bool) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *(["-u"] if unbuffered else []), "-m", "qbmgrad",
         *map(str, argv), "--out", str(out)],
        stdout=stdout, stderr=subprocess.PIPE, env=_env(), text=True, timeout=120)


def test_import_leaves_run_specific_modules_unloaded():
    # the verify suites, the thread pool and the Gauss-Legendre nodes load on first use
    code = ("import sys\n"
            "import qbmgrad.cli, qbmgrad.estimator, qbmgrad.gradients, qbmgrad.linalg\n"
            "import qbmgrad.models, qbmgrad.runspec, qbmgrad.training\n"
            "print([m for m in ('qbmgrad.verify', 'concurrent.futures', 'numpy.polynomial')\n"
            "       if m in sys.modules])\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env(), timeout=120)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


def test_cold_verify_runs_a_suite_and_rejects_an_unknown_one(tmp_path):
    proc = _cold(COMMANDS["verify"], tmp_path / "ok", subprocess.PIPE, unbuffered=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    report = json.loads((tmp_path / "ok" / "report.json").read_text())
    assert report["suites"] == ["densities"] and report["n_failed"] == 0
    proc = _cold(["verify", "--suite", "bogus"], tmp_path / "bad", subprocess.PIPE,
                 unbuffered=False)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error:") and "'densities'" in proc.stderr


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", list(COMMANDS))
def test_closed_stdout_keeps_report_and_exit_code(tmp_path, command, unbuffered):
    # the read end closes before the child starts, so its first write meets EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _cold(COMMANDS[command], tmp_path, write_end, unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "report.json").exists()
    assert proc.stderr == ""  # no Traceback, no "Exception ignored"


def test_cold_process_matches_in_process_main(tmp_path, capsys):
    proc = _cold(COMMANDS["grad"], tmp_path / "cold", subprocess.PIPE, unbuffered=False)
    code = main([*map(str, COMMANDS["grad"]), "--out", str(tmp_path / "warm")])
    assert (proc.returncode, proc.stderr) == (code, "")
    assert proc.stdout.replace(str(tmp_path / "cold"), str(tmp_path / "warm")) \
        == capsys.readouterr().out
    assert (tmp_path / "cold" / "report.json").read_text() \
        == (tmp_path / "warm" / "report.json").read_text()
