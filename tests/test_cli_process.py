"""The CLI as a cold process: ``python -m qbmgrad`` with stdout closed or open."""
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


def _cold(argv, out: Path, stdout, unbuffered: bool) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONUNBUFFERED", "QBMGRAD_SEED")}
    env["PYTHONPATH"] = str(Path(qbmgrad.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *(["-u"] if unbuffered else []), "-m", "qbmgrad",
         *map(str, argv), "--out", str(out)],
        stdout=stdout, stderr=subprocess.PIPE, env=env, text=True, timeout=120)


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
