#!/usr/bin/env python3
"""One digest per seeded CLI command, to compare the outputs of two checkouts.

    python3 scripts/output_digests.py [TREE] [--write]

TREE is a qbmgrad checkout, by default the one holding this script; its
``src/`` is imported and its ``demos/`` are run, so the script also runs
against a checkout that does not contain it.  Every command runs in this
process through ``qbmgrad.cli.main`` at ``--seed 7`` (``verify`` takes no
seed), writing into a temporary directory.  A command's digest is the
SHA-256 of its exit code, its ``report.json`` without ``wall_s`` and
``trajectory_csv``, and its ``trajectory.csv`` without the ``wall_ms``
column: everything it writes apart from timings and paths.  Equal lines
for two checkouts mean the command wrote the same files in both.

``--write`` also records the digests in TREE's ``tests/output_digests.json``,
stamped with the environment that made them (see ``environment``), which a
tier-1 test compares with the outputs of the code under test.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED = "7"
GRAD_DEMOS = ("classical", "cq", "fixed_point", "qc", "qubit", "restricted", "tsallis")
UNTIMED = ("wall_s", "trajectory_csv")  # report fields that change from run to run
DIGEST_FILE = Path("tests") / "output_digests.json"


def commands(demos: Path) -> list[list[str]]:
    """Every command the script digests, as CLI argument lists."""
    def spec(name: str) -> list[str]:
        return ["--spec", str(demos / f"{name}.json")]

    cmds = [["grad", *spec(f"grad_{n}")] for n in GRAD_DEMOS]
    cmds += [["train", *spec(f"grad_{n}")] for n in GRAD_DEMOS]
    cmds += [
        ["train", *spec("train_qubit")],
        ["train", *spec("train_qubit"), "--mode", "shot", "--shots", "1024", "--iterations", "20"],
        ["estimate", *spec("estimate")],
        ["grad", *spec("grad_qc"), "--q", "0.5"],
        ["grad", *spec("grad_qc"), "--q", "2"],
        ["grad", *spec("grad_cq"), "--q", "1.5"],
        ["train", *spec("grad_qc"), "--q", "1.5", "--iterations", "30"],
    ]
    return [c + ["--seed", SEED] for c in cmds] + [["verify", "--suite", "all"]]


def _csv_without_wall_ms(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name != "wall_ms"] if rows else []
    return "\n".join(",".join(row[i] for i in keep) for row in rows)


def digest(argv: list[str]) -> str:
    """SHA-256 of what one command writes, timings and paths left out."""
    import qbmgrad.cli

    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = qbmgrad.cli.main(argv + ["--out", out])
        h = hashlib.sha256(f"exit {code}\n".encode())
        report = Path(out) / "report.json"
        if report.is_file():
            payload = {k: v for k, v in json.loads(report.read_text()).items() if k not in UNTIMED}
            h.update(json.dumps(payload, sort_keys=True).encode())
        trajectory = Path(out) / "trajectory.csv"
        if trajectory.is_file():
            h.update(_csv_without_wall_ms(trajectory.read_text()).encode())
    return h.hexdigest()


def label(argv: list[str]) -> str:
    """A command as printed and recorded: spec files by name, not path."""
    return " ".join(a if not a.endswith(".json") else Path(a).name for a in argv)


def environment() -> dict:
    """What besides the code can move a digest: numpy's version, its BLAS,
    and the CPU features numpy dispatches its ufunc loops on."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    simd = config["SIMD Extensions"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "cpu_features": simd["baseline"] + simd["found"]}


def digests(tree: Path = ROOT) -> dict[str, str]:
    """Every command's digest, by label, run on TREE's demos."""
    return {label(argv): digest(argv) for argv in commands(tree.resolve() / "demos")}


def _import_from(tree: Path) -> None:
    """Import qbmgrad from <tree>/src; exit 2 when it is not there."""
    src = (tree / "src").resolve()
    sys.path.insert(0, str(src))
    import qbmgrad

    if Path(qbmgrad.__file__).resolve().parents[1] != src:
        sys.exit(f"output_digests: imported qbmgrad from {qbmgrad.__file__}, not {src}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("tree", nargs="?", type=Path, default=ROOT, help="qbmgrad checkout")
    ap.add_argument("--write", action="store_true", help=f"record the digests in TREE/{DIGEST_FILE}")
    args = ap.parse_args()
    _import_from(args.tree)
    recorded = digests(args.tree)
    for name, value in recorded.items():
        print(f"{value}  {name}")
    if args.write:
        payload = {"environment": environment(), "digests": recorded}
        (args.tree / DIGEST_FILE).write_text(json.dumps(payload, indent=1) + "\n")


if __name__ == "__main__":
    main()
