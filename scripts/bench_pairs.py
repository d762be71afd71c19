#!/usr/bin/env python3
"""Alternating before/after runs of perfbench, summarised as BENCH_<tag>.json.

    python3 scripts/bench_pairs.py --before DIR --after DIR --out BENCH_x.json \\
        --workload shot-hoeffding --seeds 1101-1110 [--workload ... --seeds ...]

``--before`` and ``--after`` are two checkouts of the repository, each with
its own ``perfbench/`` and ``src/``.  For every seed, ``perfbench/run.py``
runs once in each checkout (``--trace 0``, for the ``run_seconds`` of this
checkout's ``BENCHMARK.json``), the side that runs first
alternating from pair to pair so that drift of the machine hits both sides
alike.  The output holds, per workload and end-to-end metric, the medians
and quartiles of both sides, the after/before ratio of the medians and the
number of pairs the after side won (direction from ``BENCHMARK.json``), plus
every pair's values, fingerprints, failure counts and the environment
stamps of both sides.  Each run keeps its nominal metrics, its raw
``wall`` metrics, the median of its ``reference_s`` samples (the
reference kernel's seconds that scale wall time to nominal time) and the
two raw parts of its ``setup_s``: ``import_s``, the interpreter's import
of the program and the harness, and ``setup_median_s``, the median of its
``setups_s``.  Per workload, ``setup_parts`` gives the quartiles of both
parts on both sides, their after/before ratios of the medians and the
pairs the after side won, so a file shows which part of ``setup_s``
moved.  Each end-to-end metric also carries three verdicts:

- ``claim_met``: the after side won at least 9 of every 10 pairs, and its
  median is better than the before median by more than the before side's
  interquartile range;
- ``within_bound``: the after median is worse than the before median by
  no more than the metric's relative ``bound`` in ``BENCHMARK.json``;
- ``scaling_disagrees``: the nominal and the raw wall after/before ratios
  of the medians fall on opposite sides of 1, so the reference scaling,
  not the program, decided the direction.

A run is failed when it prints no result line or leaves no results file
(its seed's file is deleted before it starts, so a stale one is never
read); the pair keeps its exit code and the last lines of its standard
error, and the summaries use the complete pairs only.  The top-level
``openblas_threads`` lists the OpenBLAS thread counts that the runs'
environment stamps record.  The file is written either way, but the
script exits 1 when a run failed or when the two sides of any pair ran
with different counts, since their times and the exact-d256 fingerprint
depend on it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STDERR_LINES = 20  # kept from a failed run
SETUP_PARTS = ("import_s", "setup_median_s")


def _seeds(spec: str) -> list[int]:
    """The seeds of 'LO-HI' or 'N'; ValueError unless they are integers and LO <= HI."""
    lo, _, hi = spec.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("empty range")
    return seeds


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    results = checkout / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    results.unlink(missing_ok=True)
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    try:
        line = json.loads(done.stdout.strip().splitlines()[-1])
        record = json.loads(results.read_text())
    except (IndexError, ValueError, OSError):  # no result line, or no results file
        return {"exit_code": done.returncode, "run_failed": True,
                "stderr_tail": done.stderr.splitlines()[-STDERR_LINES:]}
    return {
        "exit_code": done.returncode,
        "run_failed": False,
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        "wall": record.get("wall"),
        "reference_s_median": statistics.median(record["reference_s"]),
        "import_s": record.get("import_s"),
        "setup_median_s": statistics.median(record["setups_s"]) if "setups_s" in record else None,
        "attempted": line["attempted"],
        "failed": line["failed"],
        "fingerprint": record.get("fingerprint"),
        "environment": record.get("environment"),
    }


def _quartiles(xs: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3
    return {"median": q2, "q1": q1, "q3": q3}


def _summary(pairs: list[dict], metrics: dict[str, dict]) -> dict:
    out = {}
    for name, metric in metrics.items():
        sign = -1.0 if metric["better"] == "lower" else 1.0  # sign * (after - before) > 0 is a gain
        before = [p["before"]["metrics"][name] for p in pairs]
        after = [p["after"]["metrics"][name] for p in pairs]
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        qb, qa = _quartiles(before), _quartiles(after)
        gain = sign * (qa["median"] - qb["median"])
        ratio = qa["median"] / qb["median"]
        walls = [(p["before"].get("wall"), p["after"].get("wall")) for p in pairs]
        raw = raw_ratio = None
        if all(b and a for b, a in walls):  # no raw verdict unless every run kept its wall record
            raw = {"before": _quartiles([b[name] for b, _ in walls]),
                   "after": _quartiles([a[name] for _, a in walls])}
            raw_ratio = raw["after"]["median"] / raw["before"]["median"]
        out[name] = {
            "better": metric["better"],
            "before": qb,
            "after": qa,
            "ratio_of_medians": ratio,
            "raw": raw,
            "raw_ratio_of_medians": raw_ratio,
            "scaling_disagrees": raw_ratio is not None and (ratio - 1.0) * (raw_ratio - 1.0) < 0,
            "after_wins": wins,
            "pairs": len(pairs),
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > qb["q3"] - qb["q1"],
            "within_bound": -gain <= metric["bound"] * abs(qb["median"]),
        }
    return out


def _setup_parts(pairs: list[dict]) -> dict | None:
    """Raw seconds of the two parts of ``setup_s`` (lower is better), or
    None unless every run recorded both."""
    out = {}
    for part in SETUP_PARTS:
        before, after = ([p[side].get(part) for p in pairs] for side in ("before", "after"))
        if None in before or None in after:
            return None
        qb, qa = _quartiles(before), _quartiles(after)
        out[part] = {"before": qb, "after": qa, "ratio_of_medians": qa["median"] / qb["median"],
                     "after_wins": sum(a < b for a, b in zip(after, before)), "pairs": len(pairs)}
    return out


def _complete(pairs: list[dict]) -> list[dict]:
    """The pairs whose two runs both gave a result."""
    return [p for p in pairs if not any(p[side].get("run_failed") for side in ("before", "after"))]


def _openblas_threads(workloads: dict) -> tuple[list, list[str]]:
    """The OpenBLAS thread counts stamped on every run, and one line per
    pair whose two sides ran with different counts."""
    counts, mismatches = set(), []
    for name, workload in workloads.items():
        for pair in _complete(workload["pairs"]):
            before, after = ((pair[side]["environment"] or {}).get("blas_threads")
                             for side in ("before", "after"))
            counts.update((before, after))
            if before != after:
                mismatches.append(f"{name} seed {pair['seed']}: before {before}, after {after}")
    return sorted(counts, key=str), mismatches


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--before", type=Path, required=True)
    ap.add_argument("--after", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", action="append", required=True, help="LO-HI, one per --workload")
    args = ap.parse_args(argv)
    if len(args.seeds) != len(args.workload):
        ap.error("give one --seeds per --workload")
    try:
        seed_lists = [_seeds(spec) for spec in args.seeds]
    except ValueError:
        ap.error(f"--seeds takes nonempty integer ranges LO-HI with LO <= HI, got {args.seeds}")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    report = {"command": ["python3", "perfbench/run.py", "--seconds", str(seconds), "--trace", "0"],
              "workloads": {}}
    failed_runs = []
    for workload, seeds in zip(args.workload, seed_lists):
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run = pair[side] = _run(sides[side], workload, seed, seconds)
                if run.get("run_failed"):
                    failed_runs.append(f"{workload} seed {seed} {side} (exit {run['exit_code']})")
                    print(f"{workload} seed {seed} {side}: FAILED, exit {run['exit_code']}: "
                          + " | ".join(run["stderr_tail"][-3:]), file=sys.stderr)
                else:
                    print(f"{workload} seed {seed} {side}: {run['metrics']}", file=sys.stderr)
            pairs.append(pair)
        complete = _complete(pairs)
        report["workloads"][workload] = {
            "summary": _summary(complete, metrics) if complete else None,
            "setup_parts": _setup_parts(complete) if complete else None,
            "complete_pairs": len(complete),
            "fingerprints_equal": sum(p["before"]["fingerprint"] == p["after"]["fingerprint"]
                                      for p in complete),
            "failed_ops": {side: sum(p[side]["failed"] for p in complete) for side in sides},
            "failed_runs": {side: sum(bool(p[side].get("run_failed")) for p in pairs)
                            for side in sides},
            "pairs": pairs,
        }
    threads, mismatches = _openblas_threads(report["workloads"])
    args.out.write_text(json.dumps({"openblas_threads": threads, **report}, indent=1) + "\n")
    if failed_runs:
        print("runs without a result: " + "; ".join(failed_runs), file=sys.stderr)
    if mismatches:
        print("OpenBLAS thread counts differ between the sides: " + "; ".join(mismatches),
              file=sys.stderr)
    return 1 if failed_runs or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
