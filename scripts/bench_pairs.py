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
every pair's raw values, fingerprints, failure counts and the environment
stamps of both sides.  Each metric also carries two verdicts:

- ``claim_met``: the after side won at least 9 of every 10 pairs, and its
  median is better than the before median by more than the before side's
  interquartile range;
- ``within_bound``: the after median is worse than the before median by
  no more than the metric's relative ``bound`` in ``BENCHMARK.json``.

The top-level ``openblas_threads`` lists the OpenBLAS thread counts that
the runs' environment stamps record.  The file is written either way, but
the script exits 1 when the two sides of any pair ran with different
counts, since their times and the exact-d256 fingerprint depend on it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    line = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((checkout / ".perfbench" / "results"
                         / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "exit_code": done.returncode,
        "metrics": {k: v["value"] for k, v in line["metrics"].items()},
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
        out[name] = {
            "better": metric["better"],
            "before": qb,
            "after": qa,
            "ratio_of_medians": qa["median"] / qb["median"],
            "after_wins": wins,
            "pairs": len(pairs),
            "claim_met": 10 * wins >= 9 * len(pairs) and gain > qb["q3"] - qb["q1"],
            "within_bound": -gain <= metric["bound"] * abs(qb["median"]),
        }
    return out


def _openblas_threads(workloads: dict) -> tuple[list, list[str]]:
    """The OpenBLAS thread counts stamped on every run, and one line per
    pair whose two sides ran with different counts."""
    counts, mismatches = set(), []
    for name, workload in workloads.items():
        for pair in workload["pairs"]:
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

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    report = {"command": ["python3", "perfbench/run.py", "--seconds", str(seconds), "--trace", "0"],
              "workloads": {}}
    for workload, spec in zip(args.workload, args.seeds):
        pairs = []
        for i, seed in enumerate(_seeds(spec)):
            order = ("before", "after") if i % 2 == 0 else ("after", "before")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = _run(sides[side], workload, seed, seconds)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}", file=sys.stderr)
            pairs.append(pair)
        report["workloads"][workload] = {
            "summary": _summary(pairs, metrics),
            "fingerprints_equal": sum(p["before"]["fingerprint"] == p["after"]["fingerprint"]
                                      for p in pairs),
            "failed_ops": {side: sum(p[side]["failed"] for p in pairs) for side in sides},
            "pairs": pairs,
        }
    threads, mismatches = _openblas_threads(report["workloads"])
    args.out.write_text(json.dumps({"openblas_threads": threads, **report}, indent=1) + "\n")
    if mismatches:
        print("OpenBLAS thread counts differ between the sides: " + "; ".join(mismatches),
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
