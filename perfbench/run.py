#!/usr/bin/env python3
"""qbmgrad benchmark: one workload, one closed-loop run, one JSON result line.

    python3 perfbench/run.py --workload exact-d256 --seed 1 --seconds 30 --trace 0

Run from the root of a qbmgrad checkout; the package is imported from its
``src/`` directory.  ``--trace 0`` measures the end-to-end metrics untraced.
``--trace 1`` runs the loop twice for half the time each, untraced and then
traced, reports the per-layer metrics and the tracing overhead, and fails if
the two loops' outputs differ or an expected layer records no call.
``--smoke`` shrinks every input so a broken harness fails fast.

Times are reported in nominal seconds: the wall seconds of each loop step
scaled by the speed of a fixed reference kernel timed right after it (see
``reference.py``); raw wall times are kept in the full record.

The last line of standard output is the result object; a human-readable
summary goes to standard error and the full record, with the environment
stamp, to ``.perfbench/results/``.  The exit code is 0 only when every
correctness gate passed.
"""
from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
MIN_OPS = 100  # p90 needs ten samples beyond it
MAX_RUN_S = 150.0  # hard stop for the timed loop, whatever --seconds says
SETUPS = 5  # set-up repetitions behind setup_s


def _import_program():
    """Import qbmgrad from <checkout>/src; exit 2 when absent."""
    src = ROOT / "src"
    if not (src / "qbmgrad" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no qbmgrad sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, str(src))
    import qbmgrad

    if Path(qbmgrad.__file__).resolve().parents[1] != src.resolve():
        sys.stderr.write(f"perfbench: imported qbmgrad from {qbmgrad.__file__}, not {src}\n")
        sys.exit(2)


def _closed_loop(workload, seconds: float, min_ops: int, ref):
    """Run steps back to back until the time is up and enough ops are done.

    Returns the operations with wall seconds and with nominal seconds.
    """
    from workloads import Op

    workload.reset()
    raw, scaled = [], []
    start = time.perf_counter()
    k = 0
    while True:
        step_start = time.perf_counter()
        try:
            ops = workload.step(k)
        except Exception:  # a raising operation counts as failed; the loop goes on
            sys.stderr.write(traceback.format_exc())
            ops = [Op(time.perf_counter() - step_start, 0.0, False, b"", kind="raised")]
        k += 1
        scale = ref.scale(time.perf_counter() - step_start)
        raw += ops
        scaled += [dataclasses.replace(op, seconds=op.seconds * scale) for op in ops]
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(raw) >= min_ops) or elapsed >= MAX_RUN_S:
            return raw, scaled


def _rate(ops) -> float:
    """Work per second of operation time."""
    return sum(op.work for op in ops) / sum(op.seconds for op in ops)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit():
    """HEAD commit read from .git without running git, or 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(workload, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "estimator_threads": workload.estimator_threads,
        "commit": _commit(),
        "seed": seed,
    }


def _fingerprint(ops, n: int) -> str:
    import hashlib

    h = hashlib.sha256()
    for op in ops[:n]:
        h.update(op.digest)
    return h.hexdigest()


def _end_to_end(workload, ops, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "op_s.p50": (statistics.median(workload.timings(ops)), "s"),
        "work_per_s": (_rate(ops), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the harness test")
    args = ap.parse_args(argv)

    import_start = time.perf_counter() if argv is not None else _START
    _import_program()
    import reference
    import tracer
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    import_s = time.perf_counter() - import_start

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    out_dir = ROOT / ".perfbench"
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke, out_dir / "out" / args.workload)

    # set-up is repeated with the lazy caches dropped; setup_s is the import
    # time plus the median set-up, in nominal seconds
    ref = reference.Reference()
    setups, scales = [], []
    for _ in range(SETUPS):
        workloads.clear_lazy_caches()
        t0 = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - t0)
        scales.append(ref.scale(setups[-1]))
    setup_wall_s = import_s + statistics.median(setups)
    setup_s = setup_wall_s * statistics.median(scales)

    # every loop covers the fingerprinted prefix, so runs compare like for like
    min_ops = workload.fingerprint_ops if args.smoke else max(MIN_OPS, workload.fingerprint_ops)
    problems = []
    record = {"workload": args.workload, "trace": args.trace, "smoke": args.smoke,
              "work_unit": workload.work_unit, "import_s": import_s, "setups_s": setups,
              "environment": _environment(workload, args.seed)}
    if args.trace:
        half = args.seconds / 2.0
        plain, plain_scaled = _closed_loop(workload, half, workload.fingerprint_ops, ref)
        with tracer.Tracer() as tr:
            traced, traced_scaled = _closed_loop(workload, half, workload.fingerprint_ops, ref)
        ops = plain + traced
        common = min(len(plain), len(traced))
        if [o.digest for o in plain[:common]] != [o.digest for o in traced[:common]]:
            problems.append("traced outputs differ from untraced outputs")
        missing = tr.zero_call_layers(workload.expected_layers)
        if missing:
            problems.append(f"expected layers recorded no call: {', '.join(missing)}")
        layer = tr.metrics(len(traced))
        layer["trace.overhead_frac"] = 1.0 - _rate(traced_scaled) / _rate(plain_scaled)
        metrics = {k: (layer[k], u) for k, u in tracer.metric_units().items()}
        record["spans"] = len(tr.spans)
        tr.dump(results_dir / f"spans-{tag}.npz")
        replayed = plain
    else:
        ops, scaled = _closed_loop(workload, args.seconds, min_ops, ref)
        metrics = _end_to_end(workload, scaled, setup_s)
        record["wall"] = {k: v for k, (v, _) in _end_to_end(workload, ops, setup_wall_s).items()}
        # recorded, not gated (see README.md); meaningful with 10 samples beyond it
        times = workload.timings(scaled)
        if len(times) >= MIN_OPS:
            record["op_s.p90"] = statistics.quantiles(times, n=10)[8]
        replayed = ops

    problems += workload.final_checks()
    failed = sum(not op.ok for op in ops)
    misses = sum(op.epsilon_miss for op in ops)
    correct = failed == 0 and not problems
    record.update({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "failed_frac": failed / len(ops), "epsilon_misses": misses, "problems": problems,
        "fingerprint": _fingerprint(replayed, workload.fingerprint_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "op_seconds": [[op.kind, op.seconds, op.ok] for op in ops],
        "reference_s": ref.samples,
    })
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    for k, (v, u) in metrics.items():
        sys.stderr.write(f"{args.workload} {k} = {v:.6g} {u}\n")
    if "op_s.p90" in record:
        sys.stderr.write(f"{args.workload} op_s.p90 = {record['op_s.p90']:.6g} s (not gated)\n")
    sys.stderr.write(f"{args.workload} failed_frac = {failed}/{len(ops)}; estimates outside "
                     f"epsilon: {misses}; work unit: {workload.work_unit}\n")
    for p in problems:
        sys.stderr.write(f"{args.workload} FAILED: {p}\n")
    result = {"correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
