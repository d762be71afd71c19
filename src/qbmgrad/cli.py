"""Command-line driver: verify suites, compute gradients, train, estimate.

Exit codes: 0 success, 1 check failure, 2 input/schema error, 3 numerical
guard.  All outputs are deterministic given (spec, seed); reports land in
``--out`` as report.json (plus trajectory.csv for training runs) before the
command prints its summary, which a closed stdout drops without an error.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from .errors import GuardError, SpecError
from .estimator import EstimatorConfig, eigen_groups, estimate_first_term, hoeffding_shots
from .gradients import Objective, Target, UMEGAKI, gradient, tsallis
from .linalg import spectral_norm
from .models import cq_decompose, qc_decompose, thermalize
from .runspec import ESTIMATE_FIELDS, TRAIN_FIELDS, RunSpec, fmt17, load_runspec
from .training import (
    CQProblem,
    ClassicalProblem,
    Problem,
    QCProblem,
    QuantumProblem,
    TrainConfig,
    finite_difference_gradient,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_GUARD = 3


def _positive_int(text: str) -> int:
    if int(text) < 1:  # a non-integer is argparse's "invalid ... value" usage error
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return int(text)


@functools.cache  # parsing leaves the parser unchanged, so one serves every main() call
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qbmgrad", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    # each command takes only the flag groups it reads
    spec = argparse.ArgumentParser(add_help=False)
    spec.add_argument("--spec", type=Path, help="JSON run-spec file")
    spec.add_argument("--seed", type=int, help="override the spec seed")
    objective = argparse.ArgumentParser(add_help=False)
    objective.add_argument("--objective", choices=["umegaki", "tsallis"])
    objective.add_argument("--q", type=float, help="tsallis order in (0,1) u (1,2]")
    threads = argparse.ArgumentParser(add_help=False)
    threads.add_argument("--threads", type=_positive_int, default=os.cpu_count() or 1)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=Path("."), help="output directory")
    shot = argparse.ArgumentParser(add_help=False)
    shot.add_argument("--epsilon", type=float, help="shot-mode error target")
    shot.add_argument("--delta", type=float, help="shot-mode failure probability")
    shot.add_argument("--shots", type=int, help="fixed shots per estimate (0 = auto)")

    pv = sub.add_parser("verify", parents=[out], help="run property-check suites")
    pv.add_argument("--suite", default="all",
                    help="a suite name or 'all'; an unknown name lists the suites")

    sub.add_parser("grad", parents=[spec, objective, out],
                   help="exact gradient with oracle residuals")

    pt = sub.add_parser("train", parents=[spec, objective, threads, out, shot],
                        help="gradient-descent training")
    pt.add_argument("--mode", choices=TRAIN_FIELDS["mode"], help="gradient mode")
    pt.add_argument("--learning-rate", type=float)
    pt.add_argument("--iterations", type=int)
    pt.add_argument("--log-every", type=int)

    pe = sub.add_parser("estimate", parents=[spec, threads, out, shot],
                        help="shot-estimate one gradient term")
    pe.add_argument("--term", dest="term_index", metavar="TERM", type=int, help="parameter index")
    for command in sub.choices.values():  # unknown flags get the command's own usage line
        command.set_defaults(usage_parser=command)
    return p


def _resolve_seed(args, spec: RunSpec) -> int:
    """The run's seed: --seed, else QBMGRAD_SEED, else the spec seed."""
    env = os.environ.get("QBMGRAD_SEED")
    if args.seed is not None:
        seed, source = args.seed, "--seed"
    elif env is not None:
        try:
            seed = int(env)
        except ValueError as exc:
            raise SpecError(f"QBMGRAD_SEED must be an integer, got {env!r}") from exc
        source = "QBMGRAD_SEED"
    else:
        seed, source = spec.seed, "the spec seed"
    if seed < 0:
        raise SpecError(f"{source} must be nonnegative, got {seed}")
    return seed


def _with_flags(args, section: dict, fields: dict) -> dict:
    """A checked spec section with each flag that was given (zero included)
    laid over it; a setting neither gives keeps its config default."""
    return {**section, **{key: getattr(args, key) for key in fields
                          if getattr(args, key) is not None}}


def _estimator_config(args, opts: dict, seed: int) -> EstimatorConfig:
    """Shot settings of a train or estimate run from its options."""
    names = {"epsilon": "epsilon", "delta": "delta_fail", "shots": "shots"}
    return EstimatorConfig(seed=seed, threads=args.threads,
                           **{names[key]: opts[key] for key in names if key in opts})


def _resolve_objective(args, spec: RunSpec) -> Objective:
    if args.objective == "umegaki" and args.q is not None:
        raise SpecError("--q applies to --objective tsallis only")
    if args.objective == "tsallis" and args.q is None:
        raise SpecError("--objective tsallis requires --q")
    if args.q is not None:
        return tsallis(args.q)
    return UMEGAKI if args.objective == "umegaki" else spec.objective


def _need_spec(args) -> RunSpec:
    if args.spec is None:
        raise SpecError(f"command {args.command!r} requires --spec FILE")
    return load_runspec(args.spec)


def _write(out_dir: Path, name: str, text: str) -> Path:
    path = out_dir / name
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as exc:  # a file or directory in the way, or no permission
        raise SpecError(f"--out: cannot write {exc.filename}: {exc.strerror}") from exc
    return path


def _write_report(out_dir: Path, payload: dict) -> Path:
    return _write(out_dir, "report.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _say(text: str) -> None:
    """Print a line of a command's summary; once stdout's reader has gone,
    stdout points at os.devnull (as Python's docs advise), so no write raises."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())


def cmd_verify(args) -> int:
    from .verify import SUITES, run_suites  # only verify runs load the suites

    names = list(SUITES) if args.suite == "all" else [args.suite]
    results = run_suites(names)  # unknown suite raises SpecError -> exit 2
    n_fail = sum(not r.passed for r in results)
    payload = {
        "command": "verify",
        "suites": names,
        "n_checks": len(results),
        "n_failed": int(n_fail),
        "max_residual_over_tol": float(
            max((r.residual / r.tol if r.tol > 0 else 0.0) for r in results)
        ),
        "checks": [r.as_dict() for r in results],
    }
    path = _write_report(args.out, payload)
    for r in results:
        _say(f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}/{r.name}: "
             f"residual={r.residual:.3e} tol={r.tol:.1e}")
    _say(f"{len(results)} checks, {n_fail} failed -> {path}")
    return EXIT_OK if n_fail == 0 else EXIT_CHECK_FAILED


def _problem(spec: RunSpec, obj: Objective, est: EstimatorConfig | None = None) -> Problem:
    """The Problem for the spec's model kind: exact, or shot-based under ``est``."""
    kind, model = spec.model.kind, spec.model
    if est is not None and kind in ("qc", "cq"):
        raise SpecError("shot-mode training covers generic, restricted and classical models only")
    if kind in ("generic", "restricted"):
        return QuantumProblem(model.hamiltonian, spec.target_state, obj, estimator=est)
    if kind == "qc":
        return QCProblem(qc_decompose(model.hamiltonian, model.basis), spec.target_state, obj)
    if kind == "cq":
        return CQProblem(cq_decompose(model.hamiltonian, model.basis), spec.target_probs, obj)
    if obj.kind != "umegaki":
        raise SpecError("classical tables support the umegaki objective only")
    return ClassicalProblem(model.tables, spec.target_probs, model.theta, estimator=est)


def cmd_grad(args) -> int:
    spec = _need_spec(args)
    obj = _resolve_objective(args, spec)
    p = _problem(spec, obj)
    value = p.objective(p.theta0)
    rep = p.report(p.theta0)
    fd = finite_difference_gradient(p.objective, p.theta0)
    resid = np.abs(rep.values - fd)
    payload = {
        "command": "grad",
        "objective": {"kind": obj.kind, **({"q": obj.q} if obj.q else {})},
        "objective_value": value,
        "values": rep.values.tolist(),
        "first_terms": rep.first_terms.tolist(),
        "second_terms": rep.second_terms.tolist(),
        "fd_residuals": resid.tolist(),
        **({"q_overlap": rep.q_overlap} if rep.q_overlap is not None else {}),
    }
    path = _write_report(args.out, payload)
    _say(f"objective value: {value:.12g}")
    for j, (v, f1, s1, r) in enumerate(zip(rep.values, rep.first_terms, rep.second_terms, resid)):
        _say(f"  d/dtheta[{j}] = {v:+.12g}   (target term {f1:+.6g}, model term {s1:+.6g}, "
             f"fd residual {r:.2e})")
    _say(f"report -> {path}")
    return EXIT_OK


def _reject_unused_shot_settings(args, spec: RunSpec, mode: str) -> None:
    """Exit 2 on a shot setting, flag or ``train`` spec field, that ``train``
    in this mode would not read: exact mode reads none of them, and
    classical tables in shot mode draw ``--shots`` samples with no
    (epsilon, delta) target."""
    if mode == "exact":
        unused, why = ["epsilon", "delta", "shots"], "apply to --mode shot only"
    elif spec.model.kind == "classical":
        unused = ["epsilon", "delta"]
        why = "do not apply to classical tables, which draw --shots samples"
    else:
        return
    given = [f"--{k}" for k in unused if getattr(args, k) is not None]
    given += [f"train.{k}" for k in unused if k in spec.train]
    if given:
        raise SpecError(f"{', '.join(given)} {why}")


def cmd_train(args) -> int:
    spec = _need_spec(args)
    obj = _resolve_objective(args, spec)
    seed = _resolve_seed(args, spec)
    opts = _with_flags(args, spec.train, TRAIN_FIELDS)
    mode = opts.get("mode", "exact")
    _reject_unused_shot_settings(args, spec, mode)
    est = _estimator_config(args, opts, seed) if mode == "shot" else None
    cfg = TrainConfig(**{key: opts[key] for key in ("learning_rate", "iterations", "log_every")
                         if key in opts})
    traj = train(_problem(spec, obj, est), cfg)
    theta_cols = [f"theta_{i}" for i in range(traj.rows[0].theta.size)]
    lines = [["iter", "objective", "grad_norm", *theta_cols, "wall_ms"]]
    lines += [[str(r.iteration), *map(fmt17, (r.objective, r.grad_norm, *r.theta, r.wall_ms))]
              for r in traj.rows]
    csv_path = _write(args.out, "trajectory.csv", "".join(",".join(cells) + "\n" for cells in lines))
    payload = {
        "command": "train",
        "mode": mode,
        "iterations": cfg.iterations,
        "iterations_run": traj.rows[-1].iteration,
        "stop_reason": traj.stop_reason,
        "final_objective": traj.final_objective,
        "final_theta": traj.final_theta.tolist(),
        "monotone": bool(np.all(np.diff(traj.objectives()) <= 0.0)),
        "trajectory_csv": str(csv_path),
    }
    path = _write_report(args.out, payload)
    _say(f"final objective {traj.final_objective:.6g} after {traj.rows[-1].iteration} "
         f"of {cfg.iterations} iterations (stop reason: {traj.stop_reason})")
    _say(f"trajectory -> {csv_path}\nreport -> {path}")
    return EXIT_OK


def cmd_estimate(args) -> int:
    spec = _need_spec(args)
    if spec.model.kind not in ("generic", "restricted"):
        raise SpecError("estimate covers generic/restricted models")
    seed = _resolve_seed(args, spec)
    opts = _with_flags(args, spec.estimate, ESTIMATE_FIELDS)
    term = opts.get("term_index", 0)
    model = thermalize(spec.model.hamiltonian)
    terms = model.hamiltonian.terms
    if not 0 <= term < len(terms):
        raise SpecError(f"term index {term} outside [0, {len(terms)})")
    cfg = _estimator_config(args, opts, seed)
    groups = eigen_groups(terms[term])  # the term's one decomposition: its norm and outcomes
    g_norm = spectral_norm(groups[1])
    auto_shots = hoeffding_shots(model.kappa, g_norm, cfg.epsilon, cfg.delta_fail) if g_norm else None
    target = Target(spec.target_state)  # validated once, for the estimate and the exact term
    start = time.perf_counter()
    mean, stderr, shots = estimate_first_term(model, target, terms[term], cfg, groups=groups)
    elapsed = time.perf_counter() - start
    exact = gradient(model, target).first_terms[term]
    payload = {
        "command": "estimate",
        "term_index": term,
        "epsilon": cfg.epsilon,
        "delta_fail": cfg.delta_fail,
        "shots": shots,
        "auto_shots": auto_shots,
        "mean": mean,
        "stderr": stderr,
        "exact": exact,
        "abs_error": abs(mean - exact),
        "kappa": model.kappa,
        "g_norm": g_norm,
        "wall_s": elapsed,
    }
    path = _write_report(args.out, payload)
    _say(f"term {term}: mean {mean:+.6f} +- {stderr:.6f} ({shots} shots), "
         f"exact {exact:+.6f}, |error| {abs(mean - exact):.6f}")
    _say(f"kappa = {model.kappa:.4f}, |G_j| = {g_norm:.4f}")
    _say(f"report -> {path}")
    return EXIT_OK


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.usage_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    handlers = {
        "verify": cmd_verify,
        "grad": cmd_grad,
        "train": cmd_train,
        "estimate": cmd_estimate,
    }
    try:
        return handlers[args.command](args)
    except SpecError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
