"""Outside-in tracer: wraps public qbmgrad functions without editing them.

Each traced function is replaced, for the duration of a ``with Tracer():``
block, by a wrapper that records one span per call: name, parent span, start,
end, self time (duration minus the time of its child spans in the same
thread) and whether it raised.  The wrapper is bound in place of every
attribute of every loaded ``qbmgrad`` module that is the original object, so
re-exports and copies such as ``from .linalg import eigh`` are traced as
well.  Methods are wrapped on their class.  Bindings are restored on exit.

Spans stay in memory until the run ends; ``metrics()`` aggregates them.
The wrappers pass arguments and results through untouched, so traced and
untraced runs compute bit-identical outputs.
"""
from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

import numpy as np

# metric prefix -> (module, attribute path); "*Problem" expands to every
# Problem subclass defined in qbmgrad.training, aggregated under one name
TARGETS = {
    "linalg.eigh": ("qbmgrad.linalg", "eigh"),
    "linalg.spectral_norm": ("qbmgrad.linalg", "spectral_norm"),
    "linalg.Eigensystem.apply": ("qbmgrad.linalg", "Eigensystem.apply"),
    "linalg.as_hermitian": ("qbmgrad.linalg", "as_hermitian"),
    "linalg.as_density": ("qbmgrad.linalg", "as_density"),
    "linalg.expectation": ("qbmgrad.linalg", "expectation"),
    "models.thermalize": ("qbmgrad.models", "thermalize"),
    "models.ParamHamiltonian.with_theta": ("qbmgrad.models", "ParamHamiltonian.with_theta"),
    "models.qc_decompose": ("qbmgrad.models", "qc_decompose"),
    "models.cq_decompose": ("qbmgrad.models", "cq_decompose"),
    "matcalc.apply_channel": ("qbmgrad.matcalc", "apply_channel"),
    "gradients.gradient": ("qbmgrad.gradients", "gradient"),
    "gradients.lift_to_joint": ("qbmgrad.gradients", "lift_to_joint"),
    "gradients.relative_entropy": ("qbmgrad.gradients", "relative_entropy"),
    "gradients.psd_power": ("qbmgrad.gradients", "psd_power"),
    "gradients.gradient_qc": ("qbmgrad.gradients", "gradient_qc"),
    "gradients.gradient_cq": ("qbmgrad.gradients", "gradient_cq"),
    "estimator.estimate_first_term": ("qbmgrad.estimator", "estimate_first_term"),
    "estimator.estimate_model_term": ("qbmgrad.estimator", "estimate_model_term"),
    "densities.quantile": ("qbmgrad.densities", "quantile"),
    "training.train": ("qbmgrad.training", "train"),
    "training.objective": ("qbmgrad.training", "*Problem.objective"),
    "training.gradient_vector": ("qbmgrad.training", "*Problem.gradient_vector"),
    "training.finite_difference_gradient": ("qbmgrad.training", "finite_difference_gradient"),
    "runspec.load_runspec": ("qbmgrad.runspec", "load_runspec"),
    "cli.main": ("qbmgrad.cli", "main"),
}

# layers that can fail report an error count as well
WITH_ERRORS = ("linalg.eigh", "models.thermalize", "training.objective")

def metric_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for key in TARGETS:
        units[f"{key}.calls"] = "1/op"
        units[f"{key}.self_s"] = "s/op"
        if key in WITH_ERRORS:
            units[f"{key}.errors"] = "count"
    units.update({
        "estimator.shots": "1/op",
        "estimator.shots_per_busy_s": "1/s",
        "training.objective_per_iteration": "ratio",
        "trace.overhead_frac": "ratio",
    })
    return units


def _resolve(module: str, path: str) -> list[tuple[object, str]]:
    """(owner, attribute) pairs that hold the original callable."""
    mod = importlib.import_module(module)
    if path.startswith("*"):
        base_name, attr = path[1:].split(".")
        base = getattr(mod, base_name)
        return [
            (cls, attr)
            for cls in vars(mod).values()
            if isinstance(cls, type) and issubclass(cls, base) and cls is not base
            and cls.__module__ == module and attr in vars(cls)
        ]
    owner = mod
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return [(owner, attr)]


class Tracer:
    """Context manager that traces the TARGETS while it is active."""

    def __init__(self):
        self.names = list(TARGETS)
        self.spans: list[tuple] = []  # (name, id, parent, start, end, self_s, error)
        self.shots = 0
        self.accepted_steps = 0
        self._ids = iter(range(1, 1 << 62))
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []
        self._last_theta: dict[int, np.ndarray] = {}

    # -- binding -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qbmgrad" or n.startswith("qbmgrad."))]
        for idx, (key, (module, path)) in enumerate(TARGETS.items()):
            for owner, attr in _resolve(module, path):
                original = vars(owner)[attr]
                wrapper = self._wrap(idx, key, original)
                owners = [owner] if isinstance(owner, type) else modules
                for o in owners:
                    for name, value in list(vars(o).items()):
                        if value is original:
                            self._restore.append((o, name, value))
                            setattr(o, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._restore):
            setattr(owner, name, value)
        self._restore.clear()

    def _wrap(self, idx: int, key: str, fn):
        hook = {
            "estimator.estimate_first_term": self._count_first_term,
            "estimator.estimate_model_term": self._count_model_term,
            "training.gradient_vector": self._count_step,
            "training.train": self._end_train,
        }.get(key)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = call(idx, fn, args, kwargs)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _call(self, idx: int, fn, args, kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else 0
        frame = [span_id, 0.0]
        stack.append(frame)
        failed = True
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans.append((idx, span_id, parent, start, end, duration - frame[1], failed))

    # -- boundary counters -------------------------------------------------

    def _count_first_term(self, args, kwargs, result) -> None:
        with self._lock:
            self.shots += int(result[2])

    def _count_model_term(self, args, kwargs, result) -> None:
        shots = kwargs["shots"] if "shots" in kwargs else args[2]
        with self._lock:
            self.shots += int(shots)

    def _count_step(self, args, kwargs, result) -> None:
        """A step was accepted when a problem's gradient point moved."""
        problem, theta = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["theta"])
        with self._lock:
            last = self._last_theta.get(id(problem))
            if last is not None and not np.array_equal(last, theta):
                self.accepted_steps += 1
            self._last_theta[id(problem)] = theta.copy()

    def _end_train(self, args, kwargs, result) -> None:
        # problem ids may be reused once train() lets go of its problem
        with self._lock:
            self._last_theta.clear()

    # -- aggregation -------------------------------------------------------

    def _columns(self):
        n = len(self.names)
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        idx = np.asarray(cols[0], dtype=np.int64)
        start, end = np.asarray(cols[3], dtype=float), np.asarray(cols[4], dtype=float)
        calls = np.bincount(idx, minlength=n)
        self_s = np.bincount(idx, weights=np.asarray(cols[5], dtype=float), minlength=n)
        busy = np.bincount(idx, weights=end - start, minlength=n)
        errors = np.bincount(idx, weights=np.asarray(cols[6], dtype=float), minlength=n)
        return calls, self_s, busy, errors.astype(np.int64)

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics; calls, self time and shots per operation."""
        calls, self_s, busy, errors = self._columns()
        pos = {k: i for i, k in enumerate(self.names)}
        out: dict[str, float] = {}
        for key, i in pos.items():
            out[f"{key}.calls"] = float(calls[i] / ops)
            out[f"{key}.self_s"] = float(self_s[i] / ops)
            if key in WITH_ERRORS:
                out[f"{key}.errors"] = int(errors[i])
        est_busy = busy[pos["estimator.estimate_first_term"]] + busy[pos["estimator.estimate_model_term"]]
        out["estimator.shots"] = float(self.shots / ops)
        out["estimator.shots_per_busy_s"] = float(self.shots / est_busy) if est_busy > 0 else 0.0
        # line-search evaluations (every objective call after the first of a
        # train() call) per accepted step
        searches = calls[pos["training.objective"]] - calls[pos["training.train"]]
        out["training.objective_per_iteration"] = (
            float(searches / self.accepted_steps) if self.accepted_steps else 0.0
        )
        return out

    def zero_call_layers(self, expected) -> list[str]:
        """Names in ``expected`` that recorded no call."""
        calls = self._columns()[0]
        return [k for k in expected if calls[self.names.index(k)] == 0]

    def dump(self, path) -> None:
        """Write the spans as columns of a compressed .npz file."""
        cols = list(zip(*self.spans)) if self.spans else [()] * 7
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.asarray(cols[0], dtype=np.int16),
            span=np.asarray(cols[1], dtype=np.int64),
            parent=np.asarray(cols[2], dtype=np.int64),
            start=np.asarray(cols[3], dtype=float),
            end=np.asarray(cols[4], dtype=float),
            self_s=np.asarray(cols[5], dtype=float),
            error=np.asarray(cols[6], dtype=bool),
        )
