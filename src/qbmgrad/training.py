"""Plain gradient-descent training loops with exact or shot-based gradients.

No momentum or adaptive optimizers: the only adaptivity is halving the step
when the objective would increase (at most 20 halvings, then the step is
skipped), which makes logged objectives non-increasing by construction.
The exact objective is recomputed at every logged step even in shot mode,
cleanly separating estimator noise from optimization behavior.  An exact
run also stops once an accepted step lowers the objective by no more than
``STOP_RTOL`` relative to max(1, |objective|).
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import GuardError, SpecError
from .estimator import (
    CLASSICAL_STREAM,
    SHOT_GRADIENT_STREAM,
    EstimatorConfig,
    check_circuit,
    eigen_groups,
    estimate_first_term,
    estimate_model_term,
)
from .gradients import (
    GradientReport,
    Objective,
    Target,
    UMEGAKI,
    classical_data_distribution,
    classical_distribution,
    classical_gradient,
    classical_objective,
    cq_objective,
    gradient,
    gradient_cq,
    gradient_qc,
    label_probs,
    relative_entropy,
)
from .models import CQModel, ParamHamiltonian, QCModel, ThermalModel, thermalize

MAX_HALVINGS = 20
STOP_RTOL = 1e-12  # an exact run ends on an accepted step gaining at most this, relative
DIVERGENCE_CAP = 1e6


@dataclass(frozen=True)
class TrainConfig:
    """The descent's own settings; the ``Problem`` given to ``train`` owns how
    its gradients are computed (estimator, seed, objective)."""

    learning_rate: float = 0.1
    iterations: int = 500
    log_every: int = 1

    def __post_init__(self):
        if not 0.0 < self.learning_rate < np.inf:
            raise SpecError("learning rate must be positive and finite")
        if self.iterations < 1 or self.log_every < 1:
            raise SpecError("iterations and log_every must be >= 1")


@dataclass(frozen=True)
class TrajectoryRow:
    iteration: int
    objective: float
    grad_norm: float
    theta: np.ndarray
    wall_ms: float


@dataclass
class Trajectory:
    rows: list[TrajectoryRow] = field(default_factory=list)
    stop_reason: str = "iterations"  # or "tolerance" or "rejected" (exact runs only)

    @property
    def final_theta(self) -> np.ndarray:
        return self.rows[-1].theta

    @property
    def final_objective(self) -> float:
        return self.rows[-1].objective

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.rows])


class Problem:
    """Objective/gradient pair over a parameter vector.

    Each model kind has one subclass, which alone knows that kind's
    objective, its exact gradient and its start point ``theta0``, and owns
    how ``gradient_vector`` computes: exactly, unless the problem holds an
    ``estimator``, whose settings its shot-based gradients then follow.

    A subclass whose objective and gradient need a model builds it in
    ``_build(theta)`` and reads it through ``_model(theta)``, which keeps
    one model: the one built for a theta of the same shape and bytes, if
    there is one; otherwise it drops the old model first, then builds and
    keeps the new one.  ``train`` evaluates the objective at the accepted
    theta just before it asks for the gradient there, so both use one
    model, and a ``train`` continued from the last run's final theta
    starts on it too.  A build that raises leaves no model behind.

    Every concrete subclass defines ``objective`` and ``gradient_vector``
    itself: the benchmark's tracer (``perfbench/tracer.py``) times the
    methods defined on each subclass, not inherited ones.
    """

    theta0: np.ndarray
    estimator: EstimatorConfig | None = None
    _kept: tuple | None = None  # (theta shape and bytes, model)

    def objective(self, theta) -> float:
        raise NotImplementedError

    def gradient_vector(self, theta, iteration: int) -> np.ndarray:
        raise NotImplementedError

    def report(self, theta) -> GradientReport:
        """Exact gradient at theta with its two-term breakdown.

        ``train`` never calls it: it asks ``gradient_vector``, which
        without an ``estimator`` returns ``report(theta).values``.
        """
        raise NotImplementedError

    def _build(self, theta):
        raise NotImplementedError

    def _model(self, theta):
        """The model at theta, built once per theta (see the class docstring)."""
        theta = np.asarray(theta, dtype=float)
        key = (theta.shape, theta.tobytes())
        if self._kept is None or self._kept[0] != key:
            self._kept = None  # the old model goes before the new one is built
            self._kept = (key, self._build(theta))
        return self._kept[1]


class QuantumProblem(Problem):
    """Fully quantum model: match the visible marginal to a target state.

    The target is validated once, at construction, as a ``Target``.  With
    an ``estimator``, both gradient terms are shot estimates under it, its
    seed roots every iteration's streams, ``check_circuit`` runs at once, and
    each term's eigenvalue groups, which both estimates need, are formed once.
    """

    def __init__(self, hamiltonian: ParamHamiltonian, rho, obj: Objective = UMEGAKI,
                 estimator: EstimatorConfig | None = None):
        self.hamiltonian = hamiltonian
        self.target = Target(rho, obj)
        if estimator is not None and obj.kind != "umegaki":
            raise SpecError("shot-mode gradients cover the umegaki objective only")
        if estimator is not None:
            check_circuit(hamiltonian.dims)
        self.estimator = estimator
        self.theta0 = np.asarray(hamiltonian.theta, dtype=float)
        self._groups = None

    @property
    def rho(self) -> np.ndarray:
        return self.target.rho

    def _build(self, theta) -> ThermalModel:
        return thermalize(self.hamiltonian.with_theta(theta))

    def objective(self, theta) -> float:
        return relative_entropy(self.target, self._model(theta).sigma_v_eig, self.target.obj)

    def report(self, theta) -> GradientReport:
        # the raw state, not self.target: exact-d256's expected layers name
        # linalg.as_density, and this is its only caller there (ROADMAP 2b)
        return gradient(self._model(theta), self.rho, self.target.obj)

    def gradient_vector(self, theta, iteration: int) -> np.ndarray:
        cfg = self.estimator
        if cfg is None:
            return self.report(theta).values
        model = self._model(theta)
        if self._groups is None:
            self._groups = [eigen_groups(term) for term in self.hamiltonian.terms]
        out = np.zeros(self.hamiltonian.n_params)
        for j, (term, groups) in enumerate(zip(self.hamiltonian.terms, self._groups)):
            seq = np.random.SeedSequence(cfg.seed, spawn_key=(SHOT_GRADIENT_STREAM, iteration, j))
            seed_first, seed_model = (int(x) for x in seq.generate_state(2, np.uint64))
            first, _, shots = estimate_first_term(
                model, self.target, term, replace(cfg, seed=seed_first), groups=groups)
            second, _ = estimate_model_term(model, term, shots, seed_model, groups=groups)
            out[j] = first - second
        return out


class QCProblem(Problem):
    """Quantum-visible / classical-hidden model against a target state,
    validated once at construction as a ``Target``."""

    def __init__(self, qc: QCModel, rho, obj: Objective = UMEGAKI):
        self.qc = qc
        self.target = Target(rho, obj)
        self.theta0 = np.asarray(qc.theta, dtype=float)

    def _build(self, theta) -> QCModel:
        return self.qc.with_theta(theta)

    def objective(self, theta) -> float:
        return relative_entropy(self.target, self._model(theta).sigma_v_eig, self.target.obj)

    def report(self, theta) -> GradientReport:
        return gradient_qc(self._model(theta), self.target, self.target.obj)

    def gradient_vector(self, theta, iteration: int) -> np.ndarray:
        return self.report(theta).values


class CQProblem(Problem):
    """Classical-visible / quantum-hidden model against a label distribution."""

    def __init__(self, cq: CQModel, target_probs, obj: Objective = UMEGAKI):
        self.cq = cq
        self.target = label_probs(target_probs, cq.dims.d_v)
        self.obj = obj
        self.theta0 = np.asarray(cq.theta, dtype=float)

    def _build(self, theta) -> CQModel:
        return self.cq.with_theta(theta)

    def objective(self, theta) -> float:
        return cq_objective(self._model(theta), self.target, self.obj)

    def report(self, theta) -> GradientReport:
        return gradient_cq(self._model(theta), self.target, self.obj)

    def gradient_vector(self, theta, iteration: int) -> np.ndarray:
        return self.report(theta).values


class ClassicalProblem(Problem):
    """Classical energy tables against a visible target distribution.

    Without an ``estimator`` the gradient is enumerated; with one it is
    estimated from ``estimator.shots`` (10,000 when 0) Monte Carlo draws of
    (v, h) under the data and under the model, from the stream
    SeedSequence(estimator.seed, spawn_key=(CLASSICAL_STREAM, iteration)).
    """

    def __init__(self, tables, target_q, theta0, estimator: EstimatorConfig | None = None):
        self.tables = np.asarray(tables, dtype=float)
        self.target = label_probs(target_q, self.tables.shape[1])
        self.theta0 = np.asarray(theta0, dtype=float)
        self.estimator = estimator

    def objective(self, theta) -> float:
        return classical_objective(self.tables, theta, self.target)

    def report(self, theta) -> GradientReport:
        return classical_gradient(self.tables, theta, self.target)

    def gradient_vector(self, theta, iteration: int) -> np.ndarray:
        """Exact, or the Monte Carlo gradient: (v,h) sampled from q(v) p(h|v) and p(v,h)."""
        if self.estimator is None:
            return self.report(theta).values
        samples = self.estimator.shots or 10_000
        rng = np.random.default_rng(
            np.random.SeedSequence(self.estimator.seed, spawn_key=(CLASSICAL_STREAM, iteration)))
        p_vh = classical_distribution(self.tables, theta)
        means = []
        for joint in (classical_data_distribution(p_vh, self.target), p_vh):  # data, then model
            v, h = np.divmod(rng.choice(joint.size, size=samples, p=joint.ravel()), joint.shape[1])
            means.append(self.tables[:, v, h].mean(axis=1))
        return means[0] - means[1]


def finite_difference_gradient(f, theta, step: float = 1e-5) -> np.ndarray:
    """Central finite-difference oracle for any scalar objective."""
    theta = np.asarray(theta, dtype=float)
    out = np.zeros_like(theta)
    for j in range(theta.size):
        plus = theta.copy()
        minus = theta.copy()
        plus[j] += step
        minus[j] -= step
        out[j] = (f(plus) - f(minus)) / (2.0 * step)
    return out


def train(problem: Problem, cfg: TrainConfig) -> Trajectory:
    """Gradient descent theta <- theta - eta * grad with step halving.

    The exact objective is evaluated every iteration to steer the halving
    and logged every ``log_every`` iterations.  Gradients come from
    ``problem.gradient_vector``; when the problem holds no ``estimator``
    they are exact, and the run ends early on a step that is rejected
    through every halving (``stop_reason`` "rejected") or that is accepted
    but lowers the objective by at most ``STOP_RTOL * max(1, |objective|)``
    ("tolerance"); otherwise it runs all ``cfg.iterations`` ("iterations").
    A start objective above 1e6 or non-finite aborts with a diagnostic; a
    step is accepted only with a finite objective no larger than the last,
    so no later objective can exceed the start one.
    """
    exact = problem.estimator is None
    theta = problem.theta0.copy()
    traj = Trajectory()
    start = time.perf_counter()
    obj = problem.objective(theta)
    if not np.isfinite(obj) or obj > DIVERGENCE_CAP:
        raise GuardError(f"objective diverged at iteration 0: {obj!r}")
    grad_vec = problem.gradient_vector(theta, 0)
    traj.rows.append(TrajectoryRow(0, obj, float(np.linalg.norm(grad_vec)), theta.copy(),
                                   (time.perf_counter() - start) * 1e3))
    for it in range(1, cfg.iterations + 1):
        eta = cfg.learning_rate
        stop = "rejected" if exact else None
        for _ in range(MAX_HALVINGS + 1):
            cand = theta - eta * grad_vec
            try:
                cand_obj = problem.objective(cand)
            except GuardError:  # the trial step left the trustworthy region
                cand_obj = np.nan
            if np.isfinite(cand_obj) and cand_obj <= obj:  # descent keeps the log non-increasing
                small = obj - cand_obj <= STOP_RTOL * max(1.0, abs(obj))
                stop = "tolerance" if exact and small else None
                theta, obj = cand, cand_obj
                break
            eta *= 0.5
        if stop != "rejected":  # else theta is unchanged and so is its exact gradient
            grad_vec = problem.gradient_vector(theta, it)
        if it % cfg.log_every == 0 or it == cfg.iterations or stop:
            traj.rows.append(
                TrajectoryRow(it, obj, float(np.linalg.norm(grad_vec)), theta.copy(),
                              (time.perf_counter() - start) * 1e3)
            )
        if stop:
            # exact gradients are deterministic: a fully rejected step would
            # repeat forever, and a step below the tolerance has converged
            traj.stop_reason = stop
            break
    return traj
