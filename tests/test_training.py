import warnings

import numpy as np
import pytest

from pathlib import Path

import qbmgrad.estimator
import qbmgrad.gradients
import qbmgrad.models
import qbmgrad.training
from qbmgrad.errors import GuardError, ScaleError, SpecError, SupportError
from qbmgrad.estimator import EstimatorConfig
from qbmgrad.gradients import classical_gradient, gradient, relative_entropy, tsallis
from qbmgrad.linalg import BipartiteDims
from qbmgrad.models import ParamHamiltonian, cq_decompose, qc_decompose, thermalize
from qbmgrad.training import (
    CQProblem,
    ClassicalProblem,
    QCProblem,
    QuantumProblem,
    TrainConfig,
    finite_difference_gradient,
    train,
)
from qbmgrad.runspec import load_runspec
from conftest import PAULI_Z, block_visible_terms, rand_herm, rand_state, rand_unitary


def _qubit_problem(r0=0.8, r1=0.2):
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.zeros(1))
    rho = np.diag([r0, r1]).astype(complex)
    return QuantumProblem(ham, rho), 0.5 * np.log(r1 / r0)


def test_training_stays_at_fixed_point(rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.4) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.3, -0.2]))
    model = thermalize(ham)
    problem = QuantumProblem(ham, model.sigma_v)
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=20))
    assert np.max(np.abs(traj.final_theta - ham.theta)) < 1e-8
    assert traj.final_objective < 1e-12


def test_single_qubit_benchmark_converges():
    problem, theta_star = _qubit_problem()
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=2000, log_every=100))
    assert traj.final_objective < 1e-8
    assert abs(traj.final_theta[0] - theta_star) < 1e-4


def test_objective_monotone_under_step_halving():
    problem, _ = _qubit_problem()
    # deliberately oversized step: halving must still keep the log monotone
    traj = train(problem, TrainConfig(learning_rate=25.0, iterations=60))
    assert np.all(np.diff(traj.objectives()) <= 0.0)


def test_trajectory_reproducible():
    problem, _ = _qubit_problem()
    cfg = TrainConfig(learning_rate=0.1, iterations=50, log_every=5)
    a = train(problem, cfg)
    b = train(problem, cfg)
    assert np.array_equal(np.stack([r.theta for r in a.rows]),
                          np.stack([r.theta for r in b.rows]))
    assert a.objectives().tolist() == b.objectives().tolist()


def test_shot_mode_trajectory_reproducible():
    problem, _ = _qubit_problem()
    est = EstimatorConfig(epsilon=0.2, delta_fail=0.2, shots=2000, seed=11)
    cfg = TrainConfig(learning_rate=0.3, iterations=8)
    runs = []
    for _ in range(2):
        p = QuantumProblem(problem.hamiltonian, problem.rho, estimator=est)
        runs.append(train(p, cfg))
    assert runs[0].objectives().tolist() == runs[1].objectives().tolist()
    assert np.array_equal(runs[0].final_theta, runs[1].final_theta)


@pytest.mark.parametrize("kind", ["quantum", "classical"])
def test_shot_mode_training_runs_every_iteration(kind):
    # a rejected noisy step is no convergence: train reads the estimator from
    # the problem, so a shot run logs all its rows under a plain TrainConfig
    if kind == "quantum":
        problem, _ = _qubit_problem()
        make = lambda seed: QuantumProblem(problem.hamiltonian, problem.rho,
                                           estimator=EstimatorConfig(shots=300, seed=seed))
        learning_rate, iterations = 0.3, 60
    else:
        spec = load_runspec(Path(__file__).resolve().parents[1] / "demos" / "grad_classical.json")
        make = lambda seed: ClassicalProblem(spec.model.tables, spec.target_probs, spec.model.theta,
                                             estimator=EstimatorConfig(shots=50, seed=seed))
        learning_rate, iterations = 0.2, 200
    for seed in range(6):
        traj = train(make(seed), TrainConfig(learning_rate=learning_rate, iterations=iterations))
        assert [r.iteration for r in traj.rows] == list(range(iterations + 1))


def test_shot_gradient_streams_differ_across_seed_and_iteration(rng):
    # seed ^ f(iteration, term) gave (seed f(1, 0), iteration 0) and
    # (seed 0, iteration 1) one stream; every (seed, iteration) now has its own
    dims = BipartiteDims(2, 2)
    ham = ParamHamiltonian(dims=dims, terms=(rand_herm(rng, 4, 0.4),), theta=np.array([0.3]))
    rho = rand_state(rng, 2)

    def shot_grad(seed, iteration):
        est = EstimatorConfig(shots=500, seed=seed)
        return QuantumProblem(ham, rho, estimator=est).gradient_vector(
            ham.theta, iteration)

    old_alias = 0x9E3779B9 * 131 & 0x7FFFFFFF
    grads = [shot_grad(old_alias, 0), shot_grad(0, 1), shot_grad(0, 0), shot_grad(old_alias, 1)]
    assert len({g.tobytes() for g in grads}) == 4
    assert np.array_equal(shot_grad(0, 1), grads[1])


def test_classical_sampled_streams_differ_across_seed_and_iteration(rng):
    tables = rng.normal(size=(2, 3, 2))
    theta = rng.uniform(-0.4, 0.4, 2)
    target = np.array([0.2, 0.3, 0.5])

    def sampled(seed, iteration):
        problem = ClassicalProblem(tables, target, theta,
                                   estimator=EstimatorConfig(shots=200, seed=seed))
        return problem.gradient_vector(theta, iteration)

    old_alias = 2654435761 & 0x7FFFFFFF
    grads = [sampled(old_alias, 0), sampled(0, 1), sampled(0, 0), sampled(old_alias, 1)]
    assert len({g.tobytes() for g in grads}) == 4


def _count_thermalize(monkeypatch) -> list[int]:
    calls = [0]
    raw = qbmgrad.training.thermalize

    def counted(h):
        calls[0] += 1
        return raw(h)

    monkeypatch.setattr(qbmgrad.training, "thermalize", counted)
    return calls


def test_train_thermalizes_once_per_step(monkeypatch):
    problem, _ = _qubit_problem()
    objective_calls = [0]
    raw_objective = problem.objective

    def counted_objective(theta):
        objective_calls[0] += 1
        return raw_objective(theta)

    problem.objective = counted_objective
    calls = _count_thermalize(monkeypatch)
    iterations = 12
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=iterations))
    assert len(traj.rows) == iterations + 1
    assert objective_calls[0] == iterations + 1  # no step was halved or rejected
    assert calls[0] == iterations + 1
    problem.gradient_vector(traj.final_theta, iterations)  # the last step's model is kept
    assert calls[0] == iterations + 1



def _count_gradients(problem):
    """Record every theta at which problem.gradient_vector is asked."""
    thetas = []
    raw_gradient = problem.gradient_vector

    def counted_gradient(theta, iteration):
        thetas.append(np.array(theta))
        return raw_gradient(theta, iteration)

    problem.gradient_vector = counted_gradient
    return thetas, raw_gradient


def test_converged_exact_run_reuses_its_last_gradient():
    problem = _UphillProblem()
    thetas, raw_gradient = _count_gradients(problem)
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=2000, log_every=100))
    stop = traj.rows[-1]
    assert traj.stop_reason == "rejected"
    assert stop.iteration < 2000  # a fully rejected step ended the run
    assert len(thetas) == stop.iteration  # one at theta0, one per accepted step
    assert stop.grad_norm == np.linalg.norm(raw_gradient(stop.theta, 0))


def test_tolerance_stop_evaluates_one_gradient_at_the_stopped_theta():
    problem, theta_star = _qubit_problem()
    thetas, raw_gradient = _count_gradients(problem)
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=2000, log_every=100))
    stop = traj.rows[-1]
    assert traj.stop_reason == "tolerance"
    assert stop.iteration < 2000
    assert len(thetas) == stop.iteration + 1  # one at theta0, one per accepted step
    assert sum(np.array_equal(t, stop.theta) for t in thetas) == 1
    assert np.array_equal(thetas[-1], stop.theta)
    assert stop.grad_norm == np.linalg.norm(raw_gradient(stop.theta, 0))
    assert stop.objective < 1e-8 and abs(stop.theta[0] - theta_star) < 1e-4


def test_oversized_step_does_not_stop_early():
    # halved steps that are accepted still lower the objective by far more
    # than the tolerance, so the run goes on until it has converged
    problem, theta_star = _qubit_problem()
    calls = [0]
    raw_objective = problem.objective

    def counted_objective(theta):
        calls[0] += 1
        return raw_objective(theta)

    problem.objective = counted_objective
    traj = train(problem, TrainConfig(learning_rate=25.0, iterations=60))
    assert calls[0] > traj.rows[-1].iteration + 1  # some steps were halved
    assert traj.stop_reason == "tolerance"
    assert traj.final_objective < 1e-8
    assert abs(traj.final_theta[0] - theta_star) < 1e-4


def test_continued_train_starts_on_the_kept_model(monkeypatch, rng):
    # training in chunks, each train() starting where the last one ended
    dims = BipartiteDims(2, 2)
    ham = ParamHamiltonian(dims=dims, terms=tuple(rand_herm(rng, 4, 0.4) for _ in range(3)),
                           theta=rng.uniform(-0.5, 0.5, 3))
    rho = rand_state(rng, 2)
    cfg = TrainConfig(learning_rate=0.2, iterations=6)
    problem = QuantumProblem(ham, rho)
    problem.theta0 = train(problem, cfg).final_theta
    fresh = QuantumProblem(ham, rho)
    fresh.theta0 = problem.theta0.copy()
    calls = _count_thermalize(monkeypatch)
    continued = train(problem, cfg)
    continued_calls, calls[0] = calls[0], 0
    want = train(fresh, cfg)
    assert continued_calls == calls[0] - 1
    assert len(continued.rows) == len(want.rows)
    for got, row in zip(continued.rows, want.rows):
        assert (got.iteration, got.objective, got.grad_norm) == (row.iteration, row.objective,
                                                                 row.grad_norm)
        assert np.array_equal(got.theta, row.theta)


def test_gradient_after_objective_elsewhere_matches_fresh(rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.4) for _ in range(3))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.zeros(3))
    rho = rand_state(rng, 2)
    a, b = rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.5, 0.5, 3)
    want = gradient(thermalize(ham.with_theta(b)), rho).values
    problem = QuantumProblem(ham, rho)
    problem.objective(a)
    assert np.array_equal(problem.gradient_vector(b, 0), want)
    problem.objective(b)
    assert np.array_equal(problem.gradient_vector(b, 1), want)


@pytest.mark.parametrize("bad_theta", [800.0, 20.0])
def test_raising_objective_leaves_no_model(monkeypatch, bad_theta):
    # 800 trips the exponent guard in thermalize, which leaves no model; 20
    # thermalizes, and the kept model is a valid model of theta, then sigma_v
    # (smallest eigenvalue ~e^-40) trips the support floor in the objective,
    # and the gradient runs its own support check on the kept model
    problem, _ = _qubit_problem()
    good, bad = np.array([0.1]), np.array([bad_theta])
    calls = _count_thermalize(monkeypatch)
    for theta in (good, bad):
        problem.objective(good)
        with pytest.raises(GuardError):
            problem.objective(bad)
        before = calls[0]
        try:
            problem.gradient_vector(theta, 0)
        except GuardError:
            assert theta is bad
        kept = theta is bad and bad_theta == 20.0
        assert calls[0] == before + (0 if kept else 1)


def _block_problem(name):
    spec = load_runspec(Path(__file__).resolve().parents[1] / "demos" / f"{name}.json")
    model = spec.model
    if model.kind == "qc":
        return lambda: QCProblem(qc_decompose(model.hamiltonian, model.basis), spec.target_state)
    return lambda: CQProblem(cq_decompose(model.hamiltonian, model.basis), spec.target_probs)


@pytest.mark.parametrize("name", ["grad_qc", "grad_cq"])
def test_block_training_decomposes_once_per_step(monkeypatch, name):
    make = _block_problem(name)
    problem, fresh = make(), make()
    calls = [0]
    raw = qbmgrad.models._thermal_blocks

    def counted(block_hams):
        calls[0] += 1
        return raw(block_hams)

    monkeypatch.setattr(qbmgrad.models, "_thermal_blocks", counted)
    iterations = 12
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=iterations))
    assert len(traj.rows) == iterations + 1
    assert calls[0] == iterations + 1  # one model per accepted step, not two
    # the handed-on model gives the same report as a fresh one
    theta = traj.final_theta
    problem.objective(theta)
    got, want = problem.report(theta), fresh.report(theta)
    for field in ("values", "first_terms", "second_terms"):
        assert np.array_equal(getattr(got, field), getattr(want, field))
    assert np.array_equal(traj.rows[-1].grad_norm, np.linalg.norm(want.values))


def _count_eigh(monkeypatch, module) -> list[int]:
    calls = [0]
    raw = module.eigh

    def counted(x, **kw):
        calls[0] += 1
        return raw(x, **kw)

    monkeypatch.setattr(module, "eigh", counted)
    return calls


def test_qc_training_decomposes_each_block_once_per_step(monkeypatch):
    problem = _block_problem("grad_qc")()
    d_h = problem.qc.dims.d_h
    decomposed, stacked = [0], [0]
    raw_eigh = np.linalg.eigh

    def counted(x, *args, **kw):
        x = np.asarray(x)
        decomposed[0] += 1 if x.ndim == 2 else x.shape[0]
        stacked[0] += x.ndim == 3
        return raw_eigh(x, *args, **kw)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    in_gradients = _count_eigh(monkeypatch, qbmgrad.gradients)
    iterations = 12
    train(problem, TrainConfig(learning_rate=0.1, iterations=iterations))
    steps = iterations + 1
    # one decomposition per block and one of the visible marginal per
    # accepted step, made when the step's model is built; the blocks go
    # through one stacked call
    assert decomposed[0] == (d_h + 1) * steps
    assert stacked[0] == steps
    # the objective and gradient_qc reuse the model's eigensystems
    assert in_gradients[0] == 0


def test_exact_objective_reuses_the_thermal_decomposition(monkeypatch, rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.4) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.3, -0.2]))
    rho = rand_state(rng, 2)
    problem = QuantumProblem(ham, rho)
    want = relative_entropy(rho, thermalize(ham).sigma_v)
    calls = _count_eigh(monkeypatch, qbmgrad.gradients)
    assert problem.objective(ham.theta) == want
    assert calls[0] == 0  # sigma_v is not decomposed a second time


class _UphillProblem(qbmgrad.training.Problem):
    """theta^2 with the gradient's sign flipped: every step is rejected."""

    theta0 = np.ones(1)

    def objective(self, theta):
        return float(theta[0] ** 2)

    def gradient_vector(self, theta, iteration):
        return -2.0 * np.asarray(theta)


def test_problem_without_estimator_trains_exactly():
    # a subclass that never sets estimator inherits None: exact, so the
    # first fully rejected step ends the run
    traj = train(_UphillProblem(), TrainConfig(iterations=10))
    assert [r.iteration for r in traj.rows] == [0, 1]
    assert traj.final_theta.tolist() == [1.0]
    shot = _UphillProblem()
    shot.estimator = EstimatorConfig()
    assert len(train(shot, TrainConfig(iterations=10)).rows) == 11


def test_shot_problem_rejects_tsallis_before_thermalizing(monkeypatch):
    problem, _ = _qubit_problem()
    calls = _count_thermalize(monkeypatch)
    with pytest.raises(SpecError, match="shot-mode gradients cover the umegaki objective only"):
        QuantumProblem(problem.hamiltonian, problem.rho, tsallis(1.5), estimator=EstimatorConfig())
    assert calls[0] == 0


def test_classical_default_shots_draw_ten_thousand_samples(rng):
    tables = rng.normal(size=(2, 3, 2))
    theta = rng.uniform(-0.4, 0.4, 2)
    target = np.array([0.2, 0.3, 0.5])

    def sampled(shots):
        problem = ClassicalProblem(tables, target, theta,
                                   estimator=EstimatorConfig(shots=shots, seed=4))
        return problem.gradient_vector(theta, 3)

    assert sampled(0).tobytes() == sampled(10_000).tobytes()
    assert sampled(0).tobytes() != sampled(9_999).tobytes()


def test_shot_mode_training_reaches_exact_neighborhood():
    problem, _ = _qubit_problem()
    exact = train(problem, TrainConfig(learning_rate=0.3, iterations=60))
    eps = 0.1
    est = EstimatorConfig(epsilon=eps, delta_fail=0.1, seed=5)
    shot_problem = QuantumProblem(problem.hamiltonian, problem.rho, estimator=est)
    traj = train(shot_problem, TrainConfig(learning_rate=0.3, iterations=60))
    assert traj.final_objective <= exact.final_objective + 5 * eps


def test_cq_training_decreases(rng):
    basis = rand_unitary(rng, 2)
    terms = block_visible_terms(rng, 2, 2, 3, basis)
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms,
                           theta=np.zeros(3))
    cq = cq_decompose(ham, basis)
    target = np.array([0.7, 0.3])
    problem = CQProblem(cq, target)
    traj = train(problem, TrainConfig(learning_rate=0.05, iterations=500, log_every=20))
    objs = traj.objectives()
    assert np.all(np.diff(objs) <= 0.0)
    assert objs[-1] < objs[0]


@pytest.mark.parametrize("kind", ["cq", "classical"])
def test_label_problems_check_their_labels_once(monkeypatch, kind):
    calls = [0]
    raw = qbmgrad.gradients.label_probs

    def counted(probs, d_v):
        calls[0] += 1
        return raw(probs, d_v)

    monkeypatch.setattr(qbmgrad.gradients, "label_probs", counted)
    if kind == "cq":
        problem = _block_problem("grad_cq")()
    else:
        spec = load_runspec(Path(__file__).resolve().parents[1] / "demos" / "grad_classical.json")
        problem = ClassicalProblem(spec.model.tables, spec.target_probs, spec.model.theta)
    assert calls == [1]  # at construction
    traj = train(problem, TrainConfig(learning_rate=0.1, iterations=6))
    problem.report(traj.final_theta)
    assert traj.rows[-1].iteration == 6 and calls == [1]  # and never per step


def test_classical_training_stationary_at_marginal(rng):
    tables = rng.normal(size=(3, 4, 2))
    theta0 = rng.uniform(-0.3, 0.3, 3)
    from qbmgrad.gradients import classical_distribution

    target = classical_distribution(tables, theta0).sum(axis=1)
    traj = train(ClassicalProblem(tables, target, theta0),
                 TrainConfig(learning_rate=0.1, iterations=20))
    assert np.max(np.abs(traj.final_theta - theta0)) < 1e-10


def test_classical_training_realizable_target(rng):
    # 2 visible bits / 1 hidden bit restricted tables; target generated by
    # the model itself at hidden parameters, so the optimum is reachable
    tables = rng.normal(size=(4, 4, 2))
    from qbmgrad.gradients import classical_distribution

    target = classical_distribution(tables, np.array([0.4, -0.3, 0.2, 0.5])).sum(axis=1)
    traj = train(ClassicalProblem(tables, target, np.zeros(4)),
                 TrainConfig(learning_rate=0.5, iterations=800, log_every=40))
    assert traj.final_objective < 1e-4


def test_classical_monte_carlo_gradient_matches_exact(rng):
    tables = rng.normal(size=(3, 3, 2))
    theta = rng.uniform(-0.4, 0.4, 3)
    target = rng.random(3)
    target /= target.sum()
    exact = classical_gradient(tables, theta, target).values
    problem = ClassicalProblem(tables, target, theta,
                               estimator=EstimatorConfig(shots=200_000, seed=8))
    mc = problem.gradient_vector(theta, 0)
    scale = np.max(np.abs(tables))
    stderr = 2 * scale / np.sqrt(200_000)
    assert np.max(np.abs(mc - exact)) < 3 * stderr * 3  # loose 3-sigma band


def test_classical_sampling_skips_an_unlabelled_label_of_zero_mass():
    # p(v = 1) = e^{-800} underflows to 0 where q(v = 1) = 0: the data draw
    # gives that label weight 0 instead of p(h|v) = 0/0
    problem = ClassicalProblem(np.array([[[0.0], [800.0]]]), np.array([1.0, 0.0]), np.array([1.0]),
                               estimator=EstimatorConfig(shots=100, seed=3))
    with np.errstate(divide="raise", invalid="raise"):
        assert np.array_equal(problem.gradient_vector(problem.theta0, 0), [0.0])


def test_classical_vanishing_label_raises_as_cq_does():
    # G(v = 1, h) = 800: at theta = 1, p(v = 1) = e^{-800} underflows to 0 under q(v = 1) = 1/2
    tables, theta, q = np.zeros((1, 2, 2)), np.array([1.0]), np.array([0.5, 0.5])
    tables[0, 1, :] = 800.0
    terms = (np.diag(tables[0].ravel()).astype(complex),)
    cq = cq_decompose(ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms, theta=theta))
    with pytest.raises(SupportError) as by_cq:
        qbmgrad.gradients.gradient_cq(cq, q)
    shot = ClassicalProblem(tables, q, theta, estimator=EstimatorConfig(shots=100, seed=3))
    for call in (lambda: classical_gradient(tables, theta, q),
                 lambda: shot.gradient_vector(theta, 0)):
        with pytest.raises(SupportError) as caught:
            call()
        assert str(caught.value) == str(by_cq.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # +inf, not a RuntimeWarning from ln(q / 0)
        assert shot.objective(theta) == np.inf
        assert qbmgrad.gradients.cq_objective(cq, q) == np.inf


def test_divergence_guard():
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,),
                           theta=np.array([650.0]))

    class Exploding(QuantumProblem):
        def objective(self, theta):
            return float("nan")

    with pytest.raises(GuardError):
        train(Exploding(ham, np.eye(2, dtype=complex) / 2),
              TrainConfig(learning_rate=0.1, iterations=3))


class _ConstantProblem(qbmgrad.training.Problem):
    """A flat objective at a given value."""

    theta0 = np.zeros(1)

    def __init__(self, value):
        self.value = value

    def objective(self, theta):
        return self.value

    def gradient_vector(self, theta, iteration):
        return np.zeros(1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1.5e6])
def test_start_objective_guard(value):
    with pytest.raises(GuardError, match=rf"^objective diverged at iteration 0: {value!r}$"):
        train(_ConstantProblem(value), TrainConfig(iterations=3))


def test_start_objective_at_the_cap_trains():
    traj = train(_ConstantProblem(1e6), TrainConfig(iterations=3))
    assert traj.final_objective == 1e6


def test_finite_difference_oracle_properties():
    # exact on quadratics; halving the step shrinks the cubic residual ~4x
    f = lambda th: float(th[0] ** 3)
    g1 = finite_difference_gradient(f, np.array([1.0]), step=1e-3)[0]
    g2 = finite_difference_gradient(f, np.array([1.0]), step=5e-4)[0]
    r1, r2 = abs(g1 - 3.0), abs(g2 - 3.0)
    assert r2 < r1 / 3.0
    quad = lambda th: float(th[0] ** 2 + 2 * th[1])
    g = finite_difference_gradient(quad, np.array([1.5, 0.0]))
    assert np.allclose(g, [3.0, 2.0], atol=1e-9)


def test_finite_difference_matches_analytic_gradient(rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.4) for _ in range(3))
    ham = ParamHamiltonian(dims=dims, terms=terms,
                           theta=rng.uniform(-0.4, 0.4, 3))
    rho = rand_state(rng, 2)
    problem = QuantumProblem(ham, rho)
    fd = finite_difference_gradient(problem.objective, ham.theta)
    an = problem.gradient_vector(ham.theta, 0)
    assert np.all(np.abs(fd - an) <= 1e-6 * np.abs(an) + 1e-9)


def test_train_config_validation():
    with pytest.raises(SpecError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(SpecError):
        TrainConfig(iterations=0)


@pytest.mark.parametrize(
    "bad", [np.diag([1.5, -0.5]), np.eye(2) / 4, np.array([[0.5, 0.1], [0.0, 0.5]])],
    ids=["not-psd", "trace", "not-hermitian"])
def test_non_density_target_fails_at_problem_construction(bad):
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.zeros(1))
    with pytest.raises(SpecError):
        QuantumProblem(ham, bad)
    qc = qc_decompose(ham)
    with pytest.raises(SpecError):
        QCProblem(qc, bad)


def test_exact_step_validates_the_target_once_per_gradient(monkeypatch):
    problem, _ = _qubit_problem()
    calls = [0]
    raw = qbmgrad.gradients.as_density

    def counted(x, **kw):
        calls[0] += 1
        return raw(x, **kw)

    monkeypatch.setattr(qbmgrad.gradients, "as_density", counted)
    grads = [0]
    inner = problem.gradient_vector

    def counted_gradient(theta, iteration):
        grads[0] += 1
        return inner(theta, iteration)

    problem.gradient_vector = counted_gradient
    train(problem, TrainConfig(learning_rate=0.1, iterations=30))
    assert grads[0] == 31
    assert calls[0] <= grads[0]  # the objective reads the prepared Target


def test_tsallis_target_power_is_formed_once_per_target(monkeypatch):
    spec = load_runspec(Path(__file__).resolve().parents[1] / "demos" / "grad_qc.json")
    ham, rho = spec.model.hamiltonian, spec.target_state
    problem = QCProblem(qc_decompose(ham, spec.model.basis), rho, tsallis(1.5))
    calls = [0]
    raw = qbmgrad.gradients.psd_power

    def counted(rho, q):
        calls[0] += 1
        return raw(rho, q)

    monkeypatch.setattr(qbmgrad.gradients, "psd_power", counted)
    train(problem, TrainConfig(learning_rate=0.1, iterations=5))
    assert calls[0] == 1  # the Target's constant, formed on first use
    model = thermalize(ham)
    for n in (2, 3):
        gradient(model, rho, tsallis(1.5))  # a raw state has no Target to keep it
        assert calls[0] == n


def test_shot_problem_forms_each_terms_groups_once(monkeypatch, rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.4) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.3, -0.2]))
    rho = rand_state(rng, 2)
    est = EstimatorConfig(shots=256, seed=3, threads=1)
    calls = [0]
    raw = qbmgrad.estimator.eigen_groups

    def counted(g_j, **kw):
        calls[0] += 1
        return raw(g_j, **kw)

    for module in (qbmgrad.estimator, qbmgrad.training):
        monkeypatch.setattr(module, "eigen_groups", counted)
    problem = QuantumProblem(ham, rho, estimator=est)
    for it in range(3):
        problem.objective(ham.theta)
        problem.gradient_vector(ham.theta, it)
    assert calls[0] == len(terms)  # not 2 per estimate
    monkeypatch.undo()
    fresh = QuantumProblem(ham, rho, estimator=est)
    model = thermalize(ham)
    # the groups change nothing but the work: same numbers as a fresh problem
    assert np.array_equal(problem.gradient_vector(ham.theta, 5),
                          fresh.gradient_vector(ham.theta, 5))
    cfg = EstimatorConfig(shots=256, seed=11, threads=1)
    groups = qbmgrad.estimator.eigen_groups(terms[0])
    assert (qbmgrad.estimator.estimate_first_term(model, rho, terms[0], cfg, groups=groups)
            == qbmgrad.estimator.estimate_first_term(model, rho, terms[0], cfg))
    assert (qbmgrad.estimator.estimate_model_term(model, terms[0], 256, 4, groups=groups)
            == qbmgrad.estimator.estimate_model_term(model, terms[0], 256, 4))


def test_oversize_shot_problem_raises_before_any_groups(monkeypatch, rng):
    # 4 d_v^2 d_h = 4 * 16 * 4 = 256 fits; d_h = 8 gives 512 > MAX_CIRCUIT_DIM
    calls = [0]
    raw = qbmgrad.estimator.eigen_groups

    def counted(g_j, **kw):
        calls[0] += 1
        return raw(g_j, **kw)

    for module in (qbmgrad.estimator, qbmgrad.training):
        monkeypatch.setattr(module, "eigen_groups", counted)
    est = EstimatorConfig(shots=16, seed=1, threads=1)
    for d_h, fits in ((4, True), (8, False)):
        terms = (rand_herm(rng, 4 * d_h, 0.3),)
        ham = ParamHamiltonian(dims=BipartiteDims(4, d_h), terms=terms, theta=np.array([0.2]))
        if fits:
            QuantumProblem(ham, rand_state(rng, 4), estimator=est)
            continue
        with pytest.raises(ScaleError, match="^circuit register exceeds the supported size$"):
            QuantumProblem(ham, rand_state(rng, 4), estimator=est)
        QuantumProblem(ham, rand_state(rng, 4))  # the exact problem has no circuit
    assert calls[0] == 0


@pytest.mark.parametrize("probs", [[0.5, 0.6], [1.2, -0.2], [0.5, np.nan]])
def test_label_problems_reject_invalid_targets_at_construction(rng, probs):
    with pytest.raises(SpecError, match="target probs must be a normalized nonnegative vector"):
        ClassicalProblem(np.zeros((1, 2, 1)), probs, np.zeros(1))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=block_visible_terms(rng, 2, 2, 1, np.eye(2)),
                           theta=np.array([0.3]))
    with pytest.raises(SpecError, match="target probs must be a normalized nonnegative vector"):
        CQProblem(cq_decompose(ham), probs)
