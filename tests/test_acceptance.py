"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the verdict lines.
Criteria cover gradient correctness against finite differences, model-class
consistency, limiting cases, density numerics, the dual evaluation paths,
estimator soundness, error-budget accounting, and the training benchmark.
"""
import json
import time
from pathlib import Path

import numpy as np

from qbmgrad.cli import main as cli_main
from qbmgrad.densities import HIGH_PEAK_TENT, LOGISTIC, numeric_tail_mass, tail_mass_bound
from qbmgrad.estimator import EstimatorConfig, estimate_first_term, quadrature_first_term
from qbmgrad.gradients import (
    UMEGAKI,
    classical_gradient,
    gradient,
    gradient_cq,
    gradient_qc,
    relative_entropy,
    tsallis,
)
from qbmgrad.linalg import BipartiteDims, expectation, spectral_norm
from qbmgrad.models import ParamHamiltonian, cq_decompose, qc_decompose, thermalize
from qbmgrad.training import QuantumProblem, TrainConfig, finite_difference_gradient, train
from qbmgrad.verify import (
    BlockEncoding,
    be_bound_gap,
    be_product,
    budget_split,
    inv_sqrt_encoding,
    perturb_encoding,
)
from conftest import (
    PAULI_Z,
    block_hidden_terms,
    block_visible_terms,
    rand_herm,
    rand_state,
    rand_unitary,
    unitary_noise,
    verify_check,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def _verdict(num, ok, desc, detail=""):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _instance(seed, d_v=4, d_h=2, n_terms=4, term_scale=0.4, theta_scale=0.5):
    rng = np.random.default_rng(seed)
    dims = BipartiteDims(d_v, d_h)
    terms = tuple(rand_herm(rng, dims.total, term_scale) for _ in range(n_terms))
    theta = rng.uniform(-theta_scale, theta_scale, n_terms)
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=theta)
    return thermalize(ham), rand_state(rng, d_v)


def _fd_for(ham, rho, obj):
    return finite_difference_gradient(
        lambda th: relative_entropy(rho, thermalize(ham.with_theta(th)).sigma_v, obj),
        ham.theta, step=1e-5)


def test_criterion_01_gradient_vs_finite_difference():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        model, rho = _instance(1000 + seed)
        rep = gradient(model, rho)
        fd = _fd_for(model.hamiltonian, rho, UMEGAKI)
        excess = np.abs(rep.values - fd) - (1e-6 * np.abs(fd) + 1e-9)
        worst = max(worst, float(np.max(excess)))
    elapsed = time.perf_counter() - start
    _verdict(1, worst <= 0.0 and elapsed < 60.0,
             "analytic gradient matches central differences on 20 seeded "
             "d_v=4/d_h=2 instances at 1e-6 relative",
             f"worst tolerance excess {worst:+.2e}, {elapsed:.1f}s")


def test_criterion_02_model_class_consistency():
    worst_qc = worst_cq = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        basis = rand_unitary(rng, 2)
        terms = block_hidden_terms(rng, 3, 2, 3, basis)
        ham = ParamHamiltonian(dims=BipartiteDims(3, 2), terms=terms,
                                 theta=rng.uniform(-0.5, 0.5, 3))
        rho = rand_state(rng, 3)
        a = gradient(thermalize(ham), rho).values
        b = gradient_qc(qc_decompose(ham, basis), rho).values
        worst_qc = max(worst_qc, float(np.max(np.abs(a - b))))
    for seed in range(10):
        rng = np.random.default_rng(2100 + seed)
        basis = rand_unitary(rng, 2)
        terms = block_visible_terms(rng, 2, 3, 3, basis)
        ham = ParamHamiltonian(dims=BipartiteDims(2, 3), terms=terms,
                                 theta=rng.uniform(-0.5, 0.5, 3))
        r = rng.random(2)
        r /= r.sum()
        rho = basis @ np.diag(r).astype(complex) @ basis.conj().T
        a = gradient(thermalize(ham), rho).values
        b = gradient_cq(cq_decompose(ham, basis), r).values
        worst_cq = max(worst_cq, float(np.max(np.abs(a - b))))
    _verdict(2, worst_qc < 1e-8 and worst_cq < 1e-8,
             "block-hidden and block-visible gradients match the generic path "
             "on 10+10 structured instances",
             f"worst qc {worst_qc:.2e}, worst cq {worst_cq:.2e}")


def test_criterion_03_no_hidden_units():
    worst = 0.0
    for seed in range(10):
        model, rho = _instance(3000 + seed, d_v=4, d_h=1)
        rep = gradient(model, rho)
        direct = np.array([expectation(t, rho) for t in model.hamiltonian.terms])
        worst = max(worst, float(np.max(np.abs(rep.first_terms - direct))))
    _verdict(3, worst < 1e-8,
             "with a trivial hidden register the target term equals <G_j>_rho "
             "on 10 instances", f"worst {worst:.2e}")


def test_criterion_04_classical_reduction():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(4000 + seed)
        tables = rng.normal(size=(3, 3, 2))
        theta = rng.uniform(-0.5, 0.5, 3)
        terms = tuple(np.diag(tables[j].ravel()).astype(complex) for j in range(3))
        ham = ParamHamiltonian(dims=BipartiteDims(3, 2), terms=terms, theta=theta)
        target = rng.random(3)
        target /= target.sum()
        rep = gradient(thermalize(ham), np.diag(target).astype(complex))
        cls = classical_gradient(tables, theta, target).values
        worst = max(worst, float(np.max(np.abs(rep.values - cls))))
    _verdict(4, worst < 1e-10,
             "fully diagonal instances reproduce the exact-enumeration "
             "classical gradient", f"worst {worst:.2e}")


def test_criterion_05_tsallis_gradients():
    worst = 0.0
    for qq in (0.5, 1.5, 2.0):
        obj = tsallis(qq)
        for seed in range(5):
            model, rho = _instance(5000 + seed, d_v=3, d_h=2, n_terms=3)
            rep = gradient(model, rho, obj)
            fd = _fd_for(model.hamiltonian, rho, obj)
            excess = np.abs(rep.values - fd) - (1e-6 * np.abs(fd) + 1e-9)
            worst = max(worst, float(np.max(excess)))
    model, rho = _instance(5600, d_v=2, d_h=2, n_terms=3)
    base = gradient(model, rho).values
    cont = max(
        float(np.max(np.abs(gradient(model, rho, tsallis(1 + s)).values - base)))
        for s in (1e-4, -1e-4))
    _verdict(5, worst <= 0.0 and cont < 1e-3,
             "order-q gradients match finite differences for q in {0.5, 1.5, 2.0} "
             "and are continuous at q = 1",
             f"worst tolerance excess {worst:+.2e}, q->1 deviation {cont:.2e}")


def test_criterion_06_tail_bound_numerics():
    gamma_bound = tail_mass_bound(HIGH_PEAK_TENT, 10.0)
    beta_bound = tail_mass_bound(LOGISTIC, 10.0)
    gamma_rel = abs(gamma_bound / 3.9e-14 - 1.0)
    beta_rel = abs(beta_bound / 4.5e-14 - 1.0)
    tails_ok = all(
        numeric_tail_mass(d, T) <= tail_mass_bound(d, T)
        for d in (HIGH_PEAK_TENT, LOGISTIC)
        for T in (1.0, 2.0, 5.0, 10.0))
    ok = gamma_rel <= 0.03 and beta_rel <= 0.03 and tails_ok
    _verdict(6, ok,
             "T=10 tail bounds evaluate to 3.9e-14 (tent) / 4.5e-14 (logistic) "
             "within 3% and dominate the numeric tails",
             f"tent {gamma_bound:.4e} (dev {gamma_rel:.1%}), "
             f"logistic {beta_bound:.4e} (dev {beta_rel:.1%}), "
             f"tails below bounds: {tails_ok}")


def test_criterion_07_power_kernel_identity():
    worst = verify_check("densities/power-kernel fourier identity grid").residual
    _verdict(7, worst < 1e-8,
             "power-kernel Fourier identity holds on the (r, u) grid",
             f"worst residual {worst:.2e}")


def test_criterion_08_dual_evaluation_paths():
    worst_chan = verify_check("matcalc/spectral vs quadrature channel").residual
    worst_exp = verify_check("matcalc/exp derivative duhamel vs fourier").residual
    _verdict(8, worst_chan < 1e-8 and worst_exp < 1e-8,
             "spectral and quadrature channels agree; Duhamel and Fourier "
             "exponential derivatives agree",
             f"channel {worst_chan:.2e}, derivative {worst_exp:.2e}")


def test_criterion_09_estimator_soundness():
    start = time.perf_counter()
    # deterministic part: quadrature-averaged circuit equals the lifted term
    worst_quad = 0.0
    for seed, d_v in ((9000, 3), (9001, 3), (9002, 4)):
        model, rho = _instance(seed, d_v=d_v, d_h=2, n_terms=3)
        g_j = model.hamiltonian.terms[0]
        exact = gradient(model, rho).first_terms[0]
        worst_quad = max(worst_quad, abs(quadrature_first_term(model, rho, g_j) - exact))
    # statistical part: 50 seeded shot runs on a 2-visible-qubit/1-hidden-qubit
    # instance with (eps, delta) = (0.05, 0.05)
    model, rho = _instance(9900, d_v=4, d_h=2, n_terms=3,
                           term_scale=0.2, theta_scale=0.2)
    g_j = model.hamiltonian.terms[0]
    exact = gradient(model, rho).first_terms[0]
    eps = 0.05
    hits = 0
    shots_used = 0
    for seed in range(50):
        mean, _, shots = estimate_first_term(
            model, rho, g_j, EstimatorConfig(epsilon=eps, delta_fail=0.05, seed=seed))
        shots_used = shots
        hits += abs(mean - exact) <= eps
    elapsed = time.perf_counter() - start
    _verdict(9, worst_quad < 1e-6 and hits >= 47 and elapsed < 300.0,
             "quadrature average matches the lifted term at 1e-6 and the shot "
             "estimator lands within eps in >= 47 of 50 seeded runs",
             f"quad {worst_quad:.2e}, hits {hits}/50 at {shots_used} shots, "
             f"{elapsed:.0f}s")


def test_criterion_10_error_budget():
    rng = np.random.default_rng(10_000)
    worst_gap = max(be_bound_gap(rng) for _ in range(100))
    worst_bias = -1.0
    for seed in range(3):
        model, rho = _instance(10_100 + seed, d_v=2, d_h=2, n_terms=2)
        g_j = model.hamiltonian.terms[0]
        g_norm = spectral_norm(g_j)
        eps = 0.2
        e1, e2 = budget_split(eps, model.kappa, g_norm)
        noise1 = BlockEncoding(unitary_noise(rng, 2, e1), 1.0, 0, e1)
        inv = inv_sqrt_encoding(model)
        inv_p, _ = perturb_encoding(inv, rng, scale=0.5 * e2 / inv.alpha)
        assert inv_p.delta <= e2
        exact = gradient(model, rho).first_terms[0]
        enc = be_product(inv_p, noise1)
        biased = quadrature_first_term(model, rho, g_j, inv_sqrt=(enc.unitary[:, :2], enc.alpha))
        worst_bias = max(worst_bias, abs(biased - exact) - eps / 2)
    _verdict(10, worst_gap <= 0.0 and worst_bias <= 0.0,
             "composed-encoding error never exceeds its bound over 100 trials "
             "and the split budget keeps the first-term bias below eps/2",
             f"worst bound gap {worst_gap:+.2e}, worst bias excess {worst_bias:+.2e}")


def test_criterion_11_training_benchmark(tmp_path):
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,),
                             theta=np.zeros(1))
    rho = np.diag([0.8, 0.2]).astype(complex)
    traj = train(QuantumProblem(ham, rho),
                   TrainConfig(learning_rate=0.1, iterations=2000, log_every=100))
    theta_star = 0.5 * np.log(0.2 / 0.8)
    bench_ok = (traj.final_objective < 1e-8
                and abs(traj.final_theta[0] - theta_star) < 1e-4)
    monotone = {}
    for spec_path in sorted(DEMOS.glob("*.json")):
        out = tmp_path / spec_path.stem
        code = cli_main(["train", "--spec", str(spec_path), "--out", str(out)])
        rep = json.loads((out / "report.json").read_text())
        monotone[spec_path.stem] = code == 0 and rep["monotone"]
    all_monotone = all(monotone.values())
    _verdict(11, bench_ok and all_monotone,
             "single-qubit benchmark reaches D < 1e-8 at the closed-form "
             "minimizer; every committed demo trains monotonically",
             f"D={traj.final_objective:.1e}, theta err "
             f"{abs(traj.final_theta[0] - theta_star):.1e}, monotone on "
             f"{sum(monotone.values())}/{len(monotone)} demos")
