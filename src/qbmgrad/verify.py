"""Seeded property-check suites behind the ``verify`` CLI command.

Each check returns its worst residual against a fixed tolerance and measures
a computation that could fail, never a formula against itself; suites are
deterministic (fixed seeds) so a regression is a hard failure, not noise.
The random-instance generators and oracles below are public because the
test suite draws its instances from the same ones.  The block-encoding
algebra lives here; the checks inject encodings into the estimator as
``inv_sqrt=(columns, alpha)``.  The oracles include the reference forms
of the matcalc derivatives, which production never evaluates: the Duhamel
exp-derivative, the resolvent log-derivative and the time-quadrature
channel (``densities.numeric_fourier``, |t| <= 14, 4096 nodes).
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import densities, estimator, gradients, matcalc, models
from .errors import SpecError
from .linalg import (
    BipartiteDims, as_hermitian, as_unitary, eigh, expectation, gibbs_weights, hermitize,
    spectral_norm, tensor)
from .training import finite_difference_gradient

SUITES = ("matcalc", "densities", "gradients", "estimator")


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.residual < self.tol)

    def as_dict(self) -> dict:
        return {**asdict(self), "residual": float(self.residual), "tol": float(self.tol),
                "passed": self.passed}


def rand_herm(rng, d, scale=1.0):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return as_hermitian((a + a.conj().T) / 2 * scale)


def rand_state(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = a @ a.conj().T
    return m / np.trace(m).real


def rand_pd(rng, d, spread=0.5):
    """Random positive definite e^h, h = ``rand_herm(rng, d, spread)``: eigenvalues within
    about e^(+-2 spread sqrt(d)), e.g. [0.23, 2.3] at d = 4, [1.5e-7, 8.6e6] at d = 256."""
    es = eigh(rand_herm(rng, d, spread))
    return hermitize((es.vecs * np.exp(es.vals)) @ es.vecs.conj().T)


def rand_model(rng, d_v, d_h, n_terms=3, term_scale=0.4, theta_scale=0.6):
    dims = BipartiteDims(d_v, d_h)
    terms = tuple(rand_herm(rng, dims.total, term_scale) for _ in range(n_terms))
    theta = rng.uniform(-theta_scale, theta_scale, size=n_terms)
    return models.thermalize(models.ParamHamiltonian(dims=dims, terms=terms, theta=theta))


def rand_unitary(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q_mat, r = np.linalg.qr(a)
    return q_mat * (np.diagonal(r) / np.abs(np.diagonal(r)))


def block_hidden_terms(rng, d_v, d_h, n_terms, basis):
    """Terms of the form sum_x A_{j,x} (x) |x><x|_h over the given basis."""
    terms = []
    for _ in range(n_terms):
        t = np.zeros((d_v * d_h, d_v * d_h), dtype=complex)
        for x in range(d_h):
            t += tensor(rand_herm(rng, d_v, 0.5), np.outer(basis[:, x], basis[:, x].conj()))
        terms.append(as_hermitian(t))
    return tuple(terms)


def gibbs(g):
    """The Gibbs state e^{-g} / Tr e^{-g}."""
    e = eigh(g)
    return (e.vecs * gibbs_weights(e.vals)[0]) @ e.vecs.conj().T


def quadrature_channel(d, anchor, y):
    """``matcalc.apply_channel`` by time quadrature: eigenbasis entry (k, l)
    times ``densities.numeric_fourier`` at the frequency gap f_k - f_l, with
    f the anchor's eigenvalues (tent) or half their logarithms."""
    freq = anchor.vals if d.kind == "high_peak_tent" else np.log(anchor.vals) / 2.0
    yt = anchor.vecs.conj().T @ y @ anchor.vecs
    yt *= densities.numeric_fourier(d, freq[:, None] - freq[None, :])
    return hermitize(anchor.vecs @ yt @ anchor.vecs.conj().T)


def duhamel_frechet_exp(b, h):
    """``matcalc.frechet_exp`` as int_0^1 e^{tB} H e^{(1-t)B} dt, by 64-node
    Gauss-Legendre."""
    es = eigh(b)
    h = as_hermitian(h)
    x, w = leggauss(64)
    acc = np.zeros_like(h)
    for t_i, w_i in zip(0.5 * (x + 1.0), 0.5 * w):
        acc = acc + w_i * (es.apply(lambda v: np.exp(t_i * v)) @ h
                           @ es.apply(lambda v: np.exp((1.0 - t_i) * v)))
    return hermitize(acc)


def resolvent_frechet_log(a, h):
    """``matcalc.frechet_log`` as int_0^inf (A+sI)^{-1} H (A+sI)^{-1} ds, by
    400-node Gauss-Legendre in z with s = c z/(1-z), c = sqrt(l_min l_max)."""
    es = eigh(a)
    h = as_hermitian(h)
    c = float(np.sqrt(es.vals[0] * es.vals[-1]))
    x, w = leggauss(400)
    acc = np.zeros_like(h, dtype=complex)
    ht = es.vecs.conj().T @ h @ es.vecs
    for z_i, w_i in zip(0.5 * (x + 1.0), 0.5 * w):
        s = c * z_i / (1.0 - z_i)
        jac = c / (1.0 - z_i) ** 2
        res = 1.0 / (es.vals + s)
        acc = acc + (w_i * jac) * (res[:, None] * ht * res[None, :])
    return hermitize(es.vecs @ acc @ es.vecs.conj().T)


def suite_densities() -> list[CheckResult]:
    out = []
    kinds = [densities.HIGH_PEAK_TENT, densities.LOGISTIC, densities.power_density(0.5),
             densities.power_density(-0.25)]
    for d in kinds:
        out.append(CheckResult("densities", f"unit mass [{_dname(d)}]",
                               abs(densities.numeric_mass(d) - 1.0), 1e-8))
    for d in kinds:
        worst = max(0.0, *(densities.numeric_tail_mass(d, T) - densities.tail_mass_bound(d, T)
                           for T in (1.0, 2.0, 5.0, 10.0)))
        out.append(CheckResult("densities", f"tail below bound [{_dname(d)}]", worst, 0.0 + 1e-30))
    # Fourier transforms match the channel factors
    for d in kinds[:3]:
        worst = 0.0
        for u in (0.0, 0.3, 1.0, 2.0, 5.0):
            omega = u if d.kind == "high_peak_tent" else u / 2.0
            worst = max(worst, abs(densities.numeric_fourier(d, omega)
                                   - matcalc.channel_factor(d, u)))
        out.append(CheckResult("densities", f"fourier matches factor [{_dname(d)}]", worst, 1e-8))
    # r times the power density's transform at u/2 is sinh(r u/2)/sinh(u/2)
    worst = 0.0
    for r in (-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 0.9):
        for u in (0.0, 0.5, 1.0, 2.0, 5.0):
            want = r if u == 0.0 else np.sinh(r * u / 2.0) / np.sinh(u / 2.0)
            worst = max(worst, abs(
                r * densities.numeric_fourier(densities.power_density(r), u / 2.0) - want))
    out.append(CheckResult("densities", "power-kernel fourier identity grid", worst, 1e-8))
    # the cdf integrates the pdf (64-node Gauss-Legendre on each panel of [0.05, 8]),
    # and quantile inverts it; the tent, drawn without a quantile, lies within
    # the Kolmogorov-Smirnov test's 0.1% critical distance 1.95/sqrt(n) of it
    edges = np.r_[0.05, np.arange(1, 17) / 2.0]
    lo, hi = edges[:-1], edges[1:]
    x, gw = leggauss(64)
    nodes = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x
    u = (np.arange(100_001) + 0.5) / 100_001
    for d in kinds[:3]:
        quad = 0.5 * (hi - lo) * np.sum(gw * densities.pdf(d, nodes), axis=1)
        worst = float(np.max(np.abs(np.diff(densities.cdf(d, edges)) - quad)))
        out.append(CheckResult(
            "densities", f"cdf increments match the pdf quadrature [{_dname(d)}]", worst, 1e-12))
        if d.kind == "high_peak_tent":
            n = 200_000
            f = densities.cdf(d, np.sort(densities.sample(d, np.random.default_rng(66_001), n)))
            ks = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
            out.append(CheckResult("densities", f"sampler within KS distance of cdf [{_dname(d)}]",
                                   float(ks), 1.95 / math.sqrt(n)))
        else:
            worst = float(np.max(np.abs(densities.cdf(d, densities.quantile(d, u)) - u)))
            out.append(CheckResult(
                "densities", f"cdf inverts quantile [{_dname(d)}]", worst, 1e-12))
    return out


def suite_matcalc() -> list[CheckResult]:
    rng = np.random.default_rng(77_001)
    out = []
    eps = 1e-5  # central-difference step
    kinds = [densities.HIGH_PEAK_TENT, densities.LOGISTIC, densities.power_density(0.5)]

    def anchor(d, dim):  # the tent averages a Hamiltonian flow, the others A^{-it/2}
        return eigh(rand_herm(rng, dim) if d.kind == "high_peak_tent" else rand_pd(rng, dim))

    trace_worst = dict.fromkeys(kinds, 0.0)
    fixed_worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        y = rand_herm(rng, dim)
        for d in kinds:
            a = anchor(d, dim)
            z = matcalc.apply_channel(d, a, y)
            trace_worst[d] = max(trace_worst[d], abs(np.trace(z).real - np.trace(y).real))
            c = a.apply(np.cos)  # commutes with the anchor
            fixed_worst = max(fixed_worst, spectral_norm(matcalc.apply_channel(d, a, c) - c))
    for d in kinds:
        out.append(CheckResult("matcalc", f"channel trace preservation [{_dname(d)}]",
                               trace_worst[d], 1e-10))
    out.append(CheckResult("matcalc", "channel fixes operators commuting with the anchor",
                           fixed_worst, 1e-12))
    # spectral vs quadrature cross-check
    worst = 0.0
    for d in kinds:
        for _ in range(3):
            y = rand_herm(rng, 4)
            a = anchor(d, 4)
            worst = max(worst, spectral_norm(
                matcalc.apply_channel(d, a, y) - quadrature_channel(d, a, y)))
    out.append(CheckResult("matcalc", "spectral vs quadrature channel", worst, 1e-8))
    # dual-path and finite-difference checks for the three derivatives
    worst_dual = worst_fd_exp = 0.0
    for _ in range(5):
        b, h = rand_herm(rng, 4), rand_herm(rng, 4)
        duh = duhamel_frechet_exp(b, h)
        four = matcalc.frechet_exp(b, h)
        worst_dual = max(worst_dual, spectral_norm(duh - four))
        fd = (eigh(b + eps * h).apply(np.exp) - eigh(b - eps * h).apply(np.exp)) / (2 * eps)
        worst_fd_exp = max(worst_fd_exp, spectral_norm(four - fd))
    out.append(CheckResult("matcalc", "exp derivative duhamel vs fourier", worst_dual, 1e-8))
    out.append(CheckResult("matcalc", "exp derivative finite difference", worst_fd_exp, 1e-6))
    worst_fd_log = worst_res = 0.0
    for _ in range(5):
        a, h = rand_pd(rng, 3), rand_herm(rng, 3)
        four = matcalc.frechet_log(a, h)
        fd = (eigh(a + eps * h).apply(np.log) - eigh(a - eps * h).apply(np.log)) / (2 * eps)
        worst_fd_log = max(worst_fd_log, spectral_norm(four - fd))
        worst_res = max(worst_res, spectral_norm(four - resolvent_frechet_log(a, h)))
    out.append(CheckResult("matcalc", "log derivative finite difference", worst_fd_log, 1e-6))
    out.append(CheckResult("matcalc", "log derivative fourier vs resolvent", worst_res, 1e-8))
    worst_fd_pow = 0.0
    for r in (-0.5, 0.3, 0.8):
        a, h = rand_pd(rng, 3), rand_herm(rng, 3)
        four = matcalc.frechet_power(a, h, r)
        fd = (eigh(a + eps * h).power(r) - eigh(a - eps * h).power(r)) / (2 * eps)
        worst_fd_pow = max(worst_fd_pow, spectral_norm(four - fd))
    out.append(CheckResult("matcalc", "power derivative finite difference", worst_fd_pow, 1e-6))
    a, h = rand_pd(rng, 3), rand_herm(rng, 3)
    out.append(CheckResult(
        "matcalc", "power derivative r->0 approaches log derivative",
        spectral_norm(matcalc.frechet_power(a, h, 1e-6) / 1e-6 - matcalc.frechet_log(a, h)), 1e-4))
    worst = 0.0
    for u, r in product((0.1, 1.0, 3.0), (-1e-6, 1e-6)):
        worst = max(worst, abs(matcalc.channel_factor(densities.power_density(r), u)
                               - matcalc.channel_factor(densities.LOGISTIC, u)))
    out.append(CheckResult("matcalc", "power factor r->0 approaches logistic factor",
                           worst, 1e-10))
    worst_tr = worst_fd = 0.0
    for _ in range(5):
        g, dg = rand_herm(rng, 4), rand_herm(rng, 4)
        deriv = matcalc.thermal_derivative(eigh(g), dg)
        worst_tr = max(worst_tr, abs(np.trace(deriv).real))
        fd = (gibbs(g + eps * dg) - gibbs(g - eps * dg)) / (2 * eps)
        worst_fd = max(worst_fd, spectral_norm(deriv - fd))
    out.append(CheckResult("matcalc", "thermal derivative traceless", worst_tr, 1e-10))
    out.append(CheckResult("matcalc", "thermal derivative finite difference", worst_fd, 1e-6))
    g = rand_herm(rng, 3)
    out.append(CheckResult("matcalc", "thermal derivative gauge invariance",
                           spectral_norm(matcalc.thermal_derivative(eigh(g), 0.7 * np.eye(3))), 1e-12))
    return out


def suite_gradients() -> list[CheckResult]:
    rng = np.random.default_rng(55_007)
    out = []
    worst = {"umegaki": 0.0, "tsallis": 0.0}
    for i in range(6):
        model = rand_model(rng, 3, 2)
        rho = rand_state(rng, 3)
        for obj in (gradients.UMEGAKI, gradients.tsallis(0.5), gradients.tsallis(1.5)):
            rep = gradients.gradient(model, rho, obj)
            fd = finite_difference_gradient(
                lambda th: gradients.relative_entropy(
                    rho, models.thermalize(model.hamiltonian.with_theta(th)).sigma_v, obj),
                model.hamiltonian.theta)
            err = float(np.max(np.abs(rep.values - fd) / np.maximum(np.abs(fd), 1e-3)))
            worst[obj.kind] = max(worst[obj.kind], err)
    for kind, err in worst.items():
        out.append(CheckResult("gradients", f"finite-difference agreement [{kind}]", err, 1e-6))
    model = rand_model(rng, 3, 2)
    rep = gradients.gradient(model, model.sigma_v)
    out.append(CheckResult("gradients", "zero gradient at the fixed point",
                           float(np.max(np.abs(rep.values))), 1e-9))
    lifted = gradients.lift_to_joint(model, rand_state(rng, 3))
    out.append(CheckResult("gradients", "lifted quasi-state has unit trace",
                           abs(np.trace(lifted).real - 1.0), 1e-10))
    out.append(CheckResult("gradients", "lifting the visible marginal gives the Gibbs state",
                           spectral_norm(gradients.lift_to_joint(model, model.sigma_v)
                                         - model.sigma_vh), 1e-12))
    m1 = rand_model(rng, 4, 1)
    rho1 = rand_state(rng, 4)
    rep1 = gradients.gradient(m1, rho1)
    direct = np.array([expectation(t, rho1) for t in m1.hamiltonian.terms])
    out.append(CheckResult("gradients", "no-hidden-units first term is <G_j>_rho",
                           float(np.max(np.abs(rep1.first_terms - direct))), 1e-8))
    # continuity in the tsallis order near q = 1
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    base = gradients.gradient(model, rho).values
    dev = max(
        float(np.max(np.abs(gradients.gradient(model, rho, gradients.tsallis(1 + s)).values - base)))
        for s in (1e-4, -1e-4))
    out.append(CheckResult("gradients", "tsallis order continuity at q=1", dev, 1e-3))
    # classical reduction: diagonal terms against exact enumeration
    tables = rng.normal(size=(3, 3, 2))
    theta = rng.uniform(-0.5, 0.5, 3)
    dims = BipartiteDims(3, 2)
    diag_terms = tuple(
        as_hermitian(np.diag(tables[j].ravel()).astype(complex)) for j in range(3))
    dmodel = models.thermalize(models.ParamHamiltonian(dims=dims, terms=diag_terms, theta=theta))
    q_target = rng.random(3)
    q_target /= q_target.sum()
    rep = gradients.gradient(dmodel, np.diag(q_target).astype(complex))
    cls = gradients.classical_gradient(tables, theta, q_target)
    out.append(CheckResult("gradients", "diagonal model reduces to classical gradient",
                           float(np.max(np.abs(rep.values - cls.values))), 1e-10))
    # block-model consistency and the sorting POVM
    basis = rand_unitary(rng, 2)
    terms = block_hidden_terms(rng, 3, 2, 3, basis)
    ham = models.ParamHamiltonian(dims=BipartiteDims(3, 2), terms=terms,
                                  theta=rng.uniform(-0.5, 0.5, 3))
    qc = models.qc_decompose(ham, basis)
    rho = rand_state(rng, 3)
    generic = gradients.gradient(models.thermalize(ham), rho).values  # the model qc split
    out.append(CheckResult("gradients", "block-hidden gradient matches generic",
                           float(np.max(np.abs(gradients.gradient_qc(qc, rho).values - generic))),
                           1e-8))
    povm = gradients.pgm_povm(qc)
    comp = spectral_norm(sum(povm) - np.eye(qc.dims.d_v))
    out.append(CheckResult("gradients", "sorting POVM completeness", comp, 1e-10))
    psd = -min(float(np.linalg.eigvalsh(e)[0]) for e in povm)
    out.append(CheckResult("gradients", "sorting POVM positivity", psd, 1e-10))
    probs = gradients.povm_probs(povm, rho)
    out.append(CheckResult("gradients", "sorting POVM outcome normalization",
                           abs(float(probs.sum()) - 1.0), 1e-10))
    return out


def suite_estimator() -> list[CheckResult]:
    seed = 99_003
    rng = np.random.default_rng(seed)
    out = []
    # dilation extraction
    worst = 0.0
    for _ in range(5):
        c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c /= spectral_norm(c) * 1.1
        be = dilate(c, 1.0)
        worst = max(worst, spectral_norm(be.extract() - c))
    out.append(CheckResult("estimator", "dilation extracts the contraction", worst, 1e-12))
    model = rand_model(rng, 2, 2)
    u1, u2, u12 = (modular_unitary(model, s).unitary for s in (0.7, -1.9, 0.7 - 1.9))
    out.append(CheckResult("estimator", "modular flow group law",
                           spectral_norm(u1 @ u2 - u12), 1e-10))
    inv = inv_sqrt_encoding(model)
    out.append(CheckResult("estimator", "inverse-root encoding extraction",
                           spectral_norm(inv.extract() - model.sigma_v_eig.power(-0.5)), 1e-10))
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    s, t = 0.9, -0.4
    ctx = estimator._batch_context(model, rho, estimator.eigen_groups(g_j))
    table = estimator._outcome_table(ctx, estimator._modular_features(ctx, np.array([s])),
                                     estimator._pair_phases(np.outer(ctx.g_vals, [t])))
    val = model.kappa * float(estimator._clean_probs(table)[0] @ ctx.outcome_values)
    direct = direct_trace_formula(model, rho, g_j, s, t)
    out.append(CheckResult("estimator", "shot kernel mean matches the trace formula",
                           abs(val - direct), 1e-8))
    exact = gradients.gradient(model, rho).first_terms[0]
    qavg = estimator.quadrature_first_term(model, rho, g_j)
    out.append(CheckResult("estimator", "quadrature average matches lifted term",
                           abs(qavg - exact), 1e-6))
    mean, stderr, shots = estimator.estimate_first_term(
        model, rho, g_j, estimator.EstimatorConfig(epsilon=0.1, delta_fail=0.05, seed=seed))
    out.append(CheckResult("estimator", "shot mean within 5 stderr of exact",
                           abs(mean - exact), 5 * stderr))
    out.append(CheckResult("estimator", "hoeffding count example",
                           abs(estimator.hoeffding_shots(1, 1, 0.1, 0.05) - 738), 0.5))
    # composed block-encoding bound (20 perturbation trials)
    worst = max(-1.0, *(be_bound_gap(rng) for _ in range(20)))
    out.append(CheckResult("estimator", "composed encoding error within bound",
                           worst, 0.0 + 1e-30))
    # the split budget bounds the bias that encodings perturbed within it cause
    worst = -1.0
    for _ in range(4):
        model = rand_model(rng, 2, 2)
        rho = rand_state(rng, 2)
        g_j = model.hamiltonian.terms[0]
        exact = gradients.gradient(model, rho).first_terms[0]
        inv = inv_sqrt_encoding(model)
        for eps in (0.05, 0.2):
            e1, e2 = budget_split(eps, model.kappa, spectral_norm(g_j))
            noise1 = BlockEncoding(unitary_noise(rng, model.dims.d_v, e1), 1.0, 0, e1)
            inv_p, _ = perturb_encoding(inv, rng, scale=0.5 * e2 / inv.alpha)
            enc = be_product(inv_p, noise1)
            biased = estimator.quadrature_first_term(
                model, rho, g_j, inv_sqrt=(enc.unitary[:, :model.dims.d_v], enc.alpha))
            worst = max(worst, abs(biased - exact) - eps / 2)
    out.append(CheckResult("estimator", "budget split keeps bias below eps/2",
                           worst, 0.0 + 1e-30))
    return out


def run_suites(names: list[str]) -> list[CheckResult]:
    table = dict(zip(SUITES, (suite_matcalc, suite_densities, suite_gradients, suite_estimator)))
    out: list[CheckResult] = []
    for name in names:
        if name not in table:
            raise SpecError(f"unknown suite {name!r}; pick from {SUITES} or 'all'")
        out.extend(table[name]())
    return out


def _dname(d: densities.Density) -> str:
    return d.kind if d.r is None else f"{d.kind}({d.r})"


def direct_trace_formula(model, rho, g_j, s, t):
    """The shot kernel's mean at (s, t), from dense matrices."""
    sv = model.sigma_v_eig
    u_s = (sv.vecs * np.exp(-0.5j * s * np.log(sv.vals))) @ sv.vecs.conj().T
    inv_sqrt = sv.power(-0.5)
    a = inv_sqrt @ u_s @ rho @ u_s.conj().T @ inv_sqrt
    ge = model.g_eig
    u_t = (ge.vecs * np.exp(1j * ge.vals * t)) @ ge.vecs.conj().T
    o_t = u_t @ g_j @ u_t.conj().T
    ai = tensor(a, np.eye(model.dims.d_h))
    return 0.5 * np.trace(o_t @ (model.sigma_vh @ ai + ai @ model.sigma_vh)).real


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary whose top-left block is target/alpha up to spectral error delta."""

    unitary: np.ndarray
    alpha: float
    ancillas: int
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "unitary", as_unitary(self.unitary, "block-encoding matrix"))
        dim = self.unitary.shape[0]
        if self.ancillas < 0 or dim % (1 << self.ancillas):
            raise SpecError(f"a {dim}-dimensional block-encoding cannot hold "
                            f"{self.ancillas} ancilla qubits")

    def extract(self) -> np.ndarray:
        """alpha * (<0| (x) I) U (|0> (x) I): the encoded matrix."""
        d = self.unitary.shape[0] >> self.ancillas
        return self.alpha * self.unitary[:d, :d]


def be_product(a: BlockEncoding, b: BlockEncoding) -> BlockEncoding:
    """The block-encoding of AB: U_b, then U_a, on registers (ancillas of a,
    ancillas of b, system).

    Encoding A with (alpha, delta) times encoding B with (beta, eps) yields
    AB with normalization alpha*beta and error alpha*eps + beta*delta +
    delta*eps (the cross term is required; dropping it undercounts).
    """
    d = a.unitary.shape[0] >> a.ancillas
    if b.unitary.shape[0] >> b.ancillas != d:
        raise SpecError(f"cannot compose block-encodings of {d}- and "
                        f"{b.unitary.shape[0] >> b.ancillas}-dimensional systems")
    n_a, n_b = 1 << a.ancillas, 1 << b.ancillas
    a_blocks = a.unitary.reshape(n_a, d, n_a, d).transpose(0, 2, 1, 3)  # [i, j]: A_ij
    b_blocks = b.unitary.reshape(n_b, d, n_b, d).transpose(0, 2, 1, 3)  # [k, l]: B_kl
    # the block of rows (i, k) and columns (j, l) is A_ij B_kl
    blocks = a_blocks[:, None, :, None] @ b_blocks[None, :, None, :]
    dim = n_a * n_b * d
    return BlockEncoding(blocks.transpose(0, 1, 4, 2, 3, 5).reshape(dim, dim), a.alpha * b.alpha,
                         a.ancillas + b.ancillas,
                         a.alpha * b.delta + b.alpha * a.delta + a.delta * b.delta)


def dilate(contraction, alpha: float) -> BlockEncoding:
    """Exact one-ancilla unitary dilation of a contraction C.

    U = [[C, (I - C C^dag)^{1/2}], [(I - C^dag C)^{1/2}, -C^dag]] with the
    ancilla as the leading register, so (<0| (x) I) U (|0> (x) I) = C.
    Built through the SVD so each cosine/sine pair comes from one singular
    value; unitarity then survives C touching the boundary |C| = 1.  There the
    sines sqrt(1 - cos^2) are accurate only to about sqrt(eps): a singular value
    1 - 1e-16 gives a sine of 1.5e-8 where the exact one is 0.
    """
    c = np.asarray(contraction, dtype=complex)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise SpecError("contraction must be square")
    u_l, sing, v_h = np.linalg.svd(c)
    if sing[0] > 1.0 + 1e-10:
        raise SpecError(f"contraction norm {sing[0]:.6f} exceeds 1")
    cos = np.minimum(sing, 1.0)
    sin = np.sqrt(np.maximum(1.0 - cos * cos, 0.0))
    middle = np.block(
        [[np.diag(cos), np.diag(sin)], [np.diag(sin), -np.diag(cos)]]
    ).astype(complex)
    d = c.shape[0]
    left = np.zeros((2 * d, 2 * d), dtype=complex)
    left[:d, :d] = u_l
    left[d:, d:] = v_h.conj().T
    right = np.zeros((2 * d, 2 * d), dtype=complex)
    right[:d, :d] = v_h
    right[d:, d:] = u_l.conj().T
    u = left @ middle @ right
    return BlockEncoding(u, float(alpha), 1, 0.0)


def modular_unitary(model: models.ThermalModel, s: float) -> BlockEncoding:
    """Exact encoding of the modular-flow unitary sigma_v^{-is/2} (no ancilla)."""
    es = model.sigma_v_eig
    if float(es.vals[0]) <= 0.0:
        raise SpecError("visible marginal must be strictly positive")
    phases = np.exp(-0.5j * s * np.log(es.vals))
    u = (es.vecs * phases) @ es.vecs.conj().T
    return BlockEncoding(u, 1.0, 0, 0.0)


def inv_sqrt_encoding(model: models.ThermalModel) -> BlockEncoding:
    """Exact (sqrt(kappa), 0)-block-encoding [[C, S], [S, -C]] of sigma_v^{-1/2},
    from the commuting C = V diag(c) V^dag and S = V diag(s) V^dag with
    (c, s) from ``estimator.inv_sqrt_cos_sin``; no SVD."""
    cos, sin = estimator.inv_sqrt_cos_sin(model)
    vecs = model.sigma_v_eig.vecs
    c, s = (vecs * cos) @ vecs.conj().T, (vecs * sin) @ vecs.conj().T
    return BlockEncoding(np.block([[c, s], [s, -c]]), math.sqrt(model.kappa), 1, 0.0)


def budget_split(epsilon: float, kappa: float, g_norm: float) -> tuple[float, float]:
    """Split a total error target so the composed bias stays below epsilon/2.

    Encoding errors eps1 (modular flow) and eps2 (inverse root) bias the first
    term by at most g (2 sqrt(k) eps2 + 2 eps1 (k + sqrt(k) eps2)), k = kappa,
    g = g_norm.  eps1 = eps/(10 k g) and eps2 = eps/(10 sqrt(k) g) make that
    2 eps/5 + eps^2/(50 k g) <= eps/2 whenever eps <= 5 k g.
    """
    if min(epsilon, kappa, g_norm) <= 0.0:
        raise SpecError("budget_split needs positive inputs")
    return epsilon / (10.0 * kappa * g_norm), epsilon / (10.0 * math.sqrt(kappa) * g_norm)


def perturb_encoding(be: BlockEncoding, rng, *, scale: float = 0.05):
    """Left-multiply by exp(i N) noise; returns (perturbed, exact target).

    The declared delta is the exactly measured extraction error, so the
    perturbed object remains an honest (alpha, delta)-encoding.
    """
    n = eigh(rand_herm(rng, be.unitary.shape[0], rng.random() * scale))
    rot = (n.vecs * np.exp(1j * n.vals)) @ n.vecs.conj().T
    target = be.extract()
    pert = BlockEncoding(rot @ be.unitary, be.alpha, be.ancillas, 0.0)
    delta = spectral_norm(pert.extract() - target)
    return BlockEncoding(pert.unitary, be.alpha, be.ancillas, delta), target


def unitary_noise(rng, d, target_norm):
    """Unitary with |U - I| exactly target_norm (rotation angle control)."""
    h = rand_herm(rng, d)
    h = h / spectral_norm(h)
    angle = 2.0 * math.asin(min(target_norm, 2.0) / 2.0)
    es = eigh(h * angle)
    return (es.vecs * np.exp(1j * es.vals)) @ es.vecs.conj().T


def be_bound_gap(rng) -> float:
    """Measured composition error minus the declared bound (must be <= 0)."""
    d = 3
    a_mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    b_mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    alpha = spectral_norm(a_mat) * (1 + rng.random())
    beta = spectral_norm(b_mat) * (1 + rng.random())
    up, a_target = perturb_encoding(dilate(a_mat / alpha, alpha), rng)
    vp, b_target = perturb_encoding(dilate(b_mat / beta, beta), rng)
    product = be_product(up, vp)
    return spectral_norm(a_target @ b_target - product.extract()) - product.delta
