"""Shot-based estimation of the gradient's target term, at desk scale.

The estimation circuit acts on registers (c, a, v1, v2, h): a control qubit,
the ancilla of an inverse-square-root block-encoding, two copies of the
visible register and the hidden register.  Per shot, a modular time s and an
evolution time t are drawn from the logistic and high-peak-tent densities,
the target state is conjugated by sigma_v^{-is/2} and the block-encoding of
sigma_v^{-1/2}, and a controlled swap against a fresh thermal state followed
by a joint (X_c, observable) measurement yields Y = (-1)^z g.  The mean of
kappa * Y over Hoeffding-many shots estimates the lifted-state term.

Block-encodings here are exact unitary dilations (normalization alpha,
declared spectral error delta); the error-composition and sample-count
accounting still covers the inexact case and is exercised by injecting
controlled perturbations.  ``be_product`` composes two encodings into the
encoding of their product, so an error in the modular flow enters as a
factor of the inverse-root encoding the circuit takes.

Shots are simulated in chunks without forming the circuit register.  Up to
the evolution, a shot's state is linear in the modular phases
e^{i theta_ab} of the sigma_v eigenbasis; the diagonal phases are 1 and the
transposed ones are conjugates, so 1 + d_v(d_v - 1) real features
(1, cos theta_ab, sin theta_ab) carry the modular time.  In the eigenbasis
of G the evolved blocks and the observable's projectors are Hermitian, so
the evolution time enters only through the D(D - 1)/2 phases
e^{it(g_p - g_q)}, p < q.  Each kernel pass is then two real GEMMs against
maps built once per (model, target, observable); see ``_BatchContext``.
A chunk draws its random numbers and times, cleans the probabilities and
samples the outcomes once for all its shots; the modular features, the
evolution phases and the outcome table run over sub-blocks of
``_SUB_BLOCK`` shots, so their temporaries stay cache-sized and are not
paged in afresh per chunk; the outcomes are those of one whole-chunk pass.
Each unit phase e^{ia} is (1 - tau^2 + 2i tau)/(1 + tau^2), tau = tan(a/2):
numpy 2.4 vectorizes float64 tan (1.6-2.5 ns a value on an AVX-512 Xeon)
but runs cos and sin at scalar speed (7-23 ns, slower as |a| grows), and
the forms agree within 2.2e-16 a component.  ``eigen_groups`` returns an
observable's eigensystem and group bounds, never a projector stack.

The deterministic (s, t)-quadrature uses the same maps.  The outcome table
is linear in the features for fixed phases and in the phases for fixed
features, so the density-weighted double sum over the nodes collapses to
one table evaluation at the weighted feature and phase sums; no circuit
register is ever formed.  The full-register circuit survives only as the
test oracle in ``tests/test_estimator.py``.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .densities import (
    HIGH_PEAK_TENT,
    LOGISTIC,
    expectation_nodes,
    sample,
)
from .errors import ScaleError, SpecError
from .gradients import UMEGAKI, as_target
from .linalg import as_unitary, eigh, partial_trace, real_traces, spectral_norm
from .models import ThermalModel

MAX_CIRCUIT_DIM = 256
MAX_SHOTS = 10**8  # per estimate; the simulated outcome array alone is 0.8 GB here
PROB_CLAMP = -1e-10
PROB_DEFECT = 1e-8
GROUP_RTOL = 1e-9  # eigenvalues this close (relative to the largest) form one group
_CHUNK = 8192  # shots per chunk, the unit of seeding and of threading
_SUB_BLOCK = 1024  # shots per kernel pass inside a chunk
# quadrature_first_term's grid, both axes from densities.expectation_nodes: QUAD_S_NODES
# logistic s-nodes on |s| <= QUAD_S_MAX and QUAD_T_NODES tent t-nodes on |t| <= QUAD_T_MAX
QUAD_S_MAX = 10.0
QUAD_S_NODES = 192
QUAD_T_MAX = 10.0
QUAD_T_NODES = 1600

# First word of the spawn key of every random stream the package derives from
# a user seed, one per consumer: np.random.SeedSequence(seed, spawn_key=(tag,
# ...)) then gives each (seed, consumer, index) its own independent stream.
CHUNK_STREAM = 1  # estimator chunk: (tag, chunk index)
SHOT_GRADIENT_STREAM = 2  # shot-mode training: (tag, iteration, term)
CLASSICAL_STREAM = 3  # classical sampled gradient: (tag, iteration)


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
    return BlockEncoding(
        blocks.transpose(0, 1, 4, 2, 3, 5).reshape(dim, dim),
        a.alpha * b.alpha,
        a.ancillas + b.ancillas,
        a.alpha * b.delta + b.alpha * a.delta + a.delta * b.delta,
    )


def dilate(contraction, alpha: float) -> BlockEncoding:
    """Exact one-ancilla unitary dilation of a contraction C.

    U = [[C, (I - C C^dag)^{1/2}], [(I - C^dag C)^{1/2}, -C^dag]] with the
    ancilla as the leading register, so (<0| (x) I) U (|0> (x) I) = C.
    Built through the SVD so each cosine/sine pair comes from one singular
    value; unitarity then survives C touching the boundary |C| = 1.
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


def modular_unitary(model: ThermalModel, s: float) -> BlockEncoding:
    """Exact encoding of the modular-flow unitary sigma_v^{-is/2} (no ancilla)."""
    es = model.sigma_v_eig
    if float(es.vals[0]) <= 0.0:
        raise SpecError("visible marginal must be strictly positive")
    phases = np.exp(-0.5j * s * np.log(es.vals))
    u = (es.vecs * phases) @ es.vecs.conj().T
    return BlockEncoding(u, 1.0, 0, 0.0)


def inv_sqrt_encoding(model: ThermalModel) -> BlockEncoding:
    """Exact (sqrt(kappa), 0)-block-encoding of sigma_v^{-1/2}."""
    if not np.isfinite(model.kappa):
        raise SpecError("kappa must be finite")
    root_kappa = math.sqrt(model.kappa)
    contraction = model.sigma_v_eig.power(-0.5) / root_kappa
    return dilate(contraction, root_kappa)


@dataclass(frozen=True)
class EstimatorConfig:
    """Error target, failure probability, optional fixed shot count, seed and
    threads; the seed roots the streams of the ``_CHUNK``-shot chunks."""

    epsilon: float = 0.05
    delta_fail: float = 0.05
    shots: int = 0  # 0 = auto from the Hoeffding bound
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if not 0.0 < self.epsilon < math.inf:
            raise SpecError("epsilon must be positive and finite")
        if not 0.0 < self.delta_fail < 1.0:
            raise SpecError("delta_fail must lie in (0, 1)")
        if self.shots < 0 or self.threads < 1:
            raise SpecError("shots and threads must be nonnegative/positive")
        if self.shots > MAX_SHOTS:
            raise SpecError(f"shots {self.shots} exceed MAX_SHOTS = {MAX_SHOTS:.0e}")
        if self.seed < 0:
            raise SpecError("seed must be nonnegative")


def hoeffding_shots(kappa: float, g_norm: float, epsilon: float, delta_fail: float) -> int:
    """Two-sided Hoeffding count for range 2*kappa*g_norm samples:
    ceil(2 (kappa g / eps)^2 ln(2/delta)), at most ``MAX_SHOTS``."""
    if min(kappa, g_norm, epsilon) <= 0.0 or not 0.0 < delta_fail < 1.0:
        raise SpecError("hoeffding_shots needs positive inputs and delta in (0,1)")
    ratio = kappa * g_norm / epsilon
    count = 2.0 * ratio * ratio * math.log(2.0 / delta_fail)  # inf, not OverflowError
    if not count <= MAX_SHOTS:
        raise SpecError(f"Hoeffding count {count:.3g} exceeds MAX_SHOTS = {MAX_SHOTS:.0e}")
    return int(math.ceil(count))


def check_circuit(dims) -> None:
    """ScaleError unless the register (c, a, v1, v2, h) fits ``MAX_CIRCUIT_DIM``."""
    if 2 * 2 * dims.d_v * dims.d_v * dims.d_h > MAX_CIRCUIT_DIM:
        raise ScaleError("circuit register exceeds the supported size")


def eigen_groups(g_j) -> tuple:
    """Distinct eigenvalues (K,) of an observable, each the mean of the eigenpairs
    bounds[k]:bounds[k+1], with its checked eigensystem and the bounds (K+1,)."""
    es = eigh(g_j)
    scale = max(1.0, float(np.max(np.abs(es.vals))))
    starts = [0]
    for i in range(1, es.dim):
        if es.vals[i] - es.vals[starts[-1]] > GROUP_RTOL * scale:
            starts.append(i)
    bounds = np.array(starts + [es.dim])  # np.mean's order: np.add.reduceat's would move bits
    return np.array([np.mean(es.vals[lo:hi]) for lo, hi in zip(starts, bounds[1:])]), es, bounds


def _group_projectors(es, bounds, basis: np.ndarray) -> np.ndarray:
    """(K, D, D) group projectors in an orthonormal basis: W_k W_k^dag, W = basis^dag V."""
    w = basis.conj().T @ es.vecs
    return np.stack([w[:, lo:hi] @ w[:, lo:hi].conj().T for lo, hi in zip(bounds, bounds[1:])])


def _clean_probs(p: np.ndarray) -> np.ndarray:
    """Clamp and normalize outcome probabilities along the last axis, in place."""
    low = float(p.min(initial=0.0))
    if low < PROB_CLAMP:
        raise SpecError(f"negative outcome probability {low:.3e}")
    np.maximum(p, 0.0, out=p)
    total = (p @ np.ones(p.shape[-1]))[..., None]  # a GEMV, ~6x faster than a short-axis sum
    if not np.all(np.abs(total - 1.0) <= PROB_DEFECT):  # a NaN fails the comparison
        raise SpecError("outcome probabilities defect exceeds 1e-8")
    p /= total
    return p


# ---------------------------------------------------------------------------
# shot-invariant maps of the estimation circuit and the shot kernel
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _BatchContext:
    """Shot-invariant constants of the estimation circuit, in real features.

    Before the t-contraction every per-shot quantity is linear in the d_v^2
    modular phases phi_ab(s) = e^{i theta_ab}, theta_ab = -s(ln l_a - ln l_b)/2,
    of the sigma_v eigenbasis.  The target enters through the basis matrices
    w_ab = rho~_ab b_a b_b^dag, where b is the first (ancilla hit) or second
    (ancilla miss) row block of the inverse-root dilation.  Since phi_aa = 1
    and phi_ba = conj(phi_ab), the phases fold into n_f = 1 + d_v(d_v - 1)
    real features f = [1, cos theta_ab, sin theta_ab]_{a<b} against the
    Hermitian matrices sum_a w_aa, w_ab + w_ba and i(w_ab - w_ba).

    In the eigenbasis V of G the ancilla-hit blocks X = V^dag(w (x) R)V,
    R in {I, sigma_h}, are Hermitian, so the (p, q) and (q, p) terms of the
    t-contraction are complex conjugates up to their weights: only the
    P = D(D-1)/2 entries X_qp with p < q are kept, weighted by D_p + D_q
    (Gibbs weights, block R = I) or 2 (block R = sigma_h).  The p = q terms
    do not depend on t and join the traces and the ancilla-miss branch in
    ``static_map``; the table's 1/4, +-1 and factor 2 sit in both maps.

    ``inv_sqrt``, a one-ancilla encoding in place of the exact dilation,
    injects controlled encoding errors: it only changes the row blocks b.  A
    modular-flow error N enters as its factor, ``be_product(inv_sqrt,
    BlockEncoding(N, 1.0, 0, delta))``, whose first d_v columns are those
    of ``inv_sqrt`` times N.
    """

    log_vals: np.ndarray  # ln eigenvalues of sigma_v
    g_vals: np.ndarray  # eigenvalues of G
    static_map: np.ndarray  # (n_f, 2K+2): features -> t-independent table part
    lift_map: np.ndarray  # (n_f, 4P): features -> (Re, Im) X_qp, block-major
    pair_map: np.ndarray  # (4P, 2K+2): (Re, Im) X_qp e^{it(g_p-g_q)} -> table
    y_values: np.ndarray  # distinct eigenvalues of the observable
    outcome_values: np.ndarray  # (2K+2,): Y of each table column, y_k, -y_k, 0, 0


def _batch_context(
    model: ThermalModel, rho, g_j, *, groups=None, inv_sqrt=None
) -> _BatchContext:
    d_v, d_h = model.dims.d_v, model.dims.d_h
    check_circuit(model.dims)
    rho = as_target(rho, UMEGAKI).rho  # the umegaki lift is what the circuit estimates
    sv = model.sigma_v_eig
    inv = inv_sqrt if inv_sqrt is not None else inv_sqrt_encoding(model)
    if inv.ancillas != 1:
        raise SpecError("the inverse-root encoding must use exactly one ancilla")
    hit_miss = inv.unitary[:, :d_v]
    values, g_es, bounds = eigen_groups(g_j) if groups is None else groups
    g_vecs = model.g_eig.vecs
    g_vecs_h = g_vecs.conj().T
    dim = d_v * d_h
    proj_rot = _group_projectors(g_es, bounds, g_vecs)
    d_weights = model.weights
    sigma_h = partial_trace(model.sigma_vh, model.dims, keep="hidden")

    rho_tilde = sv.vecs.conj().T @ rho @ sv.vecs
    blocks = (hit_miss @ sv.vecs).reshape(2, d_v, d_v)  # [ancilla, x, a]
    basis = np.einsum("ab,nxa,nyb->nabxy", rho_tilde, blocks, blocks.conj())
    a, b = np.triu_indices(d_v, 1)
    upper, lower = basis[:, a, b], basis[:, b, a]
    w0, w1 = np.concatenate(
        [np.einsum("naaxy->nxy", basis)[:, None], upper + lower, 1j * (upper - lower)], axis=1
    )

    def in_g_basis(w, right):  # V^dag (w (x) right) V for a stack of w
        lift = (w[:, :, None, :, None] * right[None, None, :, None, :]).reshape(-1, dim, dim)
        return g_vecs_h @ lift @ g_vecs

    eye_h = np.eye(d_h, dtype=complex)
    hit = np.stack([in_g_basis(w0, eye_h), in_g_basis(w0, sigma_h)], axis=1)
    k = values.shape[0]
    c1 = np.einsum("kpp,p->k", proj_rot, d_weights).real  # Tr[Pi_k sigma_vh]
    base0 = np.einsum("fpp->f", w0).real[:, None] * c1 + np.einsum(
        "fpp,kpp->fk", hit[:, 1], proj_rot).real
    cross0 = 2.0 * np.einsum("fpp,kpp,p->fk", hit[:, 0], proj_rot, d_weights).real
    # the ancilla-miss branch sums its projectors to the identity, so the
    # evolution drops out of it
    base1 = np.einsum("fpp->f", w1).real + np.einsum("fpp->f", in_g_basis(w1, sigma_h)).real
    cross1 = 2.0 * np.einsum("fpp,p->f", in_g_basis(w1, eye_h), d_weights).real
    static_map = 0.25 * np.concatenate(
        [base0 + cross0, base0 - cross0, (base1 + cross1)[:, None], (base1 - cross1)[:, None]],
        axis=1,
    )

    p, q = np.triu_indices(dim, 1)
    entries = hit[:, :, q, p]  # (n_f, block, pair): X_qp of both ancilla-hit blocks
    lift_map = np.stack([entries.real, entries.imag], axis=-1).reshape(entries.shape[0], -1)
    # the (p,q) and (q,p) terms sum to w Re(z Pi_pq), z = X_qp e_pq, with the
    # pair weight w = D_p + D_q (block I) or 2 (block sigma_h), and
    # Re(z w Pi) = Re z Re(w Pi) - Im z Im(w Pi)
    pair_weights = np.stack([d_weights[p] + d_weights[q], np.full(p.shape[0], 2.0)])
    weighted = pair_weights[:, :, None] * proj_rot[:, p, q].T  # (block, pair, K)
    rows = np.stack([weighted.real, -weighted.imag], axis=2)  # (block, pair, re/im, K)
    # 1/4 (base +- cross): block I is the cross term 2 t2, block sigma_h joins base
    pair_map = np.zeros(rows.shape[:3] + (2 * k + 2,))
    pair_map[0, ..., :k], pair_map[0, ..., k : 2 * k] = 0.5 * rows[0], -0.5 * rows[0]
    pair_map[1, ..., :k] = pair_map[1, ..., k : 2 * k] = 0.25 * rows[1]
    return _BatchContext(
        log_vals=np.log(sv.vals),
        g_vals=model.g_eig.vals,
        static_map=static_map,
        lift_map=lift_map,
        pair_map=pair_map.reshape(-1, 2 * k + 2),
        y_values=values,
        outcome_values=np.concatenate([values, -values, [0.0, 0.0]]),
    )


def _pair_phases(angles: np.ndarray) -> np.ndarray:
    """e^{i(a_p - a_q)} for p < q in row-major pair order, from (n, m) angles.

    Each row block is a product u_p conj(u_q) of u = e^{ia}, formed from tan(a/2).
    """
    n, m = angles.shape
    tau = np.tan(0.5 * angles)
    sq = np.multiply(tau, tau)
    den = sq + 1.0
    u = np.empty((n, m), dtype=complex)
    np.divide(np.subtract(1.0, sq, out=sq), den, out=u.real)
    np.divide(np.add(tau, tau, out=tau), den, out=u.imag)
    u_conj = u.conj()
    out = np.empty((n * (n - 1) // 2, m), dtype=complex)
    start = 0
    for p in range(n - 1):
        stop = start + n - 1 - p
        np.multiply(u_conj[p + 1 :], u[p], out=out[start:stop])
        start = stop
    return out


def _modular_features(ctx: _BatchContext, s: np.ndarray) -> np.ndarray:
    """(n_f, m) real features [1, cos theta_ab, sin theta_ab] of m modular times."""
    phi = _pair_phases(np.outer(-0.5 * ctx.log_vals, s))
    return np.concatenate([np.ones((1, s.shape[0])), phi.real, phi.imag])


def _outcome_table(ctx: _BatchContext, feats: np.ndarray, phases: np.ndarray, out=None):
    """(m, 2K+2) outcome table from (n_f, m) features and (P, m) pair phases,
    written into ``out`` when given: f @ static_map plus (X e) @ pair_map,
    where X = f @ lift_map holds the pair entries X_qp and is multiplied by
    e_pq = e^{it(g_p - g_q)} in place.  Linear in the features for fixed
    phases and in the phases for fixed features.
    """
    m = feats.shape[1]
    lifted = feats.T @ ctx.lift_map
    evolved = lifted.view(complex).reshape(m, 2, phases.shape[0])
    evolved *= phases.T[:, None, :]
    probs = np.matmul(feats.T, ctx.static_map, out=out)
    probs += lifted @ ctx.pair_map
    return probs


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(CHUNK_STREAM, chunk)))


def _run_chunk(ctx: _BatchContext, seed: int, chunk: int, n: int) -> np.ndarray:
    """Signed outcomes Y of one chunk of n shots.

    The chunk's random numbers (n for s, 3n for t, then n outcome draws)
    come from its own stream, ``_chunk_rng(seed, chunk)``.  The times s and t, the
    cleaning of the probabilities and the cumulative-sum sampling run once
    over the whole chunk, the sampling as one sweep over the 2K+2 outcome
    columns.  The phases of s and t and the outcome table run in sub-blocks
    of ``_SUB_BLOCK`` shots; each writes its rows into the chunk's one
    probability array, and every shot gets the value of one whole pass.
    """
    rng = _chunk_rng(seed, chunk)
    s = sample(LOGISTIC, rng, n)
    t = sample(HIGH_PEAK_TENT, rng, n)
    draws = rng.random(n)
    probs = np.empty((n, ctx.static_map.shape[1]))
    for lo in range(0, n, _SUB_BLOCK):
        block = slice(lo, lo + _SUB_BLOCK)
        phases = _pair_phases(np.outer(ctx.g_vals, t[block]))
        _outcome_table(ctx, _modular_features(ctx, s[block]), phases, out=probs[block])
    cum, idx = np.zeros(n), np.zeros(n, dtype=np.intp)
    for column in _clean_probs(probs).T:  # np.cumsum's order, one vector pass per outcome
        cum += column
        idx += draws > cum  # the outcome index counts the running sums below the draw
    return ctx.outcome_values[np.minimum(idx, probs.shape[1] - 1)]


def estimate_first_term(
    model: ThermalModel, rho, g_j, config: EstimatorConfig, *, groups=None
) -> tuple[float, float, int]:
    """Shot estimate (mean, stderr, shots) of the lifted-state term.

    ``rho`` is a density matrix or a ``Target`` prepared for the umegaki
    objective, whose lift the circuit estimates.  ``groups`` is
    ``eigen_groups(g_j)`` when the caller already holds it; by default it
    is formed here.

    Shot count defaults to the Hoeffding bound for the configured
    (epsilon, delta_fail).  Work is split into fixed-size chunks; chunk i
    draws from the stream SeedSequence(seed, spawn_key=(CHUNK_STREAM, i)),
    independent of every other (seed, chunk) pair, and runs its kernel in
    sub-blocks.  Chunks are merged in index order, so the result is
    reproducible for any thread count; a single chunk runs inline.
    """
    g_norm = spectral_norm(g_j)
    shots = config.shots or hoeffding_shots(model.kappa, g_norm, config.epsilon, config.delta_fail)
    ctx = _batch_context(model, rho, g_j, groups=groups)
    sizes = [_CHUNK] * (shots // _CHUNK)
    if shots % _CHUNK:
        sizes.append(shots % _CHUNK)
    if config.threads > 1 and len(sizes) > 1:
        with ThreadPoolExecutor(max_workers=min(config.threads, len(sizes))) as pool:
            parts = list(
                pool.map(lambda iw: _run_chunk(ctx, config.seed, iw[0], iw[1]), enumerate(sizes))
            )
    else:
        parts = [_run_chunk(ctx, config.seed, i, n) for i, n in enumerate(sizes)]
    y = np.concatenate(parts) if parts else np.zeros(0)
    mean = model.kappa * float(np.mean(y))
    stderr = model.kappa * float(np.std(y, ddof=1)) / math.sqrt(shots) if shots > 1 else float("inf")
    return mean, stderr, shots


def estimate_model_term(
    model: ThermalModel, g_j, shots: int, seed: int, *, groups=None
) -> tuple[float, float]:
    """Shot estimate (mean, stderr) of <G_j>_{sigma_vh} by direct thermal
    sampling; ``groups`` as in ``estimate_first_term``."""
    values, es, bounds = eigen_groups(g_j) if groups is None else groups
    diag = np.einsum("ij,ij->j", es.vecs.conj(), model.sigma_vh @ es.vecs)  # V^dag sigma_vh V
    p = real_traces(np.add.reduceat(diag, bounds[:-1]))  # Tr[P_k sigma_vh], group by group
    # Generator.choice(len(values), size=shots, p=p)'s arithmetic and stream:
    # the outcome counts the cdf entries at or below the draw, swept per group
    cdf = _clean_probs(p[None, :])[0].cumsum()
    cdf /= cdf[-1]
    u = np.random.default_rng(seed).random(shots)
    idx = np.zeros(shots, dtype=np.intp)
    for c in cdf:
        idx += u >= c
    draws = values[idx]
    stderr = float(np.std(draws, ddof=1)) / math.sqrt(shots) if shots > 1 else float("inf")
    return float(np.mean(draws)), stderr


# ---------------------------------------------------------------------------
# deterministic (s, t)-quadrature through the same maps
# ---------------------------------------------------------------------------


def quadrature_first_term(model: ThermalModel, rho, g_j, *, inv_sqrt=None) -> float:
    """Density-weighted (s, t)-quadrature average of the circuit's mean
    alpha^2 <X_c (x) O>, alpha the inverse-root encoding's normalization.

    The plain double-grid sum sum_i sum_j w_i w_j table(f(s_i), e(t_j)), with
    the t-density's point mass t_w0 at t = 0 among the t-nodes, is evaluated
    in closed form: the table is linear in the modular features f and in the
    pair phases e separately, so the sum equals W table(f_bar, e_bar / W)
    with f_bar = sum_i w_i f(s_i), e_bar = t_w0 + sum_j w_j e(t_j) and
    W = t_w0 + sum_j w_j.  ``inv_sqrt`` injects controlled encoding errors
    as in ``_BatchContext``, a modular-flow error as its ``be_product``
    factor.
    """
    inv = inv_sqrt if inv_sqrt is not None else inv_sqrt_encoding(model)
    ctx = _batch_context(model, rho, g_j, inv_sqrt=inv)
    s_pts, s_wts, _ = expectation_nodes(LOGISTIC, T=QUAD_S_MAX, nodes=QUAD_S_NODES)
    t_pts, t_wts, t_w0 = expectation_nodes(HIGH_PEAK_TENT, T=QUAD_T_MAX, nodes=QUAD_T_NODES)
    t_mass = t_w0 + float(np.sum(t_wts))
    f_bar = _modular_features(ctx, s_pts) @ s_wts
    e_bar = (t_w0 + _pair_phases(np.outer(ctx.g_vals, t_pts)) @ t_wts) / t_mass
    table = _outcome_table(ctx, f_bar[:, None], e_bar[:, None])[0]
    k = ctx.y_values.shape[0]
    return inv.alpha**2 * t_mass * float((table[:k] - table[k : 2 * k]) @ ctx.y_values)


# ---------------------------------------------------------------------------
# error budget
# ---------------------------------------------------------------------------


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
