import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import pytest

import qbmgrad.estimator as est
from qbmgrad.errors import ScaleError, SpecError
from qbmgrad.gradients import gradient
from qbmgrad.models import ParamHamiltonian, thermalize
from qbmgrad.estimator import (
    BlockEncoding,
    EstimatorConfig,
    MAX_CIRCUIT_DIM,
    MAX_SHOTS,
    be_product,
    budget_split,
    dilate,
    eigen_groups,
    estimate_first_term,
    estimate_model_term,
    hoeffding_shots,
    inv_sqrt_encoding,
    modular_unitary,
    quadrature_first_term,
    _CHUNK,
    _SUB_BLOCK,
    _batch_context,
    _chunk_rng,
    _clean_probs,
    _modular_features,
    _outcome_table,
    _pair_phases,
    _run_chunk,
)
from qbmgrad.densities import HIGH_PEAK_TENT, LOGISTIC, expectation_nodes, quantile, sample
from qbmgrad.linalg import (
    BipartiteDims,
    as_density,
    as_hermitian,
    eigh,
    hermitize,
    partial_trace,
    spectral_norm,
    tensor,
)
from qbmgrad.verify import be_bound_gap, direct_trace_formula, perturb_encoding
from conftest import PAULI_Z, rand_herm, rand_model, rand_state, rand_unitary, unitary_noise


# ---------------------------------------------------------------------------
# oracle: the estimation circuit on the full register (c, a, v1, v2, h)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _swap_perm(d_v: int, d_h: int) -> np.ndarray:
    """Index permutation of the controlled swap on (c, a, v1, v2, h)."""
    dim = 2 * 2 * d_v * d_v * d_h
    idx = np.arange(dim).reshape(2, 2, d_v, d_v, d_h)
    perm = idx.copy()
    perm[1] = idx[1].transpose(0, 2, 1, 3)
    return perm.reshape(-1)


def _circuit_pieces(model, rho, s, t, g_j, modular, inv_sqrt):
    """Post-swap register state, evolved observable and (alpha1 alpha2)^2."""
    d_v, d_h = model.dims.d_v, model.dims.d_h
    dim = 2 * 2 * d_v * d_v * d_h
    if dim > MAX_CIRCUIT_DIM:
        raise ScaleError(f"circuit register dim {dim} exceeds {MAX_CIRCUIT_DIM}")
    mod = modular if modular is not None else modular_unitary(model, s)
    inv = inv_sqrt if inv_sqrt is not None else inv_sqrt_encoding(model)
    if mod.ancillas != 0 or inv.ancillas != 1:
        raise SpecError("circuit expects an ancilla-free modular encoding and a one-ancilla inverse-root encoding")
    rho = as_density(rho)
    rho_s = mod.unitary @ rho @ mod.unitary.conj().T
    embedded = np.zeros((2 * d_v, 2 * d_v), dtype=complex)
    embedded[:d_v, :d_v] = rho_s
    xi = inv.unitary @ embedded @ inv.unitary.conj().T
    omega = tensor(xi, model.sigma_vh)
    plus = np.full((2, 2), 0.5, dtype=complex)
    full = tensor(plus, omega)
    perm = _swap_perm(d_v, d_h)
    tau = full[np.ix_(perm, perm)]
    phases = np.exp(1j * model.g_eig.vals * t)
    u_t = (model.g_eig.vecs * phases) @ model.g_eig.vecs.conj().T
    o_t = hermitize(u_t @ as_hermitian(g_j) @ u_t.conj().T)
    scale = (mod.alpha * inv.alpha) ** 2
    return tau, o_t, scale


def projector_groups(g_j):
    """``eigen_groups``' values with each group's projector V_k V_k^dag,
    one (K, D, D) stack: the projector form the oracles below read."""
    values, es, bounds = eigen_groups(g_j)
    return values, np.stack([es.vecs[:, lo:hi] @ es.vecs[:, lo:hi].conj().T
                             for lo, hi in zip(bounds[:-1], bounds[1:])])


def cos_sin_pair_phases(angles):
    """e^{i(a_p - a_q)} for p < q from (n, m) angles, with u = cos a + i sin a:
    the oracle for ``_pair_phases``' tangent form."""
    n, m = angles.shape
    u = np.empty((n, m), dtype=complex)
    np.cos(angles, out=u.real)
    np.sin(angles, out=u.imag)
    u_conj = u.conj()
    out = np.empty((n * (n - 1) // 2, m), dtype=complex)
    start = 0
    for p in range(n - 1):
        stop = start + n - 1 - p
        np.multiply(u_conj[p + 1 :], u[p], out=out[start:stop])
        start = stop
    return out


_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_P0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def circuit_expectation(model, rho, g_j, s, t, *, modular=None, inv_sqrt=None) -> float:
    """(alpha1 alpha2)^2 <X_c (x) O> on the post-swap circuit state.

    With exact encodings this equals
    (1/2) Tr[e^{iGt} G_j e^{-iGt} {sigma_vh, sigma_v^{-1/2} sigma_v^{-is/2}
    rho sigma_v^{is/2} sigma_v^{-1/2} (x) I_h}]; averaging over s and t
    yields the gradient's lifted-state term.
    """
    tau, o_t, scale = _circuit_pieces(model, rho, s, t, g_j, modular, inv_sqrt)
    d_v = model.dims.d_v
    meas = tensor(_PAULI_X, tensor(_P0, tensor(np.eye(d_v), o_t)))
    val = complex(np.einsum("ij,ji->", tau, meas))
    return scale * val.real


def test_dilate_unitary_input(rng):
    u = rand_unitary(rng, 3)
    be = dilate(u, 1.0)
    assert spectral_norm(be.unitary[:3, :3] - u) < 1e-12


def test_dilate_zero_matrix():
    be = dilate(np.zeros((2, 2)), 1.0)
    assert spectral_norm(be.extract()) == 0.0
    assert spectral_norm(be.unitary.conj().T @ be.unitary - np.eye(4)) < 1e-12


def test_dilate_extraction_oracle(rng):
    c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    c /= spectral_norm(c) * 1.25
    be = dilate(c, 2.5)
    assert spectral_norm(be.extract() - 2.5 * c) < 1e-12
    assert spectral_norm(be.unitary.conj().T @ be.unitary - np.eye(8)) < 1e-10


def test_dilate_rejects_expansion(rng):
    with pytest.raises(SpecError):
        dilate(1.5 * np.eye(2), 1.0)


def test_modular_unitary_at_zero(rng):
    model = rand_model(rng, 2, 2)
    assert spectral_norm(modular_unitary(model, 0.0).unitary - np.eye(2)) < 1e-12


def test_modular_unitary_maximally_mixed_is_phase(rng):
    ham = ParamHamiltonian(dims=BipartiteDims(3, 1),
                           terms=(rand_herm(rng, 3),), theta=np.zeros(1))
    model = thermalize(ham)
    s = 1.3
    want = 3.0 ** (0.5j * s) * np.eye(3)
    assert spectral_norm(modular_unitary(model, s).unitary - want) < 1e-12


def test_modular_unitary_group_law(rng):
    model = rand_model(rng, 3, 2)
    u = modular_unitary(model, 0.8).unitary @ modular_unitary(model, -2.1).unitary
    assert spectral_norm(u - modular_unitary(model, -1.3).unitary) < 1e-10


def test_inv_sqrt_identity_case(rng):
    ham = ParamHamiltonian(dims=BipartiteDims(3, 1),
                           terms=(rand_herm(rng, 3),), theta=np.zeros(1))
    model = thermalize(ham)  # sigma_v = I/3, kappa = 3
    be = inv_sqrt_encoding(model)
    assert spectral_norm(be.unitary[:3, :3] - np.eye(3)) < 1e-10


def test_inv_sqrt_extraction_and_alpha(rng):
    model = rand_model(rng, 3, 2)
    be = inv_sqrt_encoding(model)
    assert spectral_norm(be.extract() - model.sigma_v_eig.power(-0.5)) < 1e-10
    assert abs(be.alpha**2 - model.kappa) < 1e-10 * model.kappa


def test_circuit_fixed_point_no_hidden(rng):
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1),
                           terms=(PAULI_Z,), theta=np.array([0.6]))
    model = thermalize(ham)
    val = circuit_expectation(model, model.sigma_v, PAULI_Z, 0.0, 0.0)
    from qbmgrad.linalg import expectation

    assert abs(val - expectation(PAULI_Z, model.sigma_v)) < 1e-10


def test_circuit_matches_trace_formula(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    for s, t in [(0.9, -0.4), (-2.2, 1.7)]:
        want = direct_trace_formula(model, rho, g_j, s, t)
        assert abs(circuit_expectation(model, rho, g_j, s, t) - want) < 1e-8


def test_circuit_state_is_physical(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    tau, _, _ = _circuit_pieces(model, rho, 0.7, -0.9, model.hamiltonian.terms[0], None, None)
    assert abs(np.trace(tau).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh((tau + tau.conj().T) / 2)[0] > -1e-9


def test_circuit_register_guard(rng):
    # 2 * 2 * 8 * 8 * 4 = 1024 exceeds MAX_CIRCUIT_DIM on every entry point
    model = rand_model(rng, 8, 4, n_terms=1, term_scale=0.1)
    rho, g_j = rand_state(rng, 8), model.hamiltonian.terms[0]
    with pytest.raises(ScaleError):
        quadrature_first_term(model, rho, g_j)
    with pytest.raises(ScaleError):
        estimate_first_term(model, rho, g_j, EstimatorConfig(shots=10))


def test_injected_encodings_are_checked(rng):
    model = rand_model(rng, 2, 2)
    rho, g_j = rand_state(rng, 2), model.hamiltonian.terms[0]
    inv = inv_sqrt_encoding(model)
    with pytest.raises(SpecError, match="not unitary"):
        quadrature_first_term(model, rho, g_j, inv_sqrt=be_product(
            inv, BlockEncoding(np.diag([1.0, 0.9]), 1.0, 0)))
    with pytest.raises(SpecError,
                       match="cannot compose block-encodings of 2- and 3-dimensional systems"):
        quadrature_first_term(model, rho, g_j,
                              inv_sqrt=be_product(inv, BlockEncoding(np.eye(3), 1.0, 0)))
    with pytest.raises(SpecError, match="ancilla"):
        quadrature_first_term(model, rho, g_j, inv_sqrt=BlockEncoding(np.eye(2), 1.0, 0))


def test_non_square_encoding_is_spec_error():
    with pytest.raises(SpecError, match=r"block-encoding matrix must be square, got \(2, 3\)"):
        BlockEncoding(np.ones((2, 3)), 1.0, 0)


@pytest.mark.parametrize("ancillas, dim", [(1, 3), (2, 6), (-1, 2)])
@pytest.mark.parametrize("use", [BlockEncoding.extract, lambda be: be_product(be, be)],
                         ids=["extract", "be_product"])
def test_ancillas_must_divide_the_encoding(use, ancillas, dim):
    with pytest.raises(SpecError, match=rf"^a {dim}-dimensional block-encoding cannot hold "
                                        rf"{ancillas} ancilla qubits$"):
        use(BlockEncoding(np.eye(dim), 2.0, ancillas))


def test_quadrature_average_matches_lifted_term(rng):
    for _ in range(2):
        model = rand_model(rng, 2, 2)
        rho = rand_state(rng, 2)
        g_j = model.hamiltonian.terms[0]
        exact = gradient(model, rho).first_terms[0]
        assert abs(quadrature_first_term(model, rho, g_j) - exact) < 1e-6


def _double_grid_average(model, rho, g_j, *, modular_noise=None, inv_sqrt=None):
    """Brute double loop over the oracle circuit on quadrature_first_term's
    grid, both axes from ``est.expectation_nodes``, t_w0 weighting t = 0."""
    s_pts, s_wts, _ = est.expectation_nodes(LOGISTIC, T=est.QUAD_S_MAX, nodes=est.QUAD_S_NODES)
    t_pts, t_wts, t_w0 = est.expectation_nodes(HIGH_PEAK_TENT, T=est.QUAD_T_MAX,
                                               nodes=est.QUAD_T_NODES)
    inv = inv_sqrt if inv_sqrt is not None else inv_sqrt_encoding(model)
    noise = np.eye(model.dims.d_v) if modular_noise is None else modular_noise
    total = 0.0
    for s_i, ws in zip(s_pts, s_wts):
        mod = BlockEncoding(noise @ modular_unitary(model, s_i).unitary, 1.0, 0)
        for t_i, wt in [(0.0, t_w0)] + list(zip(t_pts, t_wts)):
            total += ws * wt * circuit_expectation(model, rho, g_j, s_i, t_i,
                                                   modular=mod, inv_sqrt=inv)
    return total


def _every_nth_node(step):
    """``expectation_nodes`` keeping every step-th node and the t = 0 mass."""
    def nodes(d, *, T, nodes):
        pts, wts, w0 = expectation_nodes(d, T=T, nodes=nodes)
        return pts[::step], wts[::step], w0
    return nodes


def test_quadrature_equals_double_grid_average(rng, monkeypatch):
    # the closed-form contraction equals the plain double loop over the
    # full-register circuit, with and without injected encoding errors; it
    # is exact on any grid, so the test keeps every 8th node of both axes,
    # and every 32nd for the added shapes, to save time
    for d_v, d_h, noisy, step in [(2, 2, False, 8), (2, 2, True, 32), (1, 4, False, 32),
                                  (3, 1, False, 32), (3, 1, True, 32)]:
        monkeypatch.setattr(est, "expectation_nodes", _every_nth_node(step))
        model = rand_model(rng, d_v, d_h)
        rho = rand_state(rng, d_v)
        g_j = model.hamiltonian.terms[1]
        injected = oracle = {}
        if noisy:
            inv = inv_sqrt_encoding(model)
            oracle = dict(modular_noise=unitary_noise(rng, d_v, 0.05),
                          inv_sqrt=perturb_encoding(inv, rng, scale=0.05)[0])
            assert oracle["inv_sqrt"].delta > 1e-4
            injected = dict(inv_sqrt=be_product(
                oracle["inv_sqrt"], BlockEncoding(oracle["modular_noise"], 1.0, 0)))
        brute = _double_grid_average(model, rho, g_j, **oracle)
        fast = quadrature_first_term(model, rho, g_j, **injected)
        assert abs(fast - brute) < 1e-10, (d_v, d_h, noisy)


def test_eigen_groups_handles_degeneracy():
    g = np.diag([1.0, 1.0, -2.0]).astype(complex)
    values, es, bounds = eigen_groups(g)
    assert np.allclose(values, [-2.0, 1.0])
    assert np.array_equal(es.vals, eigh(g).vals) and np.array_equal(bounds, [0, 1, 3])
    # each projector's trace is its group's multiplicity
    projs = projector_groups(g)[1]
    assert projs.shape == (2, 3, 3)
    assert np.max(np.abs(np.trace(projs, axis1=1, axis2=2) - [1.0, 2.0])) < 1e-12


@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
def test_group_sums_match_the_projector_stack(rng, monkeypatch, degenerate):
    model = rand_model(rng, 2, 3)
    g_j = model.hamiltonian.terms[0]
    if degenerate:  # groups of sizes 1, 2 and 3
        u = rand_unitary(rng, 6)
        g_j = (u * np.array([-1.0, 0.5, 0.5, 2.0, 2.0, 2.0])) @ u.conj().T
    values, es, bounds = groups = eigen_groups(g_j)
    projs = projector_groups(g_j)[1]
    assert np.array_equal(np.diff(bounds), [1, 2, 3] if degenerate else [1] * 6)
    assert np.array_equal(values, [np.mean(es.vals[lo:hi]) for lo, hi in zip(bounds, bounds[1:])])
    # rotated projectors: V_G^dag P_k V_G against the eigenbasis form W_k W_k^dag
    basis = model.g_eig.vecs
    rotated = est._group_projectors(es, bounds, basis)
    assert np.max(np.abs(rotated - basis.conj().T @ projs @ basis)) < 1e-12
    # model-term probabilities: group sums of the diagonal against Tr[P_k sigma_vh]
    seen, raw = [], est.real_traces
    monkeypatch.setattr(est, "real_traces", lambda v: seen.append(raw(v)) or seen[-1])
    estimate_model_term(model, g_j, 10, 1, groups=groups)
    want = np.einsum("kij,ji->k", projs, model.sigma_vh).real
    assert np.max(np.abs(seen[0] - want)) < 1e-12


def outcome_distribution(model, rho, g_j, s, t, *, modular=None, inv_sqrt=None):
    """Joint (z, g) outcome table of the commuting measurement pair.

    Returns (z, g, y, prob) arrays; g is the outcome of the full observable
    (ancilla projector times the evolved G_j), which is 0 whenever the
    ancillas miss |0>.  Probabilities are clamped above -1e-10 and
    renormalized; a larger defect raises.
    """
    tau, o_t, _ = _circuit_pieces(model, rho, s, t, g_j, modular, inv_sqrt)
    d_v = model.dims.d_v
    dim = tau.shape[0]
    values, projs = projector_groups(g_j)
    phases = np.exp(1j * model.g_eig.vals * t)
    u_t = (model.g_eig.vecs * phases) @ model.g_eig.vecs.conj().T
    obs_projs = []
    obs_vals = []
    covered = np.zeros((dim, dim), dtype=complex)
    for g_val, pk in zip(values, projs):
        if g_val == 0.0:
            continue
        full = tensor(_P0, tensor(np.eye(d_v), u_t @ pk @ u_t.conj().T))
        lifted = tensor(np.eye(2), full)
        obs_projs.append(lifted)
        obs_vals.append(g_val)
        covered += lifted
    obs_projs.append(np.eye(dim) - covered)
    obs_vals.append(0.0)

    x_projs = [
        tensor(0.5 * (np.eye(2) + sgn * _PAULI_X), np.eye(dim // 2)) for sgn in (+1.0, -1.0)
    ]
    z_out, g_out, p_out = [], [], []
    for z, xp in enumerate(x_projs):
        for g_val, op in zip(obs_vals, obs_projs):
            p = complex(np.einsum("ij,ji->", xp @ op, tau)).real
            z_out.append(z)
            g_out.append(g_val)
            p_out.append(p)
    prob = _clean_probs(np.asarray(p_out))
    z_arr = np.asarray(z_out)
    g_arr = np.asarray(g_out)
    y_arr = np.where(z_arr == 0, g_arr, -g_arr)
    return z_arr, g_arr, y_arr, prob


def test_outcome_distribution_normalized_and_bounded(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    z, g, y, p = outcome_distribution(model, rho, g_j, 0.4, -1.1)
    assert abs(p.sum() - 1.0) < 1e-10
    assert np.all(np.abs(y) <= spectral_norm(g_j) + 1e-12)


def _batch_outcomes(ctx, s, t):
    """Outcome values and cleaned per-shot probabilities for vectors of (s, t),
    from one kernel pass over all shots."""
    probs = _outcome_table(ctx, _modular_features(ctx, s), _pair_phases(np.outer(ctx.g_vals, t)))
    return ctx.outcome_values, _clean_probs(probs)


def test_batch_outcomes_match_honest_path(rng):
    model = rand_model(rng, 3, 2)
    rho = rand_state(rng, 3)
    g_j = model.hamiltonian.terms[0]
    ctx = _batch_context(model, rho, g_j)
    for s_i, t_i in [(0.0, 0.0), (1.3, -0.8), (-3.0, 2.2)]:
        yv, probs = _batch_outcomes(ctx, np.array([s_i]), np.array([t_i]))
        z, g, y, p = outcome_distribution(model, rho, g_j, s_i, t_i)

        def agg(ys, ps):
            out = {}
            for yy, pp in zip(ys, ps):
                out[round(float(yy), 9)] = out.get(round(float(yy), 9), 0.0) + pp
            return out

        a, b = agg(yv, probs[0]), agg(y, p)
        assert set(a) == set(b)
        assert all(abs(a[k] - b[k]) < 1e-10 for k in a)


def _reference_batch_outcomes(model, rho, g_j, s, t):
    """Per-shot lift/contract algebra: four batched D x D conjugations per shot."""
    d_v, d_h = model.dims.d_v, model.dims.d_h
    dim = d_v * d_h
    sv, ge = model.sigma_v_eig, model.g_eig
    bv = inv_sqrt_encoding(model).unitary[:, :d_v] @ sv.vecs
    rho_tilde = sv.vecs.conj().T @ as_density(rho) @ sv.vecs
    values, projs = projector_groups(g_j)
    vecs, vecs_h = ge.vecs, ge.vecs.conj().T
    proj_rot = np.stack([vecs_h @ pk @ vecs for pk in projs])
    d_weights = np.exp(-(ge.vals - ge.vals.min()))
    d_weights /= d_weights.sum()
    sigma_h = partial_trace(model.sigma_vh, model.dims, keep="hidden")
    c1 = np.einsum("kpp,p->k", proj_rot, d_weights).real

    m = s.shape[0]
    phase_s = np.exp(-0.5j * np.outer(s, np.log(sv.vals)))
    rho_s = phase_s[:, :, None] * rho_tilde[None, :, :] * phase_s.conj()[:, None, :]
    xi = bv @ rho_s @ bv.conj().T
    w0, w1 = xi[:, :d_v, :d_v], xi[:, d_v:, d_v:]
    psi = np.exp(-1j * np.outer(t, ge.vals))

    def rotated(w, right):
        lift = (w[:, :, None, :, None] * right[None, None, :, None, :]).reshape(m, dim, dim)
        return vecs_h @ lift @ vecs

    def contract(wt, weight_p):
        x = wt * psi[:, :, None] * psi.conj()[:, None, :] * weight_p[None, None, :]
        return x.transpose(0, 2, 1).reshape(m, dim * dim) @ proj_rot.reshape(-1, dim * dim).T

    eye_h = np.eye(d_h)
    t2_0 = contract(rotated(w0, eye_h), d_weights)
    t3_0 = contract(rotated(w0, sigma_h), np.ones(dim))
    t2_1 = np.einsum("mpp,p->m", rotated(w1, eye_h), d_weights)
    t3_1 = np.einsum("mpp->m", rotated(w1, sigma_h))
    tr_w0 = np.einsum("mpp->m", w0).real
    tr_w1 = np.einsum("mpp->m", w1).real

    k = values.shape[0]
    probs = np.empty((m, 2 * k + 2))
    base0 = tr_w0[:, None] * c1[None, :] + t3_0.real
    probs[:, :k] = 0.25 * (base0 + 2.0 * t2_0.real)
    probs[:, k : 2 * k] = 0.25 * (base0 - 2.0 * t2_0.real)
    base1 = tr_w1 + t3_1.real
    probs[:, 2 * k] = 0.25 * (base1 + 2.0 * t2_1.real)
    probs[:, 2 * k + 1] = 0.25 * (base1 - 2.0 * t2_1.real)
    return np.concatenate([values, -values, [0.0, 0.0]]), _clean_probs(probs)


@dataclass(frozen=True)
class ShotRecord:
    """One circuit execution: times, outcomes, and the signed value Y."""

    s: float
    t: float
    z: int
    g: float
    y: float


def shot_sample(model, rho, g_j, rng_s, rng_t, rng) -> ShotRecord:
    """One record of the honest estimation circuit with (s, t) drawn from
    the streams rng_s and rng_t."""
    s = float(sample(LOGISTIC, rng_s, 1)[0])
    t = float(sample(HIGH_PEAK_TENT, rng_t, 1)[0])
    z, g, y, prob = outcome_distribution(model, rho, g_j, s, t)
    idx = int(rng.choice(len(prob), p=prob))
    return ShotRecord(s=s, t=t, z=int(z[idx]), g=float(g[idx]), y=float(y[idx]))


_REFERENCE_CASES = [
    pytest.param(3, d_h, degenerate, False, id=f"{degenerate}-{d_h}")
    for degenerate in (False, True)
    for d_h in (1, 2, 4)
] + [
    pytest.param(1, 4, False, False, id="dv1-no-modular-pairs"),
    pytest.param(1, 1, False, False, id="dv1-dh1-no-pairs-at-all"),
    pytest.param(4, 2, False, False, id="dv4-dh2-criterion9-shape"),
    pytest.param(4, 2, True, False, id="dv4-dh2-degenerate"),
    pytest.param(3, 2, False, True, id="theta0-equal-weights-zero-phases"),
]


@pytest.mark.parametrize("d_v, d_h, degenerate, theta_zero", _REFERENCE_CASES)
def test_batch_outcomes_match_reference(rng, d_v, d_h, degenerate, theta_zero):
    model = rand_model(rng, d_v, d_h)
    rho = rand_state(rng, d_v)
    g_j = model.hamiltonian.terms[0]
    if degenerate:  # two distinct eigenvalues, so K = 2 < D
        u = rand_unitary(rng, d_v * d_h)
        g_j = (u * np.where(np.arange(d_v * d_h) < 2, 0.7, -0.3)) @ u.conj().T
    if theta_zero:  # G = 0: every Gibbs weight equal, every phase difference zero
        model = thermalize(model.hamiltonian.with_theta(np.zeros(3)))
        assert np.ptp(model.g_eig.vals) == 0.0 and np.ptp(np.log(model.sigma_v_eig.vals)) < 1e-15
    ctx = _batch_context(model, rho, g_j)
    assert ctx.y_values.shape[0] == (2 if degenerate else d_v * d_h)
    for m in (1, 8193):
        s = 4.0 * rng.normal(size=m)
        t = 4.0 * rng.normal(size=m)
        y, probs = _batch_outcomes(ctx, s, t)
        y_ref, probs_ref = _reference_batch_outcomes(model, rho, g_j, s, t)
        assert np.array_equal(y, y_ref)
        assert probs.shape == (m, y.shape[0])
        assert np.max(np.abs(probs - probs_ref)) < 1e-12


def _reference_run_chunk(ctx, seed, chunk, n):
    """Single pass over the chunk: one kernel call for all n shots."""
    rng = _chunk_rng(seed, chunk)
    s = sample(LOGISTIC, rng, n)
    t = sample(HIGH_PEAK_TENT, rng, n)
    y, probs = _batch_outcomes(ctx, s, t)
    cum = np.cumsum(probs, axis=1)
    draws = rng.random(n)
    idx = np.sum(draws[:, None] > cum, axis=1)
    return y[np.minimum(idx, y.shape[0] - 1)]


@pytest.mark.parametrize("n", [1, _SUB_BLOCK - 1, _SUB_BLOCK, _SUB_BLOCK + 1, 8192, 8193])
def test_blocked_chunk_matches_single_pass(rng, n):
    for d_h in (1, 2, 4):
        model = rand_model(rng, 4, d_h)
        rho = rand_state(rng, 4)
        ctx = _batch_context(model, rho, model.hamiltonian.terms[0])
        for seed, chunk in [(0, 0), (11, 3)]:
            assert np.array_equal(
                _run_chunk(ctx, seed, chunk, n), _reference_run_chunk(ctx, seed, chunk, n))


def test_sample_reproduces_run_chunk_draws(rng, monkeypatch):
    model = rand_model(rng, 2, 2)
    ctx = _batch_context(model, rand_state(rng, 2), model.hamiltonian.terms[0])
    drawn = []

    def spy(d, stream, n):
        drawn.append(sample(d, stream, n))
        return drawn[-1]

    monkeypatch.setattr(est, "sample", spy)
    n = _SUB_BLOCK + 5
    _run_chunk(ctx, 7, 2, n)
    stream = _chunk_rng(7, 2)
    s = quantile(LOGISTIC, np.clip(stream.random(n), 1e-16, 1 - 1e-16))
    # the tent: t = U (X_1 + X_2)/2 with X = (2/pi) ln tan(pi u/2), from 3n uniforms in (0, 1]
    u, u_1, u_2 = 1.0 - stream.random((3, n))
    t = u * np.log(np.tan(0.5 * np.pi * u_1) * np.tan(0.5 * np.pi * u_2)) / np.pi
    assert len(drawn) == 2
    assert np.array_equal(drawn[0], s) and np.array_equal(drawn[1], t)


def test_chunk_streams_pairwise_distinct():
    # seed ^ chunk gave (0, 1) and (1, 0) one stream; spawn keys keep every
    # (seed, chunk) pair apart, large seeds included
    pairs = [(seed, chunk) for seed in (0, 1, 2, 3, 2**32, 2**32 + 1, 2**64 + 5) for chunk in range(8)]
    states = {_chunk_rng(seed, chunk).bit_generator.state["state"]["state"] for seed, chunk in pairs}
    assert len(states) == len(pairs)
    first_draws = {float(_chunk_rng(seed, chunk).random()) for seed, chunk in pairs}
    assert len(first_draws) == len(pairs)
    assert np.array_equal(_chunk_rng(5, 2).random(4), _chunk_rng(5, 2).random(4))


@pytest.mark.parametrize("shift, message", [
    (-0.6, "negative outcome probability"),
    (0.01, "defect exceeds"),
    (np.nan, "defect exceeds"),
])
def test_guards_fire_in_a_later_sub_block(rng, monkeypatch, shift, message):
    model = rand_model(rng, 3, 2)
    rho = rand_state(rng, 3)
    ctx = _batch_context(model, rho, model.hamiltonian.terms[0])
    static_map = ctx.static_map.copy()
    static_map[0, 0] += shift  # the constant feature feeds every shot's first outcome
    broken = replace(ctx, static_map=static_map)
    calls = []

    def second_block_broken(c, feats, phases, out=None):
        calls.append(feats.shape[1])
        return _outcome_table(broken if len(calls) == 2 else c, feats, phases, out=out)

    monkeypatch.setattr(est, "_outcome_table", second_block_broken)
    with pytest.raises(SpecError, match=message):
        _run_chunk(ctx, 5, 0, 2 * _SUB_BLOCK + 3)
    # the tables of all sub-blocks are built before the chunk's one cleaning
    assert calls == [_SUB_BLOCK, _SUB_BLOCK, 3]


_SPECIAL_ANGLES = [0.0, 1e-300, -1e-300, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 3 * np.pi,
                   60.0, -60.0, 1e4, -1e4]


def test_tangent_phases_match_cos_sin(rng):
    # against a zero angle the pair phase is e^{-ia} itself
    for a in (np.array(_SPECIAL_ANGLES), rng.uniform(-60.0, 60.0, 200_000)):
        angles = np.stack([np.zeros_like(a), a])
        got, want = _pair_phases(angles)[0], cos_sin_pair_phases(angles)[0]
        assert np.max(np.abs(got - want)) < 1e-15
        assert np.max(np.abs(np.abs(got) - 1.0)) < 1e-15
    assert _pair_phases(np.zeros((2, 3)))[0].tolist() == [1.0, 1.0, 1.0]
    angles = rng.normal(scale=20.0, size=(5, 300))  # every pair of a 5-row block
    assert np.max(np.abs(_pair_phases(angles) - cos_sin_pair_phases(angles))) < 1e-15


def test_nan_angle_gives_nan_phases():
    angles = np.array([[0.0, np.nan, 0.3], [0.2, 0.1, np.nan]])
    got = _pair_phases(angles)[0]
    assert not np.isnan(got[0]) and np.isnan(got[1:].real).all() and np.isnan(got[1:].imag).all()
    assert np.array_equal(np.isnan(got), np.isnan(cos_sin_pair_phases(angles)[0]))


def _cos_sin_run_chunk(ctx, seed, chunk, n):
    """The chunk kernel with cos/sin phases, modular features and row sums
    over the whole chunk at once: the oracle for ``_run_chunk``."""
    rng = _chunk_rng(seed, chunk)
    s, t = sample(LOGISTIC, rng, n), sample(HIGH_PEAK_TENT, rng, n)
    draws = rng.random(n)
    phi = cos_sin_pair_phases(np.outer(-0.5 * ctx.log_vals, s))
    feats = np.concatenate([np.ones((1, n)), phi.real, phi.imag])
    probs = _outcome_table(ctx, feats, cos_sin_pair_phases(np.outer(ctx.g_vals, t)))
    probs = np.maximum(probs, 0.0)
    probs /= probs.sum(axis=-1, keepdims=True)
    idx = np.sum(draws[:, None] > np.cumsum(probs, axis=1), axis=1)
    return ctx.outcome_values[np.minimum(idx, probs.shape[1] - 1)]


@pytest.mark.parametrize("d_v, d_h", [(4, 2), (3, 2), (2, 4)])
def test_run_chunk_outcomes_equal_the_cos_sin_kernel(rng, d_v, d_h):
    # the phases move by at most a few ulps, which flips no outcome here
    model = rand_model(rng, d_v, d_h)
    ctx = _batch_context(model, rand_state(rng, d_v), model.hamiltonian.terms[0])
    for chunk in (0, 1):  # two full seeded chunks
        assert np.array_equal(_run_chunk(ctx, 17, chunk, _CHUNK),
                              _cos_sin_run_chunk(ctx, 17, chunk, _CHUNK))


@pytest.mark.parametrize("shape", [(5, 18), (1, 4)], ids=["n-by-2K+2", "1-by-K"])
@pytest.mark.parametrize("entry, message", [
    (-1e-9, r"negative outcome probability -1\.000e-09"),
    ("+2e-8", "defect exceeds 1e-8"),
    (np.nan, "defect exceeds 1e-8"),
    (np.inf, "defect exceeds 1e-8"),
])
def test_clean_probs_guards(rng, shape, entry, message):
    p = rng.random(shape)
    p /= p.sum(axis=-1, keepdims=True)
    ok = p.copy()
    ok[-1, 0] += 0.5e-8  # a defect within PROB_DEFECT is renormalized away
    ok[-1, 2] += ok[-1, 1]
    ok[-1, 1] = -0.5e-10  # an entry above PROB_CLAMP is clamped to zero
    cleaned = _clean_probs(ok)
    assert cleaned[-1, 1] == 0.0 and np.max(np.abs(cleaned.sum(axis=-1) - 1.0)) < 1e-15
    p[-1, 0] = p[-1, 0] + float(entry) if isinstance(entry, str) else entry
    with pytest.raises(SpecError, match=message):
        _clean_probs(p)


def test_shot_sample_deterministic_and_bounded(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    recs = []
    for _ in range(2):
        s_s = np.random.default_rng(11)
        s_t = np.random.default_rng(12)
        r = np.random.default_rng(13)
        recs.append([shot_sample(model, rho, g_j, s_s, s_t, r) for _ in range(5)])
    assert recs[0] == recs[1]
    g_norm = spectral_norm(g_j)
    for rec in recs[0]:
        assert abs(rec.y) <= g_norm + 1e-12
        assert rec.y == (-1) ** rec.z * rec.g


def test_estimate_fixed_point_no_hidden(rng):
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,),
                           theta=np.array([0.5]))
    model = thermalize(ham)
    from qbmgrad.linalg import expectation

    want = expectation(PAULI_Z, model.sigma_v)
    mean, stderr, _ = estimate_first_term(
        model, model.sigma_v, PAULI_Z, EstimatorConfig(shots=60_000, seed=21))
    assert abs(mean - want) < 3 * stderr


def test_estimate_unbiased_against_exact(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    exact = gradient(model, rho).first_terms[0]
    cfg = EstimatorConfig(epsilon=0.05, delta_fail=0.05, shots=100_000, seed=3)
    mean, stderr, shots = estimate_first_term(model, rho, g_j, cfg)
    assert shots == 100_000
    assert abs(mean - exact) < 5 * stderr


def test_estimate_stderr_scales_inverse_sqrt(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    _, se1, _ = estimate_first_term(model, rho, g_j,
                                    EstimatorConfig(shots=4000, seed=1))
    _, se2, _ = estimate_first_term(model, rho, g_j,
                                    EstimatorConfig(shots=64_000, seed=1))
    assert se2 < se1 / 2.5  # expect ~1/4


def test_estimate_reproducible_across_threads(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    shots = 2 * 8192 + _SUB_BLOCK + 7  # full chunks and a partial last sub-block
    a = estimate_first_term(model, rho, g_j, EstimatorConfig(shots=shots, seed=9))
    for threads in (2, 4):
        assert estimate_first_term(
            model, rho, g_j, EstimatorConfig(shots=shots, seed=9, threads=threads)) == a


@pytest.mark.parametrize("d_h", [1, 2, 4])
def test_estimate_same_at_one_and_two_threads(rng, d_h):
    model = rand_model(rng, 2, d_h)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    for shots in (1, _SUB_BLOCK + 1, _CHUNK + 1, 2 * _CHUNK + 3 * _SUB_BLOCK + 5):
        serial = estimate_first_term(model, rho, g_j, EstimatorConfig(shots=shots, seed=6))
        assert estimate_first_term(
            model, rho, g_j, EstimatorConfig(shots=shots, seed=6, threads=2)) == serial


def test_thread_pool_only_for_several_chunks(rng, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    workers = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(est, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(est, "_CHUNK", 100)
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    for shots in (100, 250):
        inline = estimate_first_term(model, rho, g_j, EstimatorConfig(shots=shots, seed=4))
        pooled = estimate_first_term(model, rho, g_j, EstimatorConfig(shots=shots, seed=4, threads=8))
        assert pooled == inline
    assert workers == [3]  # one chunk runs inline; three chunks get three workers


def test_estimate_model_term(rng):
    model = rand_model(rng, 2, 2)
    g_j = model.hamiltonian.terms[0]
    from qbmgrad.linalg import expectation

    exact = expectation(g_j, model.sigma_vh)
    mean, stderr = estimate_model_term(model, g_j, 200_000, seed=5)
    assert abs(mean - exact) < 5 * stderr


def _choice_model_term(model, g_j, shots, seed):
    """estimate_model_term with Generator.choice drawing the outcomes (the oracle)."""
    values, projs = projector_groups(g_j)
    p = np.array([np.einsum("ij,ji->", pk, model.sigma_vh).real for pk in projs])
    p = _clean_probs(p[None, :])[0]
    draws = values[np.random.default_rng(seed).choice(len(values), size=shots, p=p)]
    return float(np.mean(draws)), float(np.std(draws, ddof=1)) / math.sqrt(shots)


def test_model_term_draws_match_generator_choice(rng):
    model = rand_model(rng, 2, 3)
    degenerate = tensor(PAULI_Z, np.diag([0.5, 0.5, -1.0]).astype(complex))
    assert len(eigen_groups(degenerate)[0]) == 4 < model.dims.d_v * model.dims.d_h
    for g_j in (model.hamiltonian.terms[0], degenerate):
        for seed in (0, 7, 2**40 + 3):
            for shots in (2, 3, 1000, 8193):
                assert estimate_model_term(model, g_j, shots, seed) == _choice_model_term(
                    model, g_j, shots, seed)


@pytest.mark.filterwarnings("error")
def test_model_term_single_shot_has_infinite_stderr(rng):
    model = rand_model(rng, 2, 2)
    g_j = model.hamiltonian.terms[0]
    mean, stderr = estimate_model_term(model, g_j, 1, seed=3)
    assert stderr == math.inf
    assert mean in eigen_groups(g_j)[0]


def test_hoeffding_example_and_scaling():
    assert hoeffding_shots(1.0, 1.0, 0.1, 0.05) == 738
    m1 = hoeffding_shots(1.0, 1.0, 0.05, 0.05)
    m2 = hoeffding_shots(1.0, 1.0, 0.1, 0.05)
    assert abs(m1 - 4 * m2) <= 4  # doubling eps quarters M up to ceiling
    m4 = hoeffding_shots(2.0, 1.0, 0.1, 0.05)
    assert abs(m4 - 4 * m2) <= 4  # M scales as kappa^2


def test_hoeffding_count_is_capped():
    # the epsilon whose count sits just under MAX_SHOTS; computed, not run
    eps = math.sqrt(2.0 * math.log(2.0 / 0.05) / MAX_SHOTS) * (1.0 + 1e-9)
    assert 0.999 * MAX_SHOTS < hoeffding_shots(1.0, 1.0, eps, 0.05) <= MAX_SHOTS
    with pytest.raises(SpecError, match=r"Hoeffding count 1e\+08 exceeds MAX_SHOTS = 1e\+08"):
        hoeffding_shots(1.0, 1.0, eps * (1.0 - 1e-6), 0.05)
    with pytest.raises(SpecError, match="Hoeffding count inf exceeds"):  # the square overflows
        hoeffding_shots(4.3, 1.0, 1e-300, 0.05)
    assert EstimatorConfig(shots=MAX_SHOTS).shots == MAX_SHOTS
    with pytest.raises(SpecError, match=r"shots 100000001 exceed MAX_SHOTS = 1e\+08"):
        EstimatorConfig(shots=MAX_SHOTS + 1)


def test_be_product_exact_composition():
    meta = be_product(BlockEncoding(np.eye(4), 2.0, 1, 0.0), BlockEncoding(np.eye(4), 3.0, 1, 0.0))
    assert (meta.alpha, meta.ancillas, meta.delta) == (6.0, 2, 0.0)


def test_be_product_specific_bound():
    kappa = 9.0
    e1, e2 = 0.01, 0.02
    meta = be_product(BlockEncoding(np.eye(2), 1.0, 0, e1),
                      BlockEncoding(np.eye(4), math.sqrt(kappa), 1, e2))
    assert abs(meta.delta - (e2 + e1 * (math.sqrt(kappa) + e2))) < 1e-15


def _register_product(u_a, u_b, d):
    """U_b, then U_a, for one-ancilla unitaries on (anc_a, anc_b, system)."""
    first = np.kron(u_a, np.eye(2)).reshape(2, d, 2, 2, d, 2).transpose(0, 2, 1, 3, 5, 4)
    return first.reshape(4 * d, 4 * d) @ np.kron(np.eye(2), u_b)


def test_be_product_of_dilations(rng):
    d = 3
    a_mat, b_mat = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2))
    alpha, beta = 1.5 * spectral_norm(a_mat), 2.0 * spectral_norm(b_mat)
    a = replace(dilate(a_mat / alpha, alpha), delta=0.01)
    b = replace(dilate(b_mat / beta, beta), delta=0.02)
    prod = be_product(a, b)
    assert spectral_norm(prod.extract() - a_mat @ b_mat) < 1e-12 * alpha * beta
    assert spectral_norm(prod.unitary - _register_product(a.unitary, b.unitary, d)) < 1e-12
    assert (prod.alpha, prod.ancillas, prod.delta) == (
        alpha * beta, 2, alpha * 0.02 + beta * 0.01 + 0.01 * 0.02)


def test_be_product_rejects_mismatched_systems():
    with pytest.raises(SpecError,
                       match="cannot compose block-encodings of 2- and 3-dimensional systems"):
        be_product(dilate(0.5 * np.eye(2), 1.0), BlockEncoding(np.eye(6), 1.0, 1))


def test_modular_noise_factor_matches_the_circuit(rng, monkeypatch):
    # a modular-flow error N enters the estimator as a factor of the
    # inverse-root encoding, and the oracle circuit as a unitary applied
    # after the modular flow; the identity factor changes nothing
    monkeypatch.setattr(est, "expectation_nodes", _every_nth_node(32))
    model = rand_model(rng, 2, 2)
    rho, g_j = rand_state(rng, 2), model.hamiltonian.terms[0]
    inv = inv_sqrt_encoding(model)
    for noise in (np.eye(2), unitary_noise(rng, 2, 0.05)):
        noisy = be_product(inv, BlockEncoding(noise, 1.0, 0, spectral_norm(noise - np.eye(2))))
        assert spectral_norm(noisy.unitary[:, :2] - inv.unitary[:, :2] @ noise) < 1e-14
        fast = quadrature_first_term(model, rho, g_j, inv_sqrt=noisy)
        brute = _double_grid_average(model, rho, g_j, modular_noise=noise, inv_sqrt=inv)
        assert abs(fast - brute) < 1e-10
    assert abs(quadrature_first_term(model, rho, g_j, inv_sqrt=be_product(
        inv, BlockEncoding(np.eye(2), 1.0, 0))) - quadrature_first_term(model, rho, g_j)) < 1e-14


def test_be_product_bound_never_violated(rng):
    for _ in range(100):
        assert be_bound_gap(rng) <= 0.0


def test_budget_split_bounds_measured_bias(rng):
    model = rand_model(rng, 2, 2)
    rho = rand_state(rng, 2)
    g_j = model.hamiltonian.terms[0]
    g_norm = spectral_norm(g_j)
    eps = 0.2
    e1, e2 = budget_split(eps, model.kappa, g_norm)
    exact = gradient(model, rho).first_terms[0]
    noise1 = BlockEncoding(unitary_noise(rng, model.dims.d_v, e1), 1.0, 0, e1)
    inv = inv_sqrt_encoding(model)
    inv_p, _ = perturb_encoding(inv, rng, scale=0.5 * e2 / inv.alpha)
    assert inv_p.delta <= e2
    biased = quadrature_first_term(model, rho, g_j, inv_sqrt=be_product(inv_p, noise1))
    assert abs(biased - exact) <= eps / 2


def test_estimator_config_validation():
    with pytest.raises(SpecError):
        EstimatorConfig(epsilon=-0.1)
    with pytest.raises(SpecError):
        EstimatorConfig(delta_fail=1.5)
    with pytest.raises(SpecError, match="seed"):
        EstimatorConfig(seed=-1, shots=10)
    with pytest.raises(SpecError, match="shots"):
        EstimatorConfig(shots=-3)
