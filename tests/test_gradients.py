from pathlib import Path

import numpy as np
import pytest

import qbmgrad.gradients as grads
from qbmgrad.densities import HIGH_PEAK_TENT, LOGISTIC, power_density
from qbmgrad.errors import SpecError, SupportError
from qbmgrad.matcalc import apply_channel
from qbmgrad.models import (
    ParamHamiltonian,
    cq_decompose,
    qc_decompose,
    restricted_hamiltonian,
    thermalize,
)
from qbmgrad.gradients import (
    Target,
    as_target,
    UMEGAKI,
    classical_gradient,
    classical_objective,
    cq_objective,
    gradient,
    gradient_cq,
    gradient_qc,
    label_probs,
    lift_to_joint,
    pgm_povm,
    povm_probs,
    psd_power,
    relative_entropy,
    tsallis,
)
from qbmgrad.linalg import BipartiteDims, eigh, expectation, hermitize, spectral_norm, tensor
from qbmgrad.runspec import load_runspec
from qbmgrad.training import finite_difference_gradient
from conftest import (
    PAULI_Z,
    block_hidden_terms,
    block_visible_terms,
    rand_herm,
    rand_model,
    rand_pd,
    rand_state,
    rand_unitary,
)

ALL_OBJECTIVES = [UMEGAKI, tsallis(0.5), tsallis(1.5), tsallis(2.0)]


def test_relative_entropy_zero_on_equal_states(rng):
    rho = rand_state(rng, 3)
    assert abs(relative_entropy(rho, rho)) < 1e-12


def test_relative_entropy_diagonal_example():
    rho = np.diag([0.9, 0.1]).astype(complex)
    sig = np.diag([0.5, 0.5]).astype(complex)
    want = 0.9 * np.log(1.8) + 0.1 * np.log(0.2)
    assert abs(relative_entropy(rho, sig) - want) < 1e-12


def test_relative_entropy_nonnegative(rng):
    for _ in range(10):
        assert relative_entropy(rand_state(rng, 3), rand_state(rng, 3) * 0.999 + 0.001 * np.eye(3) / 3) > -1e-12


def test_tsallis_entropy_converges_to_umegaki():
    rho = np.diag([0.9, 0.1]).astype(complex)
    sig = np.diag([0.5, 0.5]).astype(complex)
    base = relative_entropy(rho, sig)
    for q in (1 + 1e-4, 1 - 1e-4):
        assert abs(relative_entropy(rho, sig, tsallis(q)) - base) < 1e-4


def test_relative_entropy_support_guard():
    rho = np.diag([1.0, 0.0]).astype(complex)
    sig = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SupportError):
        relative_entropy(rho, sig)


def test_relative_entropy_takes_decomposed_sigma(rng):
    model = rand_model(rng, 3, 2)
    rho = rand_state(rng, 3)
    for obj in (UMEGAKI, tsallis(0.5), tsallis(1.5)):
        got = relative_entropy(rho, model.sigma_v_eig, obj)
        assert got == relative_entropy(rho, model.sigma_v, obj)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    sig0 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(SupportError) as by_matrix:
        relative_entropy(rho0, sig0)
    with pytest.raises(SupportError) as by_eig:
        relative_entropy(rho0, eigh(sig0))
    assert str(by_eig.value) == str(by_matrix.value)


def _order(q):
    """The objective of order q: umegaki at q = 1, else tsallis."""
    return UMEGAKI if q == 1.0 else tsallis(q)


def _visible_core(sig_v_es, rho, q):
    """sigma_v^{-q/2} Upsilon(rho^q) sigma_v^{-q/2}: the visible-side steps."""
    r_v = rho if q == 1.0 else psd_power(rho, q)
    if q == 1.0:
        averaged = apply_channel(LOGISTIC, sig_v_es, r_v)
    elif q == 2.0:
        averaged = r_v
    else:
        averaged = apply_channel(power_density(1.0 - q), sig_v_es, r_v)
    side = sig_v_es.power(-q / 2.0)
    return side @ averaged @ side


@pytest.mark.parametrize("dim", [2, 4, 16])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5, 2.0])
def test_visible_core_matches_channel_then_sandwich(rng, dim, q):
    # one apply_channel call with power -q/2 against the channel followed
    # by the two dense sigma_v^{-q/2} products
    sigma = rand_pd(rng, dim)
    sig_v_es = eigh(sigma / np.trace(sigma).real)
    rho = rand_state(rng, dim)
    got = grads._visible_core(sig_v_es, Target(rho, _order(q)))
    assert np.max(np.abs(got - _visible_core(sig_v_es, rho, q))) < 1e-12


def _four_step_lift(model, rho, q):
    """Reference lift: tensor with I_h, anticommutator with sigma_vh, then
    the tent channel of G, each as a dense step."""
    sandwiched = tensor(_visible_core(model.sigma_v_eig, rho, q), np.eye(model.dims.d_h))
    anti = 0.5 * (model.sigma_vh @ sandwiched + sandwiched @ model.sigma_vh)
    return apply_channel(HIGH_PEAK_TENT, model.g_eig, hermitize(anti))


def _degenerate_model(rng, d_v, d_h):
    """G = theta U diag(spectrum with repeated eigenvalues) U^dag."""
    d = d_v * d_h
    u = rand_unitary(rng, d)
    spectrum = np.repeat([-0.6, 0.4], -(-d // 2))[:d]
    term = hermitize((u * spectrum) @ u.conj().T)
    ham = ParamHamiltonian(dims=BipartiteDims(d_v, d_h), terms=(term,), theta=np.array([1.3]))
    return thermalize(ham)


@pytest.mark.parametrize("q", [1.0, 0.5, 1.5, 2.0])
@pytest.mark.parametrize("d_h", [1, 2, 4])
@pytest.mark.parametrize("degenerate", [False, True])
def test_lift_matches_four_step_reference(rng, q, d_h, degenerate):
    model = _degenerate_model(rng, 3, d_h) if degenerate else rand_model(rng, 3, d_h)
    if degenerate:
        assert np.min(np.diff(model.g_eig.vals)) < 1e-12  # the tent factor's gap-0 branch
    rho = rand_state(rng, 3)
    got = lift_to_joint(model, rho, _order(q))
    want = _four_step_lift(model, rho, q)
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.array_equal(got, got.conj().T)


@pytest.mark.parametrize("obj", ALL_OBJECTIVES, ids=lambda o: f"{o.kind}{o.q or ''}")
def test_lift_reads_its_order_from_the_target(rng, obj):
    model = rand_model(rng, 3, 2)
    rho = rand_state(rng, 3)
    lifted = lift_to_joint(model, rho, obj)
    assert np.array_equal(lift_to_joint(model, Target(rho, obj), obj), lifted)
    # the trace is Q_q = Tr[rho^q sigma_v^{1-q}], 1 for umegaki
    q_overlap = gradient(model, rho, obj).q_overlap
    assert abs(np.trace(lifted).real - (1.0 if q_overlap is None else q_overlap)) < 1e-12
    other = tsallis(0.5) if obj == UMEGAKI else UMEGAKI
    with pytest.raises(SpecError, match="^target was prepared for"):
        lift_to_joint(model, Target(rho, other), obj)


def test_lift_takes_only_a_visible_state_on_a_supported_marginal(rng):
    model = rand_model(rng, 3, 2)
    rho = rand_state(rng, 3)
    with pytest.raises(SpecError, match="trace"):
        lift_to_joint(model, psd_power(rho, 0.5))  # rho^q is Hermitian but no state
    with pytest.raises(SpecError, match="positive semidefinite"):
        lift_to_joint(model, rand_herm(rng, 3))
    with pytest.raises(SpecError, match="^input must live on the visible register$"):
        lift_to_joint(model, rand_state(rng, 6))
    for unsupported in _unsupported_pair():
        with pytest.raises(SupportError, match="^visible marginal has eigenvalue .* support floor"):
            lift_to_joint(unsupported, np.eye(2) / 2)


def test_gradient_zero_at_fixed_point(rng):
    model = rand_model(rng, 2, 2)
    rep = gradient(model, model.sigma_v)
    assert np.max(np.abs(rep.values)) < 1e-9
    assert np.allclose(rep.values, rep.first_terms - rep.second_terms)


def test_gradient_single_qubit_closed_form():
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.zeros(1))
    rep = gradient(thermalize(ham), np.diag([1.0, 0.0]).astype(complex))
    assert abs(rep.values[0] - 1.0) < 1e-12


@pytest.mark.parametrize("obj", ALL_OBJECTIVES, ids=lambda o: f"{o.kind}{o.q or ''}")
def test_gradient_matches_finite_difference(rng, obj):
    for _ in range(4):
        model = rand_model(rng, 3, 2)
        rho = rand_state(rng, 3)
        rep = gradient(model, rho, obj)
        fd = finite_difference_gradient(
            lambda th: relative_entropy(
                rho, thermalize(model.hamiltonian.with_theta(th)).sigma_v, obj),
            model.hamiltonian.theta,
        )
        assert np.all(np.abs(rep.values - fd) <= 1e-6 * np.abs(fd) + 1e-8)


def test_gradient_support_guard():
    # huge theta drives the visible marginal to the support floor
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.array([35.0]))
    model = thermalize(ham)
    with pytest.raises(SupportError):
        gradient(model, np.diag([0.5, 0.5]).astype(complex))


# --- block-hidden (qc) paths ------------------------------------------------


def _qc_pair(rng, d_v=3, d_h=2, n_terms=3):
    basis = rand_unitary(rng, d_h)
    terms = block_hidden_terms(rng, d_v, d_h, n_terms, basis)
    theta = rng.uniform(-0.5, 0.5, n_terms)
    ham = ParamHamiltonian(dims=BipartiteDims(d_v, d_h), terms=terms, theta=theta)
    return thermalize(ham), qc_decompose(ham, basis)


def test_qc_gradient_trivial_hidden_reduces(rng):
    dims = BipartiteDims(3, 1)
    terms = tuple(rand_herm(rng, 3, 0.5) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.4, -0.1]))
    rho = rand_state(rng, 3)
    a = gradient(thermalize(ham), rho).values
    b = gradient_qc(qc_decompose(ham), rho).values
    assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("obj", ALL_OBJECTIVES, ids=lambda o: f"{o.kind}{o.q or ''}")
def test_qc_gradient_matches_generic(rng, obj):
    model, qc = _qc_pair(rng)
    rho = rand_state(rng, 3)
    a = gradient(model, rho, obj).values
    b = gradient_qc(qc, rho, obj).values
    assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("q", [1.0, 0.5, 2.0])
@pytest.mark.parametrize("d_h", [1, 3])
def test_qc_first_terms_match_per_block_reference(rng, q, d_h):
    # each block on its own: anticommutator with sigma_x, then the tent
    # channel of the block Hamiltonian, each as a dense step, weighted by p_x
    _, qc = _qc_pair(rng, d_h=d_h)
    rho = rand_state(rng, 3)
    core = _visible_core(qc.sigma_v_eig, rho, q)
    lifted_blocks = lift_to_joint(qc, rho, _order(q))
    assert lifted_blocks.shape == qc.sigma_x.shape
    want = np.zeros(qc.n_params)
    for x in range(d_h):
        block = hermitize(np.tensordot(qc.theta, qc.stack[:, x], axes=1))
        anti = hermitize(0.5 * (qc.sigma_x[x] @ core + core @ qc.sigma_x[x]))
        lifted = apply_channel(HIGH_PEAK_TENT, eigh(block), anti)
        assert np.max(np.abs(lifted_blocks[x] - lifted)) < 1e-12
        want += qc.p[x] * expectation(qc.stack[:, x], lifted)
    got = gradient_qc(qc, rho, _order(q)).first_terms
    assert np.max(np.abs(got - want)) < 1e-12


def _clamp_failing_target():
    # eigenvalue -5e-11: above as_density's floor, below psd_power's clamp
    return np.diag([1.0 + 5e-11, -5e-11]).astype(complex)


def _unsupported_pair():
    # theta = 35 drives the visible marginal's low eigenvalue to e^{-70}
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.array([35.0]))
    return thermalize(ham), qc_decompose(ham)


@pytest.mark.parametrize("fault, obj, error", [
    ("clamp", tsallis(0.5), SpecError),
    ("support", UMEGAKI, SupportError),
    ("support", tsallis(1.5), SupportError),
    ("both", tsallis(1.5), SpecError),  # rho^q is formed before the support check
])
def test_generic_and_qc_gradients_raise_the_same_error(rng, fault, obj, error):
    model, qc = _unsupported_pair() if fault != "clamp" else _qc_pair(rng, d_v=2)
    rho = np.eye(2, dtype=complex) / 2 if fault == "support" else _clamp_failing_target()
    for call in (gradient, gradient_qc):
        with pytest.raises(error) as caught:
            call(model if call is gradient else qc, rho, obj)
        assert type(caught.value) is error


def test_qc_diagonal_terms_reduce_to_classical(rng):
    tables = rng.normal(size=(3, 2, 2))
    theta = rng.uniform(-0.5, 0.5, 3)
    terms = tuple(np.diag(tables[j].ravel()).astype(complex) for j in range(3))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms, theta=theta)
    target = rng.random(2)
    target /= target.sum()
    rep = gradient_qc(qc_decompose(ham), np.diag(target).astype(complex))
    want = classical_gradient(tables, theta, target).values
    assert np.max(np.abs(rep.values - want)) < 1e-10


def test_pgm_povm_single_block_is_identity(rng):
    dims = BipartiteDims(3, 1)
    terms = tuple(rand_herm(rng, 3) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.2, 0.1]))
    povm = pgm_povm(qc_decompose(ham))
    assert spectral_norm(povm[0] - np.eye(3)) < 1e-10


@pytest.mark.parametrize("d_h", [1, 2, 4])
def test_pgm_povm_matches_sandwich_then_channel(rng, d_h):
    # Upsilon(sigma_v^{-1/2} p_x sigma_x sigma_v^{-1/2}) with the sandwich dense
    _, qc = _qc_pair(rng, d_h=d_h)
    inv_sqrt = qc.sigma_v_eig.power(-0.5)
    for element, p_x, sigma_x in zip(pgm_povm(qc), qc.p, qc.sigma_x):
        core = hermitize(inv_sqrt @ (p_x * sigma_x) @ inv_sqrt)
        want = apply_channel(LOGISTIC, qc.sigma_v_eig, core)
        assert np.max(np.abs(element - want)) < 1e-12


def test_pgm_povm_complete_and_positive(rng):
    _, qc = _qc_pair(rng)
    povm = pgm_povm(qc)
    total = sum(povm)
    assert spectral_norm(total - np.eye(3)) < 1e-10
    for e in povm:
        assert np.linalg.eigvalsh(e)[0] > -1e-10
    probs = povm_probs(povm, rand_state(rng, 3))
    assert abs(probs.sum() - 1.0) < 1e-10
    assert np.all(probs > -1e-12)


# --- block-visible (cq) paths -----------------------------------------------


def _cq_pair(rng, d_v=2, d_h=3, n_terms=3):
    basis = rand_unitary(rng, d_v)
    terms = block_visible_terms(rng, d_v, d_h, n_terms, basis)
    theta = rng.uniform(-0.5, 0.5, n_terms)
    ham = ParamHamiltonian(dims=BipartiteDims(d_v, d_h), terms=terms, theta=theta)
    return thermalize(ham), cq_decompose(ham, basis), basis


def test_cq_gradient_zero_at_model_distribution(rng):
    _, cq, _ = _cq_pair(rng)
    rep = gradient_cq(cq, cq.p)
    assert np.max(np.abs(rep.values)) < 1e-12


@pytest.mark.parametrize("obj", ALL_OBJECTIVES, ids=lambda o: f"{o.kind}{o.q or ''}")
def test_cq_gradient_matches_generic(rng, obj):
    model, cq, basis = _cq_pair(rng)
    r = rng.random(2)
    r /= r.sum()
    rho = basis @ np.diag(r).astype(complex) @ basis.conj().T
    a = gradient(model, rho, obj).values
    b = gradient_cq(cq, r, obj).values
    assert np.max(np.abs(a - b)) < 1e-8


def test_cq_fully_classical_matches_enumeration(rng):
    tables = rng.normal(size=(3, 2, 2))
    theta = rng.uniform(-0.5, 0.5, 3)
    terms = tuple(np.diag(tables[j].ravel()).astype(complex) for j in range(3))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms, theta=theta)
    target = rng.random(2)
    target /= target.sum()
    rep = gradient_cq(cq_decompose(ham), target)
    want = classical_gradient(tables, theta, target).values
    assert np.max(np.abs(rep.values - want)) < 1e-10
    assert abs(cq_objective(cq_decompose(ham), target)
               - classical_objective(tables, theta, target)) < 1e-12


def test_cq_support_violation(rng):
    _, cq, _ = _cq_pair(rng)
    with pytest.raises(SpecError):
        gradient_cq(cq, np.array([0.5, 0.5, 0.5]))


# --- restricted wrappers ------------------------------------------------------


def _restricted_gradients(kind, spec, target):
    """Gradient of the restricted model spec = (a, b, w, V, H), repacked
    into (a, b, w) shapes.

    kind selects the model class: "fully_quantum" (target is a visible
    density matrix), "qc" (commuting hidden operators, target a density
    matrix) or "cq" (commuting visible operators, target a probability
    vector).
    """
    param = restricted_hamiltonian(*spec)
    if kind == "fully_quantum":
        rep = gradient(thermalize(param), target)
    elif kind == "qc":
        rep = gradient_qc(qc_decompose(param), target)
    else:
        rep = gradient_cq(cq_decompose(param), target)
    m, n = len(spec[3]), len(spec[4])
    return rep.values[:m], rep.values[m:m + n], rep.values[m + n:].reshape(m, n)


def test_restricted_zero_spec_has_zero_gradient(rng):
    spec = ([0.0], [0.0], [[0.0]], (rand_herm(rng, 2),), (rand_herm(rng, 2),))
    rho = np.eye(2, dtype=complex) / 2
    ga, gb, gw = _restricted_gradients("fully_quantum", spec, rho)
    assert np.max(np.abs(np.concatenate([ga, gb, gw.ravel()]))) < 1e-9


def test_restricted_matches_generic_packing(rng):
    spec = (
        rng.normal(size=2) * 0.3, rng.normal(size=2) * 0.3, rng.normal(size=(2, 2)) * 0.3,
        tuple(rand_herm(rng, 2) for _ in range(2)),
        tuple(rand_herm(rng, 2) for _ in range(2)),
    )
    rho = rand_state(rng, 2)
    ga, gb, gw = _restricted_gradients("fully_quantum", spec, rho)
    rep = gradient(thermalize(restricted_hamiltonian(*spec)), rho)
    m, n = 2, 2
    assert np.max(np.abs(ga - rep.values[:m])) < 1e-10
    assert np.max(np.abs(gb - rep.values[m:m + n])) < 1e-10
    assert np.max(np.abs(gw.ravel() - rep.values[m + n:])) < 1e-10


def test_restricted_cq_first_term_uses_target_weights(rng):
    # commuting visible operators; compare against the direct per-label formula
    m, n, d_v, d_h = 2, 2, 3, 2
    v_diag = rng.normal(size=(m, d_v))
    V = tuple(np.diag(v_diag[i]).astype(complex) for i in range(m))
    H = tuple(rand_herm(rng, d_h) for _ in range(n))
    spec = (rng.normal(size=m) * 0.3, rng.normal(size=n) * 0.3,
            rng.normal(size=(m, n)) * 0.3, V, H)
    r = rng.random(d_v)
    r /= r.sum()
    ga, gb, gw = _restricted_gradients("cq", spec, r)
    cq = cq_decompose(restricted_hamiltonian(*spec))
    h_means = np.array([[expectation(H[j], cq.sigma_x[x]) for x in range(d_v)]
                        for j in range(n)])
    want_a = v_diag @ (r - cq.p)
    want_b = h_means @ (r - cq.p)
    want_w = np.array([[float(np.sum((r - cq.p) * v_diag[i] * h_means[j]))
                        for j in range(n)] for i in range(m)])
    assert np.max(np.abs(ga - want_a)) < 1e-10
    assert np.max(np.abs(gb - want_b)) < 1e-10
    assert np.max(np.abs(gw - want_w)) < 1e-10


def test_restricted_qc_matches_generic(rng):
    n, m = 2, 2
    h_diag = rng.normal(size=(n, 2))
    spec = (
        rng.normal(size=m) * 0.3, rng.normal(size=n) * 0.3, rng.normal(size=(m, n)) * 0.3,
        tuple(rand_herm(rng, 2) for _ in range(m)),
        tuple(np.diag(h_diag[j]).astype(complex) for j in range(n)),
    )
    rho = rand_state(rng, 2)
    ga, gb, gw = _restricted_gradients("qc", spec, rho)
    rep = gradient(thermalize(restricted_hamiltonian(*spec)), rho)
    packed = np.concatenate([ga, gb, gw.ravel()])
    assert np.max(np.abs(packed - rep.values)) < 1e-8


# --- classical baseline -------------------------------------------------------


def test_classical_gradient_zero_at_marginal(rng):
    tables = rng.normal(size=(4, 3, 2))
    theta = rng.uniform(-0.5, 0.5, 4)
    from qbmgrad.gradients import classical_distribution

    p_v = classical_distribution(tables, theta).sum(axis=1)
    grad = classical_gradient(tables, theta, p_v).values
    assert np.max(np.abs(grad)) < 1e-12


def test_classical_gradient_no_hidden_reduction(rng):
    tables = rng.normal(size=(3, 4, 1))
    theta = rng.uniform(-0.5, 0.5, 3)
    q = rng.random(4)
    q /= q.sum()
    from qbmgrad.gradients import classical_distribution

    p_v = classical_distribution(tables, theta).sum(axis=1)
    want = np.array([float(np.sum((q - p_v) * tables[j, :, 0])) for j in range(3)])
    assert np.max(np.abs(classical_gradient(tables, theta, q).values - want)) < 1e-12


def test_classical_gradient_finite_difference(rng):
    tables = rng.normal(size=(4, 3, 2))
    theta = rng.uniform(-0.5, 0.5, 4)
    q = rng.random(3)
    q /= q.sum()
    fd = finite_difference_gradient(lambda th: classical_objective(tables, th, q), theta)
    assert np.max(np.abs(classical_gradient(tables, theta, q).values - fd)) < 1e-8


def test_objective_validation():
    with pytest.raises(SpecError):
        tsallis(1.0)
    with pytest.raises(SpecError):
        tsallis(2.5)
    with pytest.raises(SpecError):
        tsallis(0.0)


@pytest.mark.parametrize("obj", [UMEGAKI, tsallis(0.5), tsallis(1.5), tsallis(2.0)],
                         ids=["umegaki", "q0.5", "q1.5", "q2"])
def test_prepared_target_matches_raw_state_bit_for_bit(rng, obj):
    rho = rand_state(rng, 3)
    sigma = rand_state(rng, 3)
    target = Target(rho, obj)
    for sig in (sigma, eigh(sigma)):
        assert relative_entropy(target, sig, obj) == relative_entropy(rho, sig, obj)
    # a rank-deficient target: the entropy term skips the zero eigenvalue
    pure = np.diag([1.0, 0.0, 0.0]).astype(complex)
    assert relative_entropy(Target(pure, obj), sigma, obj) == relative_entropy(pure, sigma, obj)


def test_prepared_target_matches_raw_state_in_qc_gradient(rng):
    basis = rand_unitary(rng, 2)
    terms = block_hidden_terms(rng, 2, 2, 3, basis)
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms,
                           theta=rng.uniform(-0.5, 0.5, 3))
    qc = qc_decompose(ham, basis)
    rho = rand_state(rng, 2)
    for obj in (UMEGAKI, tsallis(0.5), tsallis(1.5), tsallis(2.0)):
        got, want = gradient_qc(qc, Target(rho, obj), obj), gradient_qc(qc, rho, obj)
        for field in ("values", "first_terms", "second_terms", "q_overlap"):
            assert np.array_equal(getattr(got, field), getattr(want, field))


def test_target_validates_once_and_keeps_its_objective(rng):
    with pytest.raises(SpecError, match="positive semidefinite"):
        Target(np.diag([1.5, -0.5]))
    with pytest.raises(SpecError, match="trace"):
        Target(np.eye(2) / 4)
    target = Target(rand_state(rng, 2), tsallis(1.5))
    with pytest.raises(SpecError, match="prepared for"):
        relative_entropy(target, rand_state(rng, 2))


def test_as_target_passes_its_own_objective_and_rejects_another(rng):
    target = Target(rand_state(rng, 2), tsallis(1.5))
    assert as_target(target, tsallis(1.5)) is target
    with pytest.raises(SpecError, match=r"^target was prepared for Objective\(kind='tsallis', q=1.5\), "
                                        r"not for Objective\(kind='umegaki', q=None\)$"):
        as_target(target, UMEGAKI)
    with pytest.raises(SpecError, match="positive semidefinite"):
        as_target(np.diag([1.5, -0.5]), UMEGAKI)  # a raw state is validated into a Target


def test_label_probs_clamps_rounding_and_rejects_the_rest():
    r = label_probs([-5e-13, 1.0 + 5e-13], 2)  # within rounding: clamped at 0
    assert r[0] == 0.0 and r[1] == 1.0 + 5e-13
    for bad in ([-2e-12, 1.0 + 2e-12], [0.5, 0.5 + 5e-10], [0.5, np.nan], [0.5, 0.6], [1.2, -0.2]):
        with pytest.raises(SpecError, match="target probs must be a normalized nonnegative vector"):
            label_probs(bad, 2)
    with pytest.raises(SpecError, match=r"target probs: expected 3 entries \(the visible dimension\), got 2"):
        label_probs([0.5, 0.5], 3)


def _label_entries():
    demos = Path(__file__).resolve().parents[1] / "demos"
    cl = load_runspec(demos / "grad_classical.json").model
    cq = cq_decompose(load_runspec(demos / "grad_cq.json").model.hamiltonian)
    return {
        "cq_objective": (lambda r: cq_objective(cq, r), 2),
        "gradient_cq": (lambda r: gradient_cq(cq, r), 2),
        "classical_objective": (lambda r: classical_objective(cl.tables, cl.theta, r), 4),
        "classical_gradient": (lambda r: classical_gradient(cl.tables, cl.theta, r), 4),
    }


@pytest.mark.parametrize("bad, message", [
    ([np.nan, 1.0], "target probs must be a normalized nonnegative vector"),
    ([1.2, -0.2], "target probs must be a normalized nonnegative vector"),
    ([0.5, 0.25, 0.25], r"target probs: expected \d entries \(the visible dimension\), got 3"),
], ids=["nan", "negative", "wrong-length"])
@pytest.mark.parametrize("entry", ["cq_objective", "gradient_cq", "classical_objective",
                                   "classical_gradient"])
def test_label_vector_is_checked_at_every_entry(entry, bad, message):
    call, d_v = _label_entries()[entry]
    if d_v == 4 and len(bad) == 2:  # the same defect over the classical demo's 4 labels
        bad = bad + [0.0, 0.0]
    with pytest.raises(SpecError, match=message):
        call(bad)


@pytest.mark.filterwarnings("error")
def test_label_relative_entropy_takes_logs_where_the_ratio_overflows():
    # r / p = 0.5 / 5e-324 overflows; 1/2 ln 1/2 + 1/2 (ln 1/2 - ln 5e-324) is finite
    r, p = np.array([0.5, 0.5]), np.array([1.0, 5e-324])
    assert grads._label_relative_entropy(r, p) == pytest.approx(371.5268887801307, rel=1e-12)
    # and only that term moves: the first keeps the bits of r ln(r / p)
    alone = grads._label_relative_entropy(np.array([0.5, 0.0]), np.array([1.0, 5e-324]))
    assert alone == 0.5 * np.log(0.5 / 1.0)
