import numpy as np
import pytest

from qbmgrad.errors import GuardError, ScaleError, SpecError, StructureError
from qbmgrad.linalg import (
    BipartiteDims, Eigensystem, as_hermitian, eigh, expectation, gibbs_weights, spectral_norm,
    tensor)
from qbmgrad.models import (
    BLOCK_ATOL,
    EXP_NORM_GUARD,
    ParamHamiltonian,
    cq_decompose,
    qc_decompose,
    restricted_hamiltonian,
    thermalize,
    _gibbs,
    _thermal_blocks,
)
from conftest import (
    PAULI_Z,
    block_hidden_terms,
    block_visible_terms,
    rand_herm,
    rand_unitary,
)


def test_thermalize_at_zero_theta(rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4) for _ in range(2))
    model = thermalize(ParamHamiltonian(dims=dims, terms=terms, theta=np.zeros(2)))
    assert spectral_norm(model.sigma_vh - np.eye(4) / 4) < 1e-12
    assert abs(model.Z - 4.0) < 1e-12


def test_thermalize_single_qubit_closed_form():
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.array([1.0]))
    model = thermalize(ham)
    w = np.exp(-np.array([1.0, -1.0]))
    assert np.allclose(model.sigma_v, np.diag(w / w.sum()), atol=1e-12)
    assert abs(expectation(PAULI_Z, model.sigma_v) + np.tanh(1.0)) < 1e-12


def test_partition_function_matches_eigenvalue_sum(rng):
    dims = BipartiteDims(2, 3)
    terms = tuple(rand_herm(rng, 6, 0.5) for _ in range(3))
    theta = rng.uniform(-0.5, 0.5, 3)
    model = thermalize(ParamHamiltonian(dims=dims, terms=terms, theta=theta))
    g = sum(c * t for c, t in zip(theta, terms))
    want = float(np.sum(np.exp(-np.linalg.eigvalsh(g))))
    assert abs(model.Z - want) < 1e-10 * want


def test_thermalize_caches_consistent_spectra(rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.6) for _ in range(2))
    model = thermalize(ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.7, -0.4])))
    assert abs(model.kappa * model.sigma_v_eig.vals[0] - 1.0) < 1e-10


def test_exponent_guard():
    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.array([800.0]))
    with pytest.raises(ScaleError):
        thermalize(ham)


@pytest.mark.parametrize("theta", [800.0, 1e9])
def test_exponent_guard_precedes_eigh_guard(rng, theta):
    # at theta = 1e9 a raw eigh residual (~1e-6) would also trip eigh's
    # GuardError (tolerance 1.6e-9); the exponent guard must answer first
    term = rand_herm(rng, 16)
    term = term / spectral_norm(term)
    ham = ParamHamiltonian(dims=BipartiteDims(4, 4), terms=(term,), theta=np.array([theta]))
    with pytest.raises(ScaleError, match="exponent guard"):
        thermalize(ham)


def _guard_edge_hamiltonian(rng, theta):
    # eigenvalues in [0.99, 1] in a random basis: |term|_2 = 1, so |G|_2 = theta,
    # and the narrow spectrum keeps the visible marginal positive at theta ~ 700
    u = rand_unitary(rng, 16)
    term = (u * np.linspace(0.99, 1.0, 16)) @ u.conj().T
    return ParamHamiltonian(dims=BipartiteDims(4, 4), terms=(term,), theta=np.array([theta]))


def test_exponent_guard_edge(rng):
    below = _guard_edge_hamiltonian(rng, EXP_NORM_GUARD * (1 - 1e-9))
    assert spectral_norm(thermalize(below).G) <= EXP_NORM_GUARD
    with pytest.raises(ScaleError, match="exceeds the exponent guard 700.0"):
        thermalize(below.with_theta([EXP_NORM_GUARD * (1 + 1e-9)]))


def test_thermalize_decomposes_g_once(rng, monkeypatch):
    ham = ParamHamiltonian(dims=BipartiteDims(4, 4), terms=(rand_herm(rng, 16),),
                           theta=np.array([0.5]))
    calls = {"eigh": 0, "eigvalsh": 0}

    def counted(name):
        original = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    thermalize(ham)
    assert calls == {"eigh": 2, "eigvalsh": 0}  # G and sigma_v; the guard reads G's


def test_thermalize_matches_gibbs_kernel_bit_for_bit(rng):
    ham = ParamHamiltonian(dims=BipartiteDims(4, 4),
                           terms=(rand_herm(rng, 16), rand_herm(rng, 16)),
                           theta=rng.uniform(-1.0, 1.0, 2))
    model = thermalize(ham)
    g = ham.assemble()
    vals, vecs = np.linalg.eigh(g)
    weights, states, z = _gibbs(g[None], Eigensystem(vals[None], vecs[None]))
    assert np.array_equal(model.sigma_vh, states[0])
    assert np.array_equal(model.weights, weights[0])
    # the stacked kernel's row agrees with the one-row gibbs_weights
    one_row, z_one = gibbs_weights(vals)
    assert np.array_equal(weights[0], one_row) and z[0] == z_one
    assert model.Z == z_one * float(np.exp(-np.min(vals)))
    assert np.array_equal(_thermal_blocks(g[None])[1][0], model.sigma_vh)


def test_thermalize_checks_g_reconstruction(rng, monkeypatch):
    ham = ParamHamiltonian(dims=BipartiteDims(4, 4), terms=(rand_herm(rng, 16),),
                           theta=np.array([0.5]))
    raw = np.linalg.eigh
    shifts = [1e-6]  # G's decomposition only: |r|_2 = 1e-6 exceeds the tolerance 1.6e-9

    def shifted(x, *args, **kw):
        w, v = raw(x, *args, **kw)
        return w + (shifts.pop() if shifts else 0.0), v

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(GuardError, match="eigendecomposition residual"):
        thermalize(ham)
    assert not shifts


@pytest.mark.parametrize("d_v, d_h", [(2, 1), (4, 4), (8, 8)])
def test_non_finite_theta_raises_linalg_error(rng, d_v, d_h):
    d = d_v * d_h
    ham = ParamHamiltonian(dims=BipartiteDims(d_v, d_h),
                           terms=(rand_herm(rng, d), rand_herm(rng, d)),
                           theta=np.array([np.nan, 0.5]))
    with pytest.raises(np.linalg.LinAlgError):
        thermalize(ham)


@pytest.mark.parametrize("d_v, d_h", [(2, 2), (3, 2), (8, 4)])
@pytest.mark.parametrize("decompose", [qc_decompose, cq_decompose])
def test_non_finite_theta_raises_linalg_error_in_block_models(rng, decompose, d_v, d_h):
    # the joint model's error class at every size: not a NaN model, not a SpecError
    if decompose is qc_decompose:
        terms = block_hidden_terms(rng, d_v, d_h, 2, np.eye(d_h))
    else:
        terms = block_visible_terms(rng, d_v, d_h, 2, np.eye(d_v))
    ham = ParamHamiltonian(dims=BipartiteDims(d_v, d_h), terms=terms, theta=np.array([0.1, 0.5]))
    model = decompose(ham)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        model.with_theta([np.nan, 0.5])
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        decompose(ham.with_theta([np.nan, 0.5]))


@pytest.mark.parametrize("make", ["thermalize", "qc", "cq"])
def test_unconverged_eigh_raises_linalg_error(monkeypatch, rng, make):
    # LAPACK returns NaN eigenvalues at some sizes instead of failing; that
    # is LinAlgError in every model kind, ahead of the exponent guard
    terms = (block_visible_terms if make == "cq" else block_hidden_terms)(
        rng, 2, 2, 2, np.eye(2))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms, theta=np.array([0.1, 0.5]))
    build = {"thermalize": thermalize, "qc": qc_decompose, "cq": cq_decompose}[make]
    build(ham)
    raw = np.linalg.eigh

    def unconverged(x, *args, **kw):
        w, v = raw(x, *args, **kw)
        return np.full_like(w, np.nan), v

    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        build(ham)


def test_restricted_single_coupling_is_zz():
    ham = restricted_hamiltonian([0.0], [0.0], [[1.0]], (PAULI_Z,), (PAULI_Z,))
    assert spectral_norm(ham.assemble() - tensor(PAULI_Z, PAULI_Z)) < 1e-14


def test_restricted_zero_parameters_give_zero_hamiltonian():
    ham = restricted_hamiltonian([0.0], [0.0], [[0.0]], (PAULI_Z,), (PAULI_Z,))
    assert spectral_norm(ham.assemble()) == 0.0


def test_restricted_matches_direct_sum_oracle(rng):
    m, n = 2, 3
    V = tuple(rand_herm(rng, 2) for _ in range(m))
    H = tuple(rand_herm(rng, 2) for _ in range(n))
    a, b = rng.normal(size=m), rng.normal(size=n)
    w = rng.normal(size=(m, n))
    ham = restricted_hamiltonian(a, b, w, V, H)
    want = sum(a[i] * tensor(V[i], np.eye(2)) for i in range(m))
    want = want + sum(b[j] * tensor(np.eye(2), H[j]) for j in range(n))
    want = want + sum(w[i, j] * tensor(V[i], H[j]) for i in range(m) for j in range(n))
    assert spectral_norm(ham.assemble() - want) < 1e-12
    # packing order (a, b, row-major w)
    assert np.array_equal(ham.theta, np.concatenate([a, b, w.ravel()]))


@pytest.mark.parametrize("args, message", [
    (([], [0.0], [], (), (PAULI_Z,)), "need at least one visible and one hidden operator"),
    (([0.0], [0.0], [0.0], (PAULI_Z,), (PAULI_Z,)),
     "restricted parameter shapes inconsistent with V/H lists"),
    (([0.0, 0.0], [0.0], [[0.0], [0.0]], (PAULI_Z, np.eye(3)), (PAULI_Z,)),
     "operator lists mix dimensions"),
], ids=["no-operators", "w-shape", "mixed-dimensions"])
def test_restricted_hamiltonian_spec_errors(args, message):
    with pytest.raises(SpecError, match=message):
        restricted_hamiltonian(*args)


def test_theta_linearity(rng):
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4) for _ in range(3))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.zeros(3))
    t1, t2 = rng.normal(size=3), rng.normal(size=3)
    lhs = ham.with_theta(t1 + t2).assemble()
    rhs = ham.with_theta(t1).assemble() + ham.with_theta(t2).assemble() - ham.assemble()
    assert spectral_norm(lhs - rhs) < 1e-12


def test_qc_trivial_hidden_is_single_block(rng):
    dims = BipartiteDims(3, 1)
    terms = tuple(rand_herm(rng, 3) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.3, -0.1]))
    qc = qc_decompose(ham)
    assert qc.dims.d_h == 1
    model = thermalize(ham)
    assert spectral_norm(qc.sigma_v - model.sigma_v) < 1e-12


def test_qc_decompose_blocks_and_weights(rng):
    basis = rand_unitary(rng, 2)
    terms = block_hidden_terms(rng, 3, 2, 3, basis)
    theta = rng.uniform(-0.5, 0.5, 3)
    ham = ParamHamiltonian(dims=BipartiteDims(3, 2), terms=terms, theta=theta)
    qc = qc_decompose(ham, basis)
    assert abs(qc.p.sum() - 1.0) < 1e-10
    model = thermalize(ham)
    # sum_x p_x sigma_x (x) |x><x| back on the joint register is the Gibbs state
    joint = sum(qc.p[x] * tensor(qc.sigma_x[x], np.outer(basis[:, x], basis[:, x].conj()))
                for x in range(2))
    assert spectral_norm(joint - model.sigma_vh) < 1e-10
    # reassembled terms reproduce the originals
    for j, t in enumerate(terms):
        back = sum(
            tensor(qc.stack[j, x], np.outer(basis[:, x], basis[:, x].conj()))
            for x in range(2)
        )
        assert spectral_norm(back - t) < 1e-12


@pytest.mark.parametrize("decompose", [qc_decompose, cq_decompose])
def test_blocks_are_exactly_hermitian_without_as_hermitian(rng, decompose):
    # the blocks of a hermitized term skip as_hermitian, which would return them unchanged
    hidden = decompose is qc_decompose
    basis = rand_unitary(rng, 2)
    make = block_hidden_terms if hidden else block_visible_terms
    d_v, d_h = (3, 2) if hidden else (2, 3)  # the classical register has the basis's size
    ham = ParamHamiltonian(dims=BipartiteDims(d_v, d_h), terms=make(rng, d_v, d_h, 3, basis),
                           theta=np.ones(3))
    stack = decompose(ham, basis).stack
    # C order: every with_theta reshapes the stack, which would copy a strided one
    assert stack.shape == (3, 2, 3, 3) and stack.flags.c_contiguous
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
    assert all(np.array_equal(as_hermitian(b), b) for b in stack.reshape(-1, *stack.shape[-2:]))


@pytest.mark.parametrize("decompose", [qc_decompose, cq_decompose])
def test_block_split_error_names_the_first_failing_term(rng, decompose):
    hidden = decompose is qc_decompose
    make = block_hidden_terms if hidden else block_visible_terms
    terms = list(make(rng, 2, 2, 3, np.eye(2, dtype=complex)))
    for j, size in ((1, 1e-3), (2, 5e-2)):  # term 0 stays block-diagonal
        terms[j][0, 1 if hidden else 2] = terms[j][1 if hidden else 2, 0] = size
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=tuple(terms), theta=np.ones(3))
    with pytest.raises(StructureError, match=r"\(off-block magnitude 1\.000e-03\)$"):
        decompose(ham)


def test_qc_decompose_rejects_unstructured_terms(rng):
    terms = (rand_herm(rng, 6),)
    ham = ParamHamiltonian(dims=BipartiteDims(3, 2), terms=terms, theta=np.array([1.0]))
    with pytest.raises(StructureError):
        qc_decompose(ham)


@pytest.mark.parametrize("decompose", [qc_decompose, cq_decompose])
def test_off_block_entry_above_block_atol_raises(rng, decompose):
    d_v, d_h = 2, 3
    hidden = decompose is qc_decompose
    make = block_hidden_terms if hidden else block_visible_terms
    (term,) = make(rng, d_v, d_h, 1, np.eye(d_h if hidden else d_v, dtype=complex))
    k = 1 if hidden else d_h  # joint index (0, 1) or (1, 0): one classical label from index 0
    scale = max(1.0, float(np.max(np.abs(term))))

    def with_off_block(size):
        bump = np.zeros_like(term)
        bump[0, k] = bump[k, 0] = size
        return ParamHamiltonian(dims=BipartiteDims(d_v, d_h), terms=(term + bump,),
                                theta=np.ones(1))

    decompose(with_off_block(0.9 * BLOCK_ATOL * scale))
    register = "hidden" if hidden else "visible"
    with pytest.raises(StructureError, match=f"declared {register} basis"):
        decompose(with_off_block(1.1 * BLOCK_ATOL * scale))


def test_qc_decompose_rejects_bad_basis(rng):
    basis = np.array([[1.0, 1.0], [0.0, 1.0]])
    terms = block_hidden_terms(rng, 2, 2, 1, np.eye(2, dtype=complex))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms, theta=np.array([1.0]))
    with pytest.raises(SpecError):
        qc_decompose(ham, basis)


def _block_ham(model, x):
    """sum_j theta_j G^{j,x}: the Hamiltonian of block x."""
    return sum(c * t for c, t in zip(model.theta, model.stack[:, x]))


def test_restricted_qc_blocks_match_commuting_formula(rng):
    # commuting hidden operators H_j = sum_x h_{j,x} |x><x| make every block
    # b-independent up to an identity shift with known coefficients
    m, n, d_v, d_h = 2, 2, 2, 3
    h_diag = rng.normal(size=(n, d_h))
    V = tuple(rand_herm(rng, d_v) for _ in range(m))
    H = tuple(np.diag(h_diag[j]).astype(complex) for j in range(n))
    a, b = rng.normal(size=m), rng.normal(size=n)
    w = rng.normal(size=(m, n))
    qc = qc_decompose(restricted_hamiltonian(a, b, w, V, H))
    for x in range(d_h):
        shift = float(np.sum(b * h_diag[:, x]))
        coupled = sum((a[i] + float(np.sum(w[i] * h_diag[:, x]))) * V[i] for i in range(m))
        want = shift * np.eye(d_v) + coupled
        assert spectral_norm(_block_ham(qc, x) - want) < 1e-12


def test_cq_trivial_visible_is_single_block(rng):
    dims = BipartiteDims(1, 3)
    terms = tuple(rand_herm(rng, 3) for _ in range(2))
    ham = ParamHamiltonian(dims=dims, terms=terms, theta=np.array([0.2, 0.4]))
    cq = cq_decompose(ham)
    assert cq.p.shape == (1,)
    assert abs(cq.p[0] - 1.0) < 1e-12


def test_cq_decompose_diagonal_visible_marginal(rng):
    basis = rand_unitary(rng, 2)
    terms = block_visible_terms(rng, 2, 3, 2, basis)
    theta = rng.uniform(-0.5, 0.5, 2)
    ham = ParamHamiltonian(dims=BipartiteDims(2, 3), terms=terms, theta=theta)
    cq = cq_decompose(ham, basis)
    model = thermalize(ham)
    # visible marginal is diagonal in the declared basis with weights p_x
    rotated = basis.conj().T @ model.sigma_v @ basis
    assert spectral_norm(rotated - np.diag(cq.p)) < 1e-10


def test_restricted_cq_blocks_match_commuting_formula(rng):
    m, n, d_v, d_h = 2, 2, 3, 2
    v_diag = rng.normal(size=(m, d_v))
    V = tuple(np.diag(v_diag[i]).astype(complex) for i in range(m))
    H = tuple(rand_herm(rng, d_h) for _ in range(n))
    a, b = rng.normal(size=m), rng.normal(size=n)
    w = rng.normal(size=(m, n))
    cq = cq_decompose(restricted_hamiltonian(a, b, w, V, H))
    for x in range(d_v):
        shift = float(np.sum(a * v_diag[:, x]))
        coupled = sum((b[j] + float(np.sum(w[:, j] * v_diag[:, x]))) * H[j] for j in range(n))
        want = shift * np.eye(d_h) + coupled
        assert spectral_norm(_block_ham(cq, x) - want) < 1e-12


def test_param_hamiltonian_validation(rng):
    with pytest.raises(SpecError):
        ParamHamiltonian(dims=BipartiteDims(2, 2), terms=(), theta=np.zeros(0))
    with pytest.raises(SpecError):
        ParamHamiltonian(dims=BipartiteDims(2, 2), terms=(rand_herm(rng, 4),),
                         theta=np.zeros(2))
    for dims in (BipartiteDims(3, 2), BipartiteDims(10**5, 10**5)):
        with pytest.raises(SpecError):
            ParamHamiltonian(dims=dims, terms=(rand_herm(rng, 4),), theta=np.zeros(1))
    non_hermitian = rand_herm(rng, 4) + 1e-6j * np.eye(4)
    with pytest.raises(SpecError, match="not Hermitian"):
        ParamHamiltonian(dims=BipartiteDims(2, 2), terms=(non_hermitian,), theta=np.zeros(1))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=(rand_herm(rng, 4),),
                           theta=np.zeros(1))
    for bad in (np.zeros(2), np.zeros(0), np.zeros((1, 1))):
        with pytest.raises(SpecError, match="theta length"):
            ham.with_theta(bad)


def test_with_theta_shares_validated_terms(rng):
    terms = tuple(rand_herm(rng, 6, 0.5) for _ in range(3))
    ham = ParamHamiltonian(dims=BipartiteDims(2, 3), terms=terms, theta=np.zeros(3))
    theta = rng.uniform(-0.5, 0.5, 3)
    moved = ham.with_theta(theta)
    fresh = ParamHamiltonian(dims=BipartiteDims(2, 3), terms=terms, theta=theta)
    assert moved.terms is ham.terms
    assert np.array_equal(moved.theta, theta) and np.array_equal(ham.theta, np.zeros(3))
    assert np.array_equal(moved.assemble(), fresh.assemble())


def test_param_hamiltonian_copies_caller_terms(rng):
    terms = [rand_herm(rng, 4, 0.5) for _ in range(3)]
    kept = [t.copy() for t in terms]
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=tuple(terms),
                           theta=rng.uniform(-0.5, 0.5, 3))
    g = ham.assemble()
    for t in terms:
        t[...] = 7.0
    assert np.array_equal(ham.assemble(), g)
    for t, want, row in zip(ham.terms, kept, ham.stack):
        assert np.array_equal(t, want) and np.shares_memory(t, ham.stack)
        assert np.array_equal(row, want)


def test_assemble_matches_term_sum(rng):
    terms = tuple(rand_herm(rng, 6, 0.5) for _ in range(4))
    theta = rng.uniform(-1.0, 1.0, 4)
    ham = ParamHamiltonian(dims=BipartiteDims(3, 2), terms=terms, theta=theta)
    want = sum(c * t for c, t in zip(theta, terms))
    assert np.max(np.abs(ham.assemble() - want)) < 1e-14
    g = ham.assemble()
    assert np.array_equal(g, g.conj().T)


def _per_block_reference(block_hams):
    """(p_x, sigma_x) block by block through the checked eigh."""
    log_zs, states = [], []
    for g in block_hams:
        es = eigh(g)
        weights, zx = gibbs_weights(es.vals)
        states.append((es.vecs * weights) @ es.vecs.conj().T)
        log_zs.append(np.log(zx) - es.vals[0])
    p = np.exp(np.array(log_zs) - max(log_zs))
    return p / p.sum(), states


def test_stacked_thermal_blocks_match_per_block_eigh(rng):
    # blocks at very different energies, as in a qc model with a large shift
    blocks = np.stack([rand_herm(rng, 3) + shift * np.eye(3) for shift in (0.0, 7.5, -3.0, 40.0)])
    p, states, es, weights = _thermal_blocks(blocks)
    vals, vecs = es.vals, es.vecs
    assert states.shape == vecs.shape == blocks.shape and vals.shape == weights.shape == (4, 3)
    want_p, want_states = _per_block_reference(blocks)
    assert np.max(np.abs(p - want_p)) < 1e-12
    for x, want in enumerate(want_states):
        assert np.max(np.abs(states[x] - want)) < 1e-12
        assert np.max(np.abs((vecs[x] * vals[x]) @ vecs[x].conj().T - blocks[x])) < 1e-12
        assert np.array_equal(weights[x], gibbs_weights(vals[x])[0])


@pytest.mark.parametrize("bad", [0, 2])
def test_stacked_thermal_blocks_guard_each_block(monkeypatch, rng, bad):
    blocks = np.stack([rand_herm(rng, 3) for _ in range(3)])
    raw = np.linalg.eigh

    def perturbed(x, *args, **kw):
        w, v = raw(x, *args, **kw)
        w = w.copy()
        w[bad] += 1e-6  # only this block's reconstruction misses its matrix
        return w, v

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(GuardError, match="eigendecomposition residual"):
        _thermal_blocks(blocks)


@pytest.mark.parametrize("decompose", [qc_decompose, cq_decompose])
def test_block_model_with_theta_shares_stack_and_checks_theta(rng, decompose):
    basis = np.eye(2, dtype=complex)
    make = block_hidden_terms if decompose is qc_decompose else block_visible_terms
    terms = make(rng, 2, 2, 3, basis)
    ham = ParamHamiltonian(dims=BipartiteDims(2, 2), terms=terms, theta=np.zeros(3))
    model = decompose(ham)
    theta = rng.uniform(-0.5, 0.5, 3)
    moved = model.with_theta(theta)
    fresh = decompose(ham.with_theta(theta))
    assert moved.stack is model.stack
    assert np.array_equal(moved.p, fresh.p)
    assert np.array_equal(moved.weights, fresh.weights)
    for got, want in zip(moved.sigma_x, fresh.sigma_x):
        assert np.array_equal(got, want)
    for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
        with pytest.raises(SpecError, match="theta length"):
            model.with_theta(bad)
