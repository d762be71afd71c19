import inspect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qbmgrad.linalg
from qbmgrad.errors import GuardError, SpecError
from qbmgrad.linalg import (
    BipartiteDims,
    Eigensystem,
    as_density,
    as_hermitian,
    as_unitary,
    check_reconstruction,
    decompose,
    eigh,
    expectation,
    gibbs_weights,
    hermitize,
    partial_trace,
    spectral_norm,
    tensor,
)
from conftest import PAULI_Z, rand_herm, rand_state


def test_tensor_identity_case():
    assert np.allclose(tensor(np.eye(2), np.eye(2)), np.eye(4))


def test_tensor_diagonal_structure():
    assert np.allclose(np.diagonal(tensor(PAULI_Z, np.eye(2))), [1, 1, -1, -1])


def test_tensor_trace_multiplicative(rng):
    a = rand_herm(rng, 3)
    b = rand_herm(rng, 2)
    ab = a[:, :, None, None] * b[None, None, :, :]  # direct-multiplication oracle
    direct = ab.transpose(0, 2, 1, 3).reshape(6, 6)
    assert np.allclose(tensor(a, b), direct, atol=1e-13)
    assert abs(np.trace(tensor(a, b)) - np.trace(a) * np.trace(b)) < 1e-12


def test_partial_trace_bell_state():
    bell = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            bell[i, j] = 0.5
    out = partial_trace(bell, BipartiteDims(2, 2), keep="visible")
    assert np.allclose(out, np.eye(2) / 2, atol=1e-14)


def test_partial_trace_product_case(rng):
    rho_v = rand_state(rng, 2)
    sig_h = rand_state(rng, 3)
    joint = tensor(rho_v, sig_h)
    dims = BipartiteDims(2, 3)
    assert np.allclose(partial_trace(joint, dims, "visible"), rho_v, atol=1e-12)
    assert np.allclose(partial_trace(joint, dims, "hidden"), sig_h, atol=1e-12)


def test_partial_trace_matches_index_summation(rng):
    x = rand_state(rng, 6)
    dims = BipartiteDims(2, 3)
    # naive double-loop oracle
    want = np.zeros((2, 2), dtype=complex)
    for v in range(2):
        for w in range(2):
            for h in range(3):
                want[v, w] += x[v * 3 + h, w * 3 + h]
    assert np.allclose(partial_trace(x, dims, "visible"), want, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**31), d_v=st.integers(2, 3), d_h=st.integers(2, 3))
def test_partial_trace_preserves_trace_and_psd(seed, d_v, d_h):
    g = np.random.default_rng(seed)
    x = rand_state(g, d_v * d_h)
    out = partial_trace(x, BipartiteDims(d_v, d_h), "visible")
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_partial_trace_unit_trace_psd_sweep(rng):
    # 200 random unit-trace PSD instances, both kept subsystems
    for i in range(200):
        d_v, d_h = (2, 3) if i % 2 else (3, 2)
        x = rand_state(rng, d_v * d_h)
        for keep in ("visible", "hidden"):
            out = partial_trace(x, BipartiteDims(d_v, d_h), keep)
            assert abs(np.trace(out).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-12


def test_eigh_pauli_z():
    es = eigh(PAULI_Z)
    assert np.allclose(es.vals, [-1.0, 1.0])


def test_eigh_identity():
    assert np.allclose(eigh(np.eye(3)).vals, [1.0, 1.0, 1.0])


def test_eigh_reconstruction(rng):
    x = rand_herm(rng, 5)
    es = eigh(x)
    assert spectral_norm((es.vecs * es.vals) @ es.vecs.conj().T - x) < 1e-10
    assert spectral_norm(es.vecs.conj().T @ es.vecs - np.eye(5)) < 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(SpecError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _shifted_eigh(monkeypatch, shift):
    """Make the raw decomposition seen by qbmgrad.linalg return every
    eigenvalue moved by ``shift``: the residual is then shift * I."""
    raw = np.linalg.eigh

    def perturbed(x):
        w, v = raw(x)
        return w + shift, v

    monkeypatch.setattr(qbmgrad.linalg.np.linalg, "eigh", perturbed)


@pytest.mark.parametrize("shift", [2e-9, 1e-6])
def test_eigh_guard_rejects_large_residual(rng, monkeypatch, shift):
    # tolerance 1e-10 * 16 = 1.6e-9; |r|_2 = shift exceeds it
    x = rand_herm(rng, 16)
    _shifted_eigh(monkeypatch, shift)
    with pytest.raises(GuardError, match="eigendecomposition residual"):
        eigh(x)


def test_eigh_guard_accepts_spectral_residual_below_frobenius(rng, monkeypatch):
    # |r|_2 = 1e-9 <= 1.6e-9 < |r|_F = 4e-9: the spectral norm decides
    x = rand_herm(rng, 16)
    _shifted_eigh(monkeypatch, 1e-9)
    es = eigh(x)
    assert np.allclose(es.vals, np.linalg.eigvalsh(x) + 1e-9, rtol=0.0, atol=1e-12)


def test_check_reconstruction_fails_on_non_finite_residual():
    # NaN > tol is False, so a NaN residual needs its own test; the SVD cannot take it
    x = np.eye(3, dtype=complex)[None]
    w, v = np.full((1, 3), np.nan), np.full((1, 3, 3), np.nan, dtype=complex)
    with pytest.raises(GuardError, match="eigendecomposition residual nan too large"):
        check_reconstruction(x, Eigensystem(w, v))


def _stack(rng, n=4, d=5):
    return np.stack([rand_herm(rng, d) for _ in range(n)])


def test_stacked_eigensystem_functions_match_per_matrix_calls(rng):
    stack = _stack(rng) + 10.0 * np.eye(5)  # positive definite, so every power is defined
    es = decompose(stack)
    assert es.dim == 5
    one = [Eigensystem(es.vals[k], es.vecs[k]) for k in range(len(stack))]
    assert np.array_equal(es.apply(np.log), np.stack([e.apply(np.log) for e in one]))
    assert np.array_equal(es.power(-0.5), np.stack([e.power(-0.5) for e in one]))


def test_check_reconstruction_guards_each_matrix_of_a_stack(rng):
    stack = _stack(rng)
    es = decompose(stack)
    check_reconstruction(stack, es)
    check_reconstruction(stack[2], Eigensystem(es.vals[2], es.vecs[2]))  # one matrix, no stack axis
    vals = es.vals.copy()
    vals[2] += 1e-6  # only block 2 misses its matrix: |r|_2 = 1e-6 > 5e-10
    with pytest.raises(GuardError, match="eigendecomposition residual 1.000e-06 too large"):
        check_reconstruction(stack, Eigensystem(vals, es.vecs))


def test_decompose_turns_nan_eigenvalues_of_a_stack_into_linalg_error(rng, monkeypatch):
    # LAPACK returns NaN eigenvalues at some sizes instead of failing
    stack = _stack(rng, n=3)
    raw = np.linalg.eigh

    def unconverged(x):
        w, v = raw(x)
        w = w.copy()
        w[1, 0] = np.nan  # one eigenvalue of one block
        return w, v

    monkeypatch.setattr(qbmgrad.linalg.np.linalg, "eigh", unconverged)
    with pytest.raises(np.linalg.LinAlgError, match="Eigenvalues did not converge"):
        decompose(stack)


def test_gibbs_weights_shift_invariant_and_normalised():
    energies = np.array([700.0, 701.0, 703.5])
    w, z = gibbs_weights(energies)
    w0, z0 = gibbs_weights(energies - 700.0)
    assert np.array_equal(w, w0) and z == z0
    assert abs(float(np.sum(w)) - 1.0) < 1e-15
    assert np.allclose(w, np.exp(-(energies - 700.0)) / z, rtol=1e-15)


def test_matrix_function_exp_of_zero():
    assert np.allclose(eigh(np.zeros((3, 3))).apply(np.exp), np.eye(3))


def test_matrix_function_inverse_sqrt():
    out = eigh(np.diag([4.0, 1.0])).apply(lambda w: w**-0.5)
    assert np.allclose(out, np.diag([0.5, 1.0]), atol=1e-14)


def test_matrix_function_log_exp_roundtrip(rng):
    from conftest import rand_pd

    a = rand_pd(rng, 4)
    back = eigh(eigh(a).apply(np.log)).apply(np.exp)
    assert spectral_norm(back - a) < 1e-10


def test_matrix_function_undefined_point():
    with pytest.raises(SpecError):
        eigh(np.diag([1.0, 0.0])).apply(np.log)


def test_expectation_identity_and_z(rng):
    rho = rand_state(rng, 3)
    assert abs(expectation(np.eye(3), rho) - 1.0) < 1e-12
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert abs(expectation(PAULI_Z, ket0) - 1.0) < 1e-14


def test_expectation_thermal_qubit():
    # thermal state of theta Z at theta = 1: <Z> = -tanh(1)
    w = np.exp(-np.array([1.0, -1.0]))
    sigma = np.diag(w / w.sum()).astype(complex)
    assert abs(expectation(PAULI_Z, sigma) + np.tanh(1.0)) < 1e-12


def test_norms_examples(rng):
    assert spectral_norm(np.eye(3)) == 1.0
    assert spectral_norm(PAULI_Z) == 1.0
    x = rand_herm(rng, 4)
    w = np.linalg.eigvalsh(x)
    assert abs(spectral_norm(x) - np.max(np.abs(w))) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 16, 256])
def test_spectral_norm_hermitian_path_matches_svd(rng, d, monkeypatch):
    x = rand_herm(rng, d)
    assert np.array_equal(x, x.conj().T)  # as_hermitian output is exactly Hermitian
    want = float(np.linalg.svd(x, compute_uv=False)[0])

    def no_svd(*args, **kwargs):
        raise AssertionError("Hermitian input took the SVD")

    monkeypatch.setattr(np.linalg, "norm", no_svd)
    assert abs(spectral_norm(x) - want) <= 1e-13 * want
    assert abs(spectral_norm(-x) - want) <= 1e-13 * want  # lambda_min carries the norm


def test_spectral_norm_non_hermitian_is_largest_singular_value(rng):
    for shape in ((5, 5), (4, 6)):
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert abs(spectral_norm(a) - want) <= 1e-13 * want
    nilpotent = np.array([[0.0, 2.0], [0.0, 0.0]])  # eigenvalues 0, singular value 2
    assert spectral_norm(nilpotent) == pytest.approx(2.0, rel=1e-15)


@pytest.mark.parametrize("d", [4, 64, 256])
def test_spectral_norm_of_eigensystem_matches_matrix(rng, d):
    x = rand_herm(rng, d)
    es = eigh(x)
    want = spectral_norm(x)
    assert abs(spectral_norm(es) - want) <= 1e-12 * want
    assert abs(spectral_norm(eigh(-x)) - want) <= 1e-12 * want  # lambda_min carries the norm


def test_spectral_norm_of_nan_matrix_raises():
    # an unconverged eigensystem never reaches spectral_norm: decompose
    # raises first (test_models.py::test_unconverged_eigh_raises_linalg_error)
    x = np.full((2, 2), np.nan, dtype=complex)
    with pytest.raises(np.linalg.LinAlgError):
        spectral_norm(x)


def test_expectation_stack_matches_single_terms(rng):
    state = rand_state(rng, 6)
    stack = np.stack([rand_herm(rng, 6) for _ in range(4)])
    vals = expectation(stack, state)
    assert vals.shape == (4,)
    for v, t in zip(vals, stack):
        assert abs(v - expectation(t, state)) < 1e-14
    with pytest.raises(SpecError, match="shape mismatch"):
        expectation(stack, state[:5, :5])


def test_expectation_stack_keeps_residue_guard(rng):
    state = rand_state(rng, 4)
    bad = rand_herm(rng, 4) + 0.3j * np.eye(4)  # Tr[bad rho] has imaginary part 0.3
    with pytest.raises(GuardError, match="imaginary residue") as single:
        expectation(bad, state)
    stack = np.stack([rand_herm(rng, 4), bad, rand_herm(rng, 4)])
    with pytest.raises(GuardError) as stacked:
        expectation(stack, state)
    assert str(stacked.value) == str(single.value)


def test_expectation_per_block_states_match_single_calls(rng):
    states = np.stack([rand_state(rng, 3) for _ in range(4)])
    obs = np.stack([[rand_herm(rng, 3) for _ in range(4)] for _ in range(5)])
    vals = expectation(obs, states)
    assert vals.shape == (5, 4)
    for j in range(5):
        for x in range(4):
            assert abs(vals[j, x] - expectation(obs[j, x], states[x])) < 1e-15
    for bad in (states[:3], states[:, :2, :2], states[0]):
        with pytest.raises(SpecError, match="shape mismatch"):
            expectation(obs, bad)


@pytest.mark.parametrize("block", [0, 2])
def test_expectation_per_block_states_keep_residue_guard(rng, block):
    states = np.stack([rand_state(rng, 4) for _ in range(3)])
    bad = rand_herm(rng, 4) + 0.3j * np.eye(4)  # Tr[bad rho] has imaginary part 0.3
    with pytest.raises(GuardError, match="imaginary residue") as single:
        expectation(bad, states[block])
    obs = np.stack([[rand_herm(rng, 4) for _ in range(3)] for _ in range(2)])
    obs[1, block] = bad
    with pytest.raises(GuardError) as stacked:
        expectation(obs, states)
    assert str(stacked.value) == str(single.value)


@pytest.mark.parametrize("d", [1, 2, 7, 64, 256])
@pytest.mark.parametrize("stack", [(), (3,)], ids=["matrix", "stack"])
@pytest.mark.parametrize("kind", [float, complex])
def test_hermitize_keeps_the_bits_of_the_plain_expression(rng, d, stack, kind):
    a = rng.normal(size=stack + (d, d))
    if kind is complex:
        a = a + 1j * rng.normal(size=stack + (d, d))
    # signed zeros on the diagonal and in an off-diagonal pair: complex
    # division by 2 turns a (-0, +0) sum into +0, which halving by 0.5 would not
    a[..., 0, 0] = -0.0
    if d > 1:
        a[..., 0, 1] = a[..., 1, 0] = -0.0
    want = (a + a.conj().swapaxes(-1, -2)) / 2
    got = hermitize(a)
    assert got.dtype == want.dtype == a.dtype and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


def test_as_hermitian_symmetrizes_noise(rng):
    x = rand_herm(rng, 3)
    noisy = x + 1e-14 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    out = as_hermitian(noisy)
    assert np.allclose(out, out.conj().T)


def test_as_hermitian_rejects_asymmetry():
    bad = np.array([[0.0, 1e-6], [0.0, 0.0]])
    with pytest.raises(SpecError):
        as_hermitian(bad)


def test_as_density_validations(rng):
    with pytest.raises(SpecError):
        as_density(np.diag([1.5, -0.5]))
    with pytest.raises(SpecError):
        as_density(np.diag([0.7, 0.7]))
    as_density(rand_state(rng, 3))


@pytest.mark.filterwarnings("error")  # rejected before any arithmetic could warn
@pytest.mark.parametrize("check", [as_hermitian, as_density], ids=["as_hermitian", "as_density"])
@pytest.mark.parametrize("d", [2, 4, 64])
def test_non_finite_entry_is_rejected(check, d):
    for entry, value in [((0, 0), np.nan), ((0, d - 1), np.nan), ((d - 1, 0), np.inf),
                         ((0, 0), np.inf), ((d - 1, d - 1), -np.inf)]:
        m = np.eye(d, dtype=complex) / d
        m[entry] = value
        with pytest.raises(SpecError, match="^matrix has a non-finite entry$"):
            check(m)


def test_as_unitary_checks_size_then_unitarity():
    # a non-square matrix: tests/test_estimator.py::test_non_square_encoding_is_spec_error
    h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert as_unitary(h, "u", 2).dtype == complex
    with pytest.raises(SpecError, match=r"u must be 3x3, got \(2, 2\)"):
        as_unitary(h, "u", 3)
    with pytest.raises(SpecError, match="u is not unitary within 1e-10"):
        as_unitary(np.diag([1.0, 0.9]), "u")


def test_decompose_is_the_one_eigh_call():
    # every eigendecomposition in the package goes through linalg.decompose
    body = inspect.getsource(decompose)
    assert body.count("np.linalg.eigh(") == 1
    calls = []
    for path in sorted(Path(qbmgrad.linalg.__file__).parent.glob("*.py")):
        code = path.read_text()
        if path.name == "linalg.py":
            code = code.replace(body, "")
        calls += [f"{path.name}: {line.strip()}" for line in code.splitlines()
                  if "np.linalg.eigh(" in line]
    assert calls == []
