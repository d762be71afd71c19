"""The small-D helpers against the plain expressions they replaced.

Each oracle below is the earlier body of a helper that now runs in fewer
numpy passes (in-place arithmetic, one shared conjugate transpose, a screen
before the exact check, one stacked product in place of four).  The helpers
must give the same bits, and raise the same error class with the same
message, on matrices and on stacks.
"""
import numpy as np
import pytest

import qbmgrad.linalg
from qbmgrad import densities, estimator, matcalc
from qbmgrad.errors import GuardError, SpecError
from qbmgrad.gradients import _label_relative_entropy
from qbmgrad.linalg import (
    EIGH_RESIDUAL_TOL,
    HERMITICITY_ATOL,
    MAX_DIM,
    Eigensystem,
    as_density,
    as_hermitian,
    check_reconstruction,
    decompose,
    expectation,
    gibbs_weights,
    hermitize,
    real_traces,
    spectral_norm,
)
from qbmgrad.gradients import UMEGAKI, as_target
from qbmgrad.verify import inv_sqrt_encoding, perturb_encoding
from conftest import rand_herm, rand_model, rand_pd, rand_state, rand_unitary

KINDS = [densities.HIGH_PEAK_TENT, densities.LOGISTIC, densities.power_density(0.5),
         densities.power_density(-0.25)]


def _outcome(fn, *args):
    """(bits of the result, None) or (None, (error class, message))."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the class itself is compared
        return None, (type(exc), str(exc))
    if isinstance(out, tuple):
        return tuple(np.asarray(o).tobytes() for o in out), None
    return (type(out), np.asarray(out).tobytes()), None


# -- the earlier bodies ------------------------------------------------------

def old_as_hermitian(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise SpecError(f"dimension {a.shape[0]} outside supported range [1, {MAX_DIM}]")
    if not np.isfinite(a).all():
        raise SpecError("matrix has a non-finite entry")
    gap = float(np.abs(a - a.conj().T).max())
    if not gap < HERMITICITY_ATOL:
        raise SpecError(f"matrix is not Hermitian: max asymmetry {gap:.3e} >= {HERMITICITY_ATOL:.0e}")
    return hermitize(a)


def old_check_reconstruction(x, es):
    r = (es.vecs * es.vals[..., None, :]) @ es.vecs.conj().swapaxes(-1, -2) - x
    d = x.shape[-1]
    tol = EIGH_RESIDUAL_TOL * d
    parts = r.reshape(-1, d * d).view(float)
    frob = np.sqrt(np.einsum("ij,ij->i", parts, parts))
    fails = ~(frob <= tol * (1.0 - 1e-12))
    if not fails.any():
        return
    for k in np.flatnonzero(fails):
        resid = spectral_norm(r.reshape(-1, d, d)[k]) if np.isfinite(frob[k]) else float(frob[k])
        if not resid <= tol:
            raise GuardError(f"eigendecomposition residual {resid:.3e} too large")


def old_channel_factor(d, u):
    u = np.asarray(u, dtype=float)
    mag = np.abs(u)
    small = mag < matcalc.DEGENERATE_GAP_RTOL * max(1.0, float(mag.max(initial=0.0)))
    safe = np.where(small, 1.0, u)
    if d.kind == "high_peak_tent":
        half = safe / 2.0
        out = np.where(small, 1.0, np.tanh(half) / half)
    elif d.kind == "logistic":
        half = safe / 2.0
        out = np.where(small, 1.0, half / np.sinh(half))
    else:
        out = np.where(small, 1.0, np.sinh(d.r * safe / 2.0) / (d.r * np.sinh(safe / 2.0)))
    return out if out.ndim else float(out)


def old_gibbs_weights(energies):
    energies = np.asarray(energies)
    boltz = np.exp(-(energies - energies.min(axis=-1, keepdims=True)))
    z = boltz.sum(axis=-1)
    return boltz / z[..., None], z


def old_real_traces(vals):
    residue = np.abs(vals.imag) > 1e-10 * np.maximum(1.0, np.abs(vals))
    if residue.any():
        raise GuardError(f"expectation has imaginary residue {vals.imag[residue][0]:.3e}")
    return vals.real


def old_kernel(vecs, x, factor):
    xv = np.matmul(x, vecs.reshape(vecs.shape[:-2] + (x.shape[0], -1))).reshape(vecs.shape)
    xt = vecs.conj().swapaxes(-1, -2) @ xv
    xt *= factor
    return hermitize(vecs @ xt @ vecs.conj().swapaxes(-1, -2))


def old_label_relative_entropy(r, p):
    mask = r > 0.0
    if not p[mask].all():
        return np.inf
    return float(np.sum(r[mask] * np.log(r[mask] / p[mask])))


# -- as_hermitian and as_density ---------------------------------------------

def _matrices(rng):
    """Hermitian, noisy, asymmetric, real, signed-zero and non-finite inputs."""
    out = []
    for d in (1, 2, 3, 8, 64):
        h = rand_herm(rng, d)
        out += [h, h.real.copy(), h + 3e-13 * rng.normal(size=(d, d))]
        out.append(h + 2e-12 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))))
        signed = h.copy()
        signed[0, 0] = -0.0
        out.append(signed)
        for value in (np.nan, np.inf, -np.inf):
            bad = h.copy()
            bad[d - 1, 0] = value
            out.append(bad)
    out += [np.zeros((3, 2)), np.zeros((2, 2, 2)), np.zeros((0, 0)), [[1.0, 2.0], [2.0, 1.0]],
            np.eye(MAX_DIM + 1)]
    return out


@pytest.mark.filterwarnings("error")
def test_as_hermitian_keeps_bits_errors_and_messages(rng):
    for a in _matrices(rng):
        assert _outcome(as_hermitian, a) == _outcome(old_as_hermitian, a)


def test_as_hermitian_returns_a_fresh_c_ordered_array(rng):
    a = rand_herm(rng, 5)
    out = as_hermitian(a)
    assert out is not a and out.flags.c_contiguous and not np.shares_memory(out, a)


def test_as_density_keeps_bits_and_messages(rng):
    def old(a):
        rho = old_as_hermitian(a)
        w = np.linalg.eigvalsh(rho)
        if w[0] < qbmgrad.linalg.PSD_FLOOR:
            raise SpecError(f"state not positive semidefinite: min eigenvalue {w[0]:.3e}")
        tr = float(np.trace(rho).real)
        if abs(tr - 1.0) > qbmgrad.linalg.TRACE_ATOL:
            raise SpecError(f"state trace {tr!r} differs from 1 by more than "
                            f"{qbmgrad.linalg.TRACE_ATOL:.0e}")
        return rho

    for rho in [rand_state(rng, 2), rand_state(rng, 16), 1.5 * rand_state(rng, 3),
                np.diag([1.5, -0.5]), np.eye(2)] + _matrices(rng):
        assert _outcome(as_density, rho) == _outcome(old, rho)


# -- check_reconstruction ------------------------------------------------------

def _perturbed(es, shift, entry=None):
    """es with its eigenvalues moved: all by ``shift``, or one entry."""
    vals = es.vals.copy()
    if entry is None:
        vals += shift
    else:
        vals[entry] += shift
    return Eigensystem(vals, es.vecs)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # the inf eigenvalue, both sides
@pytest.mark.parametrize("d", [1, 2, 5, 16, 64])
@pytest.mark.parametrize("stack", [None, 3], ids=["matrix", "stack"])
def test_check_reconstruction_keeps_every_verdict_and_message(rng, d, stack):
    x = rand_herm(rng, d) if stack is None else np.stack([rand_herm(rng, d) for _ in range(stack)])
    es = decompose(x)
    tol = EIGH_RESIDUAL_TOL * d
    last = (-1,) if stack is None else (stack - 1, -1)
    cases = [es, _perturbed(es, np.nan, last), _perturbed(es, np.inf, last)]
    for scale in (1e-3, 0.3, 0.999, 1.0 - 1e-9, 1.0 + 1e-9, 1.001, 3.0, 1e6):
        cases += [_perturbed(es, scale * tol), _perturbed(es, scale * tol, last)]
    for case in cases:
        assert _outcome(check_reconstruction, x, case) == _outcome(old_check_reconstruction, x, case)


def _spy(monkeypatch):
    calls = []
    raw = qbmgrad.linalg.spectral_norm

    def counted(x):
        calls.append(np.shape(x))
        return raw(x)

    monkeypatch.setattr(qbmgrad.linalg, "spectral_norm", counted)
    return calls


def _diagonal_residual(s):
    """x = 0 and an eigensystem of diag(-s, s): the residual is diag(-s, s)
    exactly, with |r|_2 = s, |r|_F = sqrt(2) s and d max|r_ij| = 2 s."""
    return np.zeros((2, 2), dtype=complex), Eigensystem(np.array([-s, s]), np.eye(2, dtype=complex))


def test_screen_failure_above_tol_raises_the_old_message(monkeypatch):
    tol = EIGH_RESIDUAL_TOL * 2
    calls = _spy(monkeypatch)
    x, es = _diagonal_residual(tol * (1 + 1e-9))
    with pytest.raises(GuardError) as err:
        check_reconstruction(x, es)
    assert str(err.value) == f"eigendecomposition residual {tol * (1 + 1e-9):.3e} too large"
    assert _outcome(check_reconstruction, x, es) == _outcome(old_check_reconstruction, x, es)
    assert len(calls) == 2  # the SVD decided, once per call


def test_screen_failure_below_tol_is_accepted_by_the_spectral_norm(monkeypatch):
    calls = _spy(monkeypatch)
    x, es = _diagonal_residual(EIGH_RESIDUAL_TOL * 2 * (1 - 1e-9))
    check_reconstruction(x, es)
    assert calls == [(2, 2)]  # both screens failed, the SVD accepted


@pytest.mark.parametrize("stack", [False, True], ids=["matrix", "stack"])
def test_nan_residual_raises(stack):
    x, es = _diagonal_residual(1e-12)
    vals = es.vals.copy()
    vals[0] = np.nan
    es = Eigensystem(vals, es.vecs)
    if stack:
        x, es = np.stack([x, x]), Eigensystem(np.stack([es.vals] * 2), np.stack([es.vecs] * 2))
    with pytest.raises(GuardError, match="^eigendecomposition residual nan too large$"):
        check_reconstruction(x, es)


@pytest.mark.parametrize("d", [2, 16, 256])
@pytest.mark.parametrize("stack", [None, 3], ids=["matrix", "stack"])
def test_accepted_decomposition_takes_no_svd(rng, monkeypatch, d, stack):
    x = np.stack([rand_herm(rng, d) for _ in range(stack or 1)])
    x = x if stack else x[0]
    es = decompose(x)
    calls = _spy(monkeypatch)
    check_reconstruction(x, es)
    if stack is None:
        qbmgrad.linalg.eigh(x)
    assert calls == []


def test_check_reconstruction_leaves_its_inputs_unchanged(rng):
    x = rand_herm(rng, 4)
    es = decompose(x)
    before = (x.tobytes(), es.vals.tobytes(), es.vecs.tobytes())
    check_reconstruction(x, es)
    assert (x.tobytes(), es.vals.tobytes(), es.vecs.tobytes()) == before


# -- channel_factor, apply_channel and the eigenbasis kernel -----------------

def _gaps(rng):
    """Gap arrays: random, degenerate, below and above the relative cut,
    signed zeros, a scale above 1, and a stack; plus scalars."""
    lam = rng.normal(size=5)
    rtol = matcalc.DEGENERATE_GAP_RTOL
    out = [lam[:, None] - lam[None, :], np.zeros((3, 3)), np.array([-0.0, 0.0, 1.0]),
           np.array([0.5 * rtol, rtol, 2.0 * rtol, -0.5 * rtol, 1.0]),
           np.array([1e3 * rtol, 2e2, -0.5e3 * rtol, 1e-8, 0.0]),
           np.array([[80.0, -80.0], [1e-300, 5e-324]]),
           rng.normal(size=(3, 4, 4)), np.array([], dtype=float), np.array([1, 0, -2])]
    out += [0.0, -0.0, 1e-11, 0.7, -2.5, 40.0, 1]
    return out


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", KINDS, ids=lambda d: f"{d.kind}{d.r or ''}")
def test_channel_factor_keeps_bits_and_scalar_type(rng, kind):
    for u in _gaps(rng):
        got, want = matcalc.channel_factor(kind, u), old_channel_factor(kind, u)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_channel_factor_leaves_its_input_unchanged(rng):
    u = rng.normal(size=(4, 4))
    before = u.tobytes()
    for kind in KINDS:
        matcalc.channel_factor(kind, u)
    assert u.tobytes() == before


@pytest.mark.parametrize("d", [1, 2, 6])
@pytest.mark.parametrize("stack", [None, 3], ids=["matrix", "stack"])
def test_eigenbasis_kernel_keeps_bits(rng, d, stack):
    d_x = 2 if d % 2 == 0 else 1
    g = rand_herm(rng, d) if stack is None else np.stack([rand_herm(rng, d) for _ in range(stack)])
    es = decompose(g)
    x = rand_herm(rng, d_x)
    factor = rng.normal(size=es.vals.shape + (d,))
    got = matcalc._eigenbasis_kernel(es.vecs, x, factor.copy())
    assert got.tobytes() == old_kernel(es.vecs, x, factor.copy()).tobytes()


@pytest.mark.parametrize("kind", KINDS, ids=lambda d: f"{d.kind}{d.r or ''}")
@pytest.mark.parametrize("power", [0.0, -0.5])
def test_apply_channel_keeps_bits(rng, kind, power):
    anchor = decompose(rand_pd(rng, 4))
    y = rand_herm(rng, 4)
    lam = anchor.vals if kind.kind == "high_peak_tent" else np.log(anchor.vals)
    factor = old_channel_factor(kind, lam[:, None] - lam[None, :])
    if power:
        side = anchor.vals ** power
        factor *= side[:, None] * side[None, :]
    want = old_kernel(anchor.vecs, old_as_hermitian(y), factor)
    assert matcalc.apply_channel(kind, anchor, y, power).tobytes() == want.tobytes()


def test_apply_channel_keeps_its_anchor_errors(rng):
    anchor = decompose(np.diag([-1.0, 2.0]))
    y = np.eye(2)
    with pytest.raises(SpecError, match="^logistic channel needs a positive definite anchor$"):
        matcalc.apply_channel(densities.LOGISTIC, anchor, y)
    with pytest.raises(SpecError, match="^channel power -0.5 needs a positive definite anchor$"):
        matcalc.apply_channel(densities.HIGH_PEAK_TENT, anchor, y, -0.5)


# -- gibbs_weights, real_traces and expectation -------------------------------

@pytest.mark.filterwarnings("error")
def test_gibbs_weights_keeps_bits(rng):
    for energies in [rng.normal(size=4), 300.0 * rng.normal(size=(3, 5)), np.array([700.0, -0.0]),
                     np.array([0.0, 0.0, 0.0]), np.array([2.0]), [1.0, 3.0], np.array([-1e3, 1e3])]:
        assert _outcome(gibbs_weights, energies) == _outcome(old_gibbs_weights, energies)


def test_real_traces_keeps_bits_and_messages():
    cases = [np.array([0.3 + 1e-13j, -2.0 + 0j]),
             np.array([0.5 + 1e-10j]),                                  # the bound itself
             np.array([0.5 + np.nextafter(1e-10, 1.0) * 1j]),         # just past it
             np.array([5.0 + 4.9e-10j, 5.0 - 5.1e-10j]),              # relative above 1
             np.array([1e12 + 99.0j]), np.array([1e12 + 101.0j]),
             np.array([complex(0.1, np.nan)]), np.array([np.inf + 1e-3j]), np.array([], dtype=complex),
             np.array([1.0 + 1e-10j, 2.0 - 3e-10j, 1.0 + 0j])]
    for vals in cases:
        assert _outcome(real_traces, vals) == _outcome(old_real_traces, vals)


@pytest.mark.parametrize("d", [2, 8])
def test_expectation_keeps_bits_for_one_term_a_stack_and_block_states(rng, d):
    state = rand_state(rng, d)
    obs = np.stack([rand_herm(rng, d) for _ in range(3)])
    blocks = np.stack([rand_state(rng, d) for _ in range(4)])
    per_block = np.stack([[rand_herm(rng, d) for _ in range(4)] for _ in range(3)])

    def old(o, s):
        if s.ndim == 2:
            vals = o.reshape(-1, s.size) @ s.T.ravel()
        else:
            vals = np.einsum("jxk,xk->jx", o.reshape(o.shape[:2] + (-1,)),
                             s.swapaxes(-1, -2).reshape(s.shape[0], -1))
        return old_real_traces(vals) if o.ndim > 2 else float(old_real_traces(vals)[0])

    for o, s in [(obs[0], state), (obs, state), (per_block, blocks)]:
        assert _outcome(expectation, o, s) == _outcome(old, o, s)
    skew = obs.copy()
    skew[1] = skew[1] + 1e-6j * np.eye(d)  # Tr[skew @ state] has imaginary part 1e-6
    assert _outcome(expectation, skew, state) == _outcome(old, skew, state)


# -- the label relative entropy ----------------------------------------------

@pytest.mark.filterwarnings("error")
def test_label_relative_entropy_keeps_bits_where_no_ratio_overflows(rng):
    for _ in range(20):
        r, p = rng.dirichlet(np.ones(6)), rng.dirichlet(np.ones(6))
        r[rng.integers(6)] = 0.0
        assert _label_relative_entropy(r, p) == old_label_relative_entropy(r, p)
    # a subnormal p_v whose ratio stays finite keeps ln(r_v / p_v)
    r, p = np.array([1e-300, 1.0 - 1e-300]), np.array([1e-310, 1.0 - 1e-310])
    assert _label_relative_entropy(r, p) == old_label_relative_entropy(r, p)
    assert _label_relative_entropy(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == np.inf


# -- the estimator's eigenvalue groups and circuit maps ----------------------

def old_eigen_groups(g_j):
    es = qbmgrad.linalg.eigh(g_j)
    scale = max(1.0, float(np.max(np.abs(es.vals))))
    starts = [0]
    for i in range(1, es.dim):
        if es.vals[i] - es.vals[starts[-1]] > estimator.GROUP_RTOL * scale:
            starts.append(i)
    bounds = np.array(starts + [es.dim])
    return np.array([np.mean(es.vals[lo:hi]) for lo, hi in zip(starts, bounds[1:])]), es, bounds


def old_batch_maps(model, rho, g_j, inv):
    """The maps of ``_batch_context`` with the four V^dag (w (x) R) V lifts
    taken one by one and the pair indices from ``np.triu_indices``."""
    d_v, d_h = model.dims.d_v, model.dims.d_h
    rho = as_target(rho, UMEGAKI).rho
    sv = model.sigma_v_eig
    values, g_es, bounds = old_eigen_groups(g_j)
    g_vecs = model.g_eig.vecs
    g_vecs_h = g_vecs.conj().T
    dim = d_v * d_h
    proj_rot = estimator._group_projectors(g_es, bounds, g_vecs)
    d_weights = model.weights
    sigma_h = qbmgrad.linalg.partial_trace(model.sigma_vh, model.dims, keep="hidden")
    rho_tilde = sv.vecs.conj().T @ rho @ sv.vecs
    blocks = (inv.unitary[:, :d_v] @ sv.vecs).reshape(2, d_v, d_v)
    basis = np.einsum("ab,nxa,nyb->nabxy", rho_tilde, blocks, blocks.conj())
    a, b = np.triu_indices(d_v, 1)
    upper, lower = basis[:, a, b], basis[:, b, a]
    w0, w1 = np.concatenate(
        [np.einsum("naaxy->nxy", basis)[:, None], upper + lower, 1j * (upper - lower)], axis=1
    )

    def in_g_basis(w, right):
        lift = (w[:, :, None, :, None] * right[None, None, :, None, :]).reshape(-1, dim, dim)
        return g_vecs_h @ lift @ g_vecs

    eye_h = np.eye(d_h, dtype=complex)
    hit = np.stack([in_g_basis(w0, eye_h), in_g_basis(w0, sigma_h)], axis=1)
    k = values.shape[0]
    c1 = np.einsum("kpp,p->k", proj_rot, d_weights).real
    base0 = np.einsum("fpp->f", w0).real[:, None] * c1 + np.einsum(
        "fpp,kpp->fk", hit[:, 1], proj_rot).real
    cross0 = 2.0 * np.einsum("fpp,kpp,p->fk", hit[:, 0], proj_rot, d_weights).real
    base1 = np.einsum("fpp->f", w1).real + np.einsum("fpp->f", in_g_basis(w1, sigma_h)).real
    cross1 = 2.0 * np.einsum("fpp,p->f", in_g_basis(w1, eye_h), d_weights).real
    static_map = 0.25 * np.concatenate(
        [base0 + cross0, base0 - cross0, (base1 + cross1)[:, None], (base1 - cross1)[:, None]],
        axis=1,
    )
    p, q = np.triu_indices(dim, 1)
    entries = hit[:, :, q, p]
    lift_map = np.stack([entries.real, entries.imag], axis=-1).reshape(entries.shape[0], -1)
    pair_weights = np.stack([d_weights[p] + d_weights[q], np.full(p.shape[0], 2.0)])
    weighted = pair_weights[:, :, None] * proj_rot[:, p, q].T
    rows = np.stack([weighted.real, -weighted.imag], axis=2)
    pair_map = np.zeros(rows.shape[:3] + (2 * k + 2,))
    pair_map[0, ..., :k], pair_map[0, ..., k : 2 * k] = 0.5 * rows[0], -0.5 * rows[0]
    pair_map[1, ..., :k] = pair_map[1, ..., k : 2 * k] = 0.25 * rows[1]
    return static_map, lift_map, pair_map.reshape(-1, 2 * k + 2), values


def _degenerate(rng, d, sizes):
    """A Hermitian matrix whose eigenvalue groups have the given sizes."""
    u = rand_unitary(rng, d)
    return (u * np.repeat(rng.normal(size=len(sizes)), sizes)) @ u.conj().T


def test_eigen_groups_keep_bits(rng):
    cases = [rand_herm(rng, d) for d in (1, 2, 8, 64)]
    cases += [_degenerate(rng, 6, [1, 2, 3]), _degenerate(rng, 8, [4, 1, 1, 2]),
              np.zeros((3, 3)), np.diag([1.0, 1.0, -2.0])]
    for g in cases:
        got, want = estimator.eigen_groups(g), old_eigen_groups(g)
        assert got[0].dtype == want[0].dtype == float and got[0].tobytes() == want[0].tobytes()
        assert np.array_equal(got[1].vals, want[1].vals)
        assert got[2].dtype == want[2].dtype and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("d_v, d_h", [(2, 1), (2, 2), (4, 2), (2, 4)])
@pytest.mark.parametrize("degenerate", [False, True], ids=["generic", "degenerate"])
def test_stacked_lifts_keep_the_maps_bits(rng, d_v, d_h, degenerate):
    model = rand_model(rng, d_v, d_h)
    rho, g_j = rand_state(rng, d_v), model.hamiltonian.terms[0]
    if degenerate:
        g_j = _degenerate(rng, d_v * d_h, [2, d_v * d_h - 2])
    # the same injected columns on both sides, exact and perturbed
    inv, groups = inv_sqrt_encoding(model), estimator.eigen_groups(g_j)
    for enc in (inv, perturb_encoding(inv, rng)[0]):
        ctx = estimator._batch_context(model, rho, groups,
                                       inv_sqrt=(enc.unitary[:, :d_v], enc.alpha))
        got = (ctx.static_map, ctx.lift_map, ctx.pair_map, groups[0])
        for x, y in zip(got, old_batch_maps(model, rho, g_j, enc)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()
