"""Parameterized Hamiltonians and their thermal models.

A model Hamiltonian is a linear combination G(theta) = sum_j theta_j G_j of
fixed Hermitian terms on a visible (x) hidden register pair.  Thermalizing
produces the Gibbs state e^{-G}/Z, its visible marginal, cached spectra, and
the conditioning number kappa = 1/lambda_min(sigma_v) that controls every
downstream amplification.  Block decompositions cover the two commuting
special cases (classical hidden or classical visible register).
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .errors import ScaleError, SpecError, StructureError
from .linalg import (
    BipartiteDims,
    Eigensystem,
    as_hermitian,
    check_reconstruction,
    eigh,
    gibbs_weights,
    hermitize,
    partial_trace,
    spectral_norm,
    tensor,
)

EXP_NORM_GUARD = 700.0
BLOCK_ATOL = 1e-10


@dataclass(frozen=True)
class ParamHamiltonian:
    """Terms G_j on the joint register plus the current parameter vector.

    The validated terms live in one contiguous (n, D, D) array ``stack``,
    filled term by term at construction, and ``terms`` holds views into
    it; the caller's arrays are copied, so changing them later leaves the
    model unchanged.  ``assemble`` and the gradient's term averages each
    contract the whole stack at once.
    """

    dims: BipartiteDims
    terms: tuple[np.ndarray, ...]
    theta: np.ndarray
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.terms) < 1:
            raise SpecError("need at least one Hamiltonian term")
        stack = None
        for k, t in enumerate(self.terms):
            t = as_hermitian(t)
            self.dims.check(t)
            if stack is None:  # sized from a validated term, never from dims alone
                stack = np.empty((len(self.terms),) + t.shape, dtype=complex)
            stack[k] = t
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "terms", tuple(stack))
        object.__setattr__(self, "theta", self._checked_theta(self.theta))

    def _checked_theta(self, theta) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (len(self.terms),):
            raise SpecError(
                f"theta length {theta.shape} != number of terms {len(self.terms)}"
            )
        return theta

    @property
    def n_params(self) -> int:
        return len(self.terms)

    def assemble(self) -> np.ndarray:
        """G(theta) = sum_j theta_j G_j at the current theta."""
        # the (1, n) x (n, D^2) product np.tensordot forms, without its set-up
        g = np.dot(self.theta.reshape(1, -1), self.stack.reshape(self.n_params, -1))
        return hermitize(g.reshape(self.stack.shape[1:]))

    def with_theta(self, theta) -> "ParamHamiltonian":
        """Same terms at a new theta; only theta is validated again.

        The terms were validated and hermitized at construction, so the
        copy shares them instead of re-running ``as_hermitian`` on each.
        """
        theta = self._checked_theta(theta)
        out = copy.copy(self)
        object.__setattr__(out, "theta", theta)
        return out


@dataclass(frozen=True)
class ThermalModel:
    """Gibbs data of one parameter point, with cached spectra.

    ``weights`` are the normalised Gibbs weights e^{-(g_k - g_min)}/z of the
    eigenvalues g_k in ``g_eig``, as ``thermalize`` formed them for
    ``sigma_vh``; the gradient's tent channel reads them from here.
    """

    hamiltonian: ParamHamiltonian
    G: np.ndarray
    Z: float
    sigma_vh: np.ndarray
    sigma_v: np.ndarray
    g_eig: Eigensystem
    weights: np.ndarray
    sigma_v_eig: Eigensystem
    kappa: float

    @property
    def dims(self) -> BipartiteDims:
        return self.hamiltonian.dims


def thermalize(h: ParamHamiltonian) -> ThermalModel:
    """Build the thermal model e^{-G(theta)}/Z with all cached fields.

    G is decomposed once, in three steps: ``np.linalg.eigh`` of the
    assembled G (already hermitized, so it skips ``as_hermitian``); the
    exponent guard, |G|_2 <= ``EXP_NORM_GUARD``, read by ``spectral_norm``
    from that eigensystem; then the reconstruction check ``eigh`` applies.
    The exponent guard answers first, so a G too large to exponentiate
    raises ScaleError even where its residual would also fail.
    """
    g = h.assemble()
    vals, vecs = np.linalg.eigh(g)
    g_eig = Eigensystem(vals, vecs)
    norm = spectral_norm(g_eig)
    if not norm <= EXP_NORM_GUARD:
        raise ScaleError(f"|G| = {norm:.1f} exceeds the exponent guard {EXP_NORM_GUARD}")
    check_reconstruction(g[None], vals[None], vecs[None])
    weights, z_shifted = gibbs_weights(g_eig.vals)
    z = z_shifted * float(np.exp(-np.min(g_eig.vals)))
    sigma_vh = hermitize((g_eig.vecs * weights) @ g_eig.vecs.conj().T)
    sigma_v = hermitize(partial_trace(sigma_vh, h.dims, keep="visible"))
    sigma_v_eig = eigh(sigma_v)
    lam_min = float(sigma_v_eig.vals[0])
    if lam_min <= 0.0:
        raise ScaleError("visible marginal lost strict positivity")
    return ThermalModel(
        hamiltonian=h,
        G=g,
        Z=z,
        sigma_vh=sigma_vh,
        sigma_v=sigma_v,
        g_eig=g_eig,
        weights=weights,
        sigma_v_eig=sigma_v_eig,
        kappa=1.0 / lam_min,
    )


@dataclass(frozen=True)
class RestrictedSpec:
    """Bias/bias/coupling parameterization (a, b, w) over operator lists.

    G(theta) = sum_i a_i V_i (x) I + I (x) sum_j b_j H_j
               + sum_ij w_ij V_i (x) H_j,
    with theta packed in the order (a, b, row-major w).
    """

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    V: tuple[np.ndarray, ...]
    H: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=float))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))
        object.__setattr__(self, "V", tuple(as_hermitian(v) for v in self.V))
        object.__setattr__(self, "H", tuple(as_hermitian(x) for x in self.H))
        m, n = len(self.V), len(self.H)
        if m < 1 or n < 1:
            raise SpecError("need at least one visible and one hidden operator")
        if self.a.shape != (m,) or self.b.shape != (n,) or self.w.shape != (m, n):
            raise SpecError("restricted parameter shapes inconsistent with V/H lists")
        dv = {v.shape[0] for v in self.V}
        dh = {x.shape[0] for x in self.H}
        if len(dv) != 1 or len(dh) != 1:
            raise SpecError("operator lists mix dimensions")

    @property
    def dims(self) -> BipartiteDims:
        return BipartiteDims(self.V[0].shape[0], self.H[0].shape[0])

    def pack_theta(self) -> np.ndarray:
        return np.concatenate([self.a, self.b, self.w.ravel()])

    def unpack(self, vec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        vec = np.asarray(vec, dtype=float)
        m, n = len(self.V), len(self.H)
        if vec.shape != (m + n + m * n,):
            raise SpecError("packed vector has wrong length")
        return vec[:m], vec[m : m + n], vec[m + n :].reshape(m, n)


def restricted_to_param(spec: RestrictedSpec) -> ParamHamiltonian:
    """Expand an (a, b, w) spec into generic terms with packed theta."""
    dims = spec.dims
    iv = np.eye(dims.d_v)
    ih = np.eye(dims.d_h)
    terms = [tensor(v, ih) for v in spec.V]
    terms += [tensor(iv, x) for x in spec.H]
    terms += [tensor(v, x) for v in spec.V for x in spec.H]
    return ParamHamiltonian(dims=dims, terms=tuple(terms), theta=spec.pack_theta())


def _validate_unitary(u: np.ndarray, d: int, what: str) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    if u.shape != (d, d):
        raise SpecError(f"{what} must be {d}x{d}, got {u.shape}")
    if spectral_norm(u.conj().T @ u - np.eye(d)) > 1e-10:
        raise SpecError(f"{what} is not unitary within 1e-10")
    return u


def _blocks(term: np.ndarray, dims: BipartiteDims, classical: str) -> list[np.ndarray]:
    """Diagonal blocks of a term over the classical register's basis states."""
    t = term.reshape(dims.d_v, dims.d_h, dims.d_v, dims.d_h)
    scale = max(1.0, float(np.max(np.abs(term))))
    if classical == "hidden":
        n, mat = dims.d_h, (lambda x, y: t[:, x, :, y])
    else:
        n, mat = dims.d_v, (lambda x, y: t[x, :, y, :])
    off = max(
        (float(np.max(np.abs(mat(x, y)))) for x in range(n) for y in range(n) if x != y),
        default=0.0,
    )
    if off > BLOCK_ATOL * scale:
        raise StructureError(
            f"term is not block-diagonal over the declared {classical} basis "
            f"(off-block magnitude {off:.3e})"
        )
    return [as_hermitian(mat(x, x)) for x in range(n)]


def _thermal_blocks(
    block_hams: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, tuple[Eigensystem, ...], np.ndarray]:
    """(p_x, sigma_x, eigensystems, Gibbs weights) of a stack (n, d, d) of
    per-label Hamiltonians.

    One stacked ``np.linalg.eigh`` decomposes every block; its
    reconstruction is checked block by block as ``eigh`` checks one matrix,
    so a single bad block raises the same GuardError.  The blocks are
    Hermitian by construction (hermitized sums of validated terms), so
    they skip ``as_hermitian``.  Each state uses its own eigenvalue shift;
    the weights p_x come from the per-block log partition functions, so
    nothing underflows even when the blocks sit at very different energies.
    """
    w, v = np.linalg.eigh(block_hams)
    check_reconstruction(block_hams, w, v)
    boltz = np.exp(-(w - w[:, :1]))  # eigh sorts ascending: column 0 is each block's minimum
    z = np.sum(boltz, axis=1)
    weights = boltz / z[:, None]
    states = hermitize((v * weights[:, None, :]) @ v.conj().swapaxes(-1, -2))
    log_zs = np.log(z) - w[:, 0]
    p = np.exp(log_zs - np.max(log_zs))
    eigs = tuple(Eigensystem(wx, vx) for wx, vx in zip(w, v))
    return p / p.sum(), states, eigs, weights


def _block_stack(terms_x, n_blocks: int, d: int) -> np.ndarray:
    """terms_x[j][x] as one (n_params, n_blocks, d, d) array."""
    try:
        stack = np.array(terms_x, dtype=complex)
    except ValueError as exc:
        raise SpecError(f"block terms must all be {d}x{d}") from exc
    if stack.ndim != 4 or len(stack) < 1 or stack.shape[1:] != (n_blocks, d, d):
        raise SpecError(
            f"block terms have shape {stack.shape}, expected (n_params, {n_blocks}, {d}, {d})")
    return stack


def _block_hams(stack: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """sum_j theta_j G^{j,x} for every block x at once, summed over j in order."""
    g = np.zeros(stack.shape[1:], dtype=complex)
    for c, t in zip(theta, stack):
        g += c * t
    return hermitize(g)


class _BlockModel:
    """What QCModel and CQModel share: the block term stack, built once and
    shared by every ``with_theta`` copy, and the block Gibbs states.

    ``stack`` is the (n_params, n_blocks, d, d) array of the blocks
    G^{j,x}; ``terms_x[j][x]`` are views into it.
    """

    def _block_shape(self) -> tuple[int, int]:
        """(number of blocks, block dimension)."""
        raise NotImplementedError

    def __post_init__(self):
        stack = _block_stack(self.terms_x, *self._block_shape())
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "terms_x", tuple(tuple(t) for t in stack))
        self._thermalize(self.theta)

    def _thermalize(self, theta) -> tuple[tuple[Eigensystem, ...], np.ndarray]:
        """Set theta, p and sigma_x; return the block eigensystems and weights."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.n_params,):
            raise SpecError(f"theta length {theta.shape} != number of terms {self.n_params}")
        p, states, eigs, weights = _thermal_blocks(_block_hams(self.stack, theta))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma_x", tuple(states))
        return eigs, weights

    @property
    def n_params(self) -> int:
        return self.stack.shape[0]

    def with_theta(self, theta):
        """Same block stack at a new theta; only theta is validated again."""
        out = copy.copy(self)
        out._thermalize(theta)
        return out


@dataclass(frozen=True)
class QCModel(_BlockModel):
    """Quantum visible, classical hidden: G_j = sum_x G_v^{j,x} (x) |x><x|."""

    dims: BipartiteDims
    hidden_basis: np.ndarray
    terms_x: tuple[tuple[np.ndarray, ...], ...]  # [j][x] -> d_v x d_v
    theta: np.ndarray
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False)
    sigma_x: tuple[np.ndarray, ...] = field(init=False)
    block_eig: tuple[Eigensystem, ...] = field(init=False)  # of each block Hamiltonian
    block_weights: np.ndarray = field(init=False)  # (d_h, d_v): Gibbs weights in block_eig
    visible_eig: Eigensystem = field(init=False)  # of visible_state()

    def _block_shape(self) -> tuple[int, int]:
        return self.dims.d_h, self.dims.d_v

    def _thermalize(self, theta):
        eigs, weights = super()._thermalize(theta)
        object.__setattr__(self, "block_eig", eigs)
        object.__setattr__(self, "block_weights", weights)
        object.__setattr__(self, "visible_eig", eigh(self.visible_state()))
        return eigs, weights

    def visible_state(self) -> np.ndarray:
        out = np.zeros((self.dims.d_v, self.dims.d_v), dtype=complex)
        for px, sx in zip(self.p, self.sigma_x):
            out += px * sx
        return hermitize(out)


@dataclass(frozen=True)
class CQModel(_BlockModel):
    """Classical visible, quantum hidden: G_j = sum_x |x><x| (x) G_h^{j,x}."""

    dims: BipartiteDims
    visible_basis: np.ndarray
    terms_x: tuple[tuple[np.ndarray, ...], ...]  # [j][x] -> d_h x d_h
    theta: np.ndarray
    stack: np.ndarray = field(init=False, repr=False, compare=False)
    p: np.ndarray = field(init=False)
    sigma_x: tuple[np.ndarray, ...] = field(init=False)

    def _block_shape(self) -> tuple[int, int]:
        return self.dims.d_v, self.dims.d_h


def qc_decompose(h: ParamHamiltonian, hidden_basis=None) -> QCModel:
    """Split every term over a declared classical hidden basis.

    The basis is validated, never searched for: each rotated term must be
    block-diagonal over the basis projectors or a StructureError is raised.
    """
    dims = h.dims
    w = (
        np.eye(dims.d_h, dtype=complex)
        if hidden_basis is None
        else _validate_unitary(hidden_basis, dims.d_h, "hidden basis")
    )
    rot = tensor(np.eye(dims.d_v), w)
    terms_x = tuple(
        tuple(_blocks(hermitize(rot.conj().T @ t @ rot), dims, "hidden"))
        for t in h.terms
    )
    return QCModel(dims=dims, hidden_basis=w, terms_x=terms_x, theta=h.theta)


def cq_decompose(h: ParamHamiltonian, visible_basis=None) -> CQModel:
    """Mirror of qc_decompose with the classical register on the visible side."""
    dims = h.dims
    w = (
        np.eye(dims.d_v, dtype=complex)
        if visible_basis is None
        else _validate_unitary(visible_basis, dims.d_v, "visible basis")
    )
    rot = tensor(w, np.eye(dims.d_h))
    terms_x = tuple(
        tuple(_blocks(hermitize(rot.conj().T @ t @ rot), dims, "visible"))
        for t in h.terms
    )
    return CQModel(dims=dims, visible_basis=w, terms_x=terms_x, theta=h.theta)
