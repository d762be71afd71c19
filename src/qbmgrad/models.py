"""Parameterized Hamiltonians and their thermal models.

A model Hamiltonian is a linear combination G(theta) = sum_j theta_j G_j of
fixed Hermitian terms on a visible (x) hidden register pair.  Thermalizing
produces the Gibbs state e^{-G}/Z, its visible marginal, cached spectra, and
the conditioning number kappa = 1/lambda_min(sigma_v) that controls every
downstream amplification.  Block decompositions cover the two commuting
special cases (classical hidden or classical visible register), whose
blocks are one stack through the joint model's theta-sum and Gibbs kernel.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ScaleError, SpecError, StructureError
from .linalg import (
    BipartiteDims,
    Eigensystem,
    as_hermitian,
    as_unitary,
    check_reconstruction,
    decompose,
    eigh,
    gibbs_weights,
    hermitize,
    partial_trace,
    spectral_norm,
    tensor,
)

EXP_NORM_GUARD = 700.0
BLOCK_ATOL = 1e-10


def _checked_theta(theta, n_params: int) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (n_params,):
        raise SpecError(f"theta length {theta.shape} != number of terms {n_params}")
    return theta


def _weighted_sum(c: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """sum_j c_j stack[j], hermitized, for a stack (n, ..., d, d): the
    (1, n) x (n, rest) product np.tensordot forms, without its set-up."""
    g = np.dot(c.reshape(1, -1), stack.reshape(len(c), -1))
    return hermitize(g.reshape(stack.shape[1:]))


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
        object.__setattr__(self, "theta", _checked_theta(self.theta, len(self.terms)))

    @property
    def n_params(self) -> int:
        return len(self.terms)

    def assemble(self) -> np.ndarray:
        """G(theta) = sum_j theta_j G_j at the current theta."""
        return _weighted_sum(self.theta, self.stack)

    def with_theta(self, theta) -> "ParamHamiltonian":
        """Same terms at a new theta; only theta is validated again.

        The terms were validated and hermitized at construction, so the
        copy shares them instead of re-running ``as_hermitian`` on each.
        """
        theta = _checked_theta(theta, self.n_params)
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


def _gibbs(hams, es: Eigensystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, states, shifted sums) of the Gibbs states e^{-H}/Z of a
    Hermitian matrix or stack (..., d, d) from its eigensystem ``es``,
    checked as ``eigh`` checks one.  Matrix k's partition function is its
    shifted sum z_k times e^{-es.vals[k, 0]}.
    """
    check_reconstruction(hams, es)
    weights, z = gibbs_weights(es.vals)
    # not Eigensystem.apply: its closure and finiteness check would cost calls on every build
    states = hermitize((es.vecs * weights[..., None, :]) @ es.vecs.conj().swapaxes(-1, -2))
    return weights, states, z


def thermalize(h: ParamHamiltonian) -> ThermalModel:
    """Build the thermal model e^{-G(theta)}/Z with all cached fields.

    G is decomposed once, in three steps: ``decompose`` of the assembled G
    (already hermitized, so it skips ``eigh``'s ``as_hermitian``); the exponent
    guard, |G|_2 <= ``EXP_NORM_GUARD``, read by ``spectral_norm`` from
    that eigensystem; then the Gibbs kernel, which checks the
    reconstruction as ``eigh`` does.  The exponent guard answers first, so
    a G too large to exponentiate raises ScaleError even where its residual
    would also fail.
    """
    g = h.assemble()
    g_eig = decompose(g)
    norm = spectral_norm(g_eig)
    if not norm <= EXP_NORM_GUARD:
        raise ScaleError(f"|G| = {norm:.1f} exceeds the exponent guard {EXP_NORM_GUARD}")
    weights, sigma_vh, z_shifted = _gibbs(g, g_eig)
    sigma_v = hermitize(partial_trace(sigma_vh, h.dims, keep="visible"))
    sigma_v_eig = eigh(sigma_v)
    lam_min = float(sigma_v_eig.vals[0])
    if lam_min <= 0.0:
        raise ScaleError("visible marginal lost strict positivity")
    return ThermalModel(
        hamiltonian=h,
        G=g,
        Z=float(z_shifted) * float(np.exp(-g_eig.vals[0])),
        sigma_vh=sigma_vh,
        sigma_v=sigma_v,
        g_eig=g_eig,
        weights=weights,
        sigma_v_eig=sigma_v_eig,
        kappa=1.0 / lam_min,
    )


def restricted_hamiltonian(a, b, w, V, H) -> ParamHamiltonian:
    """Expand the bias/bias/coupling parameterization (a, b, w) over
    operator lists V and H,

    G(theta) = sum_i a_i V_i (x) I + I (x) sum_j b_j H_j
               + sum_ij w_ij V_i (x) H_j,

    into generic terms with theta packed in the order (a, b, row-major w).
    """
    a, b, w = (np.asarray(x, dtype=float) for x in (a, b, w))
    V = [as_hermitian(v) for v in V]
    H = [as_hermitian(x) for x in H]
    m, n = len(V), len(H)
    if m < 1 or n < 1:
        raise SpecError("need at least one visible and one hidden operator")
    if a.shape != (m,) or b.shape != (n,) or w.shape != (m, n):
        raise SpecError("restricted parameter shapes inconsistent with V/H lists")
    if len({v.shape[0] for v in V}) != 1 or len({x.shape[0] for x in H}) != 1:
        raise SpecError("operator lists mix dimensions")
    dims = BipartiteDims(V[0].shape[0], H[0].shape[0])
    terms = [tensor(v, np.eye(dims.d_h)) for v in V]
    terms += [tensor(np.eye(dims.d_v), x) for x in H]
    terms += [tensor(v, x) for v in V for x in H]
    return ParamHamiltonian(dims=dims, terms=tuple(terms), theta=np.concatenate([a, b, w.ravel()]))


def _block_decompose(h: ParamHamiltonian, basis, classical: str) -> np.ndarray:
    """The block stack of h over a declared classical basis.

    ``classical`` names the classical register, "hidden" or "visible".
    The term stack is rotated into the basis in one product and split into
    its diagonal blocks over the basis states, giving the C-ordered
    (n_params, n_blocks, d, d) stack of the blocks G^{j,x}.  The basis is
    validated, never searched for: the first rotated term with an off-block
    entry above ``BLOCK_ATOL`` (relative to its largest entry, when that
    exceeds 1) raises StructureError.  The diagonal blocks of a hermitized
    term are exactly Hermitian, so they are stacked as they are.
    """
    dims = h.dims
    hidden = classical == "hidden"
    n = dims.d_h if hidden else dims.d_v
    w = np.eye(n, dtype=complex) if basis is None else as_unitary(
        basis, f"{classical} basis", n)
    rot = tensor(np.eye(dims.d_v), w) if hidden else tensor(w, np.eye(dims.d_h))
    rotated = hermitize(rot.conj().T @ h.stack @ rot)
    # the basis label of each joint index: the hidden one is the fast index
    labels = np.arange(dims.total) % n if hidden else np.arange(dims.total) // dims.d_h
    mags = np.abs(rotated)
    off = mags.max(axis=(1, 2), where=labels[:, None] != labels[None, :], initial=0.0)
    failing = np.flatnonzero(off > BLOCK_ATOL * np.maximum(1.0, mags.max(axis=(1, 2))))
    if failing.size:
        raise StructureError(
            f"term is not block-diagonal over the declared {classical} basis "
            f"(off-block magnitude {off[failing[0]]:.3e})"
        )
    t = rotated.reshape(-1, dims.d_v, dims.d_h, dims.d_v, dims.d_h)
    # the diagonal over the classical index pair comes last: [j, a, b, x] -> [j, x, a, b]
    blocks = np.diagonal(t, axis1=2, axis2=4) if hidden else np.diagonal(t, axis1=1, axis2=3)
    return np.ascontiguousarray(blocks.transpose(0, 3, 1, 2))


def _thermal_blocks(block_hams: np.ndarray) -> tuple:
    """(p_x, sigma_x, eigensystem, Gibbs weights) of a stack (n, d, d) of
    per-label Hamiltonians, each as a stack over the blocks.

    One stacked ``decompose`` decomposes every block; the blocks are
    Hermitian by construction (hermitized sums of validated terms), so they
    skip ``eigh``'s ``as_hermitian``.  The weights p_x come from the
    per-block log partition functions, so nothing underflows even when the
    blocks sit at very different energies.
    """
    es = decompose(block_hams)
    weights, states, z = _gibbs(block_hams, es)
    log_zs = np.log(z) - es.vals[:, 0]  # ascending: column 0 is each block's minimum
    p = np.exp(log_zs - np.max(log_zs))
    return p / p.sum(), states, es, weights


@dataclass(frozen=True)
class _BlockModel:
    """What QCModel and CQModel share: the block term stack, built once and
    shared by every ``with_theta`` copy, and the block Gibbs data.

    ``stack`` is the (n_params, n_blocks, d, d) array of the blocks G^{j,x}
    that ``qc_decompose`` or ``cq_decompose`` split the terms into; the
    Gibbs data stack the blocks x along their first axis too, under
    ``ThermalModel``'s names, so a QCModel lifts like a ThermalModel.
    """

    dims: BipartiteDims
    stack: np.ndarray = field(repr=False, compare=False)
    theta: np.ndarray
    p: np.ndarray = field(init=False)
    sigma_x: np.ndarray = field(init=False)  # (n_blocks, d, d)
    g_eig: Eigensystem = field(init=False)  # vals (n_blocks, d), vecs (n_blocks, d, d)
    weights: np.ndarray = field(init=False)  # (n_blocks, d): Gibbs weights of g_eig

    def __post_init__(self):
        theta = _checked_theta(self.theta, self.n_params)
        p, states, es, weights = _thermal_blocks(_weighted_sum(theta, self.stack))
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "sigma_x", states)
        object.__setattr__(self, "g_eig", es)
        object.__setattr__(self, "weights", weights)

    @property
    def n_params(self) -> int:
        return self.stack.shape[0]

    def with_theta(self, theta):
        """Same block stack at a new theta; only theta is validated again."""
        return replace(self, theta=theta)


@dataclass(frozen=True)
class QCModel(_BlockModel):
    """Quantum visible, classical hidden: G_j = sum_x G_v^{j,x} (x) |x><x|."""

    sigma_v: np.ndarray = field(init=False)  # sum_x p_x sigma_x
    sigma_v_eig: Eigensystem = field(init=False)

    def __post_init__(self):
        super().__post_init__()
        sigma_v = _weighted_sum(self.p, self.sigma_x)
        object.__setattr__(self, "sigma_v", sigma_v)
        object.__setattr__(self, "sigma_v_eig", eigh(sigma_v))


@dataclass(frozen=True)
class CQModel(_BlockModel):
    """Classical visible, quantum hidden: G_j = sum_x |x><x| (x) G_h^{j,x}."""


def qc_decompose(h: ParamHamiltonian, hidden_basis=None) -> QCModel:
    """Split every term over a declared classical hidden basis (see
    ``_block_decompose``)."""
    return QCModel(dims=h.dims, stack=_block_decompose(h, hidden_basis, "hidden"), theta=h.theta)


def cq_decompose(h: ParamHamiltonian, visible_basis=None) -> CQModel:
    """Mirror of qc_decompose with the classical register on the visible side."""
    return CQModel(dims=h.dims, stack=_block_decompose(h, visible_basis, "visible"), theta=h.theta)
