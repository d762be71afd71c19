"""Dense complex Hermitian linear algebra for small (dim <= 256) operators.

Everything here is pure and operates on plain ``numpy`` arrays; validation
helpers absorb floating-point asymmetry at construction and reject anything
worse.  Spectral decompositions carry their own reconstruction check so that
downstream matrix functions can trust them blindly.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import GuardError, SpecError

HERMITICITY_ATOL = 1e-12
EIGH_RESIDUAL_TOL = 1e-10
PSD_FLOOR = -1e-10
TRACE_ATOL = 1e-10
UNITARY_ATOL = 1e-10
MAX_DIM = 256


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average with the conjugate transpose (no validation), matrix by matrix
    for a stack: the bits of (a + a^dag) / 2, from one C-ordered copy of a^dag."""
    h = np.conjugate(a.swapaxes(-1, -2), order="C")
    h += a
    return np.divide(h, 2, out=h)


def as_hermitian(a) -> np.ndarray:
    """Validate a square matrix as Hermitian and symmetrize away noise.

    Asymmetry below ``HERMITICITY_ATOL`` (max-abs entrywise) is treated as
    float noise and removed by averaging; larger asymmetry, and any NaN or
    infinite entry, is rejected so genuine bugs are not masked.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise SpecError(f"dimension {a.shape[0]} outside supported range [1, {MAX_DIM}]")
    if not np.isfinite(a).all():  # before the subtraction: inf - inf would warn
        raise SpecError("matrix has a non-finite entry")
    h = np.conjugate(a.T, order="C")  # a^dag once, for the gap and for the average
    gap = 0.0 if (a == h).all() else float(np.abs(a - h).max())  # 0 if exactly Hermitian
    if not gap < HERMITICITY_ATOL:
        raise SpecError(f"matrix is not Hermitian: max asymmetry {gap:.3e} >= {HERMITICITY_ATOL:.0e}")
    h += a
    return np.divide(h, 2, out=h)


def as_density(a) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within floor, unit trace."""
    rho = as_hermitian(a)
    w = np.linalg.eigvalsh(rho)
    if w[0] < PSD_FLOOR:
        raise SpecError(f"state not positive semidefinite: min eigenvalue {w[0]:.3e}")
    tr = float(rho.trace().real)
    if abs(tr - 1.0) > TRACE_ATOL:
        raise SpecError(f"state trace {tr!r} differs from 1 by more than {TRACE_ATOL:.0e}")
    return rho


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition U diag(vals) U^dag with ascending eigenvalues,
    of one matrix (vals (d,), vecs (d, d)) or of a stack of them (vals
    (..., d), vecs (..., d, d)), matrix by matrix."""

    vals: np.ndarray
    vecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.vals.shape[-1]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Matrix function U diag(f(vals)) U^dag for a scalar function f."""
        with np.errstate(all="ignore"):
            fw = np.asarray(f(self.vals), dtype=float)
        if not np.isfinite(fw).all():
            raise SpecError("matrix function undefined at an eigenvalue")
        return hermitize((self.vecs * fw[..., None, :]) @ self.vecs.conj().swapaxes(-1, -2))

    def power(self, p: float) -> np.ndarray:
        return self.apply(lambda w: np.power(w, p))


def decompose(x) -> Eigensystem:
    """``np.linalg.eigh`` of a Hermitian matrix or stack, unvalidated and
    unchecked, raising LinAlgError where LAPACK returns NaN eigenvalues
    (some sizes) instead of failing.  The package's one call of LAPACK's
    Hermitian eigensolver: ``eigh`` validates its input first, and the
    models call it on matrices that are Hermitian by construction."""
    w, v = np.linalg.eigh(x)
    if np.isnan(w).any():
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    return Eigensystem(w, v)


def eigh(x) -> Eigensystem:
    """Eigendecompose a Hermitian matrix, checking the reconstruction
    with ``check_reconstruction``."""
    x = as_hermitian(x)
    es = decompose(x)
    check_reconstruction(x, es)
    return es


def check_reconstruction(x, es: Eigensystem) -> None:
    """Raise GuardError unless the eigensystem ``es`` of a matrix or stack
    x (..., d, d) reconstructs it, matrix by matrix.

    The check bounds the spectral norm of r = V diag(w) V^dag - x by
    ``EIGH_RESIDUAL_TOL * d``, matrix by matrix.  Frobenius-norm screens
    accept first (|r|_2 <= |r|_F), with a 1e-12 relative margin against
    rounding in either norm: one over the whole input, then one per matrix;
    a matrix that fails both pays for the SVD behind ``spectral_norm``,
    which decides.  A non-finite residual fails both and raises with no SVD.
    """
    r = (es.vecs * es.vals[..., None, :]) @ es.vecs.conj().swapaxes(-1, -2)
    r -= x
    d = x.shape[-1]
    tol = EIGH_RESIDUAL_TOL * d
    if not np.vdot(r, r).real <= (tol * (1.0 - 1e-12)) ** 2:  # |r|_F^2 of all; NaN fails
        parts = r.reshape(-1, d * d).view(float)  # (Re, Im) pairs of each residual
        frob = np.sqrt(np.einsum("ij,ij->i", parts, parts))
        fails = ~(frob <= tol * (1.0 - 1e-12))  # a NaN residual fails the screen too
        for k in np.flatnonzero(fails):
            resid = spectral_norm(r.reshape(-1, d, d)[k]) if np.isfinite(frob[k]) else float(frob[k])
            if not resid <= tol:
                raise GuardError(f"eigendecomposition residual {resid:.3e} too large")


def as_unitary(u, what: str, dim: int | None = None) -> np.ndarray:
    """``u`` as a square complex matrix, ``dim`` x ``dim`` when given, with
    |U^dag U - I|_2 <= ``UNITARY_ATOL``; SpecError naming ``what`` otherwise."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or dim not in (None, u.shape[0]):
        raise SpecError(f"{what} must be {'square' if dim is None else f'{dim}x{dim}'}, "
                        f"got {u.shape}")
    if spectral_norm(u.conj().T @ u - np.eye(u.shape[0])) > UNITARY_ATOL:
        raise SpecError(f"{what} is not unitary within {UNITARY_ATOL:.0e}")
    return u


def gibbs_weights(energies) -> tuple[np.ndarray, np.ndarray]:
    """Normalised Boltzmann weights e^{-(E - E_min)} / z along the last axis,
    and the shifted sums z (one per row; a scalar for one row).

    Shifting each row by its minimum keeps every exponent <= 0, so nothing
    overflows; the unshifted partition function is z * e^{-E_min}.
    """
    energies = np.asarray(energies)
    boltz = np.exp(energies.min(axis=-1, keepdims=True) - energies)
    z = boltz.sum(axis=-1)
    return np.divide(boltz, z[..., None], out=boltz), z


def tensor(a, b) -> np.ndarray:
    """Kronecker product (first factor = leftmost register)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


@dataclass(frozen=True)
class BipartiteDims:
    """Visible x hidden register split of a joint operator."""

    d_v: int
    d_h: int

    def __post_init__(self):
        if self.d_v < 1 or self.d_h < 1:
            raise SpecError("subsystem dimensions must be positive")

    @property
    def total(self) -> int:
        return self.d_v * self.d_h

    def check(self, x: np.ndarray) -> None:
        if x.shape[0] != self.total:
            raise SpecError(
                f"operator dim {x.shape[0]} != d_v*d_h = {self.d_v}*{self.d_h}"
            )


def partial_trace(x, dims: BipartiteDims, keep: str) -> np.ndarray:
    """Trace out one subsystem of a (d_v*d_h)-dim operator."""
    x = np.asarray(x, dtype=complex)
    dims.check(x)
    t = x.reshape(dims.d_v, dims.d_h, dims.d_v, dims.d_h)
    if keep == "visible":
        return np.einsum("vhwh->vw", t)
    if keep == "hidden":
        return np.einsum("vhvk->hk", t)
    raise SpecError(f"keep must be 'visible' or 'hidden', got {keep!r}")


def expectation(obs, state):
    """Tr[obs @ state], checked to be real up to a residue of 1e-10
    (relative to the trace where that exceeds 1).

    ``obs`` is one d x d matrix, giving a float, or a stack (n, d, d) of
    them, giving the n traces as an array.  With one state per block,
    ``obs`` of shape (n, X, d, d) against ``state`` of shape (X, d, d)
    gives the (n, X) traces Tr[obs[j, x] state[x]].  Each shape is one
    contraction, and the imaginary-residue check applies to each trace on
    its own.
    """
    obs = np.asarray(obs, dtype=complex)
    state = np.asarray(state, dtype=complex)
    # Tr[A B] = sum_ij A_ij B_ji: the entries of A against those of B^T
    if state.ndim == 2 and obs.ndim in (2, 3) and obs.shape[-2:] == state.shape:
        vals = obs.reshape(-1, state.size) @ state.T.ravel()  # one matrix-vector product
    elif state.ndim == 3 and obs.ndim == 4 and obs.shape[1:] == state.shape:
        vals = np.einsum("jxk,xk->jx", obs.reshape(obs.shape[:2] + (-1,)),
                         state.swapaxes(-1, -2).reshape(state.shape[0], -1))
    else:
        raise SpecError(f"shape mismatch {obs.shape} vs {state.shape}")
    return real_traces(vals) if obs.ndim > 2 else float(real_traces(vals)[0])


def real_traces(vals: np.ndarray) -> np.ndarray:
    """Real parts of traces, each real within 1e-10 (relative where it exceeds 1)."""
    if not np.abs(vals.imag).max(initial=0.0) <= 1e-10:  # every bound is >= 1e-10; NaN fails
        residue = np.abs(vals.imag) > 1e-10 * np.maximum(1.0, np.abs(vals))
        if residue.any():
            raise GuardError(f"expectation has imaginary residue {vals.imag[residue][0]:.3e}")
    return vals.real


def spectral_norm(x) -> float:
    """Largest singular value of a matrix, or of the Hermitian matrix an
    ``Eigensystem`` decomposes.

    An ``Eigensystem`` gives max(|lambda_min|, |lambda_max|) from its
    ascending eigenvalues at no further cost.  For exactly Hermitian matrix
    input (every ``hermitize`` output is) the norm is read from
    ``eigvalsh``, which costs about half an SVD; any other input pays for
    the SVD.
    """
    if isinstance(x, Eigensystem):
        return float(max(abs(x.vals[0]), abs(x.vals[-1])))
    x = np.asarray(x)
    if x.ndim == 2 and x.size and x.shape[0] == x.shape[1] and (x == x.conj().T).all():
        w = np.linalg.eigvalsh(x)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.norm(x, ord=2))
