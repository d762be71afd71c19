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
MAX_DIM = 256


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average with the conjugate transpose (no validation); a stack
    (..., d, d) is averaged matrix by matrix."""
    return (a + a.conj().swapaxes(-1, -2)) / 2


def as_hermitian(a, *, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Validate a square matrix as Hermitian and symmetrize away noise.

    Asymmetry up to ``atol`` (max-abs entrywise) is treated as float noise
    and removed by averaging; larger asymmetry, and any NaN or infinite
    entry, is rejected so genuine bugs are not masked.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SpecError(f"expected a square matrix, got shape {a.shape}")
    if not 1 <= a.shape[0] <= MAX_DIM:
        raise SpecError(f"dimension {a.shape[0]} outside supported range [1, {MAX_DIM}]")
    if not np.isfinite(a).all():  # before the subtraction: inf - inf would warn
        raise SpecError("matrix has a non-finite entry")
    gap = float(np.abs(a - a.conj().T).max())
    if not gap < atol:
        raise SpecError(f"matrix is not Hermitian: max asymmetry {gap:.3e} >= {atol:.0e}")
    return hermitize(a)


def as_density(a, *, psd_floor: float = PSD_FLOOR, trace_atol: float = TRACE_ATOL) -> np.ndarray:
    """Validate a density matrix: Hermitian, PSD within floor, unit trace."""
    rho = as_hermitian(a)
    w = np.linalg.eigvalsh(rho)
    if w[0] < psd_floor:
        raise SpecError(f"state not positive semidefinite: min eigenvalue {w[0]:.3e}")
    tr = float(np.trace(rho).real)
    if abs(tr - 1.0) > trace_atol:
        raise SpecError(f"state trace {tr!r} differs from 1 by more than {trace_atol:.0e}")
    return rho


@dataclass(frozen=True)
class Eigensystem:
    """Spectral decomposition U diag(vals) U^dag with ascending eigenvalues."""

    vals: np.ndarray
    vecs: np.ndarray

    @property
    def dim(self) -> int:
        return self.vals.shape[0]

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
        """Matrix function U diag(f(vals)) U^dag for a scalar function f."""
        with np.errstate(all="ignore"):
            fw = np.asarray(f(self.vals), dtype=float)
        if not np.isfinite(fw).all():
            raise SpecError("matrix function undefined at an eigenvalue")
        return hermitize((self.vecs * fw) @ self.vecs.conj().T)

    def power(self, p: float) -> np.ndarray:
        return self.apply(lambda w: np.power(w, p))


def eigh(x, *, residual_tol: float = EIGH_RESIDUAL_TOL) -> Eigensystem:
    """Eigendecompose a Hermitian matrix, checking the reconstruction
    with ``check_reconstruction``."""
    x = as_hermitian(x)
    w, v = np.linalg.eigh(x)
    check_reconstruction(x[None], w[None], v[None], residual_tol=residual_tol)
    return Eigensystem(w, v)


def check_reconstruction(x, w, v, *, residual_tol: float = EIGH_RESIDUAL_TOL) -> None:
    """Raise GuardError unless each V diag(w) V^dag of a stack of
    eigendecompositions (w: (n, d), v: (n, d, d)) reconstructs its matrix
    of the stack x (n, d, d).

    The check bounds the spectral norm of r = V diag(w) V^dag - x by
    ``residual_tol * d``, matrix by matrix.  A Frobenius-norm screen
    accepts first, which is sound because |r|_2 <= |r|_F; only a residual
    that fails the screen pays for the SVD behind ``spectral_norm``, which
    then decides.  The screen keeps a 1e-12 relative margin so that
    rounding in either norm cannot accept a residual the spectral norm
    would reject.
    """
    r = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2) - x
    tol = residual_tol * x.shape[-1]
    parts = r.reshape(r.shape[0], -1).view(float)  # (Re, Im) pairs of each residual
    fails = np.sqrt(np.einsum("ij,ij->i", parts, parts)) > tol * (1.0 - 1e-12)
    if not fails.any():
        return
    for k in np.flatnonzero(fails):
        resid = spectral_norm(r[k])
        if resid > tol:
            raise GuardError(f"eigendecomposition residual {resid:.3e} too large")


def gibbs_weights(energies) -> tuple[np.ndarray, float]:
    """Normalised Boltzmann weights e^{-(E - E_min)} / z and the shifted sum z.

    Shifting by the minimum keeps every exponent <= 0, so nothing overflows;
    the unshifted partition function is z * e^{-E_min}.
    """
    energies = np.asarray(energies)
    boltz = np.exp(-(energies - energies.min()))
    z = float(boltz.sum())
    return boltz / z, z


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


def expectation(obs, state, *, imag_atol: float = 1e-10):
    """Tr[obs @ state], checked to be real up to a small residue.

    ``obs`` is one d x d matrix, giving a float, or a stack (n, d, d) of
    them, giving the n traces as an array from a single contraction; the
    imaginary-residue check applies to each trace on its own.
    """
    obs = np.asarray(obs, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if obs.ndim not in (2, 3) or obs.shape[-2:] != state.shape:
        raise SpecError(f"shape mismatch {obs.shape} vs {state.shape}")
    # Tr[A B] = sum_ij A_ij B_ji: one matrix-vector product over the stack
    vals = obs.reshape(-1, state.size) @ state.T.ravel()
    residue = np.abs(vals.imag) > imag_atol * np.maximum(1.0, np.abs(vals))
    if residue.any():
        raise GuardError(f"expectation has imaginary residue {vals.imag[residue][0]:.3e}")
    return vals.real if obs.ndim == 3 else float(vals[0].real)


def spectral_norm(x) -> float:
    """Largest singular value of a matrix, or of the Hermitian matrix an
    ``Eigensystem`` decomposes.

    An ``Eigensystem`` gives max(|lambda_min|, |lambda_max|) from its
    ascending eigenvalues at no further cost.  A NaN eigenvalue means the
    decomposition did not converge (LAPACK returns NaN for some sizes
    instead of failing), so it raises ``LinAlgError``, as the matrix path
    does for a matrix holding NaN.  For exactly Hermitian matrix input
    (every ``hermitize`` output is) the norm is read from ``eigvalsh``,
    which costs about half an SVD; any other input pays for the SVD.
    """
    if isinstance(x, Eigensystem):
        if np.isnan(x.vals).any():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return float(max(abs(x.vals[0]), abs(x.vals[-1])))
    x = np.asarray(x)
    if x.ndim == 2 and x.size and x.shape[0] == x.shape[1] and (x == x.conj().T).all():
        w = np.linalg.eigvalsh(x)
        return float(max(abs(w[0]), abs(w[-1])))
    return float(np.linalg.norm(x, ord=2))
