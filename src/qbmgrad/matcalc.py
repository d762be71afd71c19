"""Frechet derivatives of exp/log/power and their random-evolution channels.

Each derivative is computed in its channel form: the channel averages a
unitary evolution over one of the densities in :mod:`qbmgrad.densities`,
and in the anchor eigenbasis it multiplies entry (k, l) by the Fourier
transform of its density at the spectral gap, so the one evaluation path
is spectral and exact.  The Duhamel, resolvent and time-quadrature forms
are oracles in :mod:`qbmgrad.verify` (quadrature on |t| <= 14, 4096 nodes).
The tent channel of (1/2){sigma, X} for sigma = e^{-G}/Z, on one G or a
stack of blocks, has one kernel, which the lift and thermal_derivative share.
"""
from __future__ import annotations

import numpy as np

from .densities import HIGH_PEAK_TENT, LOGISTIC, Density, power_density
from .errors import SpecError
from .linalg import Eigensystem, as_hermitian, eigh, gibbs_weights, hermitize

DEGENERATE_GAP_RTOL = 1e-10


def channel_factor(d: Density, u) -> np.ndarray | float:
    """Fourier transform of the channel's density at spectral gap u.

    high_peak_tent -> tanh(u/2) / (u/2)
    logistic       -> (u/2) / sinh(u/2)
    power(r)       -> sinh(r u / 2) / (r sinh(u / 2))

    All are even in u and equal 1 in the u -> 0 limit.
    """
    u = np.asarray(u, dtype=float)
    mag = np.abs(u)
    small = mag < DEGENERATE_GAP_RTOL * max(1.0, float(mag.max(initial=0.0)))
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


def _gaps(d: Density, anchor: Eigensystem) -> np.ndarray:
    if d.kind == "high_peak_tent":
        lam = anchor.vals
        return lam[:, None] - lam[None, :]
    if np.any(anchor.vals <= 0.0):
        raise SpecError(f"{d.kind} channel needs a positive definite anchor")
    loglam = np.log(anchor.vals)
    return loglam[:, None] - loglam[None, :]


def apply_channel(d: Density, anchor: Eigensystem, y) -> np.ndarray:
    """Average of U(t) y U(t)^dag over the density d.

    U(t) = e^{-iBt} for the high-peak tent (anchor B) and A^{-it/2} for the
    logistic and power densities (anchor A > 0).  Trace-preserving and
    Hermiticity-preserving; leaves y fixed when it commutes with the anchor.
    Exact: entry (k, l) in the anchor eigenbasis times the density's Fourier
    transform at the gap.
    """
    y = as_hermitian(y)
    if y.shape[0] != anchor.dim:
        raise SpecError(f"dim mismatch: channel anchor {anchor.dim}, input {y.shape[0]}")
    yt = anchor.vecs.conj().T @ y @ anchor.vecs
    yt *= channel_factor(d, _gaps(d, anchor))
    return hermitize(anchor.vecs @ yt @ anchor.vecs.conj().T)


def tent_of_anticommutator(vals, vecs, weights, x) -> np.ndarray:
    """Tent channel of G applied to (1/2){sigma, X (x) I_h}, sigma = e^{-G}/Z,
    for G given by its eigendata (``vals`` ascending, ``vecs``, the Gibbs
    ``weights`` of sigma) as one matrix or as a stack of blocks that all
    take the same d_v x d_v X; I_h fills the rest of G's dimension.

    sigma shares the eigenvectors V of G, so with X~ = V^dag (X (x) I_h) V
    the result is V [X~ * (w_a + w_b)/2 * tanh-factor(l_a - l_b)] V^dag,
    w the Gibbs weights and l the eigenvalues of G.  (X (x) I_h) V
    contracts X with V viewed as (d_v, D^2/d_v), at d_v D^2 cost.
    """
    xv = np.matmul(x, vecs.reshape(vecs.shape[:-2] + (x.shape[0], -1))).reshape(vecs.shape)
    xt = vecs.conj().swapaxes(-1, -2) @ xv
    xt *= 0.5 * (weights[..., :, None] + weights[..., None, :]) * channel_factor(
        HIGH_PEAK_TENT, vals[..., :, None] - vals[..., None, :])
    return hermitize(vecs @ xt @ vecs.conj().swapaxes(-1, -2))


def frechet_exp(b, h) -> np.ndarray:
    """Derivative of the matrix exponential at b in direction h:
    (1/2){Phi_B(H), e^B} with Phi_B the tent-weighted channel."""
    es = eigh(b)
    h = as_hermitian(h)
    eb = es.apply(np.exp)
    ph = apply_channel(HIGH_PEAK_TENT, es, h)
    return hermitize(0.5 * (ph @ eb + eb @ ph))


def frechet_log(a, h) -> np.ndarray:
    """Derivative of the matrix logarithm at a > 0 in direction h:
    A^{-1/2} Upsilon_A(H) A^{-1/2} with Upsilon_A the logistic channel."""
    es = eigh(a)
    if np.any(es.vals <= 0.0):
        raise SpecError("frechet_log needs a positive definite base point")
    h = as_hermitian(h)
    inv_sqrt = es.power(-0.5)
    return hermitize(inv_sqrt @ apply_channel(LOGISTIC, es, h) @ inv_sqrt)


def frechet_power(a, h, r: float) -> np.ndarray:
    """Derivative of A^r at a > 0 in direction h, r in (-1,0) u (0,1).

    r A^{(r-1)/2} Upsilon^r_A(H) A^{(r-1)/2} with the power-weighted channel.
    """
    d = power_density(r)
    es = eigh(a)
    if np.any(es.vals <= 0.0):
        raise SpecError("frechet_power needs a positive definite base point")
    h = as_hermitian(h)
    side = es.power((r - 1.0) / 2.0)
    return hermitize(r * side @ apply_channel(d, es, h) @ side)


def thermal_derivative(g_spec: Eigensystem, dg) -> np.ndarray:
    """Derivative of sigma = e^{-G}/Z along a perturbation dG of G.

    Equals -(1/2){Phi_G(dG), sigma} + sigma <dG>_sigma; traceless, and zero
    whenever dG is a multiple of the identity.  The first term is the
    tent kernel: sigma is diagonal where Phi_G acts, so the two commute.
    """
    dg = as_hermitian(dg)
    if dg.shape[0] != g_spec.dim:
        raise SpecError(f"dim mismatch: channel anchor {g_spec.dim}, input {dg.shape[0]}")
    weights = gibbs_weights(g_spec.vals)[0]
    sigma = g_spec.apply(lambda _: weights)
    mean = float(np.trace(dg @ sigma).real)
    return sigma * mean - tent_of_anticommutator(g_spec.vals, g_spec.vecs, weights, dg)

