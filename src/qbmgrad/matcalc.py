"""Frechet derivatives of exp/log/power and their random-evolution channels.

Each derivative is computed in its channel form: the channel averages a
unitary evolution over one of the densities in :mod:`qbmgrad.densities`,
and in the anchor eigenbasis it multiplies entry (k, l) by the Fourier
transform of its density at the spectral gap.  One eigenbasis kernel
carries every channel, sandwich and derivative: an A^p sandwich, and the
anticommutator with a W diagonal where the channel acts (W = e^{-G}/Z or
e^B), fold into that factor.  The Duhamel, resolvent and time-quadrature
forms are oracles in :mod:`qbmgrad.verify` (quadrature on |t| <= 14, 4096 nodes).
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


def _on_anchor(anchor: Eigensystem, y) -> np.ndarray:
    """y validated as a Hermitian matrix of the anchor's dimension."""
    y = as_hermitian(y)
    if y.shape[0] != anchor.dim:
        raise SpecError(f"dim mismatch: channel anchor {anchor.dim}, input {y.shape[0]}")
    return y


def _eigenbasis_kernel(vecs, x, factor) -> np.ndarray:
    """V [(V^dag (X (x) I) V) * factor] V^dag for one V or a stack of blocks
    that all take the same X, I filling the rest of V's dimension; (X (x) I) V
    contracts X with V viewed as (d_x, D^2/d_x), at d_x D^2 cost."""
    xv = np.matmul(x, vecs.reshape(vecs.shape[:-2] + (x.shape[0], -1))).reshape(vecs.shape)
    xt = vecs.conj().swapaxes(-1, -2) @ xv
    xt *= factor
    del factor  # free a caller's temporary before the two D x D products allocate
    return hermitize(vecs @ xt @ vecs.conj().swapaxes(-1, -2))


def apply_channel(d: Density, anchor: Eigensystem, y, power: float = 0.0) -> np.ndarray:
    """A^p Phi(y) A^p, Phi the average of U(t) y U(t)^dag over the density d.

    U(t) = e^{-iBt} for the high-peak tent (anchor B) and A^{-it/2} for the
    logistic and power densities (anchor A > 0).  Phi is trace-preserving
    and Hermiticity-preserving and leaves y fixed when it commutes with the
    anchor.  Exact: entry (k, l) in the anchor eigenbasis times the
    density's Fourier transform at the gap and, for a nonzero ``power`` p,
    times (a_k a_l)^p, which needs a positive definite anchor.
    """
    y = _on_anchor(anchor, y)
    positive = np.all(anchor.vals > 0.0)
    if d.kind != "high_peak_tent" and not positive:
        raise SpecError(f"{d.kind} channel needs a positive definite anchor")
    if power and not positive:
        raise SpecError(f"channel power {power} needs a positive definite anchor")
    lam = anchor.vals if d.kind == "high_peak_tent" else np.log(anchor.vals)
    factor = channel_factor(d, lam[:, None] - lam[None, :])
    if power:
        side = anchor.vals ** power
        factor *= side[:, None] * side[None, :]
    return _eigenbasis_kernel(anchor.vecs, y, factor)


def tent_of_anticommutator(eig: Eigensystem, weights, x) -> np.ndarray:
    """Tent channel of G applied to (1/2){sigma, X (x) I_h}, sigma = e^{-G}/Z,
    for G given by its eigensystem ``eig`` (one matrix or a stack of
    blocks) and the Gibbs ``weights`` w of sigma.  sigma is diagonal in G's
    eigenbasis, so the kernel's factor is (w_a + w_b)/2 * tanh-factor(l_a - l_b),
    l the eigenvalues of G."""
    lam = eig.vals
    return _eigenbasis_kernel(eig.vecs, x, 0.5 * (weights[..., :, None] + weights[..., None, :])
                              * channel_factor(HIGH_PEAK_TENT, lam[..., :, None] - lam[..., None, :]))


def frechet_exp(b, h) -> np.ndarray:
    """Derivative of the matrix exponential at b in direction h:
    (1/2){Phi_B(H), e^B}, Phi_B the tent channel: its kernel with weights e^b."""
    es = eigh(b)
    h = _on_anchor(es, h)
    with np.errstate(over="ignore"):
        eb = np.exp(es.vals)
    if not np.isfinite(eb).all():
        raise SpecError("matrix function undefined at an eigenvalue")
    return tent_of_anticommutator(es, eb, h)


def frechet_log(a, h) -> np.ndarray:
    """Derivative of the matrix logarithm at a > 0 in direction h:
    A^{-1/2} Upsilon_A(H) A^{-1/2} with Upsilon_A the logistic channel."""
    es = eigh(a)
    if np.any(es.vals <= 0.0):
        raise SpecError("frechet_log needs a positive definite base point")
    return apply_channel(LOGISTIC, es, h, -0.5)


def frechet_power(a, h, r: float) -> np.ndarray:
    """Derivative of A^r at a > 0 in direction h, r in (-1,0) u (0,1).

    r A^{(r-1)/2} Upsilon^r_A(H) A^{(r-1)/2} with the power-weighted channel.
    """
    d = power_density(r)
    es = eigh(a)
    if np.any(es.vals <= 0.0):
        raise SpecError("frechet_power needs a positive definite base point")
    return r * apply_channel(d, es, h, (r - 1.0) / 2.0)


def thermal_derivative(g_spec: Eigensystem, dg) -> np.ndarray:
    """Derivative of sigma = e^{-G}/Z along a perturbation dG of G.

    Equals -(1/2){Phi_G(dG), sigma} + sigma <dG>_sigma; traceless, and zero
    whenever dG is a multiple of the identity.  The first term is the
    tent kernel: sigma is diagonal where Phi_G acts, so the two commute.
    """
    dg = _on_anchor(g_spec, dg)
    weights = gibbs_weights(g_spec.vals)[0]
    sigma = g_spec.apply(lambda _: weights)
    mean = float(np.trace(dg @ sigma).real)
    return sigma * mean - tent_of_anticommutator(g_spec, weights, dg)

