"""The three even probability densities that weight random-time evolutions.

* ``high_peak_tent``  gamma(t) = (2/pi) ln|coth(pi t / 2)|   (integrable log
  singularity at t = 0; Fourier transform tanh(w/2)/(w/2))
* ``logistic``        beta(t) = (pi/4) sech^2(pi t / 2)       (scale 1/pi;
  Fourier transform at w/2 equals (w/2)/sinh(w/2))
* ``power``           beta_r(t) = sin(pi r) / (2 r (cosh(pi t) + cos(pi r)))
  for r in (-1,0) u (0,1); Fourier transform at w/2 equals
  sinh(r w / 2) / (r sinh(w / 2)).

All three concentrate essentially all mass on a constant-size interval:
the tail mass beyond [-T, T] decays like e^{-pi T}.

``numeric_fourier`` is the one numeric Fourier transform of a density
(quadrature on |t| <= 14, 4096 nodes); :mod:`qbmgrad.verify` checks the
closed-form transforms and its time-quadrature channel oracle with it.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import SpecError

LN2_OVER_PI = np.log(2.0) / np.pi
LN4_OVER_PI = np.log(4.0) / np.pi


@dataclass(frozen=True)
class Density:
    """One of the three densities; ``r`` only applies to the power kind."""

    kind: str
    r: float | None = None

    def __post_init__(self):
        if self.kind not in ("high_peak_tent", "logistic", "power"):
            raise SpecError(f"unknown density kind {self.kind!r}")
        if self.kind == "power":
            if self.r is None or not (-1.0 < self.r < 1.0) or self.r == 0.0:
                raise SpecError(f"power density needs r in (-1,0) u (0,1), got {self.r}")
        elif self.r is not None:
            raise SpecError(f"{self.kind} takes no r parameter")


HIGH_PEAK_TENT = Density("high_peak_tent")
LOGISTIC = Density("logistic")


def power_density(r: float) -> Density:
    return Density("power", float(r))


def pdf(d: Density, t) -> np.ndarray | float:
    """Density value(s) at t; the tent kind is singular (errors) at t = 0."""
    t = np.asarray(t, dtype=float)
    at = np.abs(t)
    if d.kind == "high_peak_tent":
        if np.any(at == 0.0):
            raise SpecError("high-peak tent density is singular at t = 0")
        with np.errstate(over="ignore"):
            out = (2.0 / np.pi) * np.log1p(2.0 / np.expm1(np.pi * at))
    elif d.kind == "logistic":
        e = np.exp(-np.pi * at)
        out = np.pi * e / (1.0 + e) ** 2
    else:
        c = np.cos(np.pi * d.r)
        e = np.exp(-np.pi * at)
        out = (np.sin(np.pi * d.r) / d.r) * e / (1.0 + 2.0 * c * e + e * e)
    return out if out.ndim else float(out)


def cdf(d: Density, t) -> np.ndarray | float:
    """Cumulative distribution, in closed form for every kind.

    Integrating ln coth(pi s/2) = 2 sum_{k odd} e^{-k pi s}/k term by term
    puts the tent's mass above |t| at (4/pi^2) chi2(e^{-pi|t|}).
    """
    t = np.asarray(t, dtype=float)
    if d.kind == "logistic":
        out = 1.0 / (1.0 + np.exp(-np.pi * t))
    elif d.kind == "power":
        out = 0.5 + np.arctan(np.tan(np.pi * d.r / 2.0) * np.tanh(np.pi * t / 2.0)) / (
            np.pi * d.r
        )
    else:
        tail = _chi2(np.exp(-np.pi * np.abs(t))) / (np.pi**2 / 4.0)
        out = np.where(t < 0.0, tail, 1.0 - tail)
    return out if out.ndim else float(out)


def quantile(d: Density, u) -> np.ndarray | float:
    """Inverse CDF on (0, 1) of the logistic and power kinds; the tent has
    none in closed form, and ``sample`` draws it without one."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):  # a NaN fails both comparisons
        raise SpecError("quantile argument must lie strictly inside (0, 1)")
    if d.kind == "logistic":
        out = (2.0 / np.pi) * np.arctanh(2.0 * u - 1.0)
    elif d.kind == "power":
        out = (2.0 / np.pi) * np.arctanh(
            np.tan(np.pi * d.r * (u - 0.5)) / np.tan(np.pi * d.r / 2.0)
        )
    else:
        raise SpecError("the high-peak tent has no quantile; draw it with sample")
    return out if out.ndim else float(out)


def sample(d: Density, rng: np.random.Generator, n: int) -> np.ndarray:
    """n exact draws from d, by inverse transform of n uniforms of ``rng``
    clipped into ``quantile``'s open domain (``Generator.random`` can return
    0).  The tent's transform is tanh(w/2)/(w/2) = int_0^1 sech^2(u w/2) du,
    so t = U (X_1 + X_2)/2, with U uniform and X = (2/pi) ln tan(pi u/2)
    hyperbolic-secant draws (transform sech(w)), from 3n uniforms in (0, 1]."""
    if d.kind == "high_peak_tent":
        u = 1.0 - rng.random((3, n))
        tans = np.tan((0.5 * np.pi) * u[1:])
        return u[0] * np.log(tans[0] * tans[1]) / np.pi
    return np.asarray(quantile(d, np.clip(rng.random(n), 1e-16, 1 - 1e-16)))


def tail_mass_bound(d: Density, T: float) -> float:
    """Closed-form upper bound on the mass outside [-T, T].

    tent:     (16/pi^2) e^{-pi T}   for T > ln(2)/pi
    logistic: 2 e^{-pi T}           for T > 0
    power:    (4 sin(pi r)/(pi r)) e^{-pi T}   for T >= ln(4)/pi
              (constant chosen conservatively; validated numerically)
    """
    if d.kind == "high_peak_tent":
        if T <= LN2_OVER_PI:
            raise SpecError(f"tent tail bound needs T > ln2/pi ~ {LN2_OVER_PI:.3f}")
        return (16.0 / np.pi**2) * np.exp(-np.pi * T)
    if d.kind == "logistic":
        if T <= 0.0:
            raise SpecError("logistic tail bound needs T > 0")
        return 2.0 * np.exp(-np.pi * T)
    if T < LN4_OVER_PI:
        raise SpecError(f"power tail bound needs T >= ln4/pi ~ {LN4_OVER_PI:.3f}")
    return (4.0 * np.sin(np.pi * d.r) / (np.pi * d.r)) * np.exp(-np.pi * T)


def numeric_tail_mass(d: Density, T: float) -> float:
    """Quadrature of the density over |t| > T (relative-accurate even at 1e-14):
    400-node Gauss-Legendre on [T, T + 45] and its mirror image."""
    x, w = _gl(400)
    t = 22.5 * (x + 1.0) + T
    return 2.0 * float(np.sum(22.5 * w * pdf(d, t)))


def numeric_mass(d: Density) -> float:
    """Quadrature of the density over all of R (singularity-aware), |t| <= 30."""
    t, w, w0 = expectation_nodes(d, T=30.0, nodes=4096)
    return float(np.sum(w)) + w0


def numeric_fourier(d: Density, omega) -> np.ndarray | float:
    """int pdf(t) e^{-i omega t} dt at each frequency of ``omega``, by
    4096-node quadrature on |t| <= 14 (real by evenness)."""
    t, w, w0 = expectation_nodes(d, T=14.0, nodes=4096)
    omega = np.asarray(omega, dtype=float)
    out = np.sum(w * np.cos(omega[..., None] * t), axis=-1) + w0
    return out if out.ndim else float(out)


def expectation_nodes(d: Density, *, T: float, nodes: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes/weights so that E[f(t)] ~ sum w_i f(t_i) + w0 f(0), |t| <= T.

    Smooth kinds use the trapezoid rule on [-T, T] (spectrally accurate for
    these analytic, exponentially decaying integrands).  The tent kind uses
    Gauss-Legendre in log-time near the singularity plus panels outward, and
    returns the analytically integrated mass of [-tc, tc] as ``w0``.
    """
    tc = 1e-7
    if nodes < 64:
        raise SpecError("need at least 64 quadrature nodes")
    if T <= 0:
        raise SpecError("truncation T must be positive")
    if d.kind != "high_peak_tent":
        t = np.linspace(-T, T, nodes)
        w = pdf(d, t) * (2.0 * T / (nodes - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return t, w, 0.0

    # Log-time Gauss-Legendre on [tc, min(1, T)] resolves the ln(1/t) spike.
    pieces_t, pieces_w = [], []
    inner_hi = min(1.0, T)
    n_log = max(48, nodes // 8)
    x, gw = _gl(n_log)
    a, b = -np.log(inner_hi), -np.log(tc)
    xx = 0.5 * (b - a) * x + 0.5 * (a + b)
    tt = np.exp(-xx)
    pieces_t.append(tt)
    pieces_w.append(0.5 * (b - a) * gw * tt * pdf(d, tt))
    if T > 1.0:
        n_panels = max(4, int(np.ceil(T - 1.0)))
        edges = np.linspace(1.0, T, n_panels + 1)
        n_per = max(16, nodes // (8 * n_panels))
        x, gw = _gl(n_per)
        for lo, hi in zip(edges[:-1], edges[1:]):
            tt = 0.5 * (hi - lo) * x + 0.5 * (lo + hi)
            pieces_t.append(tt)
            pieces_w.append(0.5 * (hi - lo) * gw * pdf(d, tt))
    t_half = np.concatenate(pieces_t)
    w_half = np.concatenate(pieces_w)
    # Analytic mass of [-tc, tc]: integrand ~ f(0) there (tc is tiny).
    w0 = (4.0 / np.pi) * tc * (1.0 - np.log(np.pi * tc / 2.0))
    return np.concatenate([t_half, -t_half]), np.concatenate([w_half, w_half]), w0


@functools.lru_cache(maxsize=8)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    from numpy.polynomial.legendre import leggauss  # loaded with the first nodes

    return leggauss(n)


def _chi2(z) -> np.ndarray:
    """Legendre's chi function sum_{k odd} z^k/k^2 for z in [0, 1].

    Above sqrt(2) - 1 it reflects through Landen's identity chi2(z) +
    chi2(w) = pi^2/8 - ln(z) ln(w)/2, w = (1 - z)/(1 + z) (= tanh(pi t/2) at
    z = e^{-pi t}), so 24 odd terms at ratio w^2 <= 3 - 2 sqrt(2) suffice.
    """
    z = np.asarray(z, dtype=float)
    reflect = z > np.sqrt(2.0) - 1.0
    w = np.where(reflect, (1.0 - z) / (1.0 + z), z)
    series = np.zeros_like(w)
    for k in range(47, 0, -2):  # Horner in w^2, from the smallest term
        series = series * (w * w) + 1.0 / k**2
    log_zw = np.log(np.where(reflect, z, 1.0)) * np.log(np.where(reflect & (w > 0.0), w, 1.0))
    return np.where(reflect, np.pi**2 / 8.0 - 0.5 * log_zw - w * series, w * series)
