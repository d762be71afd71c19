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
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import SpecError

LN2_OVER_PI = np.log(2.0) / np.pi
LN4_OVER_PI = np.log(4.0) / np.pi

_TENT_GRID_POINTS = 10_000
_TENT_GRID_LO = 1e-8
_TENT_GRID_HI = 14.0


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
    """Cumulative distribution; closed form except for the tent kind."""
    t = np.asarray(t, dtype=float)
    if d.kind == "logistic":
        out = 1.0 / (1.0 + np.exp(-np.pi * t))
    elif d.kind == "power":
        out = 0.5 + np.arctan(np.tan(np.pi * d.r / 2.0) * np.tanh(np.pi * t / 2.0)) / (
            np.pi * d.r
        )
    else:
        grid_t, grid_f = _tent_half_cdf_table()
        out = 0.5 + np.sign(t) * _sorted_interp(np.abs(t), grid_t, grid_f)
    return out if out.ndim else float(out)


def quantile(d: Density, u) -> np.ndarray | float:
    """Inverse CDF on (0, 1); closed form except for the tent kind.

    The tent kind inverts a 10,000-point table, looked up with its queries
    sorted (see ``_sorted_interp``) so a draw costs no binary search.
    """
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
        grid_t, grid_f = _tent_half_cdf_table()
        mag = _sorted_interp(np.abs(u - 0.5), grid_f, grid_t)
        out = np.where(u >= 0.5, mag, -mag)
    return out if out.ndim else float(out)


@dataclass
class SeededSampler:
    """Deterministic inverse-transform sampler for one density.

    Single-owner stream: draws advance internal RNG state, so two samplers
    built with the same density and seed draw the same sequence.
    """

    density: Density
    seed: int
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        self._rng = np.random.default_rng(self.seed)

    def sample(self, n: int | None = None) -> np.ndarray | float:
        u = self._rng.random(n if n is not None else 1)
        u = np.clip(u, 1e-16, 1.0 - 1e-16)
        t = quantile(self.density, u)
        return t if n is not None else float(t[0])


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


def numeric_tail_mass(d: Density, T: float, *, span: float = 45.0, n: int = 400) -> float:
    """Quadrature of the density over |t| > T (relative-accurate even at 1e-14)."""
    x, w = _gl(n)
    t = 0.5 * span * (x + 1.0) + T
    return 2.0 * float(np.sum(0.5 * span * w * pdf(d, t)))


def numeric_mass(d: Density, *, T: float = 30.0) -> float:
    """Quadrature of the density over all of R (singularity-aware)."""
    t, w, w0 = expectation_nodes(d, T=T, nodes=4096)
    return float(np.sum(w)) + w0


def numeric_fourier(d: Density, omega: float, *, T: float = 14.0, nodes: int = 4096) -> float:
    """int pdf(t) e^{-i omega t} dt by quadrature (real by evenness)."""
    t, w, w0 = expectation_nodes(d, T=T, nodes=nodes)
    return float(np.sum(w * np.cos(omega * t))) + w0


def expectation_nodes(
    d: Density, *, T: float, nodes: int, tc: float = 1e-7
) -> tuple[np.ndarray, np.ndarray, float]:
    """Nodes/weights so that E[f(t)] ~ sum w_i f(t_i) + w0 f(0), |t| <= T.

    Smooth kinds use the trapezoid rule on [-T, T] (spectrally accurate for
    these analytic, exponentially decaying integrands).  The tent kind uses
    Gauss-Legendre in log-time near the singularity plus panels outward, and
    returns the analytically integrated mass of [-tc, tc] as ``w0``.
    """
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


def verify_power_kernel_identity(r: float, u: float, *, T: float = 12.0, nodes: int = 8193) -> float:
    """Residual of the Fourier identity for the power-weight kernel.

    Checks | int_{-T}^{T} g_r(t) e^{-i u t / 2} dt - sinh(r u / 2)/sinh(u / 2) |
    with g_r(t) = r * beta_r(t); the right side means r at u = 0.
    """
    if not (-1.0 < r < 1.0) or r == 0.0:
        raise SpecError("r must lie in (-1,0) u (0,1)")
    d = power_density(r)
    t = np.linspace(-T, T, nodes)
    w = np.full(nodes, 2.0 * T / (nodes - 1))
    w[0] *= 0.5
    w[-1] *= 0.5
    integral = float(np.sum(w * r * pdf(d, t) * np.cos(u * t / 2.0)))
    target = r if u == 0.0 else np.sinh(r * u / 2.0) / np.sinh(u / 2.0)
    return abs(integral - target)


@functools.lru_cache(maxsize=8)
def _gl(n: int) -> tuple[np.ndarray, np.ndarray]:
    return leggauss(n)


def _sorted_interp(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp)`` bit for bit, evaluated on the sorted queries.

    np.interp brackets and interpolates each query on its own, but starts
    its search at the previous query's bracket; sorted queries land in or
    next to that bracket and skip the ~14-step binary search of a random one.
    """
    flat = x.ravel()
    order = np.argsort(flat)
    out = np.empty_like(flat)
    out[order] = np.interp(flat[order], xp, fp)
    return out.reshape(x.shape)


@functools.lru_cache(maxsize=1)
def _tent_half_cdf_table() -> tuple[np.ndarray, np.ndarray]:
    """Grid (t_j, F(t_j) - 1/2) for t > 0, log-spaced, GL-integrated."""
    grid = np.geomspace(_TENT_GRID_LO, _TENT_GRID_HI, _TENT_GRID_POINTS)
    # analytic head: int_0^c ln coth(pi s/2) ds ~ c (1 - ln(pi c / 2))
    head = (2.0 / np.pi) * _TENT_GRID_LO * (1.0 - np.log(np.pi * _TENT_GRID_LO / 2.0))
    x, w = _gl(8)
    lo, hi = grid[:-1], grid[1:]
    mid = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * x[None, :]
    inc = 0.5 * (hi - lo) * np.sum(w[None, :] * pdf(HIGH_PEAK_TENT, mid), axis=1)
    cum = head + np.concatenate([[0.0], np.cumsum(inc)])
    return grid, cum
