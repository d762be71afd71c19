"""Objective values and exact gradients for thermal-model state learning.

The objective is a relative entropy D(target || visible marginal of the
model), either the standard quantum relative entropy ("umegaki") or the
one-parameter quasi-entropy family ("tsallis", order q in (0,1) u (1,2]).

Every gradient has the same two-term shape: a model-average term
<G_j>_{sigma_vh} and a target term obtained by lifting the target state to
a joint quasi-state through a composition of
  (1) a logistic- or power-weighted modular averaging channel on sigma_v
      and a sigma_v^{-q/2} sandwich, one ``matcalc.apply_channel`` call:
      the matrix-power derivative kernel at r = 1 - q (log at q = 1),
  (2) the extension by the identity on the hidden register,
  (3) an anticommutator with sigma_vh followed by the tent-weighted
      averaging channel generated by G(theta), taken as one step
      (``matcalc.tent_of_anticommutator``): sigma_vh is diagonal in the
      eigenbasis of G, where the channel acts, so there the anticommutator
      is the Hadamard factor (w_a + w_b)/2 of the Gibbs weights and folds
      into the channel's own factor.
Steps (1) and (3) run on matcalc's one eigenbasis kernel.  Commuting
special cases (classical hidden or visible register) collapse to
per-block formulas that avoid the joint register entirely.  Their blocks
are one stack: ``lift_to_joint`` lifts all of them at once, and each term
average is one block-state ``expectation``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SpecError, SupportError
from .linalg import (
    Eigensystem,
    as_density,
    eigh,
    expectation,
    gibbs_weights,
    hermitize,
)
from .densities import LOGISTIC, power_density
from .matcalc import apply_channel, tent_of_anticommutator
from .models import CQModel, QCModel, ThermalModel

SUPPORT_FLOOR = 1e-12
PSD_CLAMP = -1e-12


@dataclass(frozen=True)
class Objective:
    """Which relative entropy to differentiate."""

    kind: str
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ("umegaki", "tsallis"):
            raise SpecError(f"unknown objective kind {self.kind!r}")
        if self.kind == "tsallis":
            if self.q is None or not (0.0 < self.q <= 2.0) or self.q == 1.0:
                raise SpecError(f"tsallis order must lie in (0,1) u (1,2], got {self.q}")
        elif self.q is not None:
            raise SpecError("umegaki objective takes no order parameter")


UMEGAKI = Objective("umegaki")


def tsallis(q: float) -> Objective:
    return Objective("tsallis", float(q))


@dataclass(frozen=True)
class GradientReport:
    """Per-parameter gradient with its two-term breakdown.

    values = first_terms - second_terms elementwise, up to rounding; for the
    tsallis objective the second term already carries the Q_q prefactor.
    ``q_overlap`` is that prefactor Q_q = Tr[rho^q sigma_v^{1-q}] when the
    gradient formula forms it (tsallis objective, quantum visible register),
    else None.
    """

    values: np.ndarray
    first_terms: np.ndarray
    second_terms: np.ndarray
    q_overlap: float | None = None

    def __post_init__(self):
        for name in ("values", "first_terms", "second_terms"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))


def _check_support(vals: np.ndarray, what: str) -> None:
    low = float(vals.min())
    if low < SUPPORT_FLOOR:
        raise SupportError(
            f"{what} has eigenvalue {low:.3e} below the support floor {SUPPORT_FLOOR:.0e}"
        )


def _check_label_support(p: np.ndarray, r: np.ndarray) -> None:
    if ((p < SUPPORT_FLOOR) & (r > 0.0)).any():
        raise SupportError("target puts mass on a label with vanishing model weight")


def psd_power(rho, q: float) -> np.ndarray:
    """rho^q with eigenvalues clamped to [0, inf) (clamp floor -1e-12)."""
    es = eigh(rho)
    if float(es.vals[0]) < PSD_CLAMP:
        raise SpecError(f"state eigenvalue {float(es.vals[0]):.3e} below PSD clamp")
    return es.apply(lambda w: np.power(np.maximum(w, 0.0), q))


@dataclass(frozen=True)
class Target:
    """A target density matrix for one objective, validated once.

    Construction runs ``as_density`` on ``rho``.  ``constant`` is its
    rho-only constant, formed on first use and kept: the entropy term
    Tr[rho ln rho] for the umegaki objective, rho^q for tsallis order q.
    The objective, its gradients and the shot estimator take their target
    through ``as_target``, so a training run against one Target validates
    and decomposes it once instead of at every step.
    """

    rho: np.ndarray
    obj: Objective = UMEGAKI

    def __post_init__(self):
        object.__setattr__(self, "rho", as_density(self.rho))

    @cached_property
    def constant(self) -> float | np.ndarray:
        if self.obj.kind == "umegaki":
            p = np.maximum(np.linalg.eigvalsh(self.rho), 0.0)
            return float(np.sum(p[p > 0.0] * np.log(p[p > 0.0])))
        return psd_power(self.rho, self.obj.q)


def as_target(rho, obj: Objective) -> Target:
    """``rho`` as a Target for ``obj``: a raw state is validated into one,
    and a Target must have been prepared for ``obj``."""
    if not isinstance(rho, Target):
        return Target(rho, obj)
    if rho.obj != obj:
        raise SpecError(f"target was prepared for {rho.obj}, not for {obj}")
    return rho


def _overlap(sigma_es: Eigensystem, rho_q: np.ndarray, q: float) -> float:
    """Tr[rho^q sigma^{1-q}] from rho^q and sigma's eigensystem."""
    return expectation(sigma_es.power(1.0 - q), rho_q)


def relative_entropy(rho, sigma, obj: Objective = UMEGAKI) -> float:
    """D(rho || sigma): umegaki Tr[rho(ln rho - ln sigma)], or the tsallis
    quasi-entropy (Tr[rho^q sigma^{1-q}] - 1)/(q - 1).

    ``rho`` is a density matrix or a ``Target`` prepared for ``obj``.
    ``sigma`` is a density matrix or its already decomposed Eigensystem
    (e.g. ``model.sigma_v_eig``); either way the support check runs on
    its eigenvalues.
    """
    target = as_target(rho, obj)
    sig_es = sigma if isinstance(sigma, Eigensystem) else eigh(as_density(sigma))
    _check_support(sig_es.vals, "second argument")
    if obj.kind == "umegaki":
        log_sigma = sig_es.apply(np.log)
        return target.constant - expectation(log_sigma, target.rho)
    q = obj.q
    return (_overlap(sig_es, target.constant, q) - 1.0) / (q - 1.0)


def lift_to_joint(model: ThermalModel | QCModel, rho, obj: Objective = UMEGAKI) -> np.ndarray:
    """Lift the target to the joint quasi-state driving the gradient.

    ``rho`` is a visible density matrix or a ``Target`` prepared for ``obj``.
    Umegaki lifts rho (unit trace out), tsallis order q lifts rho^q (trace
    Q_q out).  The output is Hermitian but need not be positive.  A ``QCModel``
    gives the stack of its block lifts, sigma_x and G's block x in place of sigma_vh and G.
    """
    target = as_target(rho, obj)
    if target.rho.shape[0] != model.dims.d_v:
        raise SpecError("input must live on the visible register")
    core = _visible_core(model.sigma_v_eig, target)
    return tent_of_anticommutator(model.g_eig, model.weights, core)


def _visible_core(sigma_v_eig: Eigensystem, target: Target) -> np.ndarray:
    """sigma_v^{-q/2} Upsilon_q(rho^q) sigma_v^{-q/2}, q = 1 for umegaki: the
    visible side of the lift.  rho^q is formed before the support check."""
    q = target.obj.q or 1.0  # umegaki is order 1, and tsallis excludes q = 1
    r_v = target.rho if q == 1.0 else target.constant
    _check_support(sigma_v_eig.vals, "visible marginal")
    if q == 2.0:  # the power-weight density degenerates to a point mass
        side = sigma_v_eig.power(-1.0)
        return hermitize(side @ r_v @ side)
    d = LOGISTIC if q == 1.0 else power_density(1.0 - q)
    return apply_channel(d, sigma_v_eig, r_v, -q / 2.0)


def _two_terms(model, target: Target, average, state) -> GradientReport:
    """Gradient of a ThermalModel or QCModel, ``average`` mapping its states
    to the term averages <G_j>: target term average(lift) minus model term
    average(state), the model term scaled by Q_q for tsallis order q."""
    first = average(lift_to_joint(model, target, target.obj))
    q = target.obj.q
    qq = None if q is None else _overlap(model.sigma_v_eig, target.constant, q)
    second = average(state) if qq is None else qq * average(state)
    return GradientReport(first - second, first, second, qq)


def gradient(model: ThermalModel, rho, obj: Objective = UMEGAKI) -> GradientReport:
    """Exact objective gradient for a fully quantum model; ``rho`` is a
    density matrix or a ``Target`` prepared for ``obj``."""
    terms = model.hamiltonian.stack
    return _two_terms(model, as_target(rho, obj), lambda s: expectation(terms, s), model.sigma_vh)


def gradient_qc(qc: QCModel, rho, obj: Objective = UMEGAKI) -> GradientReport:
    """Exact gradient for a quantum-visible / classical-hidden model.

    ``rho`` is a density matrix or a ``Target`` prepared for ``obj``.  The
    target state is expressed in the same frame as the per-block
    Hamiltonians (the declared hidden basis does not touch the visible
    register, so no rotation of rho is needed).
    """
    return _two_terms(qc, as_target(rho, obj), lambda s: expectation(qc.stack, s) @ qc.p,
                      qc.sigma_x)


def label_probs(probs, d_v: int) -> np.ndarray:
    """A target distribution over d_v visible labels, clamped at 0: entries
    down to -1e-12 and a sum within 1e-10 of 1 are rounding, a NaN is not."""
    r = np.asarray(probs, dtype=float)
    if r.shape != (d_v,):
        got = r.size if r.ndim == 1 else f"an array of shape {r.shape}"
        raise SpecError(f"target probs: expected {d_v} entries (the visible dimension), got {got}")
    if not ((r >= -1e-12).all() and abs(r.sum() - 1.0) <= 1e-10):
        raise SpecError("target probs must be a normalized nonnegative vector")
    return np.maximum(r, 0.0)


class Labels:
    """A target distribution over d_v visible labels, validated once.

    Construction runs ``label_probs``; ``probs`` holds its clamped vector,
    read-only.  ``gradient_cq``, ``cq_objective``, ``classical_objective``
    and ``classical_gradient`` take their target through ``as_labels``, so
    a training run against one Labels checks the vector once instead of at
    every step.
    """

    __slots__ = ("probs",)

    def __init__(self, probs, d_v: int):
        self.probs = label_probs(probs, d_v)
        self.probs.flags.writeable = False


def as_labels(probs, d_v: int) -> Labels:
    """``probs`` as Labels over d_v labels: Labels of that length pass as they
    are, and anything else, Labels of another length too, goes through
    ``label_probs``."""
    if isinstance(probs, Labels) and probs.probs.size == d_v:
        return probs
    return Labels(probs.probs if isinstance(probs, Labels) else probs, d_v)


def gradient_cq(cq: CQModel, target_probs, obj: Objective = UMEGAKI) -> GradientReport:
    """Exact gradient for a classical-visible / quantum-hidden model.

    The target is a probability vector over the declared visible basis, or
    its ``Labels``.
    """
    r = as_labels(target_probs, cq.dims.d_v).probs
    _check_label_support(cq.p, r)
    means = expectation(cq.stack, cq.sigma_x)  # means[j, x] = <G_h^{j,x}>_{sigma_x}
    weights, qq = r, 1.0  # umegaki; tsallis order q weights by r^q p^{1-q}, scaled by Q_q
    if obj.kind == "tsallis":
        weights = np.power(r, obj.q) * np.power(cq.p, 1.0 - obj.q)
        qq = float(np.sum(weights))
    first, second = means @ weights, qq * (means @ cq.p)
    return GradientReport(first - second, first, second)


def cq_objective(cq: CQModel, target_probs, obj: Objective = UMEGAKI) -> float:
    """Relative entropy between a label distribution (or its ``Labels``) and
    the model's p(theta)."""
    r = as_labels(target_probs, cq.dims.d_v).probs
    if obj.kind == "umegaki":
        return _label_relative_entropy(r, cq.p)
    q = obj.q
    return (float(np.sum(np.power(r, q) * np.power(cq.p, 1.0 - q))) - 1.0) / (q - 1.0)


def pgm_povm(qc: QCModel) -> tuple[np.ndarray, ...]:
    """Elements of the modular-averaged pretty-good measurement sorting the
    model blocks.

    Lambda_x = Upsilon(sigma_v^{-1/2} p_x sigma_x sigma_v^{-1/2}), one channel
    call: both steps are entrywise in sigma_v's eigenbasis, so they commute.
    Complete by construction because the weighted blocks average to sigma_v.
    """
    sig_v_es = qc.sigma_v_eig
    _check_support(sig_v_es.vals, "visible marginal")
    return tuple(apply_channel(LOGISTIC, sig_v_es, block, -0.5)
                 for block in qc.p[:, None, None] * qc.sigma_x)


def povm_probs(elements, rho) -> np.ndarray:
    """Outcome distribution q_x = Tr[Lambda_x rho] of POVM elements."""
    rho = as_density(rho)
    return np.array([expectation(e, rho) for e in elements])


def classical_distribution(tables: np.ndarray, theta) -> np.ndarray:
    """Joint Boltzmann table p(v, h) for energy tables G_j(v, h)."""
    energies = np.tensordot(np.asarray(theta, dtype=float), np.asarray(tables, dtype=float), axes=1)
    return gibbs_weights(energies.ravel())[0].reshape(energies.shape)


def classical_data_distribution(p_vh: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The data's joint table q(v) p(h|v), after ``gradient_cq``'s label
    support check; a label with q(v) = 0 gets weight 0 whatever its p(v)."""
    p_v = p_vh.sum(axis=1)
    _check_label_support(p_v, q)
    return p_vh * (q / np.where(p_v > 0.0, p_v, 1.0))[:, None]


def classical_objective(tables, theta, target_q) -> float:
    """Relative entropy D(q(v) || p_theta(v)) by exact enumeration; ``target_q``
    is a label distribution or its ``Labels``."""
    p_v = classical_distribution(tables, theta).sum(axis=1)
    return _label_relative_entropy(as_labels(target_q, p_v.size).probs, p_v)


def _label_relative_entropy(r: np.ndarray, p: np.ndarray) -> float:
    """sum_v r_v ln(r_v / p_v) over the labels with r_v > 0; +inf if such a p_v is 0."""
    mask = r > 0.0
    r, p = r[mask], p[mask]
    with np.errstate(over="ignore", divide="ignore"):  # inf ratios: p_v zero or subnormal
        logs = np.log(r / p)
        if np.isinf(logs).any():  # those terms, and only those, take ln r_v - ln p_v
            logs = np.where(np.isinf(logs), np.log(r) - np.log(p), logs)
    return float((r * logs).sum())


def classical_gradient(tables, theta, target_q) -> GradientReport:
    """Exact-enumeration gradient of D(q || p_theta) for energy tables.

    grad_j = sum_{v,h} q(v) p_theta(h|v) G_j(v,h) - sum_{v,h} p_theta(v,h) G_j(v,h),
    the first and second terms; the values contract the difference of their tables.
    ``target_q`` is a label distribution or its ``Labels``.
    """
    tables = np.asarray(tables, dtype=float)
    p_vh = classical_distribution(tables, theta)
    weights = classical_data_distribution(p_vh, as_labels(target_q, p_vh.shape[0]).probs)
    # each term is the (J, vh) x (vh,) product np.tensordot forms, without its set-up
    flat = tables.reshape(tables.shape[0], -1)
    return GradientReport(flat @ (weights - p_vh).ravel(), flat @ weights.ravel(), flat @ p_vh.ravel())
