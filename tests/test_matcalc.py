import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmgrad.errors import SpecError
from qbmgrad.linalg import eigh, gibbs_weights, hermitize, spectral_norm
from qbmgrad.matcalc import (
    apply_channel,
    channel_factor,
    frechet_exp,
    frechet_log,
    frechet_power,
    thermal_derivative,
)
from qbmgrad.densities import HIGH_PEAK_TENT, LOGISTIC, numeric_fourier, power_density
from qbmgrad.verify import duhamel_frechet_exp, gibbs, resolvent_frechet_log
from conftest import rand_herm, rand_pd


def test_factor_is_one_at_zero_gap():
    for density in (HIGH_PEAK_TENT, LOGISTIC, power_density(0.3), power_density(-0.8)):
        assert channel_factor(density, 0.0) == 1.0


def test_power_factor_approaches_logistic_factor():
    u = 2.0
    f_power = channel_factor(power_density(1e-6), u)
    f_log = channel_factor(LOGISTIC, u)
    assert abs(f_power - f_log) < 1e-5


def test_exp_factor_matches_quadrature_oracle():
    # int gamma(t) e^{-2it} dt computed by density quadrature
    oracle = numeric_fourier(HIGH_PEAK_TENT, 2.0)
    assert abs(channel_factor(HIGH_PEAK_TENT, 2.0) - np.tanh(1.0)) < 1e-12
    assert abs(channel_factor(HIGH_PEAK_TENT, 2.0) - oracle) < 1e-8


@settings(max_examples=25, deadline=None)
@given(u=st.floats(0.0, 30.0), r=st.floats(-0.9, 0.9))
def test_factors_even_and_bounded(u, r):
    densities = [HIGH_PEAK_TENT, LOGISTIC]
    if abs(r) > 1e-3:
        densities.append(power_density(r))
    for density in densities:
        f = channel_factor(density, u)
        assert f == channel_factor(density, -u)
        assert 0.0 < f <= 1.0 + 1e-12


def test_channel_fixes_commuting_input(rng):
    d = np.diag([0.3, 1.1, 2.4])
    y = np.diag([1.0, -2.0, 0.5]).astype(complex)
    for density in (HIGH_PEAK_TENT, LOGISTIC, power_density(0.5)):
        out = apply_channel(density, eigh(d), y)
        assert spectral_norm(out - y) < 1e-12


def test_channel_unitality(rng):
    a = rand_pd(rng, 4)
    out = apply_channel(LOGISTIC, eigh(a), np.eye(4))
    assert spectral_norm(out - np.eye(4)) < 1e-12


def test_channel_rejects_nonpositive_anchor(rng):
    anchor = eigh(np.diag([1.0, -0.5]))
    with pytest.raises(SpecError):
        apply_channel(LOGISTIC, anchor, np.eye(2))


def test_frechet_exp_commuting_reduction():
    b = np.diag([0.2, -0.7]).astype(complex)
    h = np.diag([1.0, 2.0]).astype(complex)
    want = h @ np.diag(np.exp(np.diagonal(b).real))
    for deriv in (duhamel_frechet_exp, frechet_exp):
        assert spectral_norm(deriv(b, h) - want) < 1e-12


def test_frechet_exp_at_zero_base(rng):
    h = rand_herm(rng, 3)
    assert spectral_norm(frechet_exp(np.zeros((3, 3)), h) - h) < 1e-12


def test_frechet_exp_finite_difference(rng):
    b, h = rand_herm(rng, 3), rand_herm(rng, 3)
    eps = 1e-5
    fd = (eigh(b + eps * h).apply(np.exp) - eigh(b - eps * h).apply(np.exp)) / (2 * eps)
    for deriv in (duhamel_frechet_exp, frechet_exp):
        assert spectral_norm(deriv(b, h) - fd) < 1e-6


def test_frechet_log_commuting_reduction():
    a = np.diag([0.5, 2.0]).astype(complex)
    h = np.diag([1.0, -1.0]).astype(complex)
    assert spectral_norm(frechet_log(a, h) - h @ np.linalg.inv(a)) < 1e-12
    assert spectral_norm(frechet_log(np.eye(3), np.ones((3, 3))) - np.ones((3, 3))) < 1e-12


def test_frechet_log_requires_positive(rng):
    with pytest.raises(SpecError):
        frechet_log(np.diag([1.0, -1.0]), np.eye(2))


def test_frechet_power_commuting_reduction():
    a = np.diag([0.5, 2.0]).astype(complex)
    h = np.diag([1.0, 3.0]).astype(complex)
    r = 0.4
    want = r * np.diag(np.diagonal(a).real ** (r - 1)) @ h
    assert spectral_norm(frechet_power(a, h, r) - want) < 1e-12


def test_frechet_power_finite_difference(rng):
    for r in (-0.5, 0.3, 0.9):
        a, h = rand_pd(rng, 3), rand_herm(rng, 3)
        eps = 1e-5
        fd = (eigh(a + eps * h).power(r) - eigh(a - eps * h).power(r)) / (2 * eps)
        assert spectral_norm(frechet_power(a, h, r) - fd) < 1e-6


def test_frechet_power_rejects_bad_r(rng):
    with pytest.raises(SpecError):
        frechet_power(rand_pd(rng, 2), np.eye(2), 1.5)


def _channel_then_sandwich(d, es, y, p):
    """A^p Phi(y) A^p with the two power products dense."""
    side = es.power(p)
    return hermitize(side @ apply_channel(d, es, y) @ side)


def _channel_then_exp_anticommutator(b, h):
    """(1/2){Phi_B(H), e^B} with e^B and the anticommutator dense."""
    es = eigh(b)
    eb = es.apply(np.exp)
    ph = apply_channel(HIGH_PEAK_TENT, es, h)
    return hermitize(0.5 * (ph @ eb + eb @ ph))


@pytest.mark.parametrize("dim", [2, 4, 16])
def test_one_call_forms_match_two_step_forms(rng, dim):
    a, b, h = rand_pd(rng, dim), rand_herm(rng, dim), rand_herm(rng, dim)
    es = eigh(a)
    pairs = [(frechet_log(a, h), _channel_then_sandwich(LOGISTIC, es, h, -0.5)),
             (frechet_exp(b, h), _channel_then_exp_anticommutator(b, h)),
             (apply_channel(HIGH_PEAK_TENT, es, h, 0.25),
              _channel_then_sandwich(HIGH_PEAK_TENT, es, h, 0.25))]
    for r in (-0.5, 0.3, 0.8):
        pairs.append((frechet_power(a, h, r),
                      r * _channel_then_sandwich(power_density(r), es, h, (r - 1.0) / 2.0)))
    for got, want in pairs:
        assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: apply_channel(HIGH_PEAK_TENT, eigh(np.diag([1.0, -0.5])), np.eye(2), -0.5),
     "channel power -0.5 needs a positive definite anchor"),
    (lambda: apply_channel(HIGH_PEAK_TENT, eigh(np.diag([1.0, 0.0])), np.eye(2), 0.5),
     "channel power 0.5 needs a positive definite anchor"),
    (lambda: apply_channel(LOGISTIC, eigh(np.diag([1.0, -0.5])), np.eye(2), -0.5),
     "logistic channel needs a positive definite anchor"),
    (lambda: apply_channel(LOGISTIC, eigh(np.eye(3)), np.eye(2)),
     "dim mismatch: channel anchor 3, input 2"),
    (lambda: frechet_exp(np.diag([800.0, 0.0]), np.eye(2)),
     "matrix function undefined at an eigenvalue"),
    # a 2x2 input on a 4x4 anchor would otherwise be lifted to X (x) I_2
    (lambda: frechet_exp(np.eye(4), np.eye(2)), "dim mismatch: channel anchor 4, input 2"),
    (lambda: frechet_log(np.diag([1.0, -1.0]), np.eye(2)),
     "frechet_log needs a positive definite base point"),
    (lambda: frechet_log(np.diag([1.0, 0.0]), np.eye(2)),
     "frechet_log needs a positive definite base point"),
    (lambda: frechet_power(np.diag([1.0, -1.0]), np.eye(2), 0.3),
     "frechet_power needs a positive definite base point"),
    (lambda: thermal_derivative(eigh(np.eye(4)), np.eye(2)),
     "dim mismatch: channel anchor 4, input 2"),
])
def test_kernel_guards(call, message):
    with pytest.raises(SpecError) as exc:
        call()
    assert str(exc.value) == message


def test_thermal_derivative_diagonal_closed_form():
    g = np.diag([0.4, -0.2, 1.0]).astype(complex)
    dg = np.diag([1.0, 2.0, -0.5]).astype(complex)
    sigma = gibbs(g)
    mean = np.trace(dg @ sigma).real
    want = -sigma @ (dg - mean * np.eye(3))
    assert spectral_norm(thermal_derivative(eigh(g), dg) - want) < 1e-12


def _channel_then_anticommutator(g_spec, dg):
    """-(1/2){Phi_G(dG), sigma} + sigma <dG>_sigma, each step dense."""
    sigma = g_spec.apply(lambda w: gibbs_weights(w)[0])
    phi = apply_channel(HIGH_PEAK_TENT, g_spec, dg)
    mean = float(np.trace(dg @ sigma).real)
    return hermitize(-0.5 * (phi @ sigma + sigma @ phi) + sigma * mean)


@pytest.mark.parametrize("d", [2, 4, 16])
def test_thermal_derivative_matches_channel_then_anticommutator(rng, d):
    g, dg = rand_herm(rng, d), rand_herm(rng, d)
    got = thermal_derivative(eigh(g), dg)
    assert np.max(np.abs(got - _channel_then_anticommutator(eigh(g), dg))) < 1e-14
    assert np.array_equal(got, got.conj().T)
    with pytest.raises(SpecError, match="dim mismatch"):
        thermal_derivative(eigh(g), rand_herm(rng, d + 1))


# Independent oracles: scipy's matrix functions share no code with the
# package's eigh-based derivatives (test-only; the runtime is numpy-only).

@pytest.fixture
def scipy_linalg():
    return pytest.importorskip("scipy.linalg")


def _relative(x, ref):
    return spectral_norm(x - ref) / spectral_norm(ref)


# the production channel form and verify's reference form of each derivative
EXP_FORMS = {"duhamel": duhamel_frechet_exp, "fourier": frechet_exp}
LOG_FORMS = {"fourier": frechet_log, "resolvent": resolvent_frechet_log}


@pytest.mark.parametrize("form", list(EXP_FORMS))
def test_frechet_exp_matches_scipy_expm_frechet(rng, scipy_linalg, form):
    b, h = rand_herm(rng, 16, 0.5), rand_herm(rng, 16)
    want = scipy_linalg.expm_frechet(b, h, compute_expm=False)
    assert _relative(EXP_FORMS[form](b, h), want) < 1e-12


def _central_difference(f, a, h, eps=1e-5):
    return (f(a + eps * h) - f(a - eps * h)) / (2 * eps)


@pytest.mark.parametrize("form", list(LOG_FORMS))
def test_frechet_log_matches_scipy_logm(rng, scipy_linalg, form):
    a, h = rand_pd(rng, 16), rand_herm(rng, 16)
    fd = _central_difference(scipy_linalg.logm, a, h)
    assert _relative(LOG_FORMS[form](a, h), fd) < 1e-6


@pytest.mark.parametrize("r", [-0.5, 0.3, 0.9])
def test_frechet_power_matches_scipy_fractional_power(rng, scipy_linalg, r):
    a, h = rand_pd(rng, 16), rand_herm(rng, 16)
    fd = _central_difference(lambda x: scipy_linalg.fractional_matrix_power(x, r), a, h)
    assert _relative(frechet_power(a, h, r), fd) < 1e-6


def test_thermal_derivative_matches_scipy_expm_frechet(rng, scipy_linalg):
    # d(e^{-G}/Z) = E'/Z - e^{-G} Tr(E')/Z^2 with E' = L_exp(-G, -dG), Z = Tr e^{-G}
    g, dg = rand_herm(rng, 16, 0.5), rand_herm(rng, 16)
    e = scipy_linalg.expm(-g)
    z = np.trace(e).real
    de = scipy_linalg.expm_frechet(-g, -dg, compute_expm=False)
    want = de / z - e * np.trace(de).real / z**2
    assert _relative(thermal_derivative(eigh(g), dg), want) < 1e-12
