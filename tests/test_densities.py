import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmgrad.errors import SpecError
from qbmgrad.densities import (
    HIGH_PEAK_TENT,
    LOGISTIC,
    cdf,
    expectation_nodes,
    numeric_fourier,
    numeric_tail_mass,
    pdf,
    power_density,
    quantile,
    sample,
    tail_mass_bound,
    _chi2,
)

SQRT2_M1 = math.sqrt(2.0) - 1.0
ALL_KINDS = [HIGH_PEAK_TENT, LOGISTIC, power_density(0.5), power_density(-0.25)]


def test_pdf_logistic_at_zero():
    assert abs(pdf(LOGISTIC, 0.0) - np.pi / 4) < 1e-15


def test_pdf_power_half_at_zero():
    # sin(pi r) / (2 r (1 + cos(pi r))) at r = 1/2 -> 1/(2 * 1/2 * 1) = 1
    assert abs(pdf(power_density(0.5), 0.0) - 1.0) < 1e-15


def test_pdf_tent_at_one():
    # (2/pi) ln(coth(pi/2)), frozen from scalar evaluation
    assert abs(pdf(HIGH_PEAK_TENT, 1.0) - 0.05505595798253517) < 1e-15


def test_pdf_tent_singular_at_zero():
    with pytest.raises(SpecError):
        pdf(HIGH_PEAK_TENT, 0.0)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(0.01, 20.0), which=st.integers(0, 3))
def test_pdf_even_and_nonnegative(t, which):
    d = ALL_KINDS[which]
    assert pdf(d, t) == pdf(d, -t)
    assert pdf(d, t) >= 0.0


def test_sampler_mean_within_three_sigma():
    for d in ALL_KINDS[:3]:
        x = sample(d, np.random.default_rng(101), 100_000)
        tt, ww, w0 = expectation_nodes(d, T=30.0, nodes=4096)
        var = float(np.sum(ww * tt**2))
        assert abs(np.mean(x)) < 3.0 * np.sqrt(var / x.size)


def test_logistic_empirical_cdf_at_zero():
    x = sample(LOGISTIC, np.random.default_rng(7), 100_000)
    assert abs(np.mean(x < 0) - 0.5) < 0.01


def test_sampler_never_emits_zero():
    x = sample(HIGH_PEAK_TENT, np.random.default_rng(3), 200_000)
    assert np.all(x != 0.0)


def test_quantile_roundtrip_closed_forms():
    u = np.linspace(0.01, 0.99, 41)
    for d in (LOGISTIC, power_density(0.7), power_density(-0.4)):
        assert np.allclose(cdf(d, quantile(d, u)), u, atol=1e-12)


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.r or ""))
def test_quantile_rejects_points_outside_open_interval(d):
    for u in (0.0, 1.0, -0.2, 1.5, np.nan, [0.3, np.nan, 0.7], [[0.5], [1.0]]):
        with pytest.raises(SpecError, match="strictly inside"):
            quantile(d, u)


def test_tent_has_no_quantile():
    for u in (0.5, 0.25, [0.1, 0.9]):
        with pytest.raises(SpecError, match="no quantile"):
            quantile(HIGH_PEAK_TENT, u)


def _direct_chi2(z: float) -> float:
    """sum_{k odd} z^k/k^2 term by term, until the terms stop counting."""
    terms = [z**k / k**2 for k in range(1, 20_001, 2)]
    return math.fsum(terms)


@pytest.mark.parametrize("z", [0.0, 1e-300, 0.05, 0.3, 0.4, SQRT2_M1 * (1 - 1e-12), SQRT2_M1,
                               SQRT2_M1 * (1 + 1e-12), 0.45, 0.6, 0.8, 0.95, 0.99])
def test_chi2_matches_its_direct_series(z):
    assert abs(float(_chi2(z)) - _direct_chi2(z)) <= 1e-15 * _direct_chi2(z)


def test_chi2_at_one_is_the_odd_basel_sum():
    # sum_{k odd} 1/k^2 = pi^2/8, which the direct series reaches only like 1/(2K)
    assert float(_chi2(1.0)) == np.pi**2 / 8
    assert abs(_direct_chi2(1.0) - np.pi**2 / 8) < 1e-4


def test_tent_cdf_center_symmetry_and_limits():
    assert cdf(HIGH_PEAK_TENT, 0.0) == 0.5 and cdf(HIGH_PEAK_TENT, -0.0) == 0.5
    t = np.concatenate([np.geomspace(1e-300, 1e-3, 50), np.linspace(1e-3, 40.0, 2001)])
    assert np.all(np.abs(cdf(HIGH_PEAK_TENT, -t) - (1.0 - cdf(HIGH_PEAK_TENT, t))) <= 2.0**-53)
    assert cdf(HIGH_PEAK_TENT, np.inf) == 1.0 and cdf(HIGH_PEAK_TENT, -np.inf) == 0.0
    assert cdf(HIGH_PEAK_TENT, 300.0) == 1.0 and cdf(HIGH_PEAK_TENT, -300.0) == 0.0
    assert np.isnan(cdf(HIGH_PEAK_TENT, np.nan))


def test_tent_cdf_is_monotone_and_continuous_at_the_branch_point():
    half = np.geomspace(1e-12, 20.0, 40_000)
    t = np.concatenate([-half[::-1], [0.0], half])
    f = cdf(HIGH_PEAK_TENT, t)
    assert np.all(np.diff(f) >= 0.0) and f[0] < 1e-20 and f[-1] == 1.0
    # e^{-pi t} = sqrt(2) - 1 there; below it the cdf takes Landen's form
    branch = np.log1p(np.sqrt(2.0)) / np.pi
    near = np.array([np.nextafter(branch, 0.0), branch, np.nextafter(branch, 1.0)])
    f = cdf(HIGH_PEAK_TENT, near)
    assert np.all(np.diff(f) >= 0.0) and f[2] - f[0] < 1e-15


@pytest.mark.parametrize("T", [1.0, 2.0, 5.0, 10.0])
def test_tent_tail_closed_form_matches_numeric_tail(T):
    closed = (8.0 / np.pi**2) * float(_chi2(np.exp(-np.pi * T)))
    assert abs(closed / numeric_tail_mass(HIGH_PEAK_TENT, T) - 1.0) < 1e-10
    assert abs(2.0 * cdf(HIGH_PEAK_TENT, -T) - closed) <= 1e-15 * closed


def test_tail_bound_values_at_T10():
    # exact closed forms of the bounds themselves
    assert abs(tail_mass_bound(HIGH_PEAK_TENT, 10.0)
               - (16 / np.pi**2) * np.exp(-10 * np.pi)) < 1e-25
    assert abs(tail_mass_bound(LOGISTIC, 10.0) - 2 * np.exp(-10 * np.pi)) < 1e-25


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.r or ""))
@pytest.mark.parametrize("T", [1.0, 2.0, 5.0, 10.0])
def test_numeric_tail_below_bound(d, T):
    assert numeric_tail_mass(d, T) <= tail_mass_bound(d, T)


def test_tail_bound_domain_errors():
    with pytest.raises(SpecError):
        tail_mass_bound(HIGH_PEAK_TENT, 0.1)
    with pytest.raises(SpecError):
        tail_mass_bound(power_density(0.5), 0.2)


def _power_kernel(r, u):
    # r times the power density's transform at u/2, the kernel's transform at u
    return r * numeric_fourier(power_density(r), u / 2.0)


def test_power_kernel_identity_at_zero_gap():
    # the integral of the kernel itself is r
    assert abs(_power_kernel(0.5, 0.0) - 0.5) < 1e-8
    assert abs(_power_kernel(-0.25, 0.0) + 0.25) < 1e-8


def test_power_kernel_identity_midpoint():
    assert abs(_power_kernel(0.5, 2.0) - np.sinh(0.5) / np.sinh(1.0)) < 1e-8


def test_power_kernel_identity_even_in_gap():
    assert abs(_power_kernel(0.3, 1.7) - _power_kernel(0.3, -1.7)) < 1e-12


@pytest.mark.parametrize("d", ALL_KINDS, ids=lambda d: d.kind + str(d.r or ""))
def test_numeric_fourier_of_an_array_is_elementwise(d):
    omega = np.array([[0.0, -0.7], [1.3, 4.0]])
    got = numeric_fourier(d, omega)
    assert got.shape == omega.shape
    assert [[numeric_fourier(d, w) for w in row] for row in omega] == got.tolist()


def test_fourier_ties_logistic_to_log_factor():
    for u in (0.4, 1.0, 3.0):
        want = (u / 2) / np.sinh(u / 2)
        assert abs(numeric_fourier(LOGISTIC, u / 2) - want) < 1e-8


def test_power_density_validates_r():
    with pytest.raises(SpecError):
        power_density(0.0)
    with pytest.raises(SpecError):
        power_density(1.0)
