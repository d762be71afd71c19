import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qbmgrad import (
    HIGH_PEAK_TENT,
    LOGISTIC,
    SeededSampler,
    SpecError,
    power_density,
    tail_mass_bound,
    verify_power_kernel_identity,
)
from qbmgrad.densities import (
    cdf,
    expectation_nodes,
    numeric_fourier,
    numeric_tail_mass,
    pdf,
    quantile,
)

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
        x = SeededSampler(d, 101).sample(100_000)
        tt, ww, w0 = expectation_nodes(d, T=30.0, nodes=4096)
        var = float(np.sum(ww * tt**2))
        assert abs(np.mean(x)) < 3.0 * np.sqrt(var / x.size)


def test_logistic_empirical_cdf_at_zero():
    x = SeededSampler(LOGISTIC, 7).sample(100_000)
    assert abs(np.mean(x < 0) - 0.5) < 0.01


def test_sampler_never_emits_zero():
    x = SeededSampler(HIGH_PEAK_TENT, 3).sample(200_000)
    assert np.all(x != 0.0)


def test_quantile_roundtrip_closed_forms():
    u = np.linspace(0.01, 0.99, 41)
    for d in (LOGISTIC, power_density(0.7), power_density(-0.4)):
        assert np.allclose(cdf(d, quantile(d, u)), u, atol=1e-12)


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


def test_power_kernel_identity_at_zero_gap():
    # the integral of the kernel itself is r
    assert verify_power_kernel_identity(0.5, 0.0) < 1e-8
    assert verify_power_kernel_identity(-0.25, 0.0) < 1e-8


def test_power_kernel_identity_midpoint():
    assert verify_power_kernel_identity(0.5, 2.0) < 1e-8


def test_power_kernel_identity_even_in_gap():
    assert abs(verify_power_kernel_identity(0.3, 1.7) - verify_power_kernel_identity(0.3, -1.7)) < 1e-12


def test_fourier_ties_logistic_to_log_factor():
    for u in (0.4, 1.0, 3.0):
        want = (u / 2) / np.sinh(u / 2)
        assert abs(numeric_fourier(LOGISTIC, u / 2) - want) < 1e-8


def test_power_density_validates_r():
    with pytest.raises(SpecError):
        power_density(0.0)
    with pytest.raises(SpecError):
        power_density(1.0)
