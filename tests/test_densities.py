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
    _tent_half_cdf_table,
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


def _plain_tent_quantile(u):
    """The tent quantile as one plain np.interp over the table (the oracle)."""
    grid_t, grid_f = _tent_half_cdf_table()
    u = np.asarray(u, dtype=float)
    mag = np.interp(np.abs(u - 0.5), grid_f, grid_t)
    out = np.where(u >= 0.5, mag, -mag)
    return out if out.ndim else float(out)


def _plain_tent_cdf(t):
    grid_t, grid_f = _tent_half_cdf_table()
    t = np.asarray(t, dtype=float)
    out = 0.5 + np.sign(t) * np.interp(np.abs(t), grid_t, grid_f)
    return out if out.ndim else float(out)


def test_sorted_tent_lookup_is_bit_identical_to_plain_interp():
    rng = np.random.default_rng(1717)
    edges = [0.5, 1e-16, 5e-17, 1e-300, 5e-324, 1 - 1e-16, np.nextafter(1.0, 0.0)]
    inputs = [
        rng.random(8192),  # fewer queries than table points
        rng.random((120, 100)),  # more queries than table points
        rng.random((3, 4, 5)),
        np.array(0.5),
        np.array(rng.random()),
        np.repeat(rng.random(7), 5),  # repeated values
        np.array(edges + edges[::-1]),
        rng.choice(np.array(edges), size=(30, 3)),
    ]
    for u in inputs:
        got, want = quantile(HIGH_PEAK_TENT, u), _plain_tent_quantile(u)
        assert np.shape(got) == np.shape(want) and type(got) is type(want)
        assert np.array_equal(got, want)
        t = 30.0 * (u - 0.5)  # inside and beyond the table's 14, both signs, and 0
        got, want = cdf(HIGH_PEAK_TENT, t), _plain_tent_cdf(t)
        assert np.shape(got) == np.shape(want) and type(got) is type(want)
        assert np.array_equal(got, want)
    for scalar in (0.5, 1e-16, 1 - 1e-16, 0.25):
        assert quantile(HIGH_PEAK_TENT, scalar) == _plain_tent_quantile(scalar)
        assert cdf(HIGH_PEAK_TENT, scalar) == _plain_tent_cdf(scalar)


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
