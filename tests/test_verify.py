"""Each check of the ``qbmgrad verify`` suites as its own test id.

The suites are the one implementation of these seeded properties; a
failing check fails exactly one ``test_check[<suite>/<name>]``.
"""
import numpy as np
import pytest

from qbmgrad import densities, verify
from qbmgrad.linalg import as_hermitian, eigh
from qbmgrad.verify import rand_herm, rand_pd, suite_densities, suite_estimator
from conftest import check_id, verify_checks

CHECKS = verify_checks()
IDS = [check_id(c) for c in CHECKS]


def test_check_ids_unique():
    # pytest would silently rename a duplicated id
    assert len(set(IDS)) == len(IDS) == 54


@pytest.mark.parametrize("check", CHECKS, ids=IDS)
def test_check(check):
    assert check.passed, f"residual {check.residual:.3e} not below tol {check.tol:.1e}"


def test_budget_check_fails_on_an_inflated_split(monkeypatch):
    # the check measures the bias, so a split too generous must fail it
    split = verify.budget_split
    checks = []
    for factor in (1.0, 10.0, 100.0):
        monkeypatch.setattr(verify, "budget_split",
                            lambda *args, f=factor: tuple(f * e for e in split(*args)))
        checks += [c for c in suite_estimator() if c.name == "budget split keeps bias below eps/2"]
    assert checks[0].residual < checks[1].residual < checks[2].residual
    assert checks[0].passed and not checks[-1].passed


def test_increments_check_fails_on_a_cdf_off_by_1e_9(monkeypatch):
    cdf = densities.cdf
    monkeypatch.setattr(densities, "cdf", lambda d, t: cdf(d, t) + 1e-9 * np.asarray(t))
    checks = [c for c in suite_densities() if c.name.startswith("cdf increments match")]
    assert len(checks) == 3 and not any(c.passed for c in checks)


def _tent_without_mixing(d, rng, n):
    """(X_1 + X_2)/2 with the uniform U dropped: sech^2(w/2), not the tent."""
    u = 1.0 - rng.random((3, n))
    return np.log(np.tan(0.5 * np.pi * u[1]) * np.tan(0.5 * np.pi * u[2])) / np.pi


@pytest.mark.parametrize("perturbed", [
    lambda d, rng, n, draw=densities.sample: 1.1 * draw(d, rng, n),
    _tent_without_mixing,
], ids=["scaled by 1.1", "U dropped"])
def test_ks_check_fails_on_a_perturbed_tent_sampler(monkeypatch, perturbed):
    name = "sampler within KS distance of cdf [high_peak_tent]"
    check = next(c for c in suite_densities() if c.name == name)
    assert check.passed
    monkeypatch.setattr(densities, "sample", perturbed)
    check = next(c for c in suite_densities() if c.name == name)
    assert not check.passed


def test_rand_pd_at_the_top_size_is_a_valid_positive_definite_matrix():
    # V e^w V^dag formed in floating point at D = 256 is asymmetric by ~3e-11,
    # above the 1e-12 validation tolerance, so rand_pd symmetrizes it
    a = rand_pd(np.random.default_rng(20240817), 256)
    assert np.array_equal(as_hermitian(a), a)
    assert 0.0 < eigh(a).vals[0] < 1e-6  # e^-(2 spread sqrt(d)) = e^-16 order, not e^-0.5


@pytest.mark.parametrize("d", [4, 64, 128])
def test_rand_pd_keeps_its_bits_where_validation_passed(d):
    def old(rng, d, spread=0.5):
        es = eigh(rand_herm(rng, d, spread))
        return as_hermitian((es.vecs * np.exp(es.vals)) @ es.vecs.conj().T)

    got, want = rand_pd(np.random.default_rng(5), d), old(np.random.default_rng(5), d)
    assert got.tobytes() == want.tobytes()
