"""Each check of the ``qbmgrad verify`` suites as its own test id.

The suites are the one implementation of these seeded properties; a
failing check fails exactly one ``test_check[<suite>/<name>]``.
"""
import pytest

from qbmgrad import estimator
from qbmgrad.verify import suite_estimator
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
    split = estimator.budget_split
    checks = []
    for factor in (1.0, 10.0, 100.0):
        monkeypatch.setattr(estimator, "budget_split",
                            lambda *args, f=factor: tuple(f * e for e in split(*args)))
        checks += [c for c in suite_estimator() if c.name == "budget split keeps bias below eps/2"]
    assert checks[0].residual < checks[1].residual < checks[2].residual
    assert checks[0].passed and not checks[-1].passed
