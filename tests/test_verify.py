"""Each check of the ``qbmgrad verify`` suites as its own test id.

The suites are the one implementation of these seeded properties; a
failing check fails exactly one ``test_check[<suite>/<name>]``.
"""
import pytest

from conftest import check_id, verify_checks

CHECKS = verify_checks()
IDS = [check_id(c) for c in CHECKS]


def test_check_ids_unique():
    # pytest would silently rename a duplicated id
    assert len(set(IDS)) == len(IDS) == 57


@pytest.mark.parametrize("check", CHECKS, ids=IDS)
def test_check(check):
    assert check.passed, f"residual {check.residual:.3e} not below tol {check.tol:.1e}"
