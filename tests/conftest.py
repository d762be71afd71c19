import functools

import numpy as np
import pytest

from qbmgrad.linalg import as_hermitian, tensor
from qbmgrad.verify import (  # the generators are re-exported to the tests
    SUITES,
    block_hidden_terms,
    rand_herm,
    rand_model,
    rand_pd,
    rand_state,
    rand_unitary,
    run_suites,
    unitary_noise,
)

# the tests draw theta from [-0.5, 0.5]; the verify suites from [-0.6, 0.6]
rand_model = functools.partial(rand_model, theta_scale=0.5)


def block_visible_terms(rng, d_v, d_h, n_terms, basis):
    """Terms of the form sum_x |x><x|_v (x) B_{j,x} over the given basis."""
    terms = []
    for _ in range(n_terms):
        t = np.zeros((d_v * d_h, d_v * d_h), dtype=complex)
        for x in range(d_v):
            proj = np.outer(basis[:, x], basis[:, x].conj())
            t += tensor(proj, rand_herm(rng, d_h, 0.5))
        terms.append(as_hermitian(t))
    return tuple(terms)


def check_id(check) -> str:
    return f"{check.suite}/{check.name}"


@functools.cache
def verify_checks() -> tuple:
    """Every check of the ``verify`` suites, run once per session."""
    return tuple(run_suites(list(SUITES)))


def verify_check(name: str):
    """The ``verify`` check with id ``suite/name``."""
    return next(c for c in verify_checks() if check_id(c) == name)


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


@pytest.fixture
def rng():
    return np.random.default_rng(20_240_817)
