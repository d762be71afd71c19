"""Exact and shot-based gradients for quantum Boltzmann machine training.

Code imports from the submodules (``qbmgrad.gradients``, ``qbmgrad.models``,
...); the package root re-exports nothing else.
"""

# perfbench/test_smoke.py::test_tracer_restores_bindings reads qbmgrad.eigh
from .linalg import eigh  # noqa: F401
