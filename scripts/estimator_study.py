#!/usr/bin/env python3
"""Shot-count scaling study of the gradient-term estimator.

For a fixed random visible+hidden model, sweep the error target and compare
the auto-selected Hoeffding counts, the measured error, and the predicted
kappa^2/eps^2 growth."""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbmgrad.estimator import EstimatorConfig, estimate_first_term  # noqa: E402
from qbmgrad.gradients import gradient  # noqa: E402
from qbmgrad.linalg import BipartiteDims, spectral_norm  # noqa: E402
from qbmgrad.models import ParamHamiltonian, thermalize  # noqa: E402
from qbmgrad.verify import rand_herm, rand_state  # noqa: E402


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--delta", type=float, default=0.05)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    dims = BipartiteDims(2, 2)
    terms = tuple(rand_herm(rng, 4, 0.4) for _ in range(2))
    model = thermalize(ParamHamiltonian(dims=dims, terms=terms,
                                        theta=rng.uniform(-0.4, 0.4, 2)))
    rho = rand_state(rng, 2)
    g_j = terms[0]
    exact = gradient(model, rho).first_terms[0]
    print(f"kappa = {model.kappa:.3f}, |G_j| = {spectral_norm(g_j):.3f}, "
          f"exact target term = {exact:+.6f}")
    print(f"{'eps':>8} {'shots':>10} {'|err|':>10} {'stderr':>10} {'secs':>7}")
    for eps in (0.2, 0.1, 0.05, 0.025):
        cfg = EstimatorConfig(epsilon=eps, delta_fail=args.delta, seed=args.seed)
        t0 = time.perf_counter()
        mean, stderr, shots = estimate_first_term(model, rho, g_j, cfg)
        print(f"{eps:8.3f} {shots:10d} {abs(mean - exact):10.5f} "
              f"{stderr:10.5f} {time.perf_counter() - t0:7.2f}")


if __name__ == "__main__":
    main()
