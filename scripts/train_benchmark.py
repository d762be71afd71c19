#!/usr/bin/env python3
"""Exact- vs shot-mode training on the single-qubit benchmark.

The model is G = theta Z against the target diag(0.8, 0.2); the closed-form
minimizer is theta* = 0.5 ln(0.2/0.8). Shot mode re-estimates both gradient
terms per iteration at the configured (epsilon, delta)."""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from qbmgrad.estimator import EstimatorConfig  # noqa: E402
from qbmgrad.linalg import BipartiteDims  # noqa: E402
from qbmgrad.models import ParamHamiltonian  # noqa: E402
from qbmgrad.training import QuantumProblem, TrainConfig, train  # noqa: E402

PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--epsilon", type=float, default=0.1)
    ap.add_argument("--delta", type=float, default=0.1)
    ap.add_argument("--iterations", type=int, default=80)
    ap.add_argument("--learning-rate", type=float, default=0.3)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    ham = ParamHamiltonian(dims=BipartiteDims(2, 1), terms=(PAULI_Z,), theta=np.zeros(1))
    rho = np.diag([0.8, 0.2]).astype(complex)
    theta_star = 0.5 * np.log(0.2 / 0.8)

    exact = train(QuantumProblem(ham, rho),
                  TrainConfig(learning_rate=args.learning_rate,
                              iterations=args.iterations, log_every=10))
    est = EstimatorConfig(epsilon=args.epsilon, delta_fail=args.delta, seed=args.seed)
    shot = train(QuantumProblem(ham, rho, estimator=est),
                 TrainConfig(learning_rate=args.learning_rate,
                             iterations=args.iterations, log_every=10))

    print(f"closed-form minimizer theta* = {theta_star:+.6f}")
    print(f"{'iter':>6} {'exact D':>14} {'shot D':>14}")
    shot_by_iter = {r.iteration: r for r in shot.rows}
    for row in exact.rows:
        srow = shot_by_iter.get(row.iteration)
        stext = f"{srow.objective:14.6e}" if srow else " " * 14
        print(f"{row.iteration:>6} {row.objective:14.6e} {stext}")
    print(f"exact terminal: D = {exact.final_objective:.3e}, "
          f"theta = {exact.final_theta[0]:+.6f}")
    print(f"shot  terminal: D = {shot.final_objective:.3e}, "
          f"theta = {shot.final_theta[0]:+.6f} "
          f"(within 5*eps of exact: {shot.final_objective <= exact.final_objective + 5 * args.epsilon})")


if __name__ == "__main__":
    main()
