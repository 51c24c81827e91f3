"""KL divergence from samples: oracles with known answers, primal vs dual.

Run: python3 demos/kl_estimation.py
"""

import numpy as np

from kernelkl import EstimatorConfig, analytic_gaussian_kl, estimate_kl


def show(label, estimate, truth):
    print(f"  {label:<34} estimate {estimate:+.4f}   truth {truth:+.4f}   error {estimate - truth:+.4f}")


def main():
    rng = np.random.default_rng(0)
    n = 20_000
    X = rng.normal(size=(n, 1))

    print("Primal path (landmark features), N = 20000 per side:")
    r = estimate_kl(X, rng.normal(loc=1.0, size=(n, 1)))
    show("KL(N(0,1) || N(1,1))", r.kl_estimate, analytic_gaussian_kl(0, 1, 1, 1))

    r = estimate_kl(X, rng.normal(scale=2.0, size=(n, 1)))
    show("KL(N(0,1) || N(0,2))", r.kl_estimate, analytic_gaussian_kl(0, 1, 0, 2))

    r = estimate_kl(X, rng.normal(size=(n, 1)))
    show("KL(N(0,1) || N(0,1))  (self)", r.kl_estimate, 0.0)

    print("\nDual path (exact-kernel pivoted-Cholesky features) on a small sample, N = 250 per side:")
    Xs = rng.normal(size=(250, 1))
    Ys = rng.normal(loc=1.0, size=(250, 1))
    r = estimate_kl(Xs, Ys, EstimatorConfig(mode="dual"))
    show("KL(N(0,1) || N(1,1)), dual", r.kl_estimate, 0.5)
    print(f"\n  converged: {r.converged} after {r.iterations} iterations, bandwidth {r.bandwidth:.3f}")


if __name__ == "__main__":
    main()
