"""A small bias/RMSE/variance benchmark grid and its report formats.

Each grid cell runs several independent seeded trials on freshly sampled
correlated-Gaussian data; variance is the population variance across trials,
so rmse^2 = bias^2 + variance holds exactly on every row.

Run: python3 demos/benchmark_report.py
"""

from dataclasses import replace

from kernelkl import BenchmarkConfig, EstimatorConfig, OptimizerConfig, emit_report, run_benchmark
from kernelkl.mine import MINE_OPTIMIZER


def main():
    cfg = BenchmarkConfig(
        estimators=("kkle", "mine"),
        dims=(1,),
        rhos=(0.2, 0.9),
        sample_count=2000,
        trials=5,
        kkle_config=EstimatorConfig(optimizer=OptimizerConfig(max_iter=500)),
        # MINE's own defaults (step 0.2, no penalty), full batch for 200 iterations
        mine_config=replace(MINE_OPTIMIZER, max_iter=200, minibatch=10**6),
        seed=0,
    )
    report = run_benchmark(cfg)

    print("Aligned table:\n")
    print(emit_report(report, format="table").decode())

    print("Identity check on every row:")
    for row in report.rows:
        residual = row.rmse**2 - (row.bias**2 + row.variance)
        print(f"  {row.estimator} rho={row.rho}: rmse^2 - (bias^2 + var) = {residual:+.2e}")

    print("\nThe same report as CSV (first two lines):")
    print("\n".join(emit_report(report, format="csv").decode().splitlines()[:2]))


if __name__ == "__main__":
    main()
