"""Generate concentration-curve data for the three showcase models.

For each model the script runs the batched Monte Carlo estimator over a
geometric ladder of levels approaching one, attaches the first-order limit,
the second-order approximation, and (optionally) the convolution-oracle
value, and writes one CSV per model. The CSVs are plot-ready: level on the
x axis, estimate with band plus the analytic curves on the y axis.
"""

import argparse
import csv
import os
import sys
import time

from tailconc import (
    Burr,
    GandH,
    Pareto,
    SimulationConfig,
    empirical_concentration,
    oracle_concentration,
)

MODELS = {
    "pareto05": Pareto(xi=0.5),
    "burr2508": Burr(tau=0.25, kappa=8.0),
    "gandh": GandH(a=0.0, b=1.0, g=2.0, h=0.5),
}

COLUMNS = ("alpha", "c_emp", "c_emp_lo", "c_emp_hi", "c1", "c2", "c_oracle")


def level_ladder(decades: int, per_decade: int) -> list:
    """Levels 1 - 10**(-k) spaced evenly in log10(1 - alpha)."""
    levels = []
    steps = (decades - 1) * per_decade
    for i in range(steps + 1):
        exponent = 1.0 + i / per_decade
        levels.append(1.0 - 10.0 ** (-exponent))
    return levels


def write_curve(path: str, curve, oracle_values) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for i, alpha in enumerate(curve.alphas):
            c2 = curve.c2[i]
            writer.writerow(
                [
                    "%.17g" % alpha,
                    "%.17g" % curve.c_emp[i],
                    "%.17g" % curve.band_lo[i],
                    "%.17g" % curve.band_hi[i],
                    "%.17g" % curve.c1,
                    "" if c2 != c2 else "%.17g" % c2,
                    "" if oracle_values is None else "%.17g" % oracle_values[i],
                ]
            )


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Write per-model concentration-curve CSVs for figures."
    )
    parser.add_argument("--n", type=int, default=2, help="number of summed losses")
    parser.add_argument("--samples", type=int, default=10**7, help="total draws per model")
    parser.add_argument("--batches", type=int, default=20)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--decades", type=int, default=4, help="deepest level is 1 - 10**-decades")
    parser.add_argument("--per-decade", type=int, default=4, help="grid points per decade of 1 - alpha")
    parser.add_argument("--oracle", action="store_true", help="add the convolution-oracle column")
    parser.add_argument("--out-dir", default="figure_data", help="directory for the CSVs")
    parser.add_argument(
        "--models",
        nargs="+",
        choices=sorted(MODELS),
        default=sorted(MODELS),
        help="subset of showcase models to run",
    )
    args = parser.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)
    levels = level_ladder(args.decades, args.per_decade)
    config = SimulationConfig(
        n=args.n,
        samples=args.samples,
        alpha_grid=tuple(levels),
        batches=args.batches,
        seed=args.seed,
    )

    for label in args.models:
        model = MODELS[label]
        start = time.perf_counter()
        curve = empirical_concentration(model, config, workers=args.workers)
        oracle_values = None
        if args.oracle:
            oracle_values = oracle_concentration(model, args.n, levels)
        elapsed = time.perf_counter() - start
        path = os.path.join(args.out_dir, f"{label}_n{args.n}.csv")
        write_curve(path, curve, oracle_values)
        print(
            f"{label}: {len(levels)} levels, regime {curve.regime.tag.value}, "
            f"{elapsed:.1f}s -> {path}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
