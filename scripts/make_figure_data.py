"""Generate concentration-curve data for the three showcase models.

For each model the script runs ``tailconc curve --out`` over a geometric
ladder of levels from 0.9 to 1 - 10**-decades, with the Monte Carlo estimate
and band, the first-order limit, the second-order approximation and
(optionally) the convolution-oracle value, and writes one CSV per model.
The CSVs are plot-ready: level on the x axis, estimate with band plus the
analytic curves on the y axis.
"""

import argparse
import os
import sys

from tailconc.cli import main as tailconc_main

MODELS = {
    "pareto05": '{"kind": "pareto", "xi": 0.5}',
    "burr2508": '{"kind": "burr", "tau": 0.25, "kappa": 8.0}',
    "gandh": '{"kind": "gandh", "a": 0.0, "b": 1.0, "g": 2.0, "h": 0.5}',
}


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
    for label in args.models:
        path = os.path.join(args.out_dir, f"{label}_n{args.n}.csv")
        argv = [
            "curve", "--model", MODELS[label], "--n", str(args.n),
            "--samples", str(args.samples), "--batches", str(args.batches),
            "--seed", str(args.seed), "--workers", str(args.workers),
            "--alpha-min", "0.9", "--alpha-max", str(1.0 - 10.0**-args.decades),
            "--points", str((args.decades - 1) * args.per_decade + 1),
            *(["--oracle"] if args.oracle else []), "--out", path,
        ]
        code = tailconc_main(argv)
        if code:
            return code
        print(f"{label} -> {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
