"""Tabulate where the second-order concentration curve crosses one.

The first-order limit n**(xi - 1) sits below one whenever xi < 1, yet at
finite levels the correction can push the curve above one, so that pooling
losses briefly looks worse than keeping them apart. This script sweeps a
Burr family with the tail index pinned at 1/2 while the second-order rate
varies across the fast, boundary, and slow regimes, plus the showcase
models, and reports the crossover level for each together with the
direction from which the curve approaches its limit.
"""

import argparse
import csv
import sys

from tailconc import (
    Burr,
    ExactHall,
    GandH,
    Pareto,
    approach_direction,
    classify_regime,
    crossover,
)

COLUMNS = (
    "label",
    "kind",
    "xi",
    "rho",
    "regime",
    "crossover_alpha",
    "direction",
    "derivative_limit",
)


def burr_with_pinned_index(kappa: float, xi: float = 0.5) -> Burr:
    """Burr(tau, kappa) has tail index 1/(tau*kappa) and rate -1/kappa, so
    tau = 1/(xi*kappa) fixes the index while kappa steers the rate."""
    return Burr(tau=1.0 / (xi * kappa), kappa=kappa)


CASES = [(f"burr_k{k:g}", burr_with_pinned_index(k)) for k in (1.0, 2.0, 4.0, 8.0)] + [
    ("pareto05", Pareto(xi=0.5)),
    ("pareto125", Pareto(xi=1.25)),
    ("burr2508", Burr(tau=0.25, kappa=8.0)),
    ("gandh", GandH(a=0.0, b=1.0, g=2.0, h=0.5)),
    ("hall_d_neg", ExactHall(c=1.0, d=-0.25, xi=0.5, rho=-0.25)),
    ("hall_d_pos", ExactHall(c=1.0, d=0.25, xi=0.5, rho=-0.25)),
]


def sweep(n: int):
    for label, model in CASES:
        info = model.second_order_info()
        regime = classify_regime(info)
        alpha_star = crossover(model, n)
        approach = approach_direction(model, n)
        yield (
            label,
            model.kind,
            "%.17g" % info.xi,
            "%.17g" % info.rho,
            regime.tag.value,
            "" if alpha_star is None else "%.7f" % alpha_star,
            approach.direction.value,
            "%g" % approach.derivative_limit,
        )


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Crossover levels of the second-order curve across models."
    )
    parser.add_argument("--n", type=int, default=2, help="number of summed losses")
    parser.add_argument("--out", help="write CSV here instead of stdout")
    args = parser.parse_args()

    handle = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        writer = csv.writer(handle)
        writer.writerow(COLUMNS)
        for row in sweep(args.n):
            writer.writerow(row)
    finally:
        if args.out:
            handle.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
