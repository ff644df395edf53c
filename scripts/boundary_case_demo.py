"""Walk through the boundary regime on a Burr model.

Burr(tau=1, kappa=2) has tail index 1/2 and second-order rate -1/2: the
rate coincides with -(1 and the index), so neither the fast-scale nor the
slow-scale correction dominates and the two must be balanced by the model's
limit constant q = lim a(t) / b(U(t)). The script shows how the package
surfaces this: the plain coefficient call refuses the boundary pair, the
approximation estimates q from the model (here exactly 2), and the blended
correction tracks the convolution oracle while the first-order limit alone
does not. It ends with the tail-ratio diagnostic converging to its limit.
"""

import argparse
import sys

from tailconc import (
    Burr,
    BoundaryCaseError,
    classify_regime,
    correction_coefficient,
    oracle_concentration,
    second_order_approx,
    tail_ratio_diagnostic,
    tail_ratio_limit,
)


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Boundary-regime walkthrough for Burr(tau=1, kappa=2)."
    )
    parser.add_argument("--n", type=int, default=2, help="number of summed losses")
    parser.add_argument(
        "--decades", type=int, default=6, help="deepest level is 1 - 10**-decades"
    )
    args = parser.parse_args()
    n = args.n
    model = Burr(tau=1.0, kappa=2.0)
    info = model.second_order_info()

    regime = classify_regime(info)
    print(f"model: {model.kind} tau={model.tau:g} kappa={model.kappa:g}")
    print(f"tail index xi = {info.xi:g}, second-order rate rho = {info.rho:g}")
    print(f"regime: {regime.tag.value} ({regime.reason})")
    print()

    print("the plain fast/slow coefficient refuses the boundary pair:")
    try:
        correction_coefficient(info.xi, info.rho, n)
    except BoundaryCaseError as exc:
        print(f"  BoundaryCaseError: {exc}")
    print()

    probe = second_order_approx(model, 0.999, n)
    q_hat = probe.regime.q
    aux = model.auxiliary(1.0 / (1.0 - 0.999))
    coeff = probe.correction / aux
    print(f"estimated balance constant q = {q_hat:.12g}")
    print(f"blended boundary coefficient  = {coeff:.12g}")
    print(f"(for this model and n = 2 the coefficient equals sqrt(2))")
    print()

    print("second-order approximation vs convolution oracle:")
    header = f"{'alpha':>12} {'c1':>10} {'c2':>10} {'oracle':>10} {'|c2-or|':>9} {'|c1-or|':>9}"
    print(header)
    alphas = [1.0 - 10.0 ** (-k) for k in range(1, args.decades + 1)]
    for alpha, oracle in zip(alphas, oracle_concentration(model, n, alphas)):
        res = second_order_approx(model, alpha, n, q=q_hat)
        print(
            f"{alpha:>12.10g} {res.c1:>10.6f} {res.c2:>10.6f} {oracle:>10.6f} "
            f"{abs(res.c2 - oracle):>9.2e} {abs(res.c1 - oracle):>9.2e}"
        )
    print()

    limit = tail_ratio_limit(info.xi, n)
    print(f"tail-ratio diagnostic -> {limit:g} as the threshold grows:")
    for k in range(2, args.decades + 1):
        x = float(model.quantile(1.0 - 10.0 ** (-k)))
        value = float(tail_ratio_diagnostic(model, n, x))
        print(f"  tail level 1e-{k:<2d} (x = {x:>10.2f}): {value:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
