"""Per-layer timings that do not depend on the workload.

Usage: ``python3 bench/layers.py <seed>``; prints one JSON object mapping
metric name to value. Each number times one public function of one module
in this process, cold where users pay a cold cost (every oracle grid is
built once here, as a CLI call builds it once), otherwise as the median of
a few repeats.
"""

import json
import statistics
import sys
import time

import numpy as np

import tailconc
from tailconc import special

import catalogue

POINTS = 100_000
REPEATS = 3
ALPHAS = 1.0 - np.geomspace(1.0 - 0.95, 1.0 - 0.9997, 40)
# Oracle jobs timed per level: the closed-form Pareto and Burr paths at every
# n, and the two bisection-inverse models at n=2, whose n=3 builds (9-16 s)
# only the oracle-inverse workload pays.
CONVOLUTION_JOBS = [("pareto05", 2), ("pareto05", 3), ("pareto05", 4),
                    ("burr2508", 2), ("burr2508", 3), ("burr2508", 4),
                    ("gandh", 2), ("hall", 2)]
MC_MODELS = ("pareto05", "burr2508", "hall", "gandh")


def timed(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def model_metrics(seed, out):
    levels = 1.0 - np.geomspace(0.5, 1e-8, POINTS)
    for name in MC_MODELS:
        model = tailconc.model_from_dict(catalogue.MODELS[name])
        xs = np.asarray(model.quantile(levels))
        rng = np.random.default_rng(seed)
        out[f"models.{name}.quantile_s"] = timed(lambda: model.quantile(levels))
        out[f"models.{name}.tail_s"] = timed(lambda: model.tail(xs))
        out[f"models.{name}.density_s"] = timed(lambda: model.density(xs))
        out[f"models.{name}.draw_s"] = timed(lambda: model.draw(rng, POINTS))


def special_metrics(out):
    zs = np.linspace(-8.0, 8.0, 20_000).tolist()
    ps = np.linspace(1e-9, 1.0 - 1e-9, 20_000).tolist()
    out["special.normal_cdf_us"] = 1e6 * timed(lambda: [special.normal_cdf(z) for z in zs]) / len(zs)
    out["special.normal_inv_cdf_us"] = 1e6 * timed(lambda: [special.normal_inv_cdf(p) for p in ps]) / len(ps)


def convolution_metrics(out):
    for name, n in CONVOLUTION_JOBS:
        model = tailconc.model_from_dict(catalogue.MODELS[name])
        key = catalogue.job_key(name, n)
        t0 = time.perf_counter()
        grid = tailconc.convolve_tail(model, n, tailconc.GridSpec(tol=1e-10))
        out[f"convolution.build_s.{key}"] = time.perf_counter() - t0
        out[f"convolution.refine_s.{key}"] = statistics.median(
            timed(lambda: tailconc.oracle_quantile(grid, float(a)), repeats=1) for a in ALPHAS[::4]
        )
        out[f"convolution.cert_err.{key}"] = grid.certified_error


def montecarlo_metrics(seed, out):
    grid = tuple(float(a) for a in ALPHAS)
    for name in MC_MODELS:
        model = tailconc.model_from_dict(catalogue.MODELS[name])
        for n in (2, 3, 4):
            config = tailconc.SimulationConfig(n=n, samples=500_000, alpha_grid=grid, batches=1, seed=seed)
            out[f"montecarlo.batch_s.{name}.n{n}"] = timed(
                lambda: tailconc.empirical_concentration(model, config, workers=1)
            )
        config = tailconc.SimulationConfig(n=3, samples=2_000_000, alpha_grid=grid, batches=20, seed=seed)
        one, two = (
            timed(lambda: tailconc.empirical_concentration(model, config, workers=w), repeats=1)
            for w in (1, 2)
        )
        out[f"montecarlo.speedup_w2.{name}"] = one / two


def approx_metrics(out):
    for name, spec in catalogue.MODELS.items():
        model = tailconc.model_from_dict(spec)
        out[f"approx.second_order_approx_us.{name}"] = 1e6 * statistics.median(
            timed(lambda: tailconc.second_order_approx(model, float(a), 2), repeats=1) for a in ALPHAS
        )
        out[f"approx.crossover_ms.{name}"] = 1e3 * timed(lambda: tailconc.crossover(model, 2))


def main(argv) -> int:
    seed = int(argv[1])
    out = {}
    model_metrics(seed, out)
    special_metrics(out)
    approx_metrics(out)
    montecarlo_metrics(seed, out)
    convolution_metrics(out)
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
