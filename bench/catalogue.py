"""Models, workloads and job lists shared by the benchmark's scripts.

A job is one ``tailconc curve`` invocation. Every job uses the CLI defaults
(40 levels from 0.95 to 0.9997, oracle tolerance 1e-10, 20 batches, the
empirical denominator), so the argument list below is all a user would type.
"""

from __future__ import annotations

import json
import random

# Names follow tests/test_acceptance.py.
MODELS = {
    "pareto05": {"kind": "pareto", "xi": 0.5},
    "pareto125": {"kind": "pareto", "xi": 1.25},
    "burr2508": {"kind": "burr", "tau": 0.25, "kappa": 8.0},
    "burr12": {"kind": "burr", "tau": 1.0, "kappa": 2.0},
    "gandh": {"kind": "gandh", "a": 0.0, "b": 1.0, "g": 2.0, "h": 0.5},
    "hall": {"kind": "hall", "c": 1.0, "d": -0.3, "xi": 0.8, "rho": -0.4},
}

MC_SAMPLES = 10_000_000
MC_WORKERS = 2
DEFAULT_SEED = 1

# (model, n) pairs per workload. oracle-inverse keeps the two g-and-h
# levels (the pairwise g-and-h step only runs for n >= 3) and hall n=2;
# hall n=3 (13 s) and every n=4 inverse job (22-39 s) are left out so that
# all runs of every workload fit the benchmark's overall time budget.
WORKLOADS = {
    "oracle-power": [(m, n) for m in ("pareto05", "pareto125", "burr2508", "burr12") for n in (2, 3, 4)],
    "oracle-inverse": [("gandh", 2), ("gandh", 3), ("hall", 2)],
    "mc-curve": [(m, n) for m in ("pareto05", "burr2508", "hall", "gandh") for n in (2, 3, 4)],
}


def is_oracle(workload: str) -> bool:
    return workload.startswith("oracle-")


def job_key(model: str, n: int) -> str:
    return f"{model}.n{n}"


def curve_args(model: str, n: int, *, oracle: bool, seed: int = DEFAULT_SEED, workers: int = MC_WORKERS) -> list:
    """Arguments after ``tailconc`` for one oracle or Monte Carlo job."""
    args = ["curve", "--model", json.dumps(MODELS[model]), "--n", str(n)]
    if oracle:
        return args + ["--oracle", "--samples", "0"]
    return args + ["--samples", str(MC_SAMPLES), "--workers", str(workers), "--seed", str(seed)]


def job_list(workload: str, seed: int) -> list:
    """The workload's (model, n) pairs in a seed-determined order."""
    jobs = list(WORKLOADS[workload])
    random.Random(seed).shuffle(jobs)
    return jobs
