"""Record the reference curves the benchmark's output checks compare against.

Runs ``tailconc curve --oracle --samples 0`` for every catalogue model at
n = 2, 3, 4 and stores the ``alpha``, ``c1``, ``c2`` and ``c_oracle`` columns
as printed (17 significant digits) in ``bench/reference.json``. Oracle values
for jobs outside the oracle workloads are kept too, because the Monte Carlo
check compares ``c_emp`` with them.

Run from the repository root: ``python3 bench/make_reference.py`` (about
three minutes on two cores).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import catalogue

ROOT = Path(__file__).resolve().parent.parent
COLUMNS = ("alpha", "c1", "c2", "c_oracle")


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    for model in catalogue.MODELS:
        for n in (2, 3, 4):
            args = catalogue.curve_args(model, n, oracle=True)
            proc = subprocess.run(
                [sys.executable, "-m", "tailconc.cli", *args],
                capture_output=True, text=True, env=env, cwd=ROOT, check=True,
            )
            lines = proc.stdout.strip().splitlines()
            header = lines[0].split(",")
            rows = [line.split(",") for line in lines[1:]]
            out[catalogue.job_key(model, n)] = {
                c: [row[header.index(c)] for row in rows] for c in COLUMNS
            }
            print(model, n, file=sys.stderr)
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
