"""Smoke test: each script under scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from tailconc.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["boundary_case_demo.py"],
        ["crossover_study.py"],
        ["make_figure_data.py", "--samples", "20000", "--decades", "2", "--per-decade", "2",
         "--workers", "1", "--oracle", "--out-dir", "{tmp}"],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv, tmp_path):
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = run_script(*args)
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout + proc.stderr).strip()
    if "--out-dir" in args:
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 3 and all(p.stat().st_size > 0 for p in csvs)


def test_figure_csvs_equal_curve_out(tmp_path):
    """Each figure CSV is what ``tailconc curve --out`` writes for the same
    model, simulation settings and level ladder (0.9 to 1 - 10**-decades)."""
    proc = run_script(
        "make_figure_data.py", "--n", "3", "--samples", "20000", "--batches", "4", "--seed", "7",
        "--workers", "2", "--decades", "3", "--per-decade", "2", "--out-dir", str(tmp_path / "fig"),
    )
    assert proc.returncode == 0, proc.stderr
    specs = {
        "pareto05": '{"kind": "pareto", "xi": 0.5}',
        "burr2508": '{"kind": "burr", "tau": 0.25, "kappa": 8.0}',
        "gandh": '{"kind": "gandh", "a": 0.0, "b": 1.0, "g": 2.0, "h": 0.5}',
    }
    for label, spec in specs.items():
        expected = tmp_path / f"{label}.csv"
        code = main(["curve", "--model", spec, "--n", "3", "--samples", "20000", "--batches", "4",
                     "--seed", "7", "--workers", "2", "--alpha-min", "0.9", "--alpha-max", "0.999",
                     "--points", "5", "--out", str(expected)])
        assert code == 0
        assert (tmp_path / "fig" / f"{label}_n3.csv").read_bytes() == expected.read_bytes()
