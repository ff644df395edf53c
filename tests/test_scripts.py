"""Smoke test: each script under scripts/ runs to completion on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    args = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / args[0]), *args[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (proc.stdout + proc.stderr).strip()
    if "--out-dir" in args:
        csvs = sorted(tmp_path.glob("*.csv"))
        assert len(csvs) == 3 and all(p.stat().st_size > 0 for p in csvs)
