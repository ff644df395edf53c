"""Benchmark of the tailconc CLI.

    python3 bench/run.py --workload oracle-power --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --selftest                # the output checks fire

Each job is one ``tailconc curve`` call in a fresh process (``cli_job.py``),
and jobs run one after another as a single closed-loop client. A pass runs a
workload's job list once, in an order drawn from ``--seed``; the run repeats
passes until the next one would end after ``--seconds`` (at least one pass)
and reports medians over passes. The seed is also the Monte Carlo root seed.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics. With ``--trace 1`` the run makes one untraced pass, one
traced pass (``traced_job.py``: each public call in a span), for
``mc-curve`` its n = 3 jobs again at ``--workers 1``, whose CSV must be
byte-identical, and the workload-independent layer sweep (``layers.py``);
the last line holds the per-layer metrics and the spans go to
``.bench_out/``. Every job's output is checked (``check_curve``); a job that
exits non-zero or fails a check counts in ``failed``.

End-to-end timings are speed-normalised against a calibration loop run on
the job's CPU before, after and during each job (see NOMINAL_CALIBRATION_S);
single-threaded jobs run pinned to one CPU. bench/README.md has the details.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

import catalogue

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

COLUMNS = ("alpha", "c_emp", "c_emp_lo", "c_emp_hi", "c1", "c2", "c_oracle")
# c1 and c2 are closed-form or short root solves: any change beyond rounding
# is a behaviour change.
APPROX_RTOL = 1e-12
# tests/test_convolution.py freezes oracle ratios to 5e-6 absolute (about
# 5e-6 relative on ratios near one) and the unit-shift identity to 1e-6.
ORACLE_RTOL = 5e-6
IDENTITY_RTOL = 1e-6
# c_emp must lie within BAND_MULTIPLE half-widths of its reported band from
# the oracle reference. Over seeds 100-119 x 12 jobs x 40 levels the largest
# distance seen at the recording commit was 2.3 half-widths (the band is a
# normal-theory 95% band from 20 batches, and ratio-of-quantile bias adds to
# the spread at the deepest levels).
BAND_MULTIPLE = 5.0
JOB_TIMEOUT_S = 150.0
CALIBRATION_PERIOD_S = 0.5
# The host's effective CPU speed can drift by 30% over tens of seconds,
# independently on each vCPU. Each end-to-end timing is therefore scaled by
# NOMINAL_CALIBRATION_S over the mean of the calibration loops run before,
# after and (with the job stopped) during its job, on the CPU the job runs on:
# the result is seconds at the speed at which the loop takes
# NOMINAL_CALIBRATION_S. Raw times are printed beside them.
NOMINAL_CALIBRATION_S = 0.050
_CALIBRATION_DATA = np.random.default_rng(0).random(100_000)
_CALIBRATION_STREAM = np.ones(4_000_000)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Job:
    model: str
    n: int
    oracle: bool
    seed: int
    workers: int = catalogue.MC_WORKERS

    @property
    def key(self) -> str:
        return catalogue.job_key(self.model, self.n)

    @property
    def threaded(self) -> bool:
        return not self.oracle and self.workers > 1

    def cli_args(self) -> list:
        return catalogue.curve_args(self.model, self.n, oracle=self.oracle,
                                    seed=self.seed, workers=self.workers)


@dataclass
class JobRun:
    job: Job
    returncode: int
    stdout: str
    stderr: str
    t_spawn: float
    t_exit: float
    rss_mb: float
    pauses: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)
    setup: float = math.nan
    speed: float = 1.0
    problem: str | None = None
    spans: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.unpaused(self.t_exit) - self.t_spawn

    def unpaused(self, t: float) -> float:
        """Clock reading t with the job's stopped intervals before it removed."""
        return t - sum(min(b, t) - a for a, b in self.pauses if a < t)

    @property
    def failed(self) -> bool:
        return self.problem is not None


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def child_env(nproc: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in THREAD_VARS:
        try:
            given = int(env.get(var, nproc))
        except ValueError:
            given = nproc
        env[var] = str(max(1, min(given, nproc)))
    return env


class Runner:
    """Spawns child processes one at a time and records what each cost."""

    def __init__(self, env: dict, cpus: set, home: int):
        self.env = env
        self.cpus = cpus
        self.home = home

    def calibrate(self, all_cpus: bool) -> float:
        """Calibration time on the home CPU, or the mean over every CPU."""
        if not all_cpus:
            return calibration_loop()
        times = []
        try:
            for cpu in sorted(self.cpus):
                os.sched_setaffinity(0, {cpu})
                times.append(calibration_loop())
        finally:
            os.sched_setaffinity(0, {self.home})
        return statistics.mean(times)

    def spawn(self, argv: list, job: Job | None = None, calibrating: bool = False,
              all_cpus: bool = False) -> JobRun:
        """Run one child to completion. With ``calibrating``, every
        CALIBRATION_PERIOD_S the child is stopped, the calibration loop runs
        on the freed machine, and the child resumes; the stopped intervals
        are left out of its times."""
        pauses, calibrations = [], []
        with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            if all_cpus:
                os.sched_setaffinity(proc.pid, self.cpus)
            pidfd = os.pidfd_open(proc.pid)
            try:
                status = usage = None
                deadline = t_spawn + JOB_TIMEOUT_S
                while status is None:
                    wait = max(deadline - time.monotonic(), 0.0)
                    if calibrating:
                        wait = min(wait, CALIBRATION_PERIOD_S)
                    if select.select([pidfd], [], [], wait)[0]:
                        break
                    if time.monotonic() >= deadline:
                        proc.kill()
                        break
                    os.kill(proc.pid, signal.SIGSTOP)
                    _, stopped, stopped_usage = os.wait4(proc.pid, os.WUNTRACED)
                    if not os.WIFSTOPPED(stopped):
                        status, usage = stopped, stopped_usage
                        break
                    t_stop = time.monotonic()
                    calibrations.append(self.calibrate(all_cpus))
                    pauses.append((t_stop, time.monotonic()))
                    os.kill(proc.pid, signal.SIGCONT)
                if status is None:
                    _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                with contextlib.suppress(ProcessLookupError):
                    proc.kill()
                    os.kill(proc.pid, signal.SIGCONT)
                proc.wait()
                raise
            finally:
                os.close(pidfd)
            t_exit = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            run = JobRun(job, proc.returncode, out.read().decode(), err.read().decode(),
                         t_spawn, t_exit, usage.ru_maxrss / 1024.0, pauses, calibrations)
        if run.returncode != 0:
            run.problem = f"exit code {run.returncode}: {run.stderr.strip()[-300:]}"
        return run

    def cli_job(self, job: Job) -> JobRun:
        run = self.spawn([sys.executable, str(BENCH / "cli_job.py"), *job.cli_args()], job,
                         calibrating=True, all_cpus=job.threaded)
        for line in run.stderr.splitlines():
            if line.startswith("bench-ready "):
                run.setup = run.unpaused(float(line.split()[1])) - run.t_spawn
        return run

    def traced_job(self, job: Job) -> JobRun:
        kind = "oracle" if job.oracle else "mc"
        run = self.spawn([sys.executable, str(BENCH / "traced_job.py"),
                          job.model, str(job.n), kind, str(job.seed)], job,
                         calibrating=True, all_cpus=job.threaded)
        if run.returncode == 0:
            payload = json.loads(run.stdout)
            run.stdout, run.spans = payload["csv"], payload["spans"]
            for span in run.spans:
                span["start"], span["end"] = run.unpaused(span["start"]), run.unpaused(span["end"])
        return run


def _rel_close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def parse_csv(text: str) -> dict:
    lines = text.strip().splitlines()
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("missing or unexpected CSV header")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(COLUMNS) for row in rows):
        raise ValueError("ragged CSV row")
    return {c: [row[i] for row in rows] for i, c in enumerate(COLUMNS)}


def check_curve(job: Job, csv_text: str, reference: dict) -> str | None:
    """First problem with one job's CSV against the recorded reference."""
    ref = reference[job.key]
    try:
        cols = parse_csv(csv_text)
    except ValueError as exc:
        return str(exc)
    if len(cols["alpha"]) != len(ref["alpha"]):
        return f"{len(cols['alpha'])} levels, expected {len(ref['alpha'])}"
    for i, a in enumerate(ref["alpha"]):
        if not _rel_close(float(cols["alpha"][i]), float(a), 1e-15):
            return f"alpha[{i}] = {cols['alpha'][i]}, expected {a}"
        for c in ("c1", "c2"):
            got, want = cols[c][i], ref[c][i]
            if (got == "") != (want == "") or (want and not _rel_close(float(got), float(want), APPROX_RTOL)):
                return f"{c} at alpha {a}: {got!r}, reference {want!r}"
        want = float(ref["c_oracle"][i])
        if job.oracle:
            got = cols["c_oracle"][i]
            if not got or not _rel_close(float(got), want, ORACLE_RTOL):
                return f"c_oracle at alpha {a}: {got!r}, reference {want!r}"
            continue
        try:
            emp, lo, hi = (float(cols[c][i]) for c in ("c_emp", "c_emp_lo", "c_emp_hi"))
        except ValueError:
            return f"missing Monte Carlo column at alpha {a}"
        if not lo <= emp <= hi:
            return f"c_emp {emp} outside its band [{lo}, {hi}] at alpha {a}"
        if abs(emp - want) > BAND_MULTIPLE * 0.5 * (hi - lo):
            return (f"c_emp {emp} is {abs(emp - want) / (0.5 * (hi - lo)):.1f} half-bands "
                    f"from the oracle {want} at alpha {a}")
    return None


def _sum_quantiles(csv_text: str, n: int, shift: float) -> list:
    """Sum quantiles c_oracle * n * Q(alpha) for a unit-shifted xi=1/2 model."""
    cols = parse_csv(csv_text)
    return [float(c) * n * (math.exp(-0.5 * math.log1p(-float(a))) - shift)
            for a, c in zip(cols["alpha"], cols["c_oracle"])]


def check_identity(runs: list) -> None:
    """burr12 (tau=1, kappa=2) losses are pareto05 losses minus one, so the
    n-fold sum quantiles differ by exactly n. A mismatch fails the burr12 job."""
    by_key = {r.job.key: r for r in runs}
    for n in (2, 3, 4):
        par, bur = by_key.get(f"pareto05.n{n}"), by_key.get(f"burr12.n{n}")
        if par is None or bur is None or par.failed or bur.failed:
            continue
        qp = _sum_quantiles(par.stdout, n, 0.0)
        qb = _sum_quantiles(bur.stdout, n, 1.0)
        for p, b in zip(qp, qb):
            if not _rel_close(b, p - n, IDENTITY_RTOL):
                bur.problem = f"unit-shift identity: burr12 sum quantile {b!r}, pareto05 - n = {p - n!r}"
                break


def check_same_bytes(first: JobRun, second: JobRun) -> None:
    if not first.failed and not second.failed and first.stdout != second.stdout:
        second.problem = (f"CSV at --workers {second.job.workers} differs from "
                          f"--workers {first.job.workers}")


def calibration_loop() -> float:
    """Time a fixed mix of interpreted, in-cache NumPy and memory-streaming
    work (about 50 ms)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    for _ in range(24):
        np.sort(_CALIBRATION_DATA)
    for _ in range(8):
        _CALIBRATION_STREAM.sum()
    return time.perf_counter() - t0


def workload_jobs(workload: str, seed: int) -> list:
    return [Job(m, n, catalogue.is_oracle(workload), seed) for m, n in catalogue.job_list(workload, seed)]


def run_pass(runner: Runner, jobs: list, reference: dict, traced=False) -> list:
    runs = []
    before = runner.calibrate(jobs[0].threaded)
    for job in jobs:
        run = runner.traced_job(job) if traced else runner.cli_job(job)
        after = runner.calibrate(job.threaded)
        run.speed = NOMINAL_CALIBRATION_S / statistics.mean([before, *run.calibrations, after])
        before = after
        if not run.failed:
            run.problem = check_curve(job, run.stdout, reference)
        runs.append(run)
    check_identity(runs)
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(passes: list) -> dict:
    """Per-pass samples of each end-to-end metric, then of raw diagnostics."""
    samples = {"wall_s": [], "setup_s": [], "solve_s": [], "peak_rss_mb": [],
               "raw_wall_s": [], "raw_setup_s": []}
    for runs in passes:
        ok = [r for r in runs if not math.isnan(r.setup)]
        samples["wall_s"].append(sum(r.wall * r.speed for r in runs))
        samples["setup_s"].append(statistics.median(r.setup * r.speed for r in ok) if ok else math.nan)
        samples["solve_s"].append(sum((r.wall - r.setup) * r.speed for r in ok))
        samples["peak_rss_mb"].append(max(r.rss_mb for r in runs))
        samples["raw_wall_s"].append(sum(r.wall for r in runs))
        samples["raw_setup_s"].append(statistics.median(r.setup for r in ok) if ok else math.nan)
    return samples


UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB",
         "raw_wall_s": "s", "raw_setup_s": "s", "mc_sums_per_s": "sums/s", "failed_frac": "ratio"}


def summarize(workload: str, passes: list) -> tuple:
    samples = end_to_end(passes)
    runs = [r for pass_runs in passes for r in pass_runs]
    metrics = {}
    for name in ("wall_s", "setup_s", "solve_s", "peak_rss_mb"):
        values = samples[name]
        value = max(values) if name == "peak_rss_mb" else statistics.median(values)
        metrics[name] = {"value": value, "unit": UNITS[name]}
    report = dict(samples)
    if not catalogue.is_oracle(workload):
        report["mc_sums_per_s"] = [len(pass_runs) * catalogue.MC_SAMPLES / s
                                   for s, pass_runs in zip(samples["solve_s"], passes)]
    report["failed_frac"] = [sum(r.failed for r in pass_runs) / len(pass_runs) for pass_runs in passes]
    print(f"workload {workload}: {len(passes)} pass(es), {len(runs)} jobs")
    for name, values in report.items():
        q1, med, q3 = quartiles(values)
        print(f"  {name:14s} {med:14.6g} {UNITS[name]:7s} n={len(values)}  q1={q1:.6g} q3={q3:.6g}")
    return metrics, runs


def report_failures(runs: list) -> None:
    for r in runs:
        if r.failed:
            print(f"FAILED {r.job.key} (workers {r.job.workers}): {r.problem}", file=sys.stderr)


def measure(runner: Runner, workload: str, seed: int, seconds: float, reference: dict) -> dict:
    jobs = workload_jobs(workload, seed)
    passes = []
    start = time.monotonic()
    while True:
        passes.append(run_pass(runner, jobs, reference))
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    metrics, runs = summarize(workload, passes)
    report_failures(runs)
    failed = sum(r.failed for r in runs)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def self_times(spans: list) -> dict:
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for lo, hi in sorted(children.get(s["id"], [])):
            lo, hi = max(lo, reach), min(hi, s["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s["id"]] = s["end"] - s["start"] - covered
    return out


LAYER_OF = {
    "job": "startup", "import": "startup", "models.model_from_dict": "startup",
    "convolution.convolve_tail": "build",
    "convolution.oracle_quantile": "refine", "models.quantile": "refine",
    "montecarlo.empirical_concentration": "montecarlo",
    "approx.second_order_approx": "approx",
}


def trace(runner: Runner, workload: str, seed: int, reference: dict) -> dict:
    jobs = workload_jobs(workload, seed)
    plain = run_pass(runner, jobs, reference)
    traced = run_pass(runner, jobs, reference, traced=True)
    runs = plain + traced
    if not catalogue.is_oracle(workload):
        # The n = 3 jobs, one per model, again at one worker: same bytes.
        by_key = {r.job.key: r for r in plain}
        single = run_pass(runner, [replace(j, workers=1) for j in jobs if j.n == 3], reference)
        for one in single:
            check_same_bytes(by_key[one.job.key], one)
        runs += single

    # Times below are speed-normalised like the end-to-end metrics, so that
    # the untraced and traced passes, minutes apart, compare.
    spans, shares = [], {}
    overhead, self_total = 0.0, 0.0
    print(f"traced pass of {workload}: job, untraced time, traced time, sum of self times (s)")
    for job_id, (untraced, run) in enumerate(zip(plain, traced)):
        job_spans = [{"id": 0, "name": "job", "parent": None, "start": run.t_spawn,
                      "end": run.t_spawn + run.wall}]
        job_spans += run.spans
        selfs = self_times(job_spans)
        for s in job_spans:
            s["job"] = job_id
            s["job_key"] = run.job.key
            layer = LAYER_OF[s["name"]]
            shares[layer] = shares.get(layer, 0.0) + selfs[s["id"]] * run.speed
        layer_calls = sum(s["end"] - s["start"] for s in job_spans[1:]) * run.speed
        overhead += untraced.wall * untraced.speed - layer_calls
        spans += job_spans
        job_self = sum(selfs.values()) * run.speed
        self_total += job_self
        print(f"  {run.job.key:12s} {untraced.wall * untraced.speed:9.4f} "
              f"{run.wall * run.speed:9.4f} {job_self:9.4f}")
    plain_wall = sum(r.wall * r.speed for r in plain)
    traced_wall = sum(r.wall * r.speed for r in traced)
    print(f"  self times add up to {self_total:.4f} s against {plain_wall:.4f} s untraced: "
          f"tracing overhead {traced_wall - plain_wall:+.4f} s")
    print("  layer shares of traced self time: " + ", ".join(
        f"{k} {v / self_total:.1%}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])))

    sweep = runner.spawn([sys.executable, str(BENCH / "layers.py"), str(seed)], all_cpus=True)
    if sweep.failed:
        raise RuntimeError(f"layer sweep failed: {sweep.problem}")
    metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in json.loads(sweep.stdout).items()}
    imports = []
    for _ in range(5):
        r = runner.spawn([sys.executable, "-c", "import time; t = time.perf_counter(); import tailconc; "
                          "print(time.perf_counter() - t)"])
        if r.failed:
            raise RuntimeError(f"import failed: {r.problem}")
        imports.append(float(r.stdout))
    metrics["cli.import_s"] = {"value": statistics.median(imports), "unit": "s"}
    metrics["cli.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}

    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans) + "\n")
    report_failures(runs)
    failed = sum(r.failed for r in runs)
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}


def _layer_unit(name: str) -> str:
    if ".cert_err." in name:
        return "ratio"
    if ".speedup_w2." in name:
        return "x"
    for unit in ("us", "ms", "s"):
        if f"_{unit}." in name or name.endswith(f"_{unit}"):
            return unit
    raise ValueError(f"no unit for layer metric {name}")


def selftest(runner: Runner, reference: dict) -> int:
    """Show on a reduced job list that every output check fires."""
    par = runner.cli_job(Job("pareto05", 2, True, 1))
    bur = runner.cli_job(Job("burr12", 2, True, 1))
    mc2 = runner.cli_job(Job("pareto05", 2, False, 1, workers=2))
    mc1 = runner.cli_job(Job("pareto05", 2, False, 1, workers=1))
    bad_exit = runner.cli_job(Job("pareto05", 1, True, 1))
    for r in (par, bur, mc2, mc1):
        if not r.failed:
            r.problem = check_curve(r.job, r.stdout, reference)
    check_identity([par, bur])
    check_same_bytes(mc2, mc1)

    def corrupt(text: str, column: str, factor: float) -> str:
        lines = text.splitlines()
        row = lines[20].split(",")
        i = COLUMNS.index(column)
        row[i] = f"{float(row[i]) * factor:.17g}"
        lines[20] = ",".join(row)
        return "\n".join(lines) + "\n"

    def copy(run: JobRun, stdout: str) -> JobRun:
        return JobRun(run.job, run.returncode, stdout, run.stderr, run.t_spawn, run.t_exit, run.rss_mb)

    bur_bad = copy(bur, corrupt(bur.stdout, "c_oracle", 1.0 + 1e-5))
    check_identity([par, bur_bad])
    mc1_bad = copy(mc1, corrupt(mc1.stdout, "c_emp_lo", 1.0 - 1e-12))
    check_same_bytes(mc2, mc1_bad)
    cases = [
        ("clean jobs pass every check", all(not r.failed for r in (par, bur, mc2, mc1)), True),
        ("non-zero exit is a failure", bad_exit.failed and bad_exit.returncode != 0, True),
        ("perturbed c_oracle (1e-5 relative)",
         check_curve(par.job, corrupt(par.stdout, "c_oracle", 1.0 + 1e-5), reference) is not None, True),
        ("perturbed c2 (1e-10 relative)",
         check_curve(par.job, corrupt(par.stdout, "c2", 1.0 + 1e-10), reference) is not None, True),
        ("perturbed burr12 c_oracle breaks the unit-shift identity", bur_bad.failed, True),
        ("c_emp moved far outside its band",
         check_curve(mc2.job, corrupt(mc2.stdout, "c_emp", 1.5), reference) is not None, True),
        ("worker outputs that differ", mc1_bad.failed, True),
    ]
    ok = True
    for label, got, want in cases:
        ok &= got == want
        print(f"{'ok  ' if got == want else 'FAIL'} {label}")
    for r in (par, bur, mc2, mc1):
        if r.failed:
            print(f"  unexpected failure {r.job.key}: {r.problem}")
    counted = [bad_exit, bur_bad, mc1_bad]
    print(f"failed_frac over the corrupted jobs: {sum(r.failed for r in counted)}/{len(counted)}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*catalogue.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=catalogue.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "tailconc" / "cli.py").is_file():
        print(f"bench: no tailconc sources under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    cpus = os.sched_getaffinity(0)
    env["home_cpu"] = max(cpus)
    os.sched_setaffinity(0, {max(cpus)})
    runner = Runner(child_env(env["nproc"]), cpus, max(cpus))
    reference = json.loads((BENCH / "reference.json").read_text())
    print("environment " + json.dumps(env | {"seed": args.seed, "default_seed": catalogue.DEFAULT_SEED}))
    WORK.mkdir(exist_ok=True)
    try:
        if args.selftest:
            return selftest(runner, reference)
        workloads = catalogue.WORKLOADS if args.workload == "all" else [args.workload]
        for workload in workloads:
            if args.trace:
                result = trace(runner, workload, args.seed, reference)
            else:
                result = measure(runner, workload, args.seed, args.seconds, reference)
            print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
