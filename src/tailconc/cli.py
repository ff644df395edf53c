"""Command-line surface.

Subcommands: ``info`` (model and regime summary), ``curve`` (concentration
ratio over a level grid: Monte Carlo estimate with uncertainty band,
first/second-order approximations, optional convolution oracle),
``crossover`` (level where the second-order curve crosses one), and ``diag``
(tail-ratio and auxiliary-function convergence diagnostics).

Exit codes: 0 success, 1 usage/parse errors, 2 domain errors, 3 certified
numeric precision failures. CSV output is schema-stable: fixed column
order, reals with 17 significant digits, empty strings for absent
optionals. JSON output mirrors the CSV columns as arrays plus a metadata
block. Regime classification and the degeneracy flag go to standard error
so they never pollute the data artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

import numpy as np

from . import __version__, approx, convolution
from .errors import (
    DomainError,
    PrecisionError,
    ResourceLimitError,
    TailconcError,
)
from .models import LossModel, model_from_dict, model_to_dict
from .montecarlo import DenominatorMode, SimulationConfig, empirical_concentration

__all__ = ["main", "main_entry"]

_CURVE_COLUMNS = ("alpha", "c_emp", "c_emp_lo", "c_emp_hi", "c1", "c2", "c_oracle")


class _UsageError(Exception):
    """Invalid argument combination detected after parsing (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on errors; the contract reserves 2 for
    domain errors, so usage failures are remapped to exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--model",
        required=True,
        metavar="JSON",
        help='model spec, e.g. \'{"kind": "pareto", "xi": 0.5}\'',
    )
    p.add_argument("--n", required=True, type=int, help="number of iid losses in the sum")
    p.add_argument("--out", default="-", metavar="PATH", help="output path ('-' = stdout)")


def _add_alpha_grid(p: argparse.ArgumentParser, amin: float, amax: float, points: int) -> None:
    p.add_argument("--alpha-min", type=float, default=amin, help=f"lowest level (default {amin})")
    p.add_argument("--alpha-max", type=float, default=amax, help=f"highest level (default {amax})")
    p.add_argument(
        "--points", type=int, default=points,
        help=f"number of levels, log-spaced in 1-alpha (default {points})",
    )


def _add_simulation(p: argparse.ArgumentParser, samples: int) -> None:
    p.add_argument(
        "--samples", type=int, default=samples,
        help=f"total Monte Carlo sum draws, 0 disables simulation (default {samples})",
    )
    p.add_argument("--batches", type=int, default=20, help="independent batches (default 20)")
    p.add_argument("--seed", type=int, default=42, help="root seed (default 42)")
    p.add_argument("--workers", type=int, default=1, help="worker threads (default 1)")
    p.add_argument(
        "--exact-denominator", action="store_true",
        help="use the model's exact quantile in the denominator instead of the "
        "empirical quantile of the batch's own losses",
    )


def _build_parser() -> _Parser:
    parser = _Parser(prog="tailconc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"tailconc {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="{info,curve,crossover,diag}")

    p_info = sub.add_parser("info", help="model, regime, and approach summary")
    _add_common(p_info)
    p_info.add_argument("--format", choices=("text", "json"), default="text")

    p_curve = sub.add_parser("curve", help="concentration ratio over a level grid")
    _add_common(p_curve)
    _add_alpha_grid(p_curve, 0.95, 0.9997, 40)
    _add_simulation(p_curve, 1_000_000)
    p_curve.add_argument(
        "--hall-closed-form", action="store_true",
        help="use closed-form correction amplitudes for Hall-type models",
    )
    p_curve.add_argument("--oracle", action="store_true", help="add a numerical convolution oracle column")
    p_curve.add_argument(
        "--oracle-tol", type=float, default=1e-10,
        help="certified relative tolerance of the oracle quadrature (default 1e-10)",
    )
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")

    p_cross = sub.add_parser("crossover", help="level where the second-order curve crosses one")
    _add_common(p_cross)
    _add_alpha_grid(p_cross, 0.9, 1.0 - 1e-7, 65)
    _add_simulation(p_cross, 0)
    p_cross.add_argument("--format", choices=("text", "json"), default="text")

    p_diag = sub.add_parser("diag", help="tail-ratio and auxiliary-function convergence diagnostics")
    _add_common(p_diag)
    _add_alpha_grid(p_diag, 0.95, 0.999999, 12)
    p_diag.add_argument("--format", choices=("csv", "json"), default="csv")

    return parser


def _alpha_grid(args) -> np.ndarray:
    amin, amax, points = args.alpha_min, args.alpha_max, args.points
    if not (0.0 < amin < 1.0 and 0.0 < amax < 1.0):
        raise _UsageError("--alpha-min and --alpha-max must lie strictly within (0, 1)")
    if not amin < amax:
        raise _UsageError("--alpha-min must be strictly below --alpha-max")
    if points < 2:
        raise _UsageError("--points must be >= 2")
    return 1.0 - np.geomspace(1.0 - amin, 1.0 - amax, points)


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    f = float(v)
    if math.isnan(f):
        return ""
    return f"{f:.17g}"


def _json_num(v):
    if v is None or isinstance(v, str):
        return v
    f = float(v)
    if math.isnan(f):
        return None
    if math.isinf(f):
        return "inf" if f > 0 else "-inf"
    return f


def _csv_table(table: dict) -> str:
    lines = [",".join(table)]
    lines += [",".join(map(_fmt, row)) for row in zip(*table.values())]
    return "\n".join(lines) + "\n"


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _versions() -> dict:
    # scipy's version from its metadata: importing scipy to read it costs 0.2 s.
    # The import waits until here, since only JSON output reads it
    from importlib import metadata

    return {"tailconc": __version__, "numpy": np.__version__, "scipy": metadata.version("scipy")}


def _metadata(model: LossModel, args, regime: Optional[approx.Regime] = None) -> dict:
    """The JSON metadata block, with the regime the command resolved, or
    one resolved here where it has none."""
    if regime is None:
        regime = approx.second_order_column(model, (), args.n)[2]
    meta = {
        "model": model_to_dict(model),
        "n": args.n,
        "regime": regime.tag.value,
        "regime_note": regime.reason,
        "boundary_balance": _json_num(regime.q),
        "degenerate": regime.tag is approx.RegimeTag.DEGENERATE,
        "versions": _versions(),
    }
    for field in ("samples", "batches", "seed", "workers"):
        if hasattr(args, field):
            meta[field] = getattr(args, field)
    if hasattr(args, "exact_denominator"):
        meta["denominator"] = (
            DenominatorMode.EXACT if args.exact_denominator else DenominatorMode.EMPIRICAL
        ).value
    return meta


def _write_table(model: LossModel, args, table: dict, regime: Optional[approx.Regime] = None) -> int:
    """Write ``table`` (column name -> values) as CSV, or as JSON columns
    under a metadata block."""
    if args.format == "csv":
        text = _csv_table(table)
    else:
        columns = {c: list(map(_json_num, vals)) for c, vals in table.items()}
        text = _json_text({"metadata": _metadata(model, args, regime), "columns": columns})
    _write_out(text, args.out)
    return 0


def _write_out(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _stderr_regime(regime: approx.Regime, degenerate: bool) -> None:
    note = f"regime: {regime.tag.value}"
    if regime.reason:
        note += f" ({regime.reason})"
    if regime.q is not None:
        note += f"; boundary balance ~ {regime.q:.6g}"
    sys.stderr.write(note + "\n")
    sys.stderr.write(f"degenerate second-order correction: {'yes' if degenerate else 'no'}\n")


def _check_simulation_args(args) -> None:
    if args.samples < 0:
        raise _UsageError("--samples must be >= 0")
    if args.workers < 1:
        raise _UsageError("--workers must be >= 1")


def _run_simulation(model: LossModel, args, alphas: np.ndarray):
    mode = DenominatorMode.EXACT if args.exact_denominator else DenominatorMode.EMPIRICAL
    config = SimulationConfig(
        n=args.n,
        samples=args.samples,
        alpha_grid=tuple(float(a) for a in alphas),
        batches=args.batches,
        seed=args.seed,
        denominator=mode,
    )
    closed = bool(getattr(args, "hall_closed_form", False))
    return empirical_concentration(model, config, workers=args.workers, closed_form=closed)


def _cmd_curve(model: LossModel, args) -> int:
    alphas = _alpha_grid(args)
    _check_simulation_args(args)
    table = dict.fromkeys(_CURVE_COLUMNS, [None] * alphas.size)
    table["alpha"] = alphas
    if args.samples > 0:
        curve = _run_simulation(model, args, alphas)
        c1, c2, regime, degenerate = curve.c1, curve.c2, curve.regime, curve.degenerate
        table.update(c_emp=curve.c_emp, c_emp_lo=curve.band_lo, c_emp_hi=curve.band_hi)
    else:
        c1, c2, regime, degenerate = approx.second_order_column(
            model, alphas, args.n, args.hall_closed_form
        )
    table.update(c1=[c1] * alphas.size, c2=c2)
    if args.oracle:
        spec = convolution.GridSpec(tol=args.oracle_tol)
        table["c_oracle"] = convolution.oracle_concentration(model, args.n, alphas, spec)
    _stderr_regime(regime, degenerate)
    return _write_table(model, args, table, regime)


def _cmd_crossover(model: LossModel, args) -> int:
    alphas = _alpha_grid(args)
    _check_simulation_args(args)
    a_star = approx.crossover(model, args.n, alpha_lo=args.alpha_min, alpha_hi=args.alpha_max)
    bracket = None
    straddle = None
    if args.samples > 0:
        curve = _run_simulation(model, args, alphas)
        gap = curve.c_emp - 1.0
        hits = np.flatnonzero((gap[:-1] == 0) | (gap[:-1] * gap[1:] < 0))
        if hits.size:
            bracket = (float(alphas[hits[0]]), float(alphas[hits[0] + 1]))
        covered = np.nonzero((curve.band_lo <= 1.0) & (curve.band_hi >= 1.0))[0]
        if covered.size:
            straddle = (float(alphas[covered[0]]), float(alphas[covered[-1]]))
    if args.format == "json":
        payload = {
            "metadata": _metadata(model, args),
            "analytic_crossover": _json_num(a_star),
            "empirical_bracket": list(bracket) if bracket else None,
            "band_straddles_one": list(straddle) if straddle else None,
        }
        text = _json_text(payload)
    else:
        lines = []
        if a_star is None:
            lines.append("analytic crossover alpha: none found")
        else:
            lines.append(f"analytic crossover alpha: {a_star:.6f}")
        if args.samples > 0:
            if bracket is None:
                lines.append("empirical crossover bracket: none found")
            else:
                lines.append(
                    f"empirical crossover bracket: [{bracket[0]:.6f}, {bracket[1]:.6f}]"
                )
            if straddle is None:
                lines.append("uncertainty band straddles one: never")
            else:
                lines.append(
                    "uncertainty band straddles one: "
                    f"alpha in [{straddle[0]:.6f}, {straddle[1]:.6f}]"
                )
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return 0


def _cmd_diag(model: LossModel, args) -> int:
    alphas = _alpha_grid(args)
    info = model.second_order_info()
    xs = np.atleast_1d(np.asarray(model.quantile(alphas), dtype=float))
    values = np.atleast_1d(convolution.tail_ratio_diagnostic(model, args.n, xs))
    j_const = approx.tail_ratio_limit(info.xi, args.n)
    hall_like = info.hall_d is not None and math.isfinite(info.rho) and info.rho != 0.0
    ts = [1.0 / (1.0 - float(a)) for a in alphas]
    aux = [float(model.auxiliary(t)) for t in ts]
    refs = [info.hall_d * info.rho * t**info.rho if hall_like else None for t in ts]
    table = {
        "kind": ["tail_ratio_diag"] * xs.size + ["auxiliary"] * len(ts),
        "x": [*xs, *ts],
        "value": [*values, *aux],
        "reference": [j_const] * xs.size + refs,
        "ratio": [v / j_const if j_const != 0.0 else None for v in values]
        + [a / r if r not in (None, 0.0) else None for a, r in zip(aux, refs)],
    }
    return _write_table(model, args, table)


def _cmd_info(model: LossModel, args) -> int:
    info = model.second_order_info()
    c1, _, regime, degenerate = approx.second_order_column(model, (), args.n)
    direction = approx.approach_direction(model, args.n)
    a_star = approx.crossover(model, args.n)
    mean = model.moments(math.inf)
    entries = [
        ("kind", model.kind),
        ("parameters", ", ".join(f"{k}={_fmt(v)}" for k, v in model_to_dict(model).items() if k != "kind")),
        ("n", str(args.n)),
        ("support_min", _fmt(model.support_min)),
        ("mean", "infinite" if math.isinf(mean) else _fmt(mean)),
        ("tail_index", _fmt(info.xi)),
        ("second_order_index", str(info.rho) if math.isinf(info.rho) else _fmt(info.rho)),
        ("regime", regime.tag.value + (f" ({regime.reason})" if regime.reason else "")),
        ("boundary_balance", _fmt(regime.q) if regime.q is not None else "n/a"),
        ("degenerate", "yes" if degenerate else "no"),
        ("first_order_limit", _fmt(c1)),
        ("approach", direction.direction.value),
        ("correction_slope_limit", str(direction.derivative_limit)),
        ("analytic_crossover", f"{a_star:.6f}" if a_star is not None else "none found"),
    ]
    if args.format == "json":
        payload = {
            **_metadata(model, args, regime),
            "support_min": _json_num(model.support_min),
            "mean": _json_num(mean),
            "tail_index": _json_num(info.xi),
            "second_order_index": _json_num(info.rho),
            "first_order_limit": _json_num(c1),
            "approach": direction.direction.value,
            "correction_slope_limit": _json_num(direction.derivative_limit),
            "analytic_crossover": _json_num(a_star),
        }
        text = _json_text(payload)
    else:
        text = "\n".join(f"{k}: {v}" for k, v in entries) + "\n"
    _write_out(text, args.out)
    return 0


_HANDLERS = {
    "info": _cmd_info,
    "curve": _cmd_curve,
    "crossover": _cmd_crossover,
    "diag": _cmd_diag,
}


def main(argv: Optional[list] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        sys.stderr.write("tailconc: error: a subcommand is required\n")
        return 1
    try:
        try:
            spec = json.loads(args.model)
        except json.JSONDecodeError as exc:
            sys.stderr.write(f"tailconc: error: model spec is not valid JSON: {exc}\n")
            return 1
        if not isinstance(spec, dict):
            sys.stderr.write("tailconc: error: model spec must be a JSON object\n")
            return 1
        model = model_from_dict(spec)
        return _HANDLERS[args.command](model, args)
    except _UsageError as exc:
        sys.stderr.write(f"tailconc: error: {exc}\n")
        return 1
    except PrecisionError as exc:
        sys.stderr.write(f"tailconc: precision error: {exc}\n")
        return 3
    except ResourceLimitError as exc:
        sys.stderr.write(f"tailconc: resource limit: {exc}\n")
        return 2
    except DomainError as exc:
        sys.stderr.write(f"tailconc: domain error: {exc}\n")
        return 2
    except TailconcError as exc:
        sys.stderr.write(f"tailconc: error: {exc}\n")
        return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
