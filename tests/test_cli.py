import hashlib
import json
import math

import pytest

from tailconc.cli import main

PARETO = '{"kind": "pareto", "xi": 0.5}'
PARETO125 = '{"kind": "pareto", "xi": 1.25}'
BURR = '{"kind": "burr", "tau": 0.25, "kappa": 8.0}'
GANDH = '{"kind": "gandh", "a": 0.0, "b": 1.0, "g": 2.0, "h": 0.5}'
HALL = '{"kind": "hall", "c": 1.0, "d": -0.3, "xi": 0.8, "rho": -0.4}'

CURVE_HEADER = "alpha,c_emp,c_emp_lo,c_emp_hi,c1,c2,c_oracle"
DIAG_HEADER = "kind,x,value,reference,ratio"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.startswith("tailconc ")


def test_missing_subcommand(capsys):
    code, _, err = run(capsys)
    assert code == 1
    assert "subcommand is required" in err


def test_malformed_model_json(capsys):
    code, _, err = run(capsys, "info", "--model", "{oops", "--n", "2")
    assert code == 1
    assert "not valid JSON" in err


def test_non_object_model_json(capsys):
    code, _, err = run(capsys, "info", "--model", "[1, 2]", "--n", "2")
    assert code == 1
    assert "JSON object" in err


def test_unknown_model_kind(capsys):
    code, _, err = run(capsys, "info", "--model", '{"kind": "cauchy"}', "--n", "2")
    assert code == 2
    assert "domain error" in err


def test_missing_required_n(capsys):
    code, _, err = run(capsys, "info", "--model", PARETO)
    assert code == 1


def test_curve_csv_schema(capsys):
    code, out, err = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "5",
        "--samples", "20000", "--batches", "4",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == CURVE_HEADER
    assert len(rows) == 5
    for row in rows:
        assert 0.9 <= float(row["alpha"]) <= 0.99
        assert float(row["c_emp_lo"]) <= float(row["c_emp"]) <= float(row["c_emp_hi"])
        assert float(row["c1"]) == pytest.approx(2.0 ** -0.5, rel=1e-15)
        assert float(row["c2"]) > 0.0
        assert row["c_oracle"] == ""
    # regime classification goes to stderr, not into the artifact
    assert "regime: fast" in err
    assert "degenerate second-order correction: no" in err


def test_curve_without_simulation(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "3",
        "--samples", "0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        assert row["c_emp"] == row["c_emp_lo"] == row["c_emp_hi"] == ""
        assert row["c1"] != "" and row["c2"] != ""


def test_curve_byte_identical_across_workers(capsys):
    argv = [
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "4",
        "--samples", "40000", "--batches", "8",
    ]
    code1, out1, _ = run(capsys, *argv, "--workers", "1")
    code2, out2, _ = run(capsys, *argv, "--workers", "3")
    assert code1 == code2 == 0
    assert out1 == out2


PINNED_ARGS = ("--n", "3", "--samples", "200000", "--batches", "20", "--seed", "7")


@pytest.mark.parametrize(
    ("model", "digest"),
    [
        (PARETO, "1bf8944770bdd51e56207ba86df32a50b2be2fe8b162dc35c86f4a5c784344f1"),
        (BURR, "7a722930a2286698920b8a505e7276f2224c91f93dd606620944ea672d923685"),
        (GANDH, "81f74f2aac3f128f2c0d1a6414234806465f62f261fd39f8a73edf09f2943f83"),
        (HALL, "1a510fc3943961e95f171b0d4d8853c595034b5dae6dab09e8efc483103564f0"),
    ],
    ids=["pareto", "burr", "gandh", "hall"],
)
def test_curve_bytes_pinned(capsys, model, digest):
    """Monte Carlo curve output at a fixed seed, pinned by sha256. A batch
    draws one loss matrix and takes the denominator's order statistics from
    the same losses its row sums add up."""
    code, out, _ = run(capsys, "curve", "--model", model, *PINNED_ARGS)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    ("model", "digest"),
    [
        (PARETO, "cce1cf0d22dfbe4e4f702ec66353a1f16ff717ec755142f02351781a4e958801"),
        (BURR, "0645c4cdcc08ea7af758ec5430581e866a1b1cd79866d7d260208e4ff50e6521"),
        (GANDH, "2a0147433a4cae0e2283cb8228e5a74ce0f00e6dd1166ec46c3d6282b0f7df08"),
        (HALL, "bb36454fafbfb8ccf5d723dc05a5a7401c7f38c6f0916fd9f3aaa3413ef0a19d"),
    ],
    ids=["pareto", "burr", "gandh", "hall"],
)
def test_curve_exact_denominator_bytes_pinned(capsys, model, digest):
    """The exact-denominator curve at the same fixed seed, pinned by sha256:
    only the sums' order statistics are random there, so these bytes pin the
    numerator's stream."""
    code, out, _ = run(capsys, "curve", "--model", model, *PINNED_ARGS, "--exact-denominator")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_curve_oracle_column(capsys):
    from tailconc.convolution import oracle_concentration
    from tailconc.models import Pareto

    code, out, _ = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "3",
        "--samples", "0", "--oracle",
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        want = oracle_concentration(Pareto(xi=0.5), 2, float(row["alpha"]))
        assert float(row["c_oracle"]) == pytest.approx(want, rel=1e-9)


def test_curve_json_format(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "3",
        "--samples", "6000", "--batches", "3", "--seed", "5",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"metadata", "columns"}
    cols = payload["columns"]
    assert set(cols) == set(CURVE_HEADER.split(","))
    assert len(cols["alpha"]) == 3
    assert cols["c_oracle"] == [None, None, None]
    meta = payload["metadata"]
    assert meta["model"] == {"kind": "pareto", "xi": 0.5}
    assert meta["n"] == 2
    assert meta["regime"] == "fast"
    assert meta["samples"] == 6000
    assert meta["batches"] == 3
    assert meta["seed"] == 5
    assert meta["workers"] == 1
    assert meta["denominator"] == "empirical"
    assert "tailconc" in meta["versions"]


def test_curve_json_without_simulation_uses_nulls(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "2",
        "--samples", "0", "--format", "json",
    )
    assert code == 0
    cols = json.loads(out)["columns"]
    assert cols["c_emp"] == [None, None]
    assert all(v is not None for v in cols["c2"])


def test_curve_gandh_c2_nan_below_half_is_empty(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--model", GANDH, "--n", "2",
        "--alpha-min", "0.3", "--alpha-max", "0.9", "--points", "3",
        "--samples", "0",
    )
    assert code == 0
    _, rows = parse_csv(out)
    assert rows[0]["c2"] == ""  # alpha = 0.3: closed form undefined
    assert rows[-1]["c2"] != ""


def test_curve_gandh_c2_nan_below_half_is_null_in_json(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--model", GANDH, "--n", "2",
        "--alpha-min", "0.3", "--alpha-max", "0.9", "--points", "3",
        "--samples", "0", "--format", "json",
    )
    assert code == 0
    c2 = json.loads(out)["columns"]["c2"]
    assert c2[0] is None  # alpha = 0.3: closed form undefined, NaN in the table
    assert c2[-1] == pytest.approx(1.4720062747562679, rel=1e-15)


def test_crossover_text(capsys):
    code, out, _ = run(capsys, "crossover", "--model", GANDH, "--n", "2")
    assert code == 0
    assert "analytic crossover alpha: 0.999591" in out


def test_crossover_none_found(capsys):
    code, out, _ = run(capsys, "crossover", "--model", PARETO125, "--n", "2")
    assert code == 0
    assert "none found" in out


def test_crossover_with_simulation(capsys):
    code, out, _ = run(
        capsys,
        "crossover", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.8", "--alpha-max", "0.99", "--points", "12",
        "--samples", "120000", "--batches", "4",
    )
    assert code == 0
    assert "empirical crossover bracket: [" in out
    assert "uncertainty band straddles one" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_crossover_band_straddles_one(capsys, fmt):
    """At 20000 sums in 4 batches the band covers 1 at one level of the grid."""
    code, out, _ = run(
        capsys,
        "crossover", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.8", "--alpha-max", "0.99", "--points", "12",
        "--samples", "20000", "--batches", "4", "--format", fmt,
    )
    assert code == 0
    if fmt == "text":
        assert "uncertainty band straddles one: alpha in [0.847681, 0.847681]" in out
    else:
        assert json.loads(out)["band_straddles_one"] == [0.8476808380761706] * 2


def test_crossover_json(capsys):
    code, out, _ = run(
        capsys, "crossover", "--model", GANDH, "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["analytic_crossover"] == pytest.approx(0.9995913, abs=1e-6)
    assert payload["empirical_bracket"] is None


def test_diag_csv(capsys):
    code, out, _ = run(
        capsys,
        "diag", "--model", BURR, "--n", "2",
        "--alpha-min", "0.99", "--alpha-max", "0.9999", "--points", "3",
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert ",".join(header) == DIAG_HEADER
    assert len(rows) == 6
    kinds = [row["kind"] for row in rows]
    assert kinds == ["tail_ratio_diag"] * 3 + ["auxiliary"] * 3
    for row in rows:
        assert row["value"] != ""
        # this model has Hall constants, so references are populated
        assert row["reference"] != ""
        assert row["ratio"] != ""


def test_diag_pareto_auxiliary_reference_empty(capsys):
    code, out, _ = run(
        capsys,
        "diag", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.99", "--alpha-max", "0.9999", "--points", "2",
    )
    assert code == 0
    _, rows = parse_csv(out)
    aux = [row for row in rows if row["kind"] == "auxiliary"]
    assert aux and all(row["reference"] == "" for row in aux)
    assert all(row["value"] == "0" for row in aux)


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "--model", PARETO125, "--n", "2")
    assert code == 0
    assert "kind: pareto" in out
    assert "mean: infinite" in out
    assert "regime: fast" in out
    assert "approach: from_above" in out
    assert "analytic_crossover: none found" in out


def test_info_boundary_reports_balance(capsys):
    code, out, _ = run(
        capsys, "info", "--model", '{"kind": "burr", "tau": 1.0, "kappa": 2.0}',
        "--n", "2",
    )
    assert code == 0
    assert "regime: boundary" in out
    assert "mean: 1\n" in out
    balance_line = next(l for l in out.splitlines() if l.startswith("boundary_balance:"))
    assert float(balance_line.split(":")[1]) == pytest.approx(2.0, rel=1e-10)


def test_boundary_balance_agrees_across_subcommands(capsys):
    """Every JSON output reports the boundary balance q of Burr(1, 2)."""
    model = '{"kind": "burr", "tau": 1.0, "kappa": 2.0}'
    balances = []
    for argv in (
        ("info",),
        ("curve", "--samples", "0"),
        ("crossover", "--samples", "0"),
        ("diag",),
    ):
        code, out, _ = run(capsys, *argv, "--model", model, "--n", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        balances.append(payload.get("metadata", payload)["boundary_balance"])
    assert balances[0] == pytest.approx(2.0, rel=1e-10)
    assert balances == [balances[0]] * 4


def test_info_json(capsys):
    code, out, _ = run(
        capsys, "info", "--model", GANDH, "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "slow"
    assert payload["tail_index"] == 0.5
    assert payload["second_order_index"] == 0.0
    assert payload["first_order_limit"] == pytest.approx(2.0 ** -0.5)
    assert payload["approach"] == "from_above"
    assert payload["correction_slope_limit"] == "-inf"
    assert payload["analytic_crossover"] == pytest.approx(0.9995913, abs=1e-6)


def test_out_file(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    code, out, _ = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "2",
        "--samples", "0", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == CURVE_HEADER


@pytest.mark.parametrize(
    "argv",
    [
        # inverted level range
        ["curve", "--model", PARETO, "--n", "2", "--alpha-min", "0.99",
         "--alpha-max", "0.9", "--samples", "0"],
        # level outside (0, 1)
        ["curve", "--model", PARETO, "--n", "2", "--alpha-max", "1.0",
         "--samples", "0"],
        # too few points
        ["curve", "--model", PARETO, "--n", "2", "--points", "1", "--samples", "0"],
        # bad worker count
        ["curve", "--model", PARETO, "--n", "2", "--samples", "1000",
         "--workers", "0"],
        # negative sample count
        ["curve", "--model", PARETO, "--n", "2", "--samples", "-5"],
    ],
)
def test_usage_errors_exit_one(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        # batches must divide samples (simulation-config domain error)
        ["curve", "--model", PARETO, "--n", "2", "--samples", "1001",
         "--batches", "4"],
        # model parameters outside the domain
        ["info", "--model", '{"kind": "pareto", "xi": -1.0}', "--n", "2"],
        # n outside the convolution oracle's supported range
        ["diag", "--model", PARETO, "--n", "99", "--points", "2"],
        ["curve", "--model", PARETO, "--n", "99", "--samples", "0", "--oracle",
         "--points", "2"],
    ],
)
def test_domain_errors_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2


def test_resource_limit_exits_two(capsys):
    # one batch of 1e12 sums is refused before anything is allocated
    code, out, err = run(
        capsys, "curve", "--model", PARETO, "--n", "2",
        "--samples", "1000000000000", "--batches", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("tailconc: resource limit:")


def test_precision_error_exits_three(capsys):
    code, _, err = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "2",
        "--samples", "0", "--oracle", "--oracle-tol", "1e-16",
    )
    assert code == 3
    assert "precision" in err


@pytest.mark.parametrize(
    ("argv", "code", "message"),
    [
        (["info", "--model", '{"kind": "pareto", "xi": 400}', "--n", "8"], 2, "n = 8, xi = 400"),
        (["crossover", "--model", '{"kind": "pareto", "xi": 400}', "--n", "8"], 2, "n = 8, xi = 400"),
        (["curve", "--model", '{"kind": "pareto", "xi": 400}', "--n", "8", "--samples", "0"],
         2, "n = 8, xi = 400"),
        (["info", "--model", '{"kind": "burr", "tau": 0.01, "kappa": 1}', "--n", "2"],
         3, "probe quantile"),
        (["curve", "--model", '{"kind": "burr", "tau": 0.01, "kappa": 1}', "--n", "2",
          "--samples", "0"], 3, "probe quantile"),
        (["curve", "--model", '{"kind": "pareto", "xi": 0.05}', "--n", "4", "--samples", "0",
          "--oracle", "--points", "2"], 2, "grid ends at"),
        (["curve", "--model", '{"kind": "burr", "tau": 8, "kappa": 4}', "--n", "2", "--samples", "0",
          "--oracle", "--points", "2"], 2, "deeper than the grid covers"),
        # the final level's self-check passes on its scan; the grid ends
        # where the three-fold tail is 0.94
        (["curve", "--model", '{"kind": "burr", "tau": 8, "kappa": 4}', "--n", "3", "--samples", "0",
          "--oracle", "--points", "2"], 2, "deeper than the grid covers (smallest stored tail 9.428e-01)"),
        # level 3's ulp-level rises lie within 1e-14 of 1, which the _FLAT
        # rule reads as 1; the four-fold tail is still 1 to four digits at
        # the grid's end
        (["curve", "--model", '{"kind": "burr", "tau": 8, "kappa": 4}', "--n", "4", "--samples", "0",
          "--oracle", "--points", "2"], 2, "deeper than the grid covers (smallest stored tail 1.000e+00)"),
    ],
)
def test_edge_models_exit_with_a_message(capsys, argv, code, message):
    """Models beyond what the double range or the oracle's grid can hold
    exit with an error code and a one-line message, not a traceback."""
    got, out, err = run(capsys, *argv)
    assert (got, out) == (code, "")
    assert message in err


def test_curve_values_are_seventeen_digit_reals(capsys):
    code, out, _ = run(
        capsys,
        "curve", "--model", PARETO, "--n", "2",
        "--alpha-min", "0.9", "--alpha-max", "0.99", "--points", "2",
        "--samples", "2000", "--batches", "2",
    )
    assert code == 0
    _, rows = parse_csv(out)
    for row in rows:
        for key in ("alpha", "c_emp", "c1", "c2"):
            value = float(row[key])
            assert math.isfinite(value)
            # 17 significant digits round-trip doubles exactly
            assert f"{value:.17g}" == row[key]


def test_hall_closed_form_c2_on_both_curve_paths(capsys):
    """--hall-closed-form reaches c2 alike without and with simulation, and
    moves it off the default on the catalogue Hall model."""

    def c2(*extra):
        code, out, _ = run(capsys, "curve", "--model", HALL, "--n", "2", "--points", "5", *extra)
        assert code == 0
        return [row["c2"] for row in parse_csv(out)[1]]

    closed = c2("--samples", "0", "--hall-closed-form")
    assert c2("--samples", "20000", "--batches", "4", "--hall-closed-form") == closed
    default = c2("--samples", "0")
    assert all(a != b for a, b in zip(closed, default))
    assert float(default[0]) == pytest.approx(0.8915, abs=1e-4)
    assert float(closed[0]) == pytest.approx(0.8896, abs=1e-4)
