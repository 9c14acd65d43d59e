import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memcost import cli
from memcost.cost_engine import LimitReduction
from memcost.deformed import DeformedReduction, load_population_spectrum
from memcost.errors import DomainError
from memcost.spectra import MPLaw

import mp_reference


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    rows = list(reader)
    return rows[0], rows[1:]


def test_parse_grid_inclusive_stop():
    assert cli.parse_grid("0:0.5:2") == [0.0, 0.5, 1.0, 1.5, 2.0]
    # stop within half a step still included
    got = cli.parse_grid("0:0.3:1.0")
    assert got[-1] == pytest.approx(0.9)
    assert cli.parse_grid("0:0.25:1.1")[-1] == pytest.approx(1.0)


def test_parse_grid_empty_and_errors():
    assert cli.parse_grid("2:1:1") == []
    with pytest.raises(DomainError):
        cli.parse_grid("0:0:1")
    with pytest.raises(DomainError):
        cli.parse_grid("0:1")
    with pytest.raises(DomainError):
        cli.parse_grid("a:b:c")


def test_parse_grid_refuses_non_finite_and_oversize_specs():
    for spec in ("0:0.01:inf", "0:nan:1", "nan:0.1:1", "-inf:1:0", "0:inf:1"):
        with pytest.raises(DomainError, match="finite"):
            cli.parse_grid(spec)
    # each of these is refused from its arithmetic length, before any point is built
    cap = cli.MAX_GRID_POINTS
    for spec in ("0:1e-300:1", "0:1:1e300", "-1e308:1e-300:1e308", f"0:1:{cap}"):
        with pytest.raises(DomainError, match="more than"):
            cli.parse_grid(spec)
    assert len(cli.parse_grid(f"0:1:{cap - 1}")) == cap
    assert cli.parse_grid("1e308:1e-300:-1e308") == []


def test_parse_grid_ends_before_a_point_past_the_float_range(capsys):
    # stop + step/2 overflows to inf here, and the point 1e308 + 1e308 = inf was kept
    assert cli.parse_grid("1e308:1e308:1.7e308") == [1e308]
    code, out, _ = run_cli(capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "1e308:1e308:1.7e308")
    assert code == 0
    assert [row[0] for row in parse_csv(out)[1]] == ["1e+308"]


def test_threshold_command_values(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma", "2", "--sigma2", "0.1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["eps_sigma2"]) == pytest.approx(
        LimitReduction(2.0, 0.1).threshold, abs=1e-15
    )
    assert float(row["eps_ols2"]) == pytest.approx(
        LimitReduction(2.0, 0.1).ols.target_eps2, rel=1e-12
    )
    assert float(row["rho_ols"]) == pytest.approx(
        LimitReduction(2.0, 0.1).ols.rho, rel=1e-12
    )


def test_threshold_with_degenerate_population(tmp_path, capsys):
    pop = tmp_path / "identity.spec"
    pop.write_text("1.0 1.0\n")
    code, out, _ = run_cli(
        capsys, "threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", str(pop)
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["eps_def2"]) == pytest.approx(float(row["eps_sigma2"]), abs=1e-10)


def test_threshold_pop_upper_bound_cell_is_the_report_field(tmp_path, capsys):
    path = _pop_file(tmp_path)
    code, out, _ = run_cli(capsys, "threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", path)
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    pop = load_population_spectrum(path)
    report = DeformedReduction(2.0, 0.1, pop).report()
    assert float(row["eps_def2_upper_bound"]) == report.eps_def2_upper_bound
    assert float(row["eps_def2"]) == report.eps_def2


@pytest.mark.parametrize(
    "argv",
    [
        ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0:0.01:inf"],
        ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0:nan:1"],
        ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "nan:0.1:1"],
        ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", "nan"],
        ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", "inf"],
        ["ols", "--gamma", "2", "--sigma2", "inf"],
        ["threshold", "--gamma", "2", "--sigma2", "inf"],
        ["threshold", "--gamma", "2", "--sigma2", "nan"],
        ["simulate", "--n", "20", "--d", "40", "--sigma2", "inf", "--seed", "1",
         "--trials", "1", "--rho", "0"],
    ],
    ids=[
        "grid-stop-inf", "grid-step-nan", "grid-start-nan", "rho-eps2-nan", "rho-eps2-inf",
        "ols-sigma2-inf", "threshold-sigma2-inf", "threshold-sigma2-nan", "simulate-sigma2-inf",
    ],
)
def test_non_finite_or_unbounded_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("memcost: error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--gamma", "2", "--sigma2", "1e300"],
        ["ols", "--gamma", "2", "--sigma2", "1e200"],
        ["cost-curve", "--gamma", "2", "--sigma2", "1e200", "--grid", "1e200:1e200:3e200"],
        ["threshold", "--gamma", "2", "--sigma2", "1e-300"],
        ["threshold", "--gamma", "2", "--sigma2", "1e-200"],
        ["ols", "--gamma", "2", "--sigma2", "1e-200"],
        ["threshold", "--gamma", "2", "--sigma2", "1e-160"],
        ["simulate", "--n", "20", "--d", "40", "--sigma2", "1e-101", "--seed", "1",
         "--trials", "1", "--rho", "0"],
    ],
    ids=[
        "threshold-1e300", "ols-1e200", "cost-curve-1e200", "threshold-1e-300",
        "threshold-1e-200", "ols-1e-200", "threshold-1e-160", "simulate-1e-101",
    ],
)
def test_sigma2_outside_range_exits_2(capsys, argv):
    # sigma2^2 overflows, or underflows to zero or to subnormals, for these
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("memcost: error:") and "Traceback" not in err


def _assert_cells_finite_and_normal(text):
    for row in parse_csv(text)[1]:
        for cell in row:
            try:
                value = float(cell)
            except ValueError:
                continue  # the regime column
            assert math.isfinite(value) and (value == 0.0 or abs(value) >= sys.float_info.min), row


@pytest.mark.parametrize("s2", [1e-100, 1e100])
def test_sigma2_range_ends_give_finite_normal_cells(capsys, tmp_path, s2):
    pop = _pop_file(tmp_path)
    th = LimitReduction(2.0, s2).threshold
    sig = repr(s2)
    sim = ["simulate", "--n", "20", "--d", "40", "--sigma2", sig, "--seed", "1",
           "--trials", "3", "--eps2", repr(2.0 * th)]
    commands = [
        ["threshold", "--gamma", "2", "--sigma2", sig],
        ["threshold", "--gamma", "2", "--sigma2", sig, "--pop", pop],
        ["rho", "--gamma", "2", "--sigma2", sig, "--eps2", repr(3.0 * th)],
        ["cost-curve", "--gamma", "2", "--sigma2", sig, "--grid", f"{0.5 * th!r}:{th!r}:{4 * th!r}"],
        ["ols", "--gamma", "2", "--sigma2", sig],
        sim + ["--out", str(tmp_path / "iso")],
        sim + ["--pop", pop, "--out", str(tmp_path / "aniso")],
    ]
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        _assert_cells_finite_and_normal(out)
    for run in ("iso", "aniso"):
        metrics = json.loads((tmp_path / run / "summary.json").read_text())["metrics"]
        for stats in metrics.values():
            for value in stats.values():
                assert math.isfinite(value) and (value == 0.0 or abs(value) >= sys.float_info.min)
        # the cost varies over the trials at both ends, so its standard error is not 0
        assert metrics["cost"]["se"] > 0.0


def test_threshold_pop_large_sigma2_matches_mpmath(tmp_path, capsys):
    import mpmath as mp

    code, out, err = run_cli(
        capsys, "threshold", "--gamma", "2", "--sigma2", "1e12", "--pop", _pop_file(tmp_path)
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    got = float(rows[0][header.index("eps_def2")])
    pop = load_population_spectrum(_pop_file(tmp_path))
    with mp.workdps(40):
        s2 = mp.mpf(10) ** 12
        atoms = [(mp.mpf(t), mp.mpf(w)) for t, w in pop.atoms]
        m = mp.findroot(lambda m: m * (s2 + sum(w * t / (1 + t * m / 2) for t, w in atoms)) - 1,
                        1 / s2)
        exact = float(s2 * s2 * m)
    assert abs(got - exact) <= 1e-14 * exact


def test_threshold_missing_gamma_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["threshold", "--sigma2", "0.1"])
    assert info.value.code == 2


@pytest.mark.parametrize("command", ["threshold", "simulate"])
@pytest.mark.parametrize("line", ["nan 0.5", "inf 0.5", "0.5 nan", "0.5 inf"])
def test_non_finite_population_atom_is_a_line_numbered_refusal(tmp_path, capsys, command, line):
    pop = tmp_path / "pop.txt"
    pop.write_text(f"# two atoms\n1.0 0.5\n{line}\n")
    argv = {
        "threshold": ["threshold", "--gamma", "2", "--sigma2", "0.1"],
        "simulate": ["simulate", "--n", "20", "--d", "40", "--sigma2", "0.1", "--seed", "1",
                     "--trials", "1", "--rho", "0"],
    }[command]
    code, out, err = run_cli(capsys, *argv, "--pop", str(pop))
    assert code == 2
    assert out == ""
    assert f"memcost: error: {pop}:3:" in err and "Traceback" not in err


def test_population_atom_with_an_overflowing_reciprocal_is_a_refusal(tmp_path, capsys):
    # a subnormal atom used to print kappa = inf with exit 0; 1e-308 is refused
    # only once the top 4.0 is rescaled to 1, and that used to name no line
    pop = tmp_path / "pop.txt"
    argv = ["threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", str(pop)]
    for text in ("1.0 0.5\n1e-320 0.5\n", "4.0 0.5\n1e-308 0.5\n"):
        pop.write_text(text)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert f"memcost: error: {pop}:2:" in err
    pop.write_text("1.0 0.5\n1e-300 0.5\n")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    header, rows = parse_csv(out)
    assert float(dict(zip(header, rows[0]))["kappa"]) == 1.0 / 1e-300


@pytest.mark.parametrize(
    "argv, trial",
    [(["--n", "2", "--d", "3", "--seed", "0", "--trials", "40", "--dist", "rademacher"], 4),
     (["--n", "3", "--d", "4", "--seed", "1", "--trials", "1", "--pop", "ATOMS"], 0)],
    ids=["rademacher-equal-rows", "atom-1e-300"],
)
def test_rank_deficient_design_is_a_refusal_naming_its_trial(tmp_path, capsys, argv, trial):
    # a small sign design has two equal rows with positive probability, and an
    # atom of 1e-300 leaves a column scale at rounding level
    from memcost.finite_n_lab import trial_seed

    pop = tmp_path / "pop.txt"
    pop.write_text("1.0 0.5\n1e-300 0.5\n")
    argv = [str(pop) if a == "ATOMS" else a for a in argv]
    code, out, err = run_cli(capsys, "simulate", *argv, "--sigma2", "0.1", "--rho", "0")
    assert code == 2 and out == ""
    assert err.startswith(f"memcost: error: trial {trial}: design is numerically rank deficient")
    assert f"(trial_seed {trial_seed(int(argv[argv.index('--seed') + 1]), trial)})" in err


def test_malformed_population_file(tmp_path, capsys):
    pop = tmp_path / "bad.spec"
    pop.write_text("1.0 0.5\nnot numbers\n")
    code, out, err = run_cli(
        capsys, "threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", str(pop)
    )
    assert code == 2
    assert "2" in err  # line number surfaced


_POP_COMMANDS = {
    "threshold": ["threshold", "--gamma", "2", "--sigma2", "0.1"],
    "simulate": ["simulate", "--n", "20", "--d", "40", "--sigma2", "0.1", "--seed", "1",
                 "--trials", "1", "--rho", "0"],
    "spectrum": ["spectrum", "--n", "20", "--d", "40"],
}


@pytest.mark.parametrize("command", list(_POP_COMMANDS))
@pytest.mark.parametrize(
    "content",
    [b"\x7fELF\x02\x01\x01\x00" + bytes(range(256)), b"1 0.5\n0.5 0.5\xff\n"],
    ids=["binary", "one-bad-byte"],
)
def test_population_file_that_is_not_utf8_is_a_refusal(tmp_path, capsys, command, content):
    # such a file used to print a raw UnicodeDecodeError traceback and exit 1
    pop = tmp_path / "pop.txt"
    pop.write_bytes(content)
    code, out, err = run_cli(capsys, *_POP_COMMANDS[command], "--pop", str(pop))
    assert code == 2 and out == ""
    assert err.startswith(f"memcost: error: {pop}: not UTF-8 text (")


def test_rho_command_single_point(capsys):
    th = LimitReduction(2.0, 0.1).threshold
    code, out, _ = run_cli(
        capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", str(2 * th)
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["rho"]) == pytest.approx(LimitReduction(2.0, 0.1).solve(2 * th).rho)
    assert row["regime"] == "above_threshold"


def test_rho_command_eps_flag_squares(capsys):
    th = LimitReduction(2.0, 0.1).threshold
    eps = math.sqrt(2 * th)
    code, out, _ = run_cli(capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--eps", str(eps))
    header, rows = parse_csv(out)
    assert float(rows[0][0]) == pytest.approx(2 * th, rel=1e-12)


@pytest.mark.parametrize(
    "argv",
    [
        ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps", "-0.3"],
        ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps", "nan"],
        ["rho", "--gamma", "2", "--sigma2", "0.1", "--grid=-0.1:0.1:0.3", "--grid-units", "eps"],
        ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid=-0.1:0.1:0.3",
         "--grid-units", "eps"],
        ["simulate", "--n", "20", "--d", "40", "--sigma2", "0.1", "--seed", "1",
         "--trials", "1", "--eps", "-0.3"],
    ],
    ids=["rho-eps", "rho-eps-nan", "rho-grid-eps", "cost-curve-grid-eps", "simulate-eps"],
)
def test_negative_eps_is_refused_not_squared(capsys, argv):
    # (-0.3)^2 = 0.09 is a valid eps2, so squaring first would hide the sign
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("memcost: error:") and "eps must be nonnegative" in err


def test_rho_grid_keeps_solved_rows_past_the_cap(capsys):
    # eps2 = 1e299 .. 1e300 are past the float range of train, which is about
    # 3e151 at the smallest normal edge distance; eps2 = 0 is solved
    code, out, err = run_cli(
        capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0:1e299:1e300"
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    assert len(rows) == 11
    first = dict(zip(header, rows[0]))
    assert first["regime"] == "below_threshold" and float(first["rho"]) == 0.0
    for r in rows[1:]:
        row = dict(zip(header, r))
        assert row["regime"] == "error"
        assert math.isnan(float(row["rho"])) and math.isnan(float(row["residual"]))


def test_rho_grid_reaches_targets_near_the_edge(capsys):
    # eps2 = 1e5 .. 1e6 need rho within 1e-13 relative of 1/lambda_plus
    code, out, err = run_cli(
        capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0:100000:1000000"
    )
    assert code == 0, err
    header, rows = parse_csv(out)
    assert [dict(zip(header, r))["regime"] for r in rows] == (
        ["below_threshold"] + ["above_threshold"] * 10
    )
    for r in rows[1:]:
        row = dict(zip(header, r))
        assert float(row["residual"]) <= 1e-15 * float(row["eps2"])
        assert float(row["rho"]) <= 1.0 / MPLaw(2.0).lambda_plus


@pytest.mark.parametrize("flag", [["--eps2", "0.05"], ["--eps", "0.2"]], ids=["eps2", "eps"])
def test_rho_grid_excludes_eps2_and_eps(capsys, flag):
    # the grid alone decides the rows, so a single target beside it is a usage error
    with pytest.raises(SystemExit) as info:
        cli.main(["rho", "--gamma", "2", "--sigma2", "0.1", *flag, "--grid", "0:0.01:0.02"])
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_rho_needs_one_of_eps2_eps_and_grid(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["rho", "--gamma", "2", "--sigma2", "0.1"])
    assert info.value.code == 2
    assert "one of the arguments --eps2 --eps --grid is required" in capsys.readouterr().err
    # an empty grid spec is given, and refused as a grid
    code, out, err = run_cli(capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "")
    assert code == 2 and out == "" and "grid spec" in err


def test_cost_curve_regime_structure(capsys):
    th = LimitReduction(2.0, 0.1).threshold
    grid = f"{0.25 * th}:{0.5 * th}:{4 * th}"
    code, out, _ = run_cli(capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", grid)
    assert code == 0
    header, rows = parse_csv(out)
    costs, regimes = [], []
    for r in rows:
        row = dict(zip(header, r))
        costs.append(float(row["cost"]))
        regimes.append(row["regime"])
    assert regimes[0] == "below_threshold"
    assert regimes[-1] == "above_threshold"
    assert all(b >= a for a, b in zip(costs, costs[1:]))
    assert costs[0] == 0.0 and costs[-1] > 0


def test_cost_curve_costbar_sign_change(capsys):
    eo2 = LimitReduction(2.0, 0.1).ols.target_eps2
    grid = f"{0.8 * eo2}:{0.2 * eo2}:{1.2 * eo2}"
    code, out, _ = run_cli(capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", grid)
    header, rows = parse_csv(out)
    bars = [float(dict(zip(header, r))["costbar"]) for r in rows]
    assert bars[0] < 0 < bars[-1]


def test_cost_curve_row_level_error_markers(capsys):
    code, out, _ = run_cli(
        capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:1e299:1e300"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert dict(zip(header, rows[0]))["regime"] == "below_threshold"
    assert dict(zip(header, rows[-1]))["regime"] == "error"
    assert math.isnan(float(dict(zip(header, rows[-1]))["rho"]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["rho", "cost-curve"])
def test_an_eps_grid_point_whose_square_overflows_is_an_error_row(capsys, command, fmt):
    # past eps = 1.34e154 the square is inf; that point was refused with
    # "eps2 must be finite" and took the whole table with it
    code, out, err = run_cli(capsys, command, "--gamma", "2", "--sigma2", "0.1",
                             "--grid", "0.1:1e153:3e154", "--grid-units", "eps", "--format", fmt)
    assert code == 0, err
    if fmt == "json":
        payload = json.loads(out, parse_constant=_refuse_constant)
        header, rows = payload["columns"], payload["rows"]
    else:
        header, rows = parse_csv(out)
    cells = [dict(zip(header, row)) for row in rows]
    assert len(cells) == 31
    first = cells[0]
    assert first["regime"] == "below_threshold" and float(first["eps2"]) == 0.1 * 0.1
    assert not math.isnan(float(first["rho"]))
    overflowed = [c for c in cells if c["eps2"] in ("inf", None)]
    assert len(overflowed) == 17
    for cell in cells[1:]:
        assert cell["regime"] == "error"
        numeric = [v for k, v in cell.items() if k not in ("eps2", "regime")]
        assert numeric == ([None] * len(numeric) if fmt == "json" else ["nan"] * len(numeric))


def test_a_single_eps_whose_square_overflows_is_still_refused(capsys):
    code, out, err = run_cli(capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--eps", "1e160")
    assert (code, out) == (2, "")
    assert err == "memcost: error: eps2 must be finite and nonnegative, got inf\n"


def test_cost_curve_empty_grid(capsys):
    code, out, _ = run_cli(
        capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "2:1:1"
    )
    assert code == 0
    header, rows = parse_csv(out)
    assert rows == []


def test_ols_command(capsys):
    code, out, _ = run_cli(capsys, "ols", "--gamma", "2", "--sigma2", "0.1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["ols_gap"]) == pytest.approx(LimitReduction(2.0, 0.1).gap, rel=1e-12)
    assert float(row["residual"]) <= 1e-10


def test_csv_and_json_contain_identical_values(capsys, tmp_path):
    out_json = tmp_path / "t.json"
    code, csv_text, _ = run_cli(capsys, "threshold", "--gamma", "2", "--sigma2", "0.1")
    code2, json_text, _ = run_cli(
        capsys, "threshold", "--gamma", "2", "--sigma2", "0.1",
        "--format", "json", "--out", str(out_json),
    )
    assert code == 0 and code2 == 0
    header, rows = parse_csv(csv_text)
    payload = json.loads(out_json.read_text())
    assert payload["columns"] == header
    for a, b in zip(rows[0], payload["rows"][0]):
        assert float(a) == float(b)


def test_simulate_reproducible_outputs(tmp_path, capsys):
    args = [
        "simulate", "--n", "60", "--d", "120", "--sigma2", "0.1",
        "--rho", "0", "--trials", "3", "--seed", "7",
    ]
    code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
    code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
    assert code1 == 0 and code2 == 0
    for name in ("trials.csv", "summary.json"):
        h1 = hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
        h2 = hashlib.sha256((tmp_path / "b" / name).read_bytes()).hexdigest()
        assert h1 == h2


def test_simulate_summary_contents(tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "simulate", "--n", "60", "--d", "120", "--sigma2", "0.1",
        "--rho", "0", "--trials", "3", "--seed", "7", "--out", str(tmp_path / "s"),
    )
    summary = json.loads((tmp_path / "s" / "summary.json").read_text())
    m = summary["metrics"]["train_ridge"]
    assert m["target"] == pytest.approx(LimitReduction(2.0, 0.1).threshold)
    assert "rel_dev" in m and "se" in m
    assert summary["config"]["seed"] == 7


def test_simulate_underparameterized_is_regime_error(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "400", "--d", "300", "--sigma2", "0.1",
        "--rho", "0", "--trials", "1", "--seed", "7",
    )
    assert code == 2
    assert "d > n" in err


def test_simulate_requires_exactly_one_constraint(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "40", "--d", "80", "--sigma2", "0.1",
        "--trials", "1", "--seed", "7",
    )
    assert code == 2


def test_simulate_infeasible_fixed_rho_is_typed_refusal(capsys):
    # the design allows rho up to about 0.35; 1.0 must not produce a table
    code, out, err = run_cli(
        capsys, "simulate", "--n", "200", "--d", "400", "--sigma2", "0.1",
        "--seed", "1", "--trials", "2", "--rho", "1.0",
    )
    assert code == 2
    assert out == ""
    assert "memcost: error:" in err and "Traceback" not in err


def test_simulate_keeps_trials_when_the_limit_law_has_no_cost_target(capsys, tmp_path):
    # both designs allow rho up to about 0.35, past the limit law's
    # 1/lambda_plus = 0.3431, where the asymptotic cost is undefined
    code, out, err = run_cli(
        capsys, "simulate", "--n", "200", "--d", "400", "--sigma2", "0.1", "--seed", "1",
        "--trials", "2", "--rho", "0.3433", "--out", str(tmp_path / "run"),
    )
    assert code == 0, err
    _, rows = parse_csv(out)
    assert len(rows) == 8
    metrics = json.loads((tmp_path / "run" / "summary.json").read_text())["metrics"]
    for name in ("rho", "cost"):
        assert "target" not in metrics[name] and "rel_dev" not in metrics[name]
    assert "target" in metrics["train_ridge"] and "target" in metrics["ols_gap"]


@pytest.mark.parametrize("flag", ["--eps2", "--rho"])
def test_simulate_cost_target_is_the_limit_law_bit_for_bit(tmp_path, capsys, flag):
    value = 2.0 * LimitReduction(2.0, 0.1).threshold if flag == "--eps2" else 0.2
    code, _, err = run_cli(
        capsys, "simulate", "--n", "60", "--d", "120", "--sigma2", "0.1", "--seed", "7",
        "--trials", "2", flag, repr(value), "--out", str(tmp_path / "s"),
    )
    assert code == 0, err
    metrics = json.loads((tmp_path / "s" / "summary.json").read_text())["metrics"]
    target, rho_target = metrics["cost"]["target"], metrics["rho"]["target"]
    if flag == "--eps2":
        assert target == LimitReduction(2.0, 0.1).cost(value).cost
        assert rho_target == LimitReduction(2.0, 0.1).solve(value).rho
    else:
        assert target == LimitReduction(2.0, 0.1).growth(1.0 - value * MPLaw(2.0).lambda_plus)
        assert rho_target == value


def test_simulate_infeasible_rho_refusal_names_the_trial(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "50", "--d", "100", "--sigma2", "0.1", "--seed", "1",
        "--trials", "1", "--rho", "1.0",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("memcost: error: trial 0: rho") and "Traceback" not in err


@pytest.mark.filterwarnings("error")
def test_simulate_reaches_eps2_far_past_the_limit_law(capsys):
    # the design's training error overflows at the smallest edge distance,
    # so any finite target is reached; the limit law's cost target is not
    code, out, err = run_cli(
        capsys, "simulate", "--n", "50", "--d", "100", "--sigma2", "0.1", "--seed", "1",
        "--trials", "1", "--eps2", "1e300",
    )
    assert code == 0, err
    values = {metric: float(value) for _, metric, value in parse_csv(out)[1]}
    assert set(values) == {"rho", "train_ridge", "cost", "ols_gap"}
    assert all(math.isfinite(v) and v > 0 for v in values.values())


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n,d,code", [(1, 2, 2), (5, 6, 0)])
def test_simulate_eps2_near_the_float_maximum_is_finite_or_refused(capsys, n, d, code):
    # n = 1: the first design's cost at eps2 = 1.7e308 is past the float range
    got, out, err = run_cli(
        capsys, "simulate", "--n", str(n), "--d", str(d), "--sigma2", "0.1", "--seed", "3",
        "--trials", "3", "--eps2", "1.7e308",
    )
    assert got == code, err
    if code == 2:
        assert err.startswith("memcost: error: trial 0: the cost") and out == ""
    else:
        assert all(math.isfinite(float(value)) for _, _, value in parse_csv(out)[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("flag, value", [("--eps2", "0"), ("--eps2", "-0.0"), ("--rho", "0"), ("--rho", "-0.0")])
def test_simulate_eps2_zero_of_either_sign_is_met_at_rho_zero(capsys, tmp_path, flag, value):
    # a zero target is met at delta = 1, before the solve reads a bracket; a
    # fixed rho of -0.0 printed as -0, and its summary.json target was -0.0
    code, out, err = run_cli(
        capsys, "simulate", "--n", "5", "--d", "6", "--sigma2", "0.1", "--seed", "3",
        "--trials", "2", flag, value, "--out", str(tmp_path / "run"),
    )
    assert code == 0, err
    values = [(metric, value) for _, metric, value in parse_csv(out)[1]]
    assert [v for metric, v in values if metric in ("rho", "cost")] == ["0"] * 4
    metrics = json.loads((tmp_path / "run" / "summary.json").read_text())["metrics"]
    for name in ("rho", "cost"):
        target = metrics[name]["target"]
        assert target == 0.0 and math.copysign(1.0, target) == 1.0


def test_threshold_gamma_near_one_is_solved(capsys):
    # the rho_ols root lies 3.7e-19 (delta) below the edge; the right-hand
    # side of its equation is about 1e8
    code, out, err = run_cli(capsys, "threshold", "--gamma", "1.0000001", "--sigma2", "0.1")
    assert code == 0, err
    header, rows = parse_csv(out)
    row = dict(zip(header, map(float, rows[0])))
    assert all(math.isfinite(v) for v in row.values())
    assert mp_reference.rel(row["eps_ols2"], mp_reference.rho_ols(1.0000001, 0.1)[1]) <= 1e-14


@pytest.mark.parametrize(
    "argv, solver",
    # a single eps2 past the float range of train is refused; on a grid it is an error row
    # past gamma near 1e206 the integral under train overflows short of 1e187/sigma2^2
    [(["rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", "1e300"], "rho(eps2)"),
     (["rho", "--gamma", "1e207", "--sigma2", "1e-61", "--eps2", "1e187"], "rho(eps2)")],
    ids=["rho-eps2", "rho-eps2-overflow"],
)
def test_target_past_float_range_is_a_refusal(capsys, argv, solver):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"memcost: error: {solver}:") and "Traceback" not in err


@pytest.mark.parametrize("gamma", ["1e32", "1e40", "1e100", "1e308"])
def test_asymptotic_commands_past_gamma_1e32(capsys, tmp_path, gamma):
    # the rounded edges are both 1 from gamma near 1e32; every command used to
    # end in a ZeroDivisionError or a math domain error there
    pop = tmp_path / "pop.txt"
    pop.write_text("1.0 0.5\n0.5 0.5\n")
    for argv in (["threshold"], ["threshold", "--pop", str(pop)], ["ols"], ["rho", "--eps2", "1"],
                 ["cost-curve", "--grid", "0.001:0.1:0.5"]):
        code, out, err = run_cli(capsys, *argv, "--gamma", gamma, "--sigma2", "0.1")
        assert code == 0, err
        header, rows = parse_csv(out)
        cells = [v for r in rows for h, v in zip(header, r) if h != "regime"]
        assert rows and all(math.isfinite(float(v)) for v in cells)


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv", [
    ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:1e299:1e300"],
    ["rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0:1e299:1e300"],
], ids=["cost-curve", "rho-grid"])
def test_json_error_rows_are_strict_json(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    payload = json.loads(out, parse_constant=_refuse_constant)
    rows = [dict(zip(payload["columns"], r)) for r in payload["rows"]]
    errors = [r for r in rows if r["regime"] == "error"]
    assert errors and len(errors) < len(rows)
    for row in errors:
        assert all(v is None for k, v in row.items() if k not in ("eps2", "regime"))
    # CSV keeps nan
    code, out, err = run_cli(capsys, *argv)
    header, csv_rows = parse_csv(out)
    assert code == 0 and math.isnan(float(dict(zip(header, csv_rows[-1]))["rho"]))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["rho", "cost-curve"])
def test_empty_grid_still_checks_gamma(capsys, command, fmt):
    # defect 17: gamma was checked only at each grid point, so an empty grid
    # exited 0 and echoed a nan or inf gamma into the JSON config
    argv = [command, "--sigma2", "0.1", "--grid", "1:1:0", "--format", fmt]
    for gamma in ("0.5", "1", "nan", "inf"):
        code, out, err = run_cli(capsys, *argv, "--gamma", gamma)
        assert (code, out) == (2, ""), gamma
        assert err.startswith("memcost: error:") and "Traceback" not in err
        assert "NaN" not in out and "Infinity" not in out
    code, out, err = run_cli(capsys, *argv, "--gamma", "2")
    assert code == 0, err
    if fmt == "json":
        assert json.loads(out, parse_constant=_refuse_constant)["rows"] == []
    else:
        assert parse_csv(out)[1] == []


@pytest.mark.parametrize("argv", [
    ["cost-curve", "--grid", "0.02:0.02:0.14"],
    ["cost-curve", "--grid", "0.02:0.02:0.14", "--format", "json"],
    ["rho", "--grid", "0.02:0.02:0.14"],
    ["rho", "--eps2", "0.1"],
    ["ols"],
    ["threshold"],
], ids=["cost-curve", "cost-curve-json", "rho-grid", "rho-eps2", "ols", "threshold"])
def test_each_asymptotic_command_builds_one_limit_reduction(capsys, monkeypatch, argv):
    built, original = [], LimitReduction.__init__
    monkeypatch.setattr(LimitReduction, "__init__", lambda red, *a: built.append(a) or original(red, *a))
    code, _, err = run_cli(capsys, *argv, "--gamma", "3", "--sigma2", "0.2")
    assert code == 0, err
    assert built == [(3.0, 0.2)]


def test_threshold_with_a_population_builds_one_reduction_and_solves_one_level(capsys, monkeypatch, tmp_path):
    from memcost import deformed

    built, solves = [], []
    init, solve_level = LimitReduction.__init__, deformed.solve_level
    monkeypatch.setattr(LimitReduction, "__init__", lambda red, *a: built.append(a) or init(red, *a))
    monkeypatch.setattr(deformed, "solve_level", lambda *a: solves.append(a) or solve_level(*a))
    code, _, err = run_cli(capsys, "threshold", "--gamma", "3", "--sigma2", "0.2", "--pop", _pop_file(tmp_path))
    assert code == 0, err
    assert (len(built), len(solves)) == (1, 1)


def test_cost_curve_evaluates_the_gap_once(capsys, monkeypatch):
    calls = []
    original = cli.ce._inverse_moment
    monkeypatch.setattr(cli.ce, "_inverse_moment", lambda *a: calls.append(a) or original(*a))
    # 7 points, 2 below the threshold 0.0427 and 5 above
    code, out, err = run_cli(capsys, "cost-curve", "--gamma", "3", "--sigma2", "0.2",
                             "--grid", "0.02:0.02:0.14")
    assert code == 0, err
    assert len(parse_csv(out)[1]) == 7
    assert len(calls) == 1


@pytest.mark.parametrize("argv", [
    ["rho", "--grid", "0.02:0.02:0.12"],
    ["cost-curve", "--grid", "0.02:0.02:0.14"],
], ids=["rho-grid", "cost-curve"])
def test_a_grid_op_binds_the_resolvent_once(capsys, monkeypatch, argv):
    # m(-a) is a fixed constant of the op: one evaluation per (law, a), not one per level evaluation
    from memcost import deformed, spectra

    calls, original = [], spectra.mp_stieltjes_neg

    def counting(law, a):
        calls.append((law.gamma, a))
        return original(law, a)

    monkeypatch.setattr(spectra, "mp_stieltjes_neg", counting)
    monkeypatch.setattr(deformed, "mp_stieltjes_neg", counting)
    code, out, err = run_cli(capsys, *argv, "--gamma", "3", "--sigma2", "0.2")
    assert code == 0, err
    assert len(parse_csv(out)[1]) in (6, 7)
    assert calls == [(3.0, 0.2)]


# (gamma, sigma2) where rho_ols lies from 1e-3 to 2.6e-14 (delta) below the edge
D9_POINTS = [("2", "0.1"), ("1.5", "0.01"), ("1.05", "0.01"), ("1.1", "1e-3"), ("1.01", "1e-4")]


@pytest.mark.parametrize("command", ["threshold", "ols"])
@pytest.mark.parametrize("gamma,sigma2", D9_POINTS)
def test_rho_ols_near_the_edge_matches_mpmath(capsys, command, gamma, sigma2):
    code, out, err = run_cli(capsys, command, "--gamma", gamma, "--sigma2", sigma2)
    assert code == 0, err
    header, rows = parse_csv(out)
    row = dict(zip(header, map(float, rows[0])))
    assert all(math.isfinite(v) for v in row.values())
    exact = mp_reference.rho_ols(float(gamma), float(sigma2))[1]
    assert mp_reference.rel(row["eps_ols2"], exact) <= 1e-14


def test_threshold_solves_rho_ols_once(capsys, monkeypatch):
    # counts the solves themselves, whichever name reaches them
    calls = []
    original = cli.ce.solve_multiplier
    monkeypatch.setattr(cli.ce, "solve_multiplier", lambda *a: calls.append(a[2]) or original(*a))
    code, _, _ = run_cli(capsys, "threshold", "--gamma", "2", "--sigma2", "0.1")
    assert code == 0
    assert calls.count("rho_ols") == 1


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.count("[PASS]") >= 8
    assert "[PASS] closed-form-vs-quadrature" in out


def test_verify_factors_each_design_once(capsys, monkeypatch):
    # one lab reduction per design, and at most three SVDs: the oracle's
    # thin SVD of X plus the two of an anisotropic reduction; --quick samples
    # two designs, and the boundary checks reuse the isotropic Gaussian one
    import numpy as np

    from memcost import finite_n_lab as lab

    calls = {"sample_design": 0, "_reduce": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for namespace, name in ((lab, "sample_design"), (lab, "_reduce"), (np.linalg, "svd")):
        monkeypatch.setattr(namespace, name, counted(name, getattr(namespace, name)))
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0, out
    assert calls["sample_design"] == 2
    assert calls["_reduce"] == calls["sample_design"]
    assert calls["svd"] <= 3 * calls["sample_design"]


def test_verify_perturbation_negative_control(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--perturb")
    assert code == 1
    assert "[FAIL] stationarity-residual" in out


# The public numbers of a LimitReduction and a DeformedReduction, each a member
# of one of them or, report and linear_bound, of both.
REDUCTION_NUMBERS = (
    "threshold", "approx", "solve", "cost", "linear_bound", "gap", "ols",
    "eps_def2", "solve_def", "bound", "report",
)

# The theory functions that `verify` does not call yet.  A check that reaches
# one takes it off this list; no name is ever added to it.
VERIFY_UNREACHED = {
    "threshold", "approx", "solve", "cost", "linear_bound", "ols", "solve_def", "bound",
    "report", "eps_def2", "mp_cdf",
}


def _verify_reach(capsys, monkeypatch, drop=()):
    """(theory functions, those that `verify --quick` calls) without the checks named in ``drop``.

    The theory functions are the ``REDUCTION_NUMBERS`` members of
    ``LimitReduction`` and ``DeformedReduction``, each looked up on the class
    that has it (a property's getter, a cached property's function), through
    its bases, and the functions in the ``__all__`` of ``deformed`` and
    ``spectra``, file parsing aside.  A member counts only when called on one
    of the two: the lab's reductions share ``solve`` and ``cost`` with
    ``LimitReduction``.  The calls made up to a check's yield are that
    check's, so a dropped check takes them with it.
    """
    import inspect

    from memcost import deformed, oracle, spectra

    def code(cls, member):
        obj = inspect.getattr_static(cls, member)
        return (obj.fget if isinstance(obj, property) else getattr(obj, "func", obj)).__code__

    reductions = (LimitReduction, DeformedReduction)
    members = {
        code(cls, name): name for name in REDUCTION_NUMBERS for cls in reductions if hasattr(cls, name)
    }
    theory = dict(members)
    theory.update(
        (getattr(module, name).__code__, name)
        for module in (deformed, spectra)
        for name in module.__all__
        if inspect.isfunction(getattr(module, name)) and not name.endswith("population_spectrum")
    )
    reached, segment = set(), set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in theory and (
            frame.f_code not in members or isinstance(frame.f_locals.get("self"), reductions)
        ):
            segment.add(theory[frame.f_code])

    checks = oracle.verify_checks

    def traced(*args):
        rows = checks(*args)
        while True:
            segment.clear()
            outer = sys.getprofile()
            sys.setprofile(profile)
            try:
                row = next(rows)
            except StopIteration:
                return
            finally:
                sys.setprofile(outer)
            if row[0] not in drop:
                reached.update(segment)
                yield row

    monkeypatch.setattr(oracle, "verify_checks", traced)
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0, out
    return set(theory.values()), reached


def _check_verify_reach(theory, reached):
    assert VERIFY_UNREACHED <= theory
    missing = sorted(theory - reached - VERIFY_UNREACHED)
    assert not missing, f"verify --quick never calls {missing}"
    assert not reached & VERIFY_UNREACHED, f"take {sorted(reached & VERIFY_UNREACHED)} off the allowlist"


def test_verify_reaches_every_theory_function_off_the_allowlist(capsys, monkeypatch):
    _check_verify_reach(*_verify_reach(capsys, monkeypatch))


def test_verify_reach_fails_without_a_check(capsys, monkeypatch):
    # closed-form-vs-quadrature is the only check that reads LimitReduction.gap
    theory, reached = _verify_reach(capsys, monkeypatch, drop={"closed-form-vs-quadrature"})
    with pytest.raises(AssertionError, match="'gap'"):
        _check_verify_reach(theory, reached)


def test_spectrum_command(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--n", "50", "--d", "100", "--seed", "3", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 50
    vals = [r[1] for r in payload["rows"]]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert "kolmogorov_distance" in payload["metadata"]


# defect 18: a design past numpy's largest array ended in a raw traceback
# with exit 1.  Only sizes that are refused before any allocation are run:
# whether 10^12 columns allocate depends on the host's memory overcommit.
OVERSIZED = {
    "spectrum": ["spectrum", "--n", "5", "--d", "1000000000000000000", "--seed", "1"],
    "simulate": ["simulate", "--n", "20", "--d", "1000000000000000000", "--seed", "1",
                 "--sigma2", "0.1", "--eps2", "1"],
}


@pytest.mark.parametrize("command", list(OVERSIZED))
def test_a_design_past_the_largest_array_is_refused(capsys, command):
    code, out, err = run_cli(capsys, *OVERSIZED[command])
    assert (code, out) == (2, "")
    assert err.startswith("memcost: error: an n x d = ") and "bytes" in err and "Traceback" not in err


@pytest.mark.parametrize("command", list(OVERSIZED))
def test_a_design_that_does_not_fit_in_memory_is_refused(capsys, monkeypatch, command):
    def refuse(config, trial):
        raise MemoryError("Unable to allocate 36.4 TiB for an array")

    monkeypatch.setattr("memcost.finite_n_lab.sample_design", refuse)
    argv = [a if a != "1000000000000000000" else "1000" for a in OVERSIZED[command]]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "memcost: error: Unable to allocate 36.4 TiB for an array\n"


def test_output_table_is_rectangular():
    with pytest.raises(DomainError):
        cli.OutputTable(header=["a", "b"], rows=[(1.0,)])


def test_seventeen_digit_round_trip():
    x = 0.014833147735478839
    assert float(f"{x:.17g}") == x


def test_cost_curve_gnuplot_companion(tmp_path, capsys):
    csv_path = tmp_path / "curve.csv"
    gp_path = tmp_path / "curve.gp"
    code, _, _ = run_cli(
        capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1",
        "--grid", "0.01:0.01:0.05", "--out", str(csv_path), "--gnuplot", str(gp_path),
    )
    assert code == 0
    script = gp_path.read_text()
    assert str(csv_path) in script and "plot" in script
    # script without a data file is a usage error
    code, _, err = run_cli(
        capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1",
        "--grid", "0.01:0.01:0.05", "--gnuplot", str(gp_path),
    )
    assert code == 2


def test_cost_curve_refuses_a_gnuplot_script_over_its_csv(tmp_path, capsys, monkeypatch):
    # the script used to replace the CSV, exit 0 and then plot itself
    monkeypatch.chdir(tmp_path)
    for out, script in (("curve.csv", "curve.csv"), ("curve.csv", "./curve.csv"),
                        ("curve.csv", str(tmp_path / "curve.csv"))):
        code, stdout, err = run_cli(
            capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1",
            "--grid", "0.01:0.01:0.05", "--out", out, "--gnuplot", script,
        )
        assert code == 2 and stdout == ""
        assert err.startswith("memcost: error: --gnuplot and --out name the same file")
        assert not (tmp_path / "curve.csv").exists()


TWO_ATOM_FILE = "1.0 0.5\n0.5 0.5\n"


def _pop_file(tmp_path):
    path = tmp_path / "two_atom.txt"
    path.write_text(TWO_ATOM_FILE)
    return str(path)


def _simulate_values(out):
    _, rows = parse_csv(out)
    values = {}
    for trial, metric, value in rows:
        values.setdefault(int(trial), {})[metric] = float(value)
    return values


def test_simulate_nan_rho_is_refused_before_any_trial(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr("memcost.finite_n_lab.trial_metrics", lambda config, t: calls.append(t))
    base = ["simulate", "--n", "60", "--d", "120", "--sigma2", "0.1", "--seed", "1",
            "--trials", "2", "--rho", "nan"]
    for extra in ([], ["--pop", _pop_file(tmp_path)]):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 2
        assert out == ""
        assert "memcost: error:" in err and "Traceback" not in err
    assert calls == []


def test_simulate_anisotropic_rho_past_z_cap_is_regime_refusal(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "simulate", "--n", "100", "--d", "200", "--sigma2", "0.1", "--seed", "1",
        "--trials", "1", "--rho", "2.0", "--pop", _pop_file(tmp_path),
    )
    assert code == 2
    assert out == ""
    assert "memcost: error:" in err and "top_eig(ZZ^T)" in err


def test_simulate_anisotropic_eps2_matches_direct_route(capsys, tmp_path):
    import numpy as np

    from memcost import finite_n_lab as lab
    from memcost.deformed import load_population_spectrum

    pop_path = _pop_file(tmp_path)
    eps2 = 3.0 * LimitReduction(2.0, 0.1).threshold
    code, out, _ = run_cli(
        capsys, "simulate", "--n", "100", "--d", "200", "--sigma2", "0.1", "--seed", "1",
        "--trials", "2", "--eps2", repr(eps2), "--pop", pop_path,
    )
    assert code == 0
    config = lab.ExperimentConfig(
        n=100, d=200, sigma2=0.1, seed=1, trials=2,
        population=load_population_spectrum(pop_path), eps2=eps2,
    )
    for trial, got in _simulate_values(out).items():
        design = lab.sample_design(config, trial)
        X, ss = design.X, design.sigma_sqrt
        assert got["rho"] > 0
        A = lab.build_estimator(X, ss, 0.1, got["rho"]).A
        A0 = lab.build_estimator(X, ss, 0.1, 0.0).A
        pred0 = lab.pred_error_direct(A0, X, ss, 0.1)
        growth = lab.pred_error_direct(A, X, ss, 0.1) - pred0
        gap = lab.pred_error_direct(np.linalg.pinv(X), X, ss, 0.1) - pred0
        assert lab.train_error_direct(A, X, 0.1) == pytest.approx(eps2, rel=1e-9)
        assert got["train_ridge"] == pytest.approx(lab.train_error_direct(A0, X, 0.1), rel=1e-9)
        assert got["cost"] == pytest.approx(growth, rel=1e-9)
        assert got["ols_gap"] == pytest.approx(gap, rel=1e-9)


def _mp_ols_gap(gamma, s2, dps=50):
    # the cancelling partial-fraction form, harmless at 50 digits
    import mpmath as mp

    with mp.workdps(dps):
        g, s2 = mp.mpf(gamma), mp.mpf(s2)
        a = 1 - 1 / g + s2
        m = (mp.sqrt(a * a + 4 * s2 / g) - a) / (2 * s2 / g)
        return float(s2 / g * (1 / (1 - 1 / g) - m))


def test_ols_gap_small_noise_matches_mpmath(capsys):
    code, out, err = run_cli(capsys, "ols", "--gamma", "2", "--sigma2", "1e-8")
    assert code == 0, err
    header, rows = parse_csv(out)
    gap = float(rows[0][header.index("ols_gap")])
    assert gap == pytest.approx(_mp_ols_gap(2.0, 1e-8), rel=1e-10)


def test_simulate_small_noise_gap_matches_mpmath(capsys, tmp_path):
    import mpmath as mp

    from memcost import finite_n_lab as lab
    from memcost.finite_n_lab import esd_from_design

    code, out, err = run_cli(
        capsys, "simulate", "--n", "100", "--d", "200", "--sigma2", "1e-8", "--seed", "1",
        "--trials", "1", "--rho", "0", "--out", str(tmp_path / "run"),
    )
    assert code == 0, err
    config = lab.ExperimentConfig(n=100, d=200, sigma2=1e-8, seed=1, trials=1, rho=0.0)
    s = esd_from_design(lab.sample_design(config, 0).Z)
    with mp.workdps(50):
        s2 = mp.mpf(1e-8)
        # -n/d + sigma2 tr((XX^T)^-1) + (1/d) tr(XX^T (XX^T + d sigma2)^-1), exactly
        exact = float(
            -mp.mpf(100) / 200
            + sum(s2 / (200 * mp.mpf(v)) + mp.mpf(v) / (200 * (mp.mpf(v) + s2)) for v in s)
        )
    assert _simulate_values(out)[0]["ols_gap"] == pytest.approx(exact, rel=1e-10)
    target = json.loads((tmp_path / "run" / "summary.json").read_text())["metrics"]["ols_gap"]
    assert target["target"] == pytest.approx(_mp_ols_gap(2.0, 1e-8), rel=1e-10)


def test_import_cli_does_not_load_scipy(tmp_path):
    # the asymptotic commands need only the standard library: neither the
    # import nor any of them loads numpy or scipy; the lab commands then do.
    # Nor do they load dataclasses, whose inspect/ast/dis/tokenize chain was
    # about 12 ms of a one-shot command's start-up, unless a bare interpreter has it
    import os
    import subprocess
    import textwrap

    import memcost

    src = os.path.dirname(os.path.dirname(memcost.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = textwrap.dedent("""
        import contextlib, io, sys
        import memcost.cli as cli
        pop = sys.argv[1]
        asymptotic = [
            ["threshold", "--gamma", "2", "--sigma2", "0.1"],
            ["threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", pop],
            ["threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", pop, "--format", "json"],
            ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", "0.04"],
            ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps", "0.2", "--format", "json"],
            ["rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.05"],
            ["rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.1:0.1:0.3", "--grid-units", "eps"],
            ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.05"],
            ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.05", "--format", "json"],
            ["ols", "--gamma", "2", "--sigma2", "0.1"],
            ["ols", "--gamma", "2", "--sigma2", "0.1", "--format", "json"],
        ]
        lab = [
            ["simulate", "--n", "40", "--d", "80", "--sigma2", "0.1", "--seed", "1", "--trials", "2",
             "--eps2", "0.05", "--pop", pop],
            ["spectrum", "--n", "20", "--d", "40", "--seed", "3"],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            theory = [cli.main(argv) for argv in asymptotic]
            loaded = sorted(m for m in ("numpy", "scipy") if m in sys.modules)
            chain = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
            after = [cli.main(argv) for argv in lab]
            oracle_after_lab = "memcost.oracle" in sys.modules
            verify = cli.main(["verify", "--quick"])
        print(theory, loaded, after, oracle_after_lab, verify, "memcost.oracle" in sys.modules)
        print(chain)
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe, _pop_file(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    summary, chain = result.stdout.splitlines()
    assert summary == f"{[0] * 11} [] [0, 0] False 0 True"
    bare = subprocess.run(
        [sys.executable, "-c",
         'import sys; print(sorted(m for m in ("dataclasses", "inspect") if m in sys.modules))'],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert chain == bare.stdout.strip()

    # the import path of every one-shot command, pinned: what importing
    # memcost.cli adds to a bare interpreter is at most these modules
    added = subprocess.run(
        [sys.executable, "-c",
         "import sys; bare = set(sys.modules); import memcost.cli; "
         "print(*sorted(set(sys.modules) - bare))"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert added.returncode == 0, added.stderr
    assert set(added.stdout.split()) <= {
        "__future__", "_json", "argparse", "gettext", "json", "json.decoder", "json.encoder",
        "json.scanner", "memcost", "memcost.cli", "memcost.cost_engine", "memcost.deformed",
        "memcost.errors", "memcost.numerics", "memcost.spectra",
    }

    # the lab alone never loads the oracle; the names bench/oracles.py reads
    # from the lab resolve to the oracle's functions on first access
    probe = textwrap.dedent("""
        import sys
        import memcost.finite_n_lab
        bare = "memcost.oracle" in sys.modules
        from memcost.finite_n_lab import build_estimator, pred_error_direct, train_error_direct
        from memcost import oracle
        same = (build_estimator, pred_error_direct, train_error_direct) == (
            oracle.build_estimator, oracle.pred_error_direct, oracle.train_error_direct)
        print(bare, same)
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False True"


def test_parser_is_built_on_the_first_main_call_and_only_then():
    import os
    import subprocess
    import textwrap

    import memcost

    src = os.path.dirname(os.path.dirname(memcost.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = textwrap.dedent("""
        import argparse, contextlib, io
        built = []
        init = argparse.ArgumentParser.__init__
        def counting(self, *a, **k):
            built.append(1)
            init(self, *a, **k)
        argparse.ArgumentParser.__init__ = counting
        import memcost.cli as cli
        at_import = len(built)
        argv = ["threshold", "--gamma", "2", "--sigma2", "0.1"]
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(argv)
            first = len(built)
            for _ in range(20):
                cli.main(argv)
        print(at_import, first, len(built))
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    at_import, first, total = map(int, result.stdout.split())
    assert at_import == 0
    # one top-level parser plus one per subcommand, built once for 21 calls
    assert first == 1 + 7
    assert total == first


def test_build_parser_returns_a_fresh_parser():
    # callers of build_parser() can never mutate the parser main() reuses
    first = cli.build_parser()
    assert first is not cli.build_parser() and first is not cli._parser()


def _run_captured(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# (exit code, argv): usage failures exit 2 and are each followed by a valid call
_SHARED_PARSER_SEQUENCE = [
    (0, ["threshold", "--gamma", "2", "--sigma2", "0.1"]),
    (2, ["threshold", "--sigma2", "0.1"]),
    (0, ["threshold", "--gamma", "2", "--sigma2", "0.1", "--format", "json"]),
    (2, ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps", "0.2", "--eps2", "0.04"]),
    (0, ["rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", "0.04"]),
    (0, ["rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.1:0.1:0.3", "--grid-units", "eps"]),
    (0, ["rho", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.05"]),
    (0, ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.05"]),
    (0, ["ols", "--gamma", "2", "--sigma2", "0.1"]),
    (0, ["simulate", "--n", "40", "--d", "80", "--sigma2", "0.1", "--seed", "1", "--trials", "2",
         "--rho", "0"]),
    (0, ["simulate", "--n", "40", "--d", "80", "--sigma2", "0.1", "--seed", "1", "--trials", "2",
         "--eps2", "0.05", "--dist", "rademacher"]),
    (0, ["simulate", "--n", "40", "--d", "80", "--sigma2", "0.1", "--seed", "2", "--trials", "2",
         "--eps2", "0.05"]),
    (0, ["spectrum", "--n", "20", "--d", "40", "--seed", "3"]),
    (0, ["verify", "--quick"]),
    (0, ["--help"]),
    (0, ["rho", "--help"]),
    (0, ["--version"]),
    (2, []),
    (0, ["threshold", "--gamma", "2", "--sigma2", "0.1"]),
]


def test_shared_parser_prints_what_a_fresh_parser_prints(capsys, monkeypatch):
    with monkeypatch.context() as m:
        # reference: every argv parsed by a parser built for that call alone
        m.setattr(cli, "_parser", cli.build_parser)
        expected = [_run_captured(capsys, argv) for _, argv in _SHARED_PARSER_SEQUENCE]
    assert [code for code, _, _ in expected] == [code for code, _ in _SHARED_PARSER_SEQUENCE]
    for (_, argv), want in zip(_SHARED_PARSER_SEQUENCE, expected):
        assert _run_captured(capsys, argv) == want, argv


def _parse_outcome(parse, argv):
    """vars of the namespace ``parse`` returns for argv, or its exit code; with stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("namespace", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _assert_parses_as_the_full_parser(argv):
    want = _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)
    assert _parse_outcome(cli._parse, argv) == want, argv
    return want


_SIM = ["simulate", "--n", "20", "--d", "40", "--sigma2", "0.1", "--seed", "1"]
_RHO = ["rho", "--gamma", "2", "--sigma2", "0.1"]

# (outcome kind, argv): the full parser's verdict on each, pinned so the cases stay what they say
_PARSE_CASES = [
    ("namespace", ["threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", "p.txt"]),
    ("namespace", _RHO + ["--eps2", "0.05", "--format", "json", "--out", "t.json"]),
    ("namespace", _RHO + ["--grid", "0.1:0.1:0.3", "--grid-units", "eps"]),
    ("namespace", ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0:1:2", "--gnuplot", "g"]),
    ("namespace", ["ols", "--sigma2=0.1", "--gamma=2"]),
    ("namespace", _SIM + ["--trials", "2", "--eps", "0.2", "--dist", "rademacher"]),
    ("namespace", ["verify", "--quick", "--seed", "7"]),
    ("namespace", ["spectrum", "--n", "20", "--d", "40", "--pop", "p.txt", "--format", "json"]),
    # negative numbers as values, with an exponent too, and an abbreviated option
    ("namespace", ["rho", "--gamma", "-2", "--sigma2", "-0.001", "--eps2", "-0.5"]),
    ("namespace", ["ols", "--gamma", "2", "--sigma2", "-1e-3"]),
    ("namespace", _SIM + ["--trials", "-3", "--rho", "-0.1"]),
    ("namespace", ["threshold", "--gam", "2", "--sig", "0.1"]),
    # an unknown option or argument after a command
    ("exit", ["threshold", "--gamma", "2", "--sigma2", "0.1", "--bogus"]),
    ("exit", ["ols", "--gamma", "2", "--sigma2", "0.1", "extra", "-x", "--y=1"]),
    ("exit", ["ols", "--gamma", "2", "--sigma2", "0.1", "--vers"]),
    ("exit", ["ols", "--gamma", "2", "--", "--sigma2", "0.1"]),
    ("exit", ["ols", "--gamma", "2", "--sigma2", "0.1", "--"]),
    # top-level options after a command belong to the command
    ("exit", ["threshold", "--version"]),
    ("exit", ["threshold", "--gamma", "2", "-h"]),
    ("exit", ["rho", "--help", "--bogus"]),
    # an ambiguous abbreviation, a missing required option, a bad choice and a bad type
    ("exit", _RHO + ["--g", "0:1:2"]),
    ("exit", ["threshold", "--gamma", "2"]),
    ("exit", _RHO),
    ("exit", _RHO + ["--eps2", "0.1", "--format", "xml"]),
    ("exit", ["ols", "--gamma", "two", "--sigma2", "0.1"]),
    ("exit", _SIM + ["--trials", "2.5"]),
    ("exit", _RHO + ["--eps2", "0.1", "--eps", "0.2"]),
    # what the full parser handles alone: empty argv, top-level options and unknown commands
    ("exit", []),
    ("exit", ["--version"]),
    ("exit", ["-h"]),
    ("exit", ["thresh", "--gamma", "2"]),
    ("exit", ["--gamma", "2", "threshold"]),
]


@pytest.mark.parametrize("kind,argv", _PARSE_CASES, ids=[" ".join(a) or "empty" for _, a in _PARSE_CASES])
def test_main_parses_as_the_full_parser(kind, argv):
    assert _assert_parses_as_the_full_parser(argv)[0][0] == kind


_VALUE_TOKENS = ["2", "0.1", "-1", "-0.5", "1e-3", "x", "0:1:2", "eps", "json", "gaussian", "--", "-", "-h"]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_main_parses_drawn_argv_as_the_full_parser(data):
    commands = cli._parser().commands
    command = data.draw(st.sampled_from(sorted(commands)))
    options = sorted(s for a in commands[command]._actions for s in a.option_strings)
    # the options, some cut to a prefix or given a value with "=", among plain values
    option = st.sampled_from(options)
    token = st.one_of(
        option,
        st.builds(lambda o, k: o[: max(3, len(o) - k)], option, st.integers(0, 6)),
        st.builds(lambda o, v: f"{o}={v}", option, st.sampled_from(_VALUE_TOKENS)),
        st.sampled_from(_VALUE_TOKENS + ["--version", "--bogus"]),
    )
    _assert_parses_as_the_full_parser([command] + data.draw(st.lists(token, max_size=8)))


_SIM_ARGV = "simulate --n 20 --d 40 --seed 1 --trials 1"
# each float option of each command, set to {} in an otherwise valid argv
_FLOAT_OPTION_ARGV = {
    ("threshold", "--gamma"): "threshold --sigma2 0.1 --gamma {}",
    ("threshold", "--sigma2"): "threshold --gamma 2 --sigma2 {}",
    ("rho", "--gamma"): "rho --sigma2 0.1 --eps2 0.05 --gamma {}",
    ("rho", "--sigma2"): "rho --gamma 2 --eps2 0.05 --sigma2 {}",
    ("rho", "--eps2"): "rho --gamma 2 --sigma2 0.1 --eps2 {}",
    ("rho", "--eps"): "rho --gamma 2 --sigma2 0.1 --eps {}",
    ("cost-curve", "--gamma"): "cost-curve --sigma2 0.1 --grid 0.01:0.01:0.02 --gamma {}",
    ("cost-curve", "--sigma2"): "cost-curve --gamma 2 --grid 0.01:0.01:0.02 --sigma2 {}",
    ("ols", "--gamma"): "ols --sigma2 0.1 --gamma {}",
    ("ols", "--sigma2"): "ols --gamma 2 --sigma2 {}",
    ("simulate", "--sigma2"): _SIM_ARGV + " --rho 0 --sigma2 {}",
    ("simulate", "--rho"): _SIM_ARGV + " --sigma2 0.1 --rho {}",
    ("simulate", "--eps2"): _SIM_ARGV + " --sigma2 0.1 --eps2 {}",
    ("simulate", "--eps"): _SIM_ARGV + " --sigma2 0.1 --eps {}",
}


def test_every_float_option_has_a_negative_value_case():
    commands = cli.build_parser().commands
    floats = {(name, a.option_strings[0])
              for name, sub in commands.items() for a in sub._actions if a.type is float}
    assert floats == set(_FLOAT_OPTION_ARGV)


@pytest.mark.parametrize(
    "argv", list(_FLOAT_OPTION_ARGV.values()), ids=[" ".join(k) for k in _FLOAT_OPTION_ARGV]
)
def test_a_negative_value_with_an_exponent_reaches_the_range_refusal(capsys, argv):
    got = _run_captured(capsys, argv.format("-1e-3").split())
    assert got == _run_captured(capsys, argv.format("-0.001").split())
    code, out, err = got
    assert (code, out) == (2, "") and err.startswith("memcost: error:"), err
    # every other negative form float() reads is a value too, as after "="
    for value in ("-1_000", "-.5E+1", "-inf", "-Infinity", "-NaN"):
        got = _run_captured(capsys, argv.format(value).split())
        assert got == _run_captured(capsys, argv.replace(" {}", "={}").format(value).split())
        assert got[:2] == (2, "") and "expected one argument" not in got[2], got[2]


def test_the_negative_number_matcher_takes_only_what_float_reads():
    for s in ("-1", "-1.", "-.5", "-1_000.5e1_0", "-1E+3", "-inf", "-INFINITY", "-nan"):
        assert cli._NEGATIVE_NUMBER.match(s), s
        float(s)  # a form float() does not read raises ValueError
    for s in ("-h", "--n", "-", "-.", "-e5", "-1e", "-1e-", "-_1", "-1_", "-1__0", "-1.5.2", "-infin"):
        assert not cli._NEGATIVE_NUMBER.match(s), s


# options that choose where and how a table is written; every other option is echoed
_OUTPUT_OPTIONS = {"--out", "--format", "--gnuplot"}


def test_every_table_option_is_echoed_or_an_output_option():
    commands = cli.build_parser().commands
    tables = {name for name, sub in commands.items() if "--format" in sub._option_string_actions}
    assert tables == {"threshold", "rho", "cost-curve", "ols", "simulate", "spectrum"}
    for name in tables:
        options = [a for a in commands[name]._actions if a.option_strings and a.dest != "help"]
        echo = cli._config_echo(argparse.Namespace(command=name, func=None, **{a.dest: 1 for a in options}))
        for a in options:
            assert (a.dest in echo) != (a.option_strings[0] in _OUTPUT_OPTIONS), (name, a.option_strings)


@pytest.mark.parametrize("argv", [
    "threshold --gamma 2 --sigma2 0.1",
    "threshold --gamma 3 --sigma2 0.05 --pop {pop}",
    "rho --gamma 2 --sigma2 0.1 --eps2 0.05",
    "rho --gamma 4 --sigma2 0.3 --eps 0.2",
    "rho --gamma 2 --sigma2 0.1 --grid 0.01:0.02:0.09",
    "rho --gamma 2 --sigma2 0.1 --grid 0.1:0.1:0.3 --grid-units eps",
    "cost-curve --gamma 3 --sigma2 0.2 --grid 0.02:0.02:0.1",
    "cost-curve --gamma 3 --sigma2 0.2 --grid 0.1:0.1:0.4 --grid-units eps",
    "ols --gamma 1.5 --sigma2 0.01",
    "spectrum --n 20 --d 40 --seed 3",
    "simulate --n 20 --d 40 --sigma2 0.1 --seed 1 --trials 2 --eps 0.2",
])
def test_a_table_rebuilt_from_its_config_echo_prints_the_same_rows(capsys, tmp_path, argv):
    (tmp_path / "pop.txt").write_text(TWO_ATOM_FILE)
    code, out, err = run_cli(capsys, *argv.format(pop=tmp_path / "pop.txt").split())
    assert code == 0, err
    # "# key: json" lines, after the "# memcost <version>" line
    meta = dict(line[2:].split(": ", 1) for line in out.splitlines()[1:] if line.startswith("# "))
    command = json.loads(meta["command"])
    option = {a.dest: a.option_strings[0] for a in cli.build_parser().commands[command]._actions}
    rebuilt = [command]
    for dest, value in json.loads(meta["config"]).items():
        rebuilt += [option[dest], str(value)]
    assert run_cli(capsys, *rebuilt) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [
        ["threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", "{tmp}/missing.txt"],
        ["threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", "{tmp}"],
        ["threshold", "--gamma", "2", "--sigma2", "0.1", "--out", "{tmp}/missing/x.csv"],
        ["cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.02",
         "--out", "{tmp}/c.csv", "--gnuplot", "{tmp}/missing/x.gp"],
        ["simulate", "--n", "20", "--d", "40", "--sigma2", "0.1", "--seed", "1",
         "--trials", "1", "--rho", "0", "--out", "{tmp}/a_file/sub"],
    ],
    ids=["pop-missing", "pop-directory", "out-missing-dir", "gnuplot-missing-dir", "simulate-out-under-file"],
)
def test_file_errors_are_refusals_that_print_no_table(capsys, tmp_path, argv):
    (tmp_path / "a_file").write_text("")
    code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert "memcost: error:" in err and "Traceback" not in err


def test_cost_curve_writes_no_gnuplot_script_when_the_csv_fails(capsys, tmp_path):
    script = tmp_path / "x.gp"
    code, out, err = run_cli(
        capsys, "cost-curve", "--gamma", "2", "--sigma2", "0.1", "--grid", "0.01:0.01:0.02",
        "--out", str(tmp_path / "missing" / "c.csv"), "--gnuplot", str(script),
    )
    assert code == 2
    assert out == ""
    assert "memcost: error:" in err and "Traceback" not in err
    assert not script.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_verify_refuses_a_seed_outside_64_bits_before_any_check(capsys, seed):
    code, out, err = run_cli(capsys, "verify", "--quick", "--seed", seed)
    assert code == 2
    assert out == ""
    assert "memcost: error:" in err and "64 unsigned bits" in err


def test_population_of_equal_atoms_is_isotropic_and_gets_the_same_targets(capsys, tmp_path):
    pop = tmp_path / "pop.txt"
    summaries = []
    for text in ("1.0 1.0\n", "1.0 0.5\n1.0 0.5\n"):
        pop.write_text(text)
        code, _, _ = run_cli(
            capsys, "simulate", "--n", "20", "--d", "40", "--sigma2", "0.1", "--seed", "1",
            "--trials", "2", "--rho", "0", "--pop", str(pop), "--out", str(tmp_path / "run"),
        )
        assert code == 0
        summaries.append((tmp_path / "run" / "summary.json").read_text())
    assert summaries[0] == summaries[1]
    assert "rel_dev" in json.loads(summaries[1])["metrics"]["cost"]
