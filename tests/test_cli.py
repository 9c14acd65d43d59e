import csv
import hashlib
import io
import json
import math
import sys

import pytest

from memcost import cli
from memcost.cost_engine import (
    NoiseLevel,
    memorization_threshold,
    ols_gap,
    solve_rho,
    solve_rho_ols,
    threshold_report,
)
from memcost.deformed import load_population_spectrum
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


def test_threshold_command_values(capsys):
    code, out, _ = run_cli(capsys, "threshold", "--gamma", "2", "--sigma2", "0.1")
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["eps_sigma2"]) == pytest.approx(
        memorization_threshold(2.0, NoiseLevel(0.1)), abs=1e-15
    )
    assert float(row["eps_ols2"]) == pytest.approx(
        solve_rho_ols(2.0, NoiseLevel(0.1)).target_eps2, rel=1e-12
    )
    assert float(row["rho_ols"]) == pytest.approx(
        solve_rho_ols(2.0, NoiseLevel(0.1)).rho, rel=1e-12
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
    report = threshold_report(2.0, NoiseLevel(0.1), pop)
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
    th = memorization_threshold(2.0, NoiseLevel(s2))
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


def test_malformed_population_file(tmp_path, capsys):
    pop = tmp_path / "bad.spec"
    pop.write_text("1.0 0.5\nnot numbers\n")
    code, out, err = run_cli(
        capsys, "threshold", "--gamma", "2", "--sigma2", "0.1", "--pop", str(pop)
    )
    assert code == 2
    assert "2" in err  # line number surfaced


def test_rho_command_single_point(capsys):
    th = memorization_threshold(2.0, NoiseLevel(0.1))
    code, out, _ = run_cli(
        capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", str(2 * th)
    )
    assert code == 0
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["rho"]) == pytest.approx(solve_rho(2.0, NoiseLevel(0.1), 2 * th).rho)
    assert row["regime"] == "above_threshold"


def test_rho_command_eps_flag_squares(capsys):
    th = memorization_threshold(2.0, NoiseLevel(0.1))
    eps = math.sqrt(2 * th)
    code, out, _ = run_cli(capsys, "rho", "--gamma", "2", "--sigma2", "0.1", "--eps", str(eps))
    header, rows = parse_csv(out)
    assert float(rows[0][0]) == pytest.approx(2 * th, rel=1e-12)


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
    th = memorization_threshold(2.0, NoiseLevel(0.1))
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
    eo2 = solve_rho_ols(2.0, NoiseLevel(0.1)).target_eps2
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
    assert float(row["ols_gap"]) == pytest.approx(ols_gap(2.0, NoiseLevel(0.1)), rel=1e-12)
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
    assert m["target"] == pytest.approx(memorization_threshold(2.0, NoiseLevel(0.1)))
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
    assert "target" not in metrics["cost"] and "rel_dev" not in metrics["cost"]
    assert "target" in metrics["train_ridge"] and "target" in metrics["ols_gap"]


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
    [(["rho", "--gamma", "2", "--sigma2", "0.1", "--eps2", "1e300"], "rho(eps2)")],
    ids=["rho-eps2"],
)
def test_target_past_float_range_is_a_refusal(capsys, argv, solver):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"memcost: error: {solver}:") and "Traceback" not in err


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
    calls = []
    original = cli.ce.solve_rho_ols
    monkeypatch.setattr(cli.ce, "solve_rho_ols", lambda *a: calls.append(a) or original(*a))
    code, _, _ = run_cli(capsys, "threshold", "--gamma", "2", "--sigma2", "0.1")
    assert code == 0
    assert len(calls) == 1


def test_verify_quick_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick")
    assert code == 0
    assert "[FAIL]" not in out
    assert out.count("[PASS]") >= 8
    assert "[PASS] closed-form-vs-quadrature" in out


def test_verify_factors_each_design_once(capsys, monkeypatch):
    # one lab reduction per design, and at most three SVDs: the oracle's
    # thin SVD of X plus the two of an anisotropic reduction
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
    assert calls["sample_design"] == 3
    assert calls["_reduce"] == calls["sample_design"]
    assert calls["svd"] <= 3 * calls["sample_design"]


def test_verify_perturbation_negative_control(capsys):
    code, out, _ = run_cli(capsys, "verify", "--quick", "--perturb")
    assert code == 1
    assert "[FAIL] stationarity-residual" in out


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
    eps2 = 3.0 * memorization_threshold(2.0, NoiseLevel(0.1))
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
    s = esd_from_design(lab.sample_design(config, 0).Z).values
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
    # import nor any of them loads numpy or scipy; the lab commands then do
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
            after = [cli.main(argv) for argv in lab]
            oracle_after_lab = "memcost.oracle" in sys.modules
            verify = cli.main(["verify", "--quick"])
        print(theory, loaded, after, oracle_after_lab, verify, "memcost.oracle" in sys.modules)
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe, _pop_file(tmp_path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == f"{[0] * 11} [] [0, 0] False 0 True"

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
