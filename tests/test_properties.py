"""Property tests at the CLI boundary, run in-process through ``cli.main``."""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from memcost import cli
from memcost.finite_n_lab import Readings


def _call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _run(*argv):
    code, out, err = _call(*argv)
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    header, *rows = [line.split(",") for line in lines] if lines else [[]]
    return code, header, rows, err


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    gamma=st.floats(min_value=1.0 + 1e-6, max_value=1.2),
    log10_sigma2=st.floats(min_value=-6.0, max_value=0.0),
)
def test_threshold_family_is_finite_and_ordered_as_gamma_tends_to_one(gamma, log10_sigma2):
    # rho_ols approaches the spectral edge as gamma -> 1+; every (gamma, sigma2)
    # still gets a finite, ordered threshold family and exit 0
    sigma2 = 10.0**log10_sigma2
    for command in ("threshold", "ols"):
        code, header, rows, err = _run(command, "--gamma", repr(gamma), "--sigma2", repr(sigma2))
        assert code == 0, err
        assert len(rows) == 1
        row = dict(zip(header, map(float, rows[0])))
        assert all(math.isfinite(v) for v in row.values())
        if command == "threshold":
            assert row["eps_sigma2"] < row["eps_ols2"]


def _numeric_cells(header, rows):
    """Every numeric cell of a table, apart from the documented ``error`` rows."""
    for row in rows:
        cells = dict(zip(header, row))
        if cells.get("regime") == "error":
            continue
        yield from (float(v) for k, v in cells.items() if k != "regime")


@pytest.fixture(scope="module")
def kappa4_pop(tmp_path_factory):
    """A two-atom population file with kappa = 4, written once per module: hypothesis
    refuses a function-scoped fixture."""
    path = tmp_path_factory.mktemp("pop") / "kappa4.txt"
    path.write_text("1.0 0.5\n0.25 0.5\n", encoding="utf-8")
    return str(path)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    log10_gamma=st.floats(min_value=math.log10(1.0 + 1e-6), max_value=308.0),
    log10_sigma2=st.floats(min_value=-100.0, max_value=100.0),
    log10_eps2=st.floats(min_value=-300.0, max_value=300.0),
)
def test_asymptotic_commands_over_the_whole_domain(kappa4_pop, log10_gamma, log10_sigma2, log10_eps2):
    # gamma log-uniform on [1 + 1e-6, 1e308] and sigma2 on [1e-100, 1e100]: each
    # command prints a finite table (error rows aside) or refuses with exit 2
    gamma = max(10.0**log10_gamma, 1.0 + 1e-6)
    sigma2, eps2 = 10.0**log10_sigma2, 10.0**log10_eps2
    commands = (
        ["threshold"],
        ["threshold", "--pop", kappa4_pop],
        ["ols"],
        ["rho", "--eps2", repr(eps2)],
        ["cost-curve", "--grid", f"0:{eps2 / 2!r}:{eps2!r}"],
    )
    for argv in commands:
        code, out, err = _call(*argv, "--gamma", repr(gamma), "--sigma2", repr(sigma2))
        assert code in (0, 2), err
        if code == 0:
            header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
            assert rows and all(math.isfinite(v) for v in _numeric_cells(header, rows))
        else:
            assert out == "" and err.startswith("memcost: error:")


_POP_TOKENS = ["1", "1.0", "0.5", "0.25", "2", "3e2", "1e-300", "1e-308", "1e-320", "5e-324", "0", "-1",
               "nan", "inf", "x", "1,5", "0x1p-3", "1e400", "#", "# comment"]
_POP_COMMANDS = (
    ["threshold", "--gamma", "2", "--sigma2", "0.1"],
    ["simulate", "--n", "6", "--d", "12", "--sigma2", "0.1", "--seed", "1", "--trials", "1", "--rho", "0"],
    ["spectrum", "--n", "6", "--d", "12"],
)


# random bytes; lines of one to three drawn tokens; subnormal or tiny atoms with
# weights that do not sum to 1
_POP_CONTENTS = st.one_of(
    st.binary(max_size=64),
    st.lists(st.lists(st.sampled_from(_POP_TOKENS), min_size=1, max_size=3).map(" ".join), max_size=4)
    .map(lambda lines: "\n".join(lines).encode()),
    st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0, allow_subnormal=True),
                       st.floats(min_value=1e-6, max_value=10.0)), min_size=1, max_size=4)
    .map(lambda atoms: "".join(f"{v!r} {w!r}\n" for v, w in atoms).encode()),
)


@pytest.mark.filterwarnings("ignore:atom weights sum to", "ignore:top atom value")
@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=_POP_CONTENTS)
def test_pop_files_print_a_table_or_refuse_without_a_traceback(tmp_path, content):
    # every --pop file, text or not, gives exit 0, or exit 2 with no table
    pop = tmp_path / "pop.txt"
    pop.write_bytes(content)
    for argv in _POP_COMMANDS:
        code, out, err = _call(*argv, "--pop", pop)
        assert code in (0, 2), err
        assert "Traceback" not in err
        if code == 2:
            assert out == "" and err.startswith("memcost: error:")


# a design of n <= 30 and d <= 90, and a constraint on either side of the
# designs' edge (rho near 1/(1 + sqrt(n/d))^2, eps2 past the float range)
_SIM_VALID = st.fixed_dictionaries({
    "size": st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 90))),
    "trials": st.integers(1, 3),
    "seed": st.integers(0, 2**64 - 1),
    "constraint": st.one_of(
        st.tuples(st.just("--rho"), st.floats(0.0, 1.5)),
        st.tuples(st.just("--eps2"),
                  st.one_of(st.just(0.0), st.floats(-300.0, 308.0).map(lambda e: 10.0**e))),
    ),
})
# one argument spoiled: d <= n, n < 1 or a size past the largest array, which
# ExperimentConfig refuses before any allocation; trials, seeds and constraints
# out of range
_BAD_VALUES = st.sampled_from([-1.0, -0.0, -1e-300, math.nan, math.inf, -math.inf])
_SIM_SPOILED = {
    "size": st.one_of(
        st.integers(1, 30).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
        st.sampled_from([(0, 10), (-1, 10), (-30, 20), (2**31, 2**33), (2**40, 2**41)]),
    ),
    "trials": st.sampled_from([0, -1]),
    "seed": st.sampled_from([-1, 2**64]),
    "constraint": st.tuples(st.sampled_from(["--rho", "--eps2"]), _BAD_VALUES),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    args=_SIM_VALID,
    spoil=st.sampled_from([None] * 4 + sorted(_SIM_SPOILED)).flatmap(
        lambda key: st.none() if key is None else st.tuples(st.just(key), _SIM_SPOILED[key])),
    sigma2=st.sampled_from([1e-4, 0.1, 1.0]),
    dist=st.sampled_from(["gaussian", "rademacher"]),
)
def test_simulate_prints_finite_readings_or_refuses(args, spoil, sigma2, dist):
    # exit 0 prints a finite row per trial and Readings field, in order, and a
    # summary.json without NaN or infinity; exit 2 prints no table
    if spoil is not None:
        args = {**args, spoil[0]: spoil[1]}
    (n, d), trials, (flag, value) = args["size"], args["trials"], args["constraint"]
    with tempfile.TemporaryDirectory() as out_dir:
        code, out, err = _call(
            "simulate", "--n", n, "--d", d, "--sigma2", repr(sigma2), "--seed", args["seed"],
            "--trials", trials, flag, repr(value), "--dist", dist, "--out", out_dir)
        assert code in (0, 2), err
        if code == 2:
            assert out == "" and err.startswith("memcost: error:")
            return
        header, *rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")]
        assert header == ["trial", "metric", "value"]
        assert [(int(t), name) for t, name, _ in rows] == [
            (t, name) for t in range(trials) for name in Readings._fields]
        assert all(math.isfinite(float(v)) for _, _, v in rows)

        def refuse(constant):
            raise ValueError(f"summary.json holds {constant}")

        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.loads(fh.read(), parse_constant=refuse)
        assert sorted(summary["metrics"]) == sorted(Readings._fields)
