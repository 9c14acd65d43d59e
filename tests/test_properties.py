"""Property tests at the CLI boundary, run in-process through ``cli.main``."""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from memcost import cli


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


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    log10_gamma=st.floats(min_value=math.log10(1.0 + 1e-6), max_value=308.0),
    log10_sigma2=st.floats(min_value=-100.0, max_value=100.0),
    log10_eps2=st.floats(min_value=-300.0, max_value=300.0),
)
def test_asymptotic_commands_over_the_whole_domain(log10_gamma, log10_sigma2, log10_eps2):
    # gamma log-uniform on [1 + 1e-6, 1e308] and sigma2 on [1e-100, 1e100]: each
    # command prints a finite table (error rows aside) or refuses with exit 2
    gamma = max(10.0**log10_gamma, 1.0 + 1e-6)
    sigma2, eps2 = 10.0**log10_sigma2, 10.0**log10_eps2
    commands = (
        ["threshold"],
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
