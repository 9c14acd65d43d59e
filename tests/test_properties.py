"""Property tests at the CLI boundary, run in-process through ``cli.main``."""

import contextlib
import io
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from memcost import cli


def _run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    lines = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    header, *rows = [line.split(",") for line in lines] if lines else [[]]
    return code, header, rows, err.getvalue()


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
