"""The asymptotic commands print pinned bytes.

``theory_stdout.json`` maps each argv below (joined by spaces) to the exit
code and stdout that ``memcost.cli.main`` gave for it.  A refactor of the
theory layers must leave every byte alone; an intended output change
rewrites the file from the new output and says why.  ``{pop}`` stands for a
two-atom population file (condition number 4) written for the test.
"""

import json
from pathlib import Path

import pytest

from memcost import cli

EXPECTED = Path(__file__).with_name("theory_stdout.json")

ARGV = [
    "threshold --gamma 2 --sigma2 0.1",
    "threshold --gamma 3 --sigma2 0.05 --pop {pop}",
    "threshold --gamma 1.01 --sigma2 1e-4 --format json",
    "ols --gamma 1.5 --sigma2 0.01",
    "rho --gamma 2 --sigma2 0.1 --eps2 0.05",
    "rho --gamma 4 --sigma2 0.3 --eps 0.2",
    "rho --gamma 2 --sigma2 0.1 --grid 0:1e299:1e300",
    "cost-curve --gamma 3 --sigma2 0.2 --grid 0.02:0.02:0.14",
    "cost-curve --gamma 3 --sigma2 0.2 --grid 0.02:0.02:0.14 --format json",
    "cost-curve --gamma 10 --sigma2 0.05 --grid 0.05:0.1:0.45 --grid-units eps",
    "threshold --gamma 1e308 --sigma2 0.1",
    "cost-curve --gamma 1e308 --sigma2 0.1 --grid 0.001:0.1:0.5",
    "threshold --gamma 2 --sigma2 1e-100",
    "rho --gamma 2 --sigma2 1e-100 --eps2 3e-200",
    "threshold --gamma 1.05 --sigma2 1e-100 --pop {pop}",
    "threshold --gamma 2 --sigma2 1e100 --pop {pop} --format json",
    "threshold --gamma 1e308 --sigma2 0.1 --pop {pop}",
    "threshold --gamma 1 --sigma2 0.1 --pop {pop}",
    "threshold --gamma 1.05 --sigma2 0.1 --pop {pop}",
    "rho --gamma 1.01 --sigma2 1e-100 --grid 0:5e-199:3e-198",
    "rho --gamma 1.01 --sigma2 1e100 --grid 5e99:5e99:3e100",
    "rho --gamma 1e6 --sigma2 1e-100 --grid 0:5e-201:3e-200",
    "rho --gamma 1e6 --sigma2 1e100 --grid 5e99:5e99:3e100 --format json",
    "rho --gamma 2 --sigma2 0.1 --grid 0.1:0.1:0.6 --grid-units eps",
    "cost-curve --gamma 1.01 --sigma2 1e-100 --grid 0:5e-199:3e-198",
    "cost-curve --gamma 1.01 --sigma2 1e100 --grid 5e99:5e99:3e100 --format json",
    "cost-curve --gamma 1e6 --sigma2 1e-100 --grid 0:5e-201:3e-200",
    "cost-curve --gamma 1e6 --sigma2 1e100 --grid 5e99:5e99:3e100",
]

POP = "# two atoms, condition number 4\n1.0 0.5\n0.25 0.5\n"


def _first_difference(got: str, want: str) -> str:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for k, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return f"line {k + 1}: got {g!r}, expected {w!r}"
    k = min(len(got_lines), len(want_lines))
    return f"line {k + 1}: got {len(got_lines)} lines, expected {len(want_lines)}"


def run(argv: str, pop: Path, capsys) -> tuple[int, str]:
    code = cli.main(argv.format(pop=pop).split())
    return code, capsys.readouterr().out.replace(str(pop), "{pop}")


@pytest.mark.parametrize("argv", ARGV)
def test_asymptotic_command_prints_pinned_bytes(argv, tmp_path, capsys):
    pop = tmp_path / "pop.txt"
    pop.write_text(POP)
    want_code, want = json.loads(EXPECTED.read_text(encoding="utf-8"))[argv]
    code, out = run(argv, pop, capsys)
    assert code == want_code
    assert out == want, _first_difference(out, want)
