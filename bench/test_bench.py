"""Self-tests of the benchmark: seeded op lists and oracle sensitivity."""

import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


def argvs(workload, seed, seconds=10):
    return [op["argv"] for op in workloads.generate(workload, seed, seconds)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv_list(workload):
    assert argvs(workload, 7) == argvs(workload, 7)
    assert workloads.probes(workload, 7) == workloads.probes(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_different_argv_list(workload):
    a, b = argvs(workload, 7), argvs(workload, 8)
    assert len(a) == len(b)
    assert a != b
    # same recipe of op classes, different inputs
    assert sorted(x[0] for x in a) == sorted(x[0] for x in b)


def test_no_sigma2_shared_across_ops():
    for workload in workloads.WORKLOADS:
        ops = [op["argv"] for op in workloads.generate(workload, 3, 20)]
        sigma2 = [argv[argv.index("--sigma2") + 1] for argv in ops if "--sigma2" in argv]
        assert len(sigma2) == len(set(sigma2))


def perturb(stdout, column, factor):
    """Scale one printed value of a CSV table by ``factor``."""
    lines = stdout.splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[start].split(",")
    cells = lines[start + 1].split(",")
    j = header.index(column)
    cells[j] = repr(float(cells[j]) * factor)
    lines[start + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def cli_main():
    from memcost import cli

    return cli.main


def test_theory_oracle_flags_a_1e6_perturbation(cli_main):
    argv = ["ols", "--gamma", "2.0", "--sigma2", "0.1"]
    out = run_op(cli_main, argv)["stdout"]
    oracle = oracles.TheoryOracle()
    assert oracle.check("ols", argv, out).ok
    for column in ("eps_ols2", "ols_gap"):
        bad = oracle.check("ols", argv, perturb(out, column, 1 + 1e-6))
        assert not bad.ok
        assert bad.max_dev == pytest.approx(1e-6, rel=1e-3)


def test_lab_oracle_flags_a_1e6_perturbation(cli_main):
    argv = ["simulate", "--n", "60", "--d", "120", "--sigma2", "0.2", "--seed", "11",
            "--trials", "1", "--rho", "0.2"]
    out = run_op(cli_main, argv)["stdout"]
    oracle = oracles.LabOracle()
    assert oracle.check(argv, out, 0).ok
    # rows are (trial, metric, value); perturb the cost row
    lines = out.splitlines()
    i = next(k for k, line in enumerate(lines) if line.startswith("0,cost,"))
    value = float(lines[i].split(",")[2])
    lines[i] = f"0,cost,{value * (1 + 1e-6)!r}"
    assert not oracle.check(argv, "\n".join(lines) + "\n", 0).ok
