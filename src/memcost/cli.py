"""Command-line front end.

Subcommands: threshold, rho, cost-curve, ols, simulate, verify, spectrum.
Tables go to stdout as CSV (metadata in leading ``#`` lines) or JSON; every
table embeds the exact config and seed needed to reproduce it, and numeric
cells carry 17 significant digits so byte-identical reruns are possible.
Exit codes: 0 success, 1 verification/check failure, 2 usage/validation
error or a file that cannot be read or written; files are written before
stdout, so a failed run prints no table.

``simulate --out DIR`` writes two files.  ``trials.csv`` holds one row per
trial per metric with columns (trial, metric, value), where metric is one of
rho, train_ridge, cost, ols_gap.  ``summary.json`` holds {config, metadata,
metrics}, and each metrics entry carries mean, se, and (when an asymptotic
target exists) target and rel_dev.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from . import __version__
from . import cost_engine as ce
from .deformed import PopulationSpectrum, load_population_spectrum
from .errors import (
    DomainError,
    MemcostError,
    NearDivergenceError,
    RegimeError,
    SpectrumFormatError,
)
from .spectra import MPLaw

if TYPE_CHECKING:
    from . import finite_n_lab as lab

__all__ = ["main", "OutputTable", "parse_grid"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


@dataclass
class OutputTable:
    header: list[str]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise DomainError("table rows must match the header length")

    def to_csv(self) -> str:
        lines = [f"# memcost {__version__}"]
        for key in sorted(self.metadata):
            lines.append(f"# {key}: {json.dumps(self.metadata[key], sort_keys=True)}")
        lines.append(",".join(self.header))
        for row in self.rows:
            lines.append(",".join(_fmt(v) for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "config": self.metadata.get("config", {}),
            "metadata": {"version": __version__, **{k: v for k, v in self.metadata.items() if k != "config"}},
            "columns": self.header,
            "rows": [list(row) for row in self.rows],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def render(self, fmt: str) -> str:
        return self.to_json() if fmt == "json" else self.to_csv()


MAX_GRID_POINTS = 10_000


def parse_grid(spec: str) -> list[float]:
    """Parse `start:step:stop`, inclusive of stop within half a step.

    start, step and stop must be finite with step > 0, and the grid may
    hold at most MAX_GRID_POINTS points; its length is bounded before any
    point is built.
    """
    parts = spec.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid spec must be start:step:stop, got {spec!r}")
    try:
        start, step, stop = (float(p) for p in parts)
    except ValueError:
        raise DomainError(f"non-numeric grid spec {spec!r}") from None
    if not all(math.isfinite(v) for v in (start, step, stop)):
        raise DomainError(f"grid start, step and stop must be finite, got {spec!r}")
    if step <= 0:
        raise DomainError("grid step must be positive")
    # the grid has floor(steps + 1/2) + 1 points, up to rounding
    steps = (stop - start) / step
    if not steps + 0.5 < MAX_GRID_POINTS:
        raise DomainError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    bound = stop + step / 2
    # start + k*step is nondecreasing in k, so the filter keeps a prefix
    candidates = (start + k * step for k in range(int(max(steps, -2.0)) + 2))
    return [v for v in candidates if v <= bound]


def _emit(table: OutputTable, args, *extra: tuple[str, str]) -> None:
    """Write --out, then each (path, text) of ``extra``, then stdout, so a failed write prints nothing."""
    text = table.render(args.format)
    files = [(args.out, text)] if getattr(args, "out", None) else []
    for path, body in files + list(extra):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    sys.stdout.write(text)


def _load_pop(args) -> PopulationSpectrum | None:
    if getattr(args, "pop", None):
        return load_population_spectrum(args.pop)
    return None


def _eps2_from_args(args) -> float | None:
    if getattr(args, "eps2", None) is not None:
        return args.eps2
    if getattr(args, "eps", None) is not None:
        return args.eps**2
    return None


def _config_echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def cmd_threshold(args) -> int:
    noise = ce.NoiseLevel(args.sigma2)
    pop = _load_pop(args)
    report = ce.threshold_report(args.gamma, noise, pop)
    header = ["gamma", "sigma2", "eps_sigma2", "eps_sigma2_approx", "eps_ols2", "rho_ols"]
    row = [
        args.gamma,
        args.sigma2,
        report.eps_sigma2,
        report.eps_sigma2_approx,
        report.eps_ols2,
        report.rho_ols,
    ]
    if pop is not None:
        header += ["eps_def2", "eps_def2_upper_bound", "kappa"]
        row += [report.eps_def2, report.eps_def2_upper_bound, pop.kappa]
    table = OutputTable(
        header=header,
        rows=[tuple(row)],
        metadata={"config": _config_echo(args, ["gamma", "sigma2", "pop"]), "command": "threshold"},
    )
    _emit(table, args)
    return 0


def cmd_rho(args) -> int:
    noise = ce.NoiseLevel(args.sigma2)
    if args.grid is not None:
        grid = parse_grid(args.grid)
        if args.grid_units == "eps":
            grid = [g * g for g in grid]
    else:  # the parser requires exactly one of --eps2, --eps and --grid
        grid = [_eps2_from_args(args)]
    rows = []
    for e2 in grid:
        try:
            sol = ce.solve_rho(args.gamma, noise, e2)
            rows.append((e2, sol.rho, sol.regime.value, sol.residual))
        except NearDivergenceError:
            if args.grid is None:
                raise  # a single eps2 past the float range is a refusal
            rows.append((e2, float("nan"), "error", float("nan")))
    table = OutputTable(
        header=["eps2", "rho", "regime", "residual"],
        rows=rows,
        metadata={"config": _config_echo(args, ["gamma", "sigma2", "eps2", "eps", "grid"]), "command": "rho"},
    )
    _emit(table, args)
    return 0


_GNUPLOT_TEMPLATE = """\
# plot-ready companion script; feed the CSV written via --out
set datafile separator ','
set datafile commentschars '#'
set xlabel 'eps2'
set ylabel 'asymptotic cost'
set key left top
plot '{csv}' using 1:3 with lines title 'cost', \\
     '{csv}' using 1:4 with lines title 'cost vs interpolant'
"""


def cmd_cost_curve(args) -> int:
    noise = ce.NoiseLevel(args.sigma2)
    grid = parse_grid(args.grid)
    if args.grid_units == "eps":
        grid = [g * g for g in grid]
    rows = []
    for e2 in grid:
        try:
            point = ce.asymptotic_cost(args.gamma, noise, e2)
            regime = ce.Regime.of(point.rho).value
            rows.append((e2, point.rho, point.cost, point.costbar, regime))
        except NearDivergenceError:
            rows.append((e2, float("nan"), float("nan"), float("nan"), "error"))
    table = OutputTable(
        header=["eps2", "rho", "cost", "costbar", "regime"],
        rows=rows,
        metadata={"config": _config_echo(args, ["gamma", "sigma2", "grid"]), "command": "cost-curve"},
    )
    script = []
    if args.gnuplot:
        if not args.out:
            raise DomainError("--gnuplot needs --out so the script has a data file to plot")
        script.append((args.gnuplot, _GNUPLOT_TEMPLATE.format(csv=args.out)))
    _emit(table, args, *script)
    return 0


def cmd_ols(args) -> int:
    noise = ce.NoiseLevel(args.sigma2)
    sol = ce.solve_rho_ols(args.gamma, noise)
    gap = ce.ols_gap(args.gamma, noise)
    table = OutputTable(
        header=["gamma", "sigma2", "rho_ols", "eps_ols2", "residual", "ols_gap"],
        rows=[(args.gamma, args.sigma2, sol.rho, sol.target_eps2, sol.residual, gap)],
        metadata={"config": _config_echo(args, ["gamma", "sigma2"]), "command": "ols"},
    )
    _emit(table, args)
    return 0


def cmd_spectrum(args) -> int:
    from . import finite_n_lab as lab

    pop = _load_pop(args) or PopulationSpectrum.isotropic()
    config = lab.ExperimentConfig(
        n=args.n, d=args.d, sigma2=1.0, seed=args.seed, trials=1,
        entry_dist=args.dist, population=pop, rho=0.0,
    )
    design = lab.sample_design(config, 0)
    spec = lab.esd_from_design(design.X)
    metadata = {
        "config": _config_echo(args, ["n", "d", "seed", "dist", "pop"]),
        "command": "spectrum",
    }
    if pop.is_isotropic:
        law = MPLaw(args.d / args.n)
        dev_hi, dev_lo = lab.bai_yin_check(spec, law)
        metadata["edge_deviation_upper"] = dev_hi
        metadata["edge_deviation_lower"] = dev_lo
        metadata["kolmogorov_distance"] = lab.kolmogorov_distance(spec, law)
    rows = [(i + 1, float(v)) for i, v in enumerate(spec.values)]
    _emit(OutputTable(header=["rank", "eigenvalue"], rows=rows, metadata=metadata), args)
    return 0


def _simulate_targets(config: lab.ExperimentConfig, noise: ce.NoiseLevel) -> lab.AsymptoticTargets:
    """Limit-law targets of a simulate run; a target the law does not define is omitted."""
    from . import finite_n_lab as lab

    gamma = config.gamma_n
    if not config.population.is_isotropic:
        # only the proved lower bound exists for anisotropic cost; no exact target
        return lab.AsymptoticTargets()
    try:
        if config.eps2 is not None:
            cost = ce.asymptotic_cost(gamma, noise, config.eps2).cost
        else:
            cost = ce.cost_at_rho(gamma, noise, config.rho)
    except (NearDivergenceError, RegimeError):
        cost = None  # eps2 past the float range of train, or rho past 1/lambda_plus
    return lab.AsymptoticTargets(
        train_ridge=ce.memorization_threshold(gamma, noise),
        cost=cost,
        ols_gap=ce.ols_gap(gamma, noise),
    )


def cmd_simulate(args) -> int:
    from . import finite_n_lab as lab

    pop = _load_pop(args) or PopulationSpectrum.isotropic()
    eps2 = _eps2_from_args(args)
    config = lab.ExperimentConfig(
        n=args.n, d=args.d, sigma2=args.sigma2, seed=args.seed, trials=args.trials,
        entry_dist=args.dist, population=pop, rho=args.rho, eps2=eps2,
    )
    noise = ce.NoiseLevel(args.sigma2)
    metrics = lab.run_trials(config, lab.trial_metrics)
    targets = _simulate_targets(config, noise)

    stats = lab.summarize_trials(metrics, targets)
    rows = [(m.trial, name, getattr(m, name)) for m in metrics for name in stats]
    config_echo = _config_echo(
        args, ["n", "d", "sigma2", "seed", "trials", "dist", "rho", "eps2", "eps", "pop"]
    )
    table = OutputTable(
        header=["trial", "metric", "value"],
        rows=rows,
        metadata={"config": config_echo, "command": "simulate"},
    )

    summary = {
        "config": config_echo,
        "metadata": {"version": __version__, "command": "simulate", "gamma_n": config.gamma_n},
        "metrics": stats,
    }

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "trials.csv"), "w", encoding="utf-8") as fh:
            fh.write(table.to_csv())
        with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    sys.stdout.write(table.render(args.format))
    return 0


def cmd_verify(args) -> int:
    from . import finite_n_lab as lab
    from .oracle import verify_checks

    lab.ExperimentConfig.check_seed(args.seed)
    failed = 0
    for name, margin, limit, passed in verify_checks(args.quick, args.seed, args.perturb):
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] {name}: measured {margin:.3e} (limit {limit:.1e})")
        if not passed:
            failed += 1
    print(f"verify: {failed} failing check(s)")
    return 1 if failed else 0


def _add_common_output(p: argparse.ArgumentParser):
    p.add_argument("--out", help="write the table to this path (simulate: directory)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_eps_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--eps2", type=float, help="squared training-error floor")
    group.add_argument("--eps", type=float, help="training-error floor (will be squared)")
    return group


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memcost",
        description="Memorization thresholds and cost-of-not-fitting curves for "
        "overparameterized linear regression, with a finite-sample Monte Carlo lab.",
    )
    parser.add_argument("--version", action="version", version=f"memcost {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("threshold", help="threshold family at one (gamma, sigma2)")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--pop", help="population spectrum file (value weight lines)")
    _add_common_output(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("rho", help="training-error multiplier at given eps2")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    group = _add_eps_args(p)
    group.required = True
    group.add_argument("--grid", help="eps2 grid start:step:stop")
    p.add_argument("--grid-units", choices=("eps2", "eps"), default="eps2")
    _add_common_output(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("cost-curve", help="cost curve over an eps2 grid")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--grid", required=True, help="eps2 grid start:step:stop")
    p.add_argument("--grid-units", choices=("eps2", "eps"), default="eps2")
    p.add_argument("--gnuplot", help="also write a plot script for the --out CSV")
    _add_common_output(p)
    p.set_defaults(func=cmd_cost_curve)

    p = sub.add_parser("ols", help="interpolation threshold and gap")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    _add_common_output(p)
    p.set_defaults(func=cmd_ols)

    p = sub.add_parser("simulate", help="finite-sample Monte Carlo run")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--rho", type=float)
    _add_eps_args(p)
    p.add_argument("--dist", choices=("gaussian", "rademacher"), default="gaussian")
    p.add_argument("--pop", help="population spectrum file")
    _add_common_output(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run the identity/invariant suite")
    p.add_argument("--quick", action="store_true", help="reduced sizes, same criteria")
    p.add_argument("--seed", type=int, default=20240901)
    p.add_argument("--perturb", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("spectrum", help="empirical spectrum of one sampled design")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dist", choices=("gaussian", "rademacher"), default="gaussian")
    p.add_argument("--pop", help="population spectrum file")
    _add_common_output(p)
    p.set_defaults(func=cmd_spectrum)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on the first ``main()`` call, not at import."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, SpectrumFormatError, NearDivergenceError, OSError) as exc:
        print(f"memcost: error: {exc}", file=sys.stderr)
        return 2
    except MemcostError as exc:
        print(f"memcost: check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
