"""Command-line front end.

Subcommands: threshold, rho, cost-curve, ols, simulate, verify, spectrum.
Tables go to stdout as CSV (metadata in leading ``#`` lines) or JSON; every
table embeds the exact config and seed needed to reproduce it (each option
that is set, but --out, --format and --gnuplot), and numeric cells carry 17
significant digits so byte-identical reruns are possible.
Exit codes: 0 success, 1 verification/check failure, 2 usage/validation
error or a file that cannot be read or written; files are written before
stdout, so a failed run prints no table.

``simulate --out DIR`` writes two files.  ``trials.csv`` holds one row per
trial per metric with columns (trial, metric, value), where metric is a field
of ``finite_n_lab.Readings``: rho, train_ridge, cost, ols_gap.  A trial's
design and the limit law are read into that one record the same way.
``summary.json`` holds {config, metadata, metrics}, and each metrics entry
carries mean, se, and, where the limit law defines the field
(``finite_n_lab.limit_targets``), target and rel_dev; rho's target is the
limit law's rho(eps2), or a fixed --rho itself.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import __version__
from . import cost_engine as ce
from .deformed import PopulationSpectrum, load_population_spectrum
from .errors import DomainError, MemcostError, NearDivergenceError, SpectrumFormatError
from .spectra import MPLaw

__all__ = ["main", "OutputTable", "parse_grid"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


class OutputTable:
    __slots__ = ("header", "rows", "metadata")

    def __init__(self, header: list[str], rows: list[tuple], metadata: dict | None = None):
        for row in rows:
            if len(row) != len(header):
                raise DomainError("table rows must match the header length")
        self.header, self.rows, self.metadata = header, rows, {} if metadata is None else metadata

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
            # JSON has no NaN or infinity, so a non-finite cell is null
            "rows": [[None if isinstance(v, float) and not math.isfinite(v) else v for v in row]
                     for row in self.rows],
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
    # start + k*step is nondecreasing in k, so the filter keeps a prefix; an
    # inf candidate lies past every finite stop, even where the bound overflows
    candidates = (start + k * step for k in range(int(max(steps, -2.0)) + 2))
    return [v for v in candidates if v <= bound and v < math.inf]


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


def _eps_squared(eps: float) -> float:
    """eps**2 for a training-error floor eps >= 0; a negative or nan floor is refused."""
    if not eps >= 0.0:
        raise DomainError(f"the training-error floor eps must be nonnegative, got {eps!r}")
    return eps * eps


def _eps2_from_args(args) -> float | None:
    if getattr(args, "eps2", None) is not None:
        return args.eps2
    if getattr(args, "eps", None) is not None:
        return _eps_squared(args.eps)
    return None


def _eps2_grid(args) -> list[float]:
    """The --grid points as eps2 values, squaring them under --grid-units eps."""
    grid = parse_grid(args.grid)
    return [_eps_squared(g) for g in grid] if args.grid_units == "eps" else grid


def _grid_point(solve, e2: float):
    """solve(e2) at a grid point, or None past the float range (inf: an eps whose square overflows)."""
    try:
        return solve(e2) if e2 < math.inf else None
    except NearDivergenceError:
        return None


# output options and parser bookkeeping: none of them changes a table's rows
_UNECHOED = frozenset({"out", "format", "gnuplot", "command", "func"})


def _config_echo(args) -> dict:
    """Every argument that is set, but the output options: the options that reprint the table."""
    return {k: v for k, v in vars(args).items() if v is not None and k not in _UNECHOED}


def _table(args, header: list[str], rows: list[tuple], **metadata) -> OutputTable:
    """The table, with the config echo, the command name and ``metadata`` as its metadata."""
    return OutputTable(header, rows, {"config": _config_echo(args), "command": args.command, **metadata})


def cmd_threshold(args) -> int:
    pop = _load_pop(args)
    report = ce.LimitReduction(args.gamma, args.sigma2, pop).report()
    # every field the report holds, the deformed two only with a population
    cells = {"gamma": args.gamma, "sigma2": args.sigma2,
             **{k: v for k, v in report._asdict().items() if v is not None}}
    if pop is not None:
        cells["kappa"] = pop.kappa
    _emit(_table(args, list(cells), [tuple(cells.values())]), args)
    return 0


def cmd_rho(args) -> int:
    red = ce.LimitReduction(args.gamma, args.sigma2)  # before the grid, which may be empty
    if args.grid is not None:
        grid = _eps2_grid(args)
    else:  # the parser requires exactly one of --eps2, --eps and --grid
        grid = [_eps2_from_args(args)]
    rows = []
    for e2 in grid:
        sol = red.solve(e2) if args.grid is None else _grid_point(red.solve, e2)  # one --eps2/--eps refuses
        rows.append((e2, math.nan, "error", math.nan) if sol is None
                    else (e2, sol.rho, sol.regime.value, sol.residual))
    _emit(_table(args, ["eps2", "rho", "regime", "residual"], rows), args)
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
    red = ce.LimitReduction(args.gamma, args.sigma2)  # before the grid, which may be empty
    grid = _eps2_grid(args)
    rows = []
    for e2 in grid:
        pt = _grid_point(red.cost, e2)
        rows.append((e2, math.nan, math.nan, math.nan, "error") if pt is None
                    else (e2, pt.rho, pt.cost, pt.costbar, ce.Regime.of(pt.rho).value))
    table = _table(args, ["eps2", "rho", "cost", "costbar", "regime"], rows)
    script = []
    if args.gnuplot:
        if not args.out:
            raise DomainError("--gnuplot needs --out so the script has a data file to plot")
        if os.path.realpath(args.gnuplot) == os.path.realpath(args.out):
            raise DomainError(f"--gnuplot and --out name the same file {args.out!r}")
        script.append((args.gnuplot, _GNUPLOT_TEMPLATE.format(csv=args.out)))
    _emit(table, args, *script)
    return 0


def cmd_ols(args) -> int:
    red = ce.LimitReduction(args.gamma, args.sigma2)
    sol, gap = red.ols, red.gap
    header = ["gamma", "sigma2", "rho_ols", "eps_ols2", "residual", "ols_gap"]
    row = (args.gamma, args.sigma2, sol.rho, sol.target_eps2, sol.residual, gap)
    _emit(_table(args, header, [row]), args)
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
    metadata = {}
    if pop.is_isotropic:
        law = MPLaw(args.d / args.n)
        dev_hi, dev_lo = lab.bai_yin_check(spec, law)
        metadata = {"edge_deviation_upper": dev_hi, "edge_deviation_lower": dev_lo,
                    "kolmogorov_distance": lab.kolmogorov_distance(spec, law)}
    rows = [(i + 1, float(v)) for i, v in enumerate(spec)]
    _emit(_table(args, ["rank", "eigenvalue"], rows, **metadata), args)
    return 0


def cmd_simulate(args) -> int:
    from . import finite_n_lab as lab

    pop = _load_pop(args) or PopulationSpectrum.isotropic()
    eps2 = _eps2_from_args(args)
    config = lab.ExperimentConfig(
        n=args.n, d=args.d, sigma2=args.sigma2, seed=args.seed, trials=args.trials,
        entry_dist=args.dist, population=pop, rho=args.rho, eps2=eps2,
    )
    metrics = [lab.trial_metrics(config, t) for t in range(config.trials)]
    stats = lab.summarize_trials(metrics, lab.limit_targets(config))
    rows = [(t, name, value) for t, m in enumerate(metrics) for name, value in m._asdict().items()]
    table = _table(args, ["trial", "metric", "value"], rows)

    summary = {
        "config": table.metadata["config"],
        "metadata": {"version": __version__, "command": args.command, "gamma_n": config.gamma_n},
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


# argparse's own matcher (^-\d+$|^-\d*\.\d+$ in CPython 3.11 to 3.13) reads
# "-1e-3", "-1_000" and "-inf" as options; this one takes every negative value
# float() reads, and no memcost option string looks like a number
_DIGITS = r"\d(?:_?\d)*"
_NEGATIVE_NUMBER = re.compile(
    rf"^-(?:(?:{_DIGITS}(?:\.(?:{_DIGITS})?)?|\.{_DIGITS})(?:e[-+]?{_DIGITS})?|inf(?:inity)?|nan)$",
    re.IGNORECASE,
)


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
    p.add_argument("--grid-units", choices=("eps2", "eps"))
    _add_common_output(p)
    p.set_defaults(func=cmd_rho)

    p = sub.add_parser("cost-curve", help="cost curve over an eps2 grid")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--grid", required=True, help="eps2 grid start:step:stop")
    p.add_argument("--grid-units", choices=("eps2", "eps"))
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

    parser.commands = sub.choices  # name -> subcommand parser, for main's direct route
    for p in (parser, *parser.commands.values()):
        p._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process-wide parser, built on the first ``main()`` call, not at import."""
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``; a named command is parsed by its own parser alone."""
    parser = _parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:  # no argv, a top-level option or an unknown command
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (DomainError, SpectrumFormatError, NearDivergenceError, OSError) as exc:
        print(f"memcost: error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # a design too large for this host's memory
        print(f"memcost: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except MemcostError as exc:
        print(f"memcost: check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
