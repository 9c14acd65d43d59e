"""Seeded op-list generator for the memcost benchmark.

A workload seed maps to a fixed list of ``memcost`` argv vectors.  Lists are
built from blocks: every block holds the same recipe of op classes.  Inside
a class, discrete choices (gamma, multiplier mode, entry distribution,
population) rotate through fixed cycles from a seeded start, and continuous
ones (sigma2, rho, eps2, grids, design seeds) are drawn from the seed; the
order inside each block is shuffled.  So two seeds give different inputs but
nearly the same mix of work, which keeps the run-to-run spread of the
timings small.

No op shares (gamma, sigma2) with another op (sigma2 is drawn from a
continuous law), and every simulate op gets a fresh design seed, so no
design is ever reused.

Only the standard library is used here: the generator must run before, and
independently of, the program under test.
"""

from __future__ import annotations

import math
import random

GAMMAS = (1.5, 2.0, 3.0, 4.0, 10.0)
# Two-atom population spectra (top atom 1, condition number kappa), written
# to files at set-up; simulate/threshold ops name them by relative path.
POP_DIR = "bench/out/pop"
POP_FILES = {
    2: ("kappa2.txt", "# two atoms, condition number 2\n1.0 0.5\n0.5 0.5\n"),
    4: ("kappa4.txt", "# two atoms, condition number 4\n1.0 0.5\n0.25 0.5\n"),
}

# Blocks per second of --seconds, calibrated on a 2-core x86 host with
# OpenBLAS 0.3.31 at default thread settings so that one run measures about
# --seconds seconds of work at the seed commit.
BLOCKS_PER_SECOND = {"theory-sweep": 1.85, "sim-iso": 0.25, "lab-aniso": 0.2}

GRID_POINTS = 6


def pop_path(kappa: int) -> str:
    return f"{POP_DIR}/{POP_FILES[kappa][0]}"


def mp_lambda_plus(gamma: float) -> float:
    return (1.0 + 1.0 / math.sqrt(gamma)) ** 2


def mp_threshold(gamma: float, sigma2: float) -> float:
    """Isotropic memorization threshold sigma2^2 * m(-sigma2), closed form."""
    a = 1.0 - 1.0 / gamma + sigma2
    return sigma2 * sigma2 * 2.0 / (math.sqrt(a * a + 4.0 * sigma2 / gamma) + a)


class _Draw:
    """Thin wrapper over random.Random using only ``random()``, whose
    output for a given integer seed is stable across Python versions."""

    def __init__(self, seed: int):
        self._rng = random.Random(seed)
        self._cycles = {}

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self._rng.random()

    def loguniform(self, lo: float, hi: float) -> float:
        return math.exp(self.uniform(math.log(lo), math.log(hi)))

    def pick(self, seq):
        return seq[min(int(self._rng.random() * len(seq)), len(seq) - 1)]

    def seed63(self) -> int:
        return int(self._rng.random() * 2**53) ^ (int(self._rng.random() * 2**10) << 53)

    def cycle(self, key, seq):
        """Next item of a per-key rotation through ``seq`` from a seeded start."""
        if key not in self._cycles:
            self._cycles[key] = int(self._rng.random() * len(seq))
        self._cycles[key] += 1
        return seq[self._cycles[key] % len(seq)]

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = min(int(self._rng.random() * (i + 1)), i)
            items[i], items[j] = items[j], items[i]


def _op(kind: str, argv: list, *, points: int = 0, trials: int = 0) -> dict:
    return {"kind": kind, "argv": [str(a) for a in argv], "points": points, "trials": trials}


def _f(x: float) -> str:
    return repr(float(x))


# ---------------------------------------------------------------- theory-sweep


def _eps2_grid(draw: _Draw, gamma: float, sigma2: float) -> tuple[float, float, float]:
    """start, step, stop of a grid spanning 0.5x to 6x the threshold.

    Grid points are kept at least 1e-3 relative away from the threshold so
    the regime of every point is unambiguous.
    """
    th = mp_threshold(gamma, sigma2)
    while True:
        lo = draw.uniform(0.5, 0.7) * th
        hi = draw.uniform(4.5, 6.0) * th
        step = (hi - lo) / (GRID_POINTS - 1)
        pts = [lo + i * step for i in range(GRID_POINTS)]
        if all(abs(p / th - 1.0) > 1e-3 for p in pts):
            return lo, step, lo + (GRID_POINTS - 1) * step


def _theory_op(draw: _Draw, kind: str) -> dict:
    gamma = draw.cycle(("gamma", kind), GAMMAS)
    sigma2 = draw.loguniform(1e-3, 1.0)
    base = ["--gamma", _f(gamma), "--sigma2", _f(sigma2)]
    if kind == "threshold":
        return _op(kind, ["threshold", *base], points=1)
    if kind == "threshold-pop":
        return _op(kind, ["threshold", *base, "--pop", pop_path(draw.cycle("pop", (2, 4)))], points=1)
    if kind == "ols":
        return _op(kind, ["ols", *base], points=1)
    lo, step, hi = _eps2_grid(draw, gamma, sigma2)
    grid = f"{_f(lo)}:{_f(step)}:{_f(hi)}"
    return _op(kind, [kind, *base, "--grid", grid], points=GRID_POINTS)


THEORY_BLOCK = (
    "threshold", "threshold", "threshold-pop", "rho", "rho",
    "cost-curve", "cost-curve", "ols", "ols",
)


def _theory_block(draw: _Draw, index: int) -> list:
    ops = [_theory_op(draw, kind) for kind in THEORY_BLOCK]
    draw.shuffle(ops)
    return ops


# --------------------------------------------------------------------- sim-iso

# (n, d/n, ops per block); n = 1000 alternates d/n between blocks.  The
# class sizes put the median op inside the n = 200, d/n = 4 class and p90
# inside the n = 400, d/n = 4 class, so neither percentile sits on a
# boundary between classes of different cost.
SIM_ISO_BLOCK = ((200, 1.5, 5), (200, 2.0, 5), (200, 4.0, 8), (400, 1.5, 2), (400, 2.0, 1), (400, 4.0, 3))
SIM_ISO_BIG = (1000, (1.5, 2.0))
SIM_TRIALS = 2


DISTS = ("gaussian", "rademacher")
MODES = ("rho0", "rho", "eps2")


def _iso_simulate(draw: _Draw, n: int, ratio: float, mode: str) -> dict:
    d = int(round(n * ratio))
    gamma = d / n
    sigma2 = draw.loguniform(1e-2, 1.0)
    argv = [
        "simulate", "--n", n, "--d", d, "--sigma2", _f(sigma2),
        "--seed", draw.seed63(), "--trials", SIM_TRIALS,
        "--dist", draw.cycle(("dist", n, ratio), DISTS),
    ]
    cap = 1.0 / mp_lambda_plus(gamma)
    if mode == "rho0":
        argv += ["--rho", "0"]
    elif mode == "rho":
        argv += ["--rho", _f(draw.uniform(0.1, 0.8) * cap)]
    elif mode == "rho-infeasible":
        argv += ["--rho", _f(draw.uniform(1.5, 3.0) * cap)]
    else:
        argv += ["--eps2", _f(draw.uniform(1.2, 4.0) * mp_threshold(gamma, sigma2))]
    return _op("simulate", argv, points=1, trials=SIM_TRIALS)


def _sim_iso_block(draw: _Draw, index: int) -> list:
    ops = []
    for n, ratio, count in SIM_ISO_BLOCK:
        for _ in range(count):
            ops.append(_iso_simulate(draw, n, ratio, draw.cycle(("mode", n, ratio), MODES)))
    n, ratios = SIM_ISO_BIG
    ops.append(_iso_simulate(draw, n, ratios[index % len(ratios)], draw.cycle(("mode", n), MODES)))
    draw.shuffle(ops)
    return ops


# ------------------------------------------------------------------- lab-aniso

# (n, d/n, ops per block), one trial each, plus one verify --quick per block.
# The class sizes put the median op inside the n = 100, d/n = 1.5 class and
# p90 inside the n = 200, d/n = 2 class, so neither percentile sits on a
# boundary between classes of different cost.
LAB_ANISO_BLOCK = ((100, 1.5, 14), (100, 3.0, 4), (200, 1.5, 2), (200, 2.0, 4))


ANISO_DESIGNS = tuple((dist, kappa) for dist in DISTS for kappa in (2, 4))


def _aniso_simulate(draw: _Draw, n: int, ratio: float, eps2: bool = False) -> dict:
    d = int(round(n * ratio))
    gamma = d / n
    sigma2 = draw.loguniform(1e-2, 1.0)
    argv = [
        "simulate", "--n", n, "--d", d, "--sigma2", _f(sigma2),
        "--seed", draw.seed63(), "--trials", 1,
    ]
    dist, kappa = draw.cycle(("design", n, ratio), ANISO_DESIGNS)
    argv += ["--dist", dist, "--pop", pop_path(kappa)]
    if eps2:
        # well above the isotropic threshold, so the constraint is active
        argv += ["--eps2", _f(draw.uniform(3.0, 6.0) * mp_threshold(gamma, sigma2))]
    else:
        # Z-feasibility needs rho < d / sigma_max(Z)^2, about 1/lambda_plus
        argv += ["--rho", _f(draw.uniform(0.1, 0.8) / mp_lambda_plus(gamma))]
    return _op("simulate", argv, points=0, trials=1)


def _lab_aniso_block(draw: _Draw, index: int) -> list:
    ops = [
        _aniso_simulate(draw, n, ratio)
        for n, ratio, count in LAB_ANISO_BLOCK
        for _ in range(count)
    ]
    ops.append(_op("verify", ["verify", "--quick", "--seed", draw.seed63() % 2**31]))
    draw.shuffle(ops)
    return ops


# ------------------------------------------------------------------- public API

_BLOCKS = {
    "theory-sweep": _theory_block,
    "sim-iso": _sim_iso_block,
    "lab-aniso": _lab_aniso_block,
}
WORKLOADS = tuple(_BLOCKS)

# Ops that fail at the seed commit because of a defect listed in ROADMAP.md.
# They run as untimed probes, outside the measured op list: defect name ->
# (what fails, workloads whose runs probe it).
KNOWN_DEFECTS = {
    "infeasible-fixed-rho": (
        "isotropic simulate at a fixed rho above the design's feasible cap "
        "returns a wrong finite cost and then exits 1 with a quadrature "
        "ConvergenceError; it should be a typed refusal (exit 2)",
        ("sim-iso",),
    ),
    "aniso-eps2-cap": (
        "simulate --eps2 with an anisotropic --pop exits 1 with 'constraint "
        "matrix is not positive definite': the feasibility cap is taken from "
        "X instead of Z",
        ("sim-iso", "lab-aniso"),
    ),
}
PROBES_PER_DEFECT = 2


def block_count(workload: str, seconds: float) -> int:
    return max(1, math.ceil(seconds * BLOCKS_PER_SECOND[workload]))


def generate(workload: str, seed: int, seconds: float) -> list:
    """The measured op list for (workload, seed, seconds)."""
    if workload not in _BLOCKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    draw = _Draw(seed)
    ops = []
    for b in range(block_count(workload, seconds)):
        for op in _BLOCKS[workload](draw, b):
            op["block"] = b
            ops.append(op)
    return ops


def warmup(workload: str, seed: int) -> list:
    """Two untimed ops from a separate stream, run before the measured list."""
    draw = _Draw(seed ^ 0x5EED_0F_3A7)
    return _BLOCKS[workload](draw, 0)[:2]


def probes(workload: str, seed: int) -> list:
    """Known-defect probe ops for this workload (empty when none apply)."""
    draw = _Draw(seed ^ 0xDEFEC7)
    out = []
    for defect, (_, where) in KNOWN_DEFECTS.items():
        if workload not in where:
            continue
        for _ in range(PROBES_PER_DEFECT):
            if defect == "infeasible-fixed-rho":
                op = _iso_simulate(draw, 200, draw.pick((1.5, 2.0, 4.0)), "rho-infeasible")
            else:
                op = _aniso_simulate(draw, 100, draw.pick((1.5, 2.0)), eps2=True)
            op["defect"] = defect
            out.append(op)
    return out
