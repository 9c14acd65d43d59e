"""Output oracles for the memcost benchmark, run outside the timed region.

* Asymptotic commands: every printed value is recomputed with mpmath at 30
  digits, by tanh-sinh quadrature against the Marchenko-Pastur law (and a
  bisection of the Silverstein fixed point for the deformed threshold), at
  the rho the program printed.
* simulate: for one trial, the lab's own direct Frobenius route
  (``sample_design``, ``build_estimator``, ``pred_error_direct`` and
  ``train_error_direct``) must reproduce the printed rho, train_ridge, cost
  and ols_gap.
* verify: exit 0 with every check PASS.

Every comparison is relative, with tolerance ``TOL``; a value that is a
difference of larger terms is compared on the scale of those terms.  Each
check returns a ``Check`` holding the largest deviation found and the values
that missed.
"""

from __future__ import annotations

import csv
import io
import math

import mpmath as mp

TOL = 1e-9
DPS = 30


def parse_table(stdout: str) -> tuple[list, list]:
    lines = [line for line in stdout.splitlines() if line and not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    if not rows:
        raise ValueError("no table in output")
    return rows[0], rows[1:]


def argmap(argv: list) -> dict:
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            out[tok[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return out


def rel_dev(printed: float, expected: float) -> float:
    if expected == 0:
        return abs(printed)
    return abs(printed - expected) / abs(expected)


def read_population(path: str) -> list:
    """(value, weight) atoms, values scaled to top 1 and weights to sum 1."""
    atoms = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].split()
            if line:
                atoms.append((mp.mpf(line[0]), mp.mpf(line[1])))
    top = max(v for v, _ in atoms)
    total = sum(w for _, w in atoms)
    return [(v / top, w / total) for v, w in atoms]


class Check:
    """Collects (label, printed, expected) comparisons for one op."""

    def __init__(self):
        self.max_dev = 0.0
        self.misses = []

    def value(self, label: str, printed: float, expected, scale=None) -> None:
        expected = float(expected)
        if scale is None:
            dev = rel_dev(printed, expected)
        else:
            dev = abs(printed - expected) / scale
        if not dev <= TOL:
            self.misses.append(f"{label}: printed {printed!r}, expected {expected!r} (dev {dev:.3e})")
        if math.isfinite(dev):
            self.max_dev = max(self.max_dev, dev)
        else:
            self.max_dev = math.inf

    def require(self, label: str, condition: bool) -> None:
        if not condition:
            self.misses.append(label)

    @property
    def ok(self) -> bool:
        return not self.misses


# ----------------------------------------------------------- asymptotic oracle


class TheoryOracle:
    """mpmath reference values of the Marchenko-Pastur spectral integrals."""

    def __init__(self, dps: int = DPS):
        self.dps = dps

    def integrate(self, gamma, f, rho=None):
        """int f dH for the law of aspect ratio gamma, via s = c + r cos(t).

        dH = (gamma / 2 pi) sqrt((lp - s)(s - lm)) / s ds becomes
        (gamma r^2 / 2 pi) sin(t)^2 / s dt on [0, pi].  With a multiplier
        rho the integrand peaks at t = 0 (the upper edge) with width about
        sqrt(1 - rho lp); the interval is split there.
        """
        g = mp.mpf(gamma)
        lp = (1 + 1 / mp.sqrt(g)) ** 2
        lm = (1 - 1 / mp.sqrt(g)) ** 2
        c, r = (lp + lm) / 2, (lp - lm) / 2

        def h(t):
            s = c + r * mp.cos(t)
            return f(s) * mp.sin(t) ** 2 / s

        pts = [mp.mpf(0), mp.pi]
        if rho is not None and rho > 0:
            width = mp.sqrt((1 - rho * lp) / (rho * r))
            pts = [mp.mpf(0)] + [k * width for k in (1, 10, 100) if k * width < mp.pi] + [mp.pi]
        value, err = mp.quad(h, pts, error=True, maxdegree=10)
        if not abs(err) <= mp.mpf(10) ** (-20) * abs(value):
            raise ArithmeticError(f"mpmath quadrature error {err} too large for {value}")
        return g * r * r / (2 * mp.pi) * value

    def train(self, gamma, sigma2, rho):
        s2, rho = mp.mpf(sigma2), mp.mpf(rho)
        return s2 * s2 * self.integrate(gamma, lambda s: 1 / ((1 - rho * s) ** 2 * (s + s2)), rho)

    def cost(self, gamma, sigma2, rho):
        s2, rho = mp.mpf(sigma2), mp.mpf(rho)
        inner = self.integrate(gamma, lambda s: s / ((1 - rho * s) ** 2 * (s + s2)), rho)
        return rho * rho / mp.mpf(gamma) * s2 * s2 * inner

    def inv_moment(self, gamma, sigma2):
        s2 = mp.mpf(sigma2)
        return self.integrate(gamma, lambda s: 1 / (s * (s + s2)))

    def gap(self, gamma, sigma2):
        s2 = mp.mpf(sigma2)
        return s2 * s2 / mp.mpf(gamma) * self.inv_moment(gamma, sigma2)

    def stieltjes(self, gamma, a):
        a = mp.mpf(a)
        return self.integrate(gamma, lambda s: 1 / (s + a))

    def ols_equation(self, gamma, sigma2, rho):
        """Both sides of rho^2 int s/((1-rho s)^2 (s+s2)) dH = int 1/(s (s+s2)) dH."""
        s2, rho = mp.mpf(sigma2), mp.mpf(rho)
        lhs = rho * rho * self.integrate(gamma, lambda s: s / ((1 - rho * s) ** 2 * (s + s2)), rho)
        return lhs, self.inv_moment(gamma, sigma2)

    def deformed_threshold(self, gamma, atoms, sigma2):
        """sigma2^2 m with m (sigma2 + sum w tau / (1 + tau m / gamma)) = 1, by bisection."""
        s2, g = mp.mpf(sigma2), mp.mpf(gamma)

        def resid(m):
            return m * (s2 + sum(w * t / (1 + t * m / g) for t, w in atoms)) - 1

        lo, hi = mp.mpf(0), 1 / s2
        for _ in range(4 * self.dps):
            mid = (lo + hi) / 2
            if resid(mid) < 0:
                lo = mid
            else:
                hi = mid
        return s2 * s2 * (lo + hi) / 2

    # ---------------------------------------------------------------- ops

    def check(self, kind: str, argv: list, stdout: str) -> Check:
        with mp.workdps(self.dps):
            args = argmap(argv)
            gamma, sigma2 = float(args["gamma"]), float(args["sigma2"])
            header, rows = parse_table(stdout)
            chk = Check()
            if kind in ("threshold", "threshold-pop"):
                self._threshold(chk, gamma, sigma2, args.get("pop"), header, rows)
            elif kind == "ols":
                self._ols(chk, gamma, sigma2, header, rows)
            else:
                self._grid(chk, kind, gamma, sigma2, header, rows)
            return chk

    def _threshold(self, chk, gamma, sigma2, pop, header, rows):
        chk.require("one row", len(rows) == 1)
        row = dict(zip(header, map(float, rows[0])))
        chk.value("gamma", row["gamma"], gamma)
        chk.value("sigma2", row["sigma2"], sigma2)
        chk.value("eps_sigma2", row["eps_sigma2"], self.train(gamma, sigma2, 0))
        s2 = mp.mpf(sigma2)
        chk.value("eps_sigma2_approx", row["eps_sigma2_approx"], s2 * s2 / (s2 + 1 - 1 / mp.mpf(gamma)))
        chk.value("eps_ols2", row["eps_ols2"], self.train(gamma, sigma2, row["rho_ols"]))
        lhs, rhs = self.ols_equation(gamma, sigma2, row["rho_ols"])
        chk.value("rho_ols equation", float(lhs), rhs)
        if pop is not None:
            atoms = read_population(pop)
            kappa = 1 / min(v for v, _ in atoms)
            chk.value("kappa", row["kappa"], kappa)
            chk.value("eps_def2", row["eps_def2"], self.deformed_threshold(gamma, atoms, sigma2))
            chk.value(
                "eps_def2_upper_bound", row["eps_def2_upper_bound"],
                kappa * s2 * s2 * self.stieltjes(gamma, kappa * s2),
            )

    def _ols(self, chk, gamma, sigma2, header, rows):
        chk.require("one row", len(rows) == 1)
        row = dict(zip(header, map(float, rows[0])))
        rho = row["rho_ols"]
        lhs, rhs = self.ols_equation(gamma, sigma2, rho)
        chk.value("rho_ols equation", float(lhs), rhs)
        # the printed residual is |lhs - rhs|, so it is compared on the scale of rhs
        chk.value("residual", row["residual"], 0.0, scale=float(rhs))
        chk.value("eps_ols2", row["eps_ols2"], self.train(gamma, sigma2, rho))
        chk.value("ols_gap", row["ols_gap"], self.gap(gamma, sigma2))

    def _grid(self, chk, kind, gamma, sigma2, header, rows):
        threshold = self.train(gamma, sigma2, 0)
        gap = self.gap(gamma, sigma2) if kind == "cost-curve" else None
        for raw in rows:
            row = dict(zip(header, raw))
            eps2, rho = float(row["eps2"]), float(row["rho"])
            below = row["regime"] == "below_threshold"
            chk.require(f"regime of eps2={eps2!r}", row["regime"] in ("below_threshold", "above_threshold"))
            chk.require(f"rho == 0 iff below threshold at eps2={eps2!r}", below == (rho == 0.0))
            if below:
                chk.require(f"eps2={eps2!r} at or below threshold", eps2 <= threshold * (1 + TOL))
            else:
                chk.value(f"train(rho) at eps2={eps2!r}", eps2, self.train(gamma, sigma2, rho))
            if kind == "rho":
                chk.value(f"residual at eps2={eps2!r}", float(row["residual"]) / eps2, 0.0)
            else:
                cost = float(row["cost"])
                expected = 0 if below else self.cost(gamma, sigma2, rho)
                chk.value(f"cost at eps2={eps2!r}", cost, expected)
                # costbar = cost - gap cancels near the interpolation
                # threshold, so it is compared on the scale of its terms
                chk.value(f"costbar at eps2={eps2!r}", float(row["costbar"]), cost - gap,
                          scale=float(max(abs(cost - gap), gap)))


# ---------------------------------------------------------------- lab oracle


def simulate_rows(stdout: str) -> dict:
    """{trial: {metric: value}} from simulate's (trial, metric, value) table."""
    header, rows = parse_table(stdout)
    out = {}
    for trial, metric, value in rows:
        out.setdefault(int(trial), {})[metric] = float(value)
    return out


class LabOracle:
    """Direct Frobenius-route reproduction of one simulate trial."""

    def __init__(self):
        from memcost import finite_n_lab as lab
        from memcost.deformed import PopulationSpectrum, load_population_spectrum

        self.lab = lab
        self.isotropic = PopulationSpectrum.isotropic
        self.load_pop = load_population_spectrum

    def config(self, argv: list):
        a = argmap(argv)
        return self.lab.ExperimentConfig(
            n=int(a["n"]), d=int(a["d"]), sigma2=float(a["sigma2"]), seed=int(a["seed"]),
            trials=int(a["trials"]), entry_dist=a.get("dist", "gaussian"),
            population=self.load_pop(a["pop"]) if "pop" in a else self.isotropic(),
            rho=float(a["rho"]) if "rho" in a else None,
            eps2=float(a["eps2"]) if "eps2" in a else None,
        )

    def check(self, argv: list, stdout: str, trial: int) -> Check:
        import numpy as np

        lab = self.lab
        config = self.config(argv)
        printed = simulate_rows(stdout)
        chk = Check()
        chk.require("one row set per trial", sorted(printed) == list(range(config.trials)))
        got = printed.get(trial, {})
        chk.require("all four metrics", sorted(got) == ["cost", "ols_gap", "rho", "train_ridge"])
        if not chk.ok:
            return chk
        design = lab.sample_design(config, trial)
        X, ss, s2 = design.X, design.sigma_sqrt, config.sigma2
        A0 = lab.build_estimator(X, ss, s2, 0.0).A
        pred0 = lab.pred_error_direct(A0, X, ss, s2)
        chk.value("train_ridge", got["train_ridge"], lab.train_error_direct(A0, X, s2))
        # differences of direct errors lose digits to cancellation; the lab's
        # own convention floors their scale at 1e-6 of the ridge error
        floor = abs(pred0) * 1e-6
        gap = lab.pred_error_direct(np.linalg.pinv(X), X, ss, s2) - pred0
        chk.value("ols_gap", got["ols_gap"], gap, scale=max(abs(gap), floor))
        rho = got["rho"]
        if config.rho is not None:
            chk.value("rho", rho, config.rho)
        if rho == 0.0:
            chk.value("cost", got["cost"], 0.0)
            if config.eps2 is not None:
                chk.require("eps2 at or below the ridge training error",
                            config.eps2 <= got["train_ridge"] * (1 + TOL))
            return chk
        A = lab.build_estimator(X, ss, s2, rho).A
        if config.eps2 is not None:
            chk.value("rho (train error at rho vs eps2)", config.eps2, lab.train_error_direct(A, X, s2))
        growth = lab.pred_error_direct(A, X, ss, s2) - pred0
        chk.value("cost", got["cost"], growth, scale=max(abs(growth), floor))
        return chk


def check_verify(code: int, stdout: str) -> Check:
    chk = Check()
    lines = stdout.splitlines()
    chk.require("verify exits 0", code == 0)
    checks = [line for line in lines if line.startswith("[")]
    chk.require("verify ran its checks", bool(checks))
    for line in checks:
        chk.require(line, line.startswith("[PASS]"))
    chk.require("verify reports 0 failing checks", bool(lines) and lines[-1] == "verify: 0 failing check(s)")
    return chk
