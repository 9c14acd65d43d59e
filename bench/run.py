"""memcost benchmark: one command, every metric, outputs checked.

Usage (from the repository root):

    python3 bench/run.py --workload {theory-sweep,sim-iso,lab-aniso} \
        --seed N --seconds S --trace {0,1}

The seed is turned into a fixed list of memcost argv vectors (see
workloads.py), sized so that the list takes about S seconds at the seed
commit.  A fresh worker process runs the list closed loop, one
``memcost.cli.main`` call at a time, with the program's default thread
settings.  Afterwards, outside the timed region, outputs are checked
against the oracles (oracles.py), a sample of ops is re-run to check that
the same op prints the same bytes, and the known-defect probes are run.

--trace 0 prints the end-to-end metrics; --trace 1 runs the list twice more,
once under the layer tracer (tracing.py) and once with
OPENBLAS_NUM_THREADS=1 and MEMCOST_THREADS=1 set on that worker only, and
prints the per-layer metrics.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Per-op records (latency,
exit code, stdout sha256), oracle results, probes and spans go to
bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from oracles import LabOracle, TheoryOracle, check_verify, parse_table, simulate_rows

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORKER = Path(__file__).resolve().parent / "worker.py"

SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3
WORKER_TIMEOUT_S = 150
THEORY_CHECKS = 8
LAB_CHECKS = 5
RERUN_CHECKS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MEMCOST_THREADS")
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "MEMCOST_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def child_env(extra=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def run_child(cmd: list, env: dict, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[:3])} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc


# ----------------------------------------------------------------- set-up time


def setup_seconds(env: dict) -> list:
    """Wall time of fresh interpreters that import memcost.cli."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "import memcost.cli"], env, 60)
        times.append(time.perf_counter() - t0)
    return times


def parse_importtime(stderr: str) -> list:
    """Root nodes of the -X importtime tree: (name, cumulative_us, children)."""
    stack = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        label = parts[2]
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        node = (label.strip(), int(parts[1]), [])
        while stack and stack[-1][0] > depth:
            node[2].insert(0, stack.pop()[1])
        stack.append((depth, node))
    return [node for _, node in stack]


def import_ms(roots: list, package: str, inside: tuple = ()) -> float:
    """Cumulative import time of the outermost imports of ``package``.

    Imports nested inside a package named in ``inside`` are that package's
    cost and are not counted again.
    """

    def owner(name):
        for pkg in (package,) + inside:
            if name == pkg or name.startswith(pkg + "."):
                return pkg
        return None

    total = 0
    todo = list(roots)
    while todo:
        name, cumulative, children = todo.pop()
        pkg = owner(name)
        if pkg == package:
            total += cumulative
        elif pkg is None:
            todo.extend(children)
    return total / 1e3


def importtime_ms(env: dict) -> dict:
    samples = {"memcost": [], "scipy": [], "numpy": []}
    for _ in range(IMPORTTIME_LAUNCHES):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import memcost.cli"], env, 60)
        roots = parse_importtime(proc.stderr)
        samples["memcost"].append(import_ms(roots, "memcost"))
        samples["scipy"].append(import_ms(roots, "scipy", ("numpy",)))
        samples["numpy"].append(import_ms(roots, "numpy", ("scipy",)))
    return {pkg: statistics.median(v) for pkg, v in samples.items()}


# ---------------------------------------------------------------- worker runs


def cpu_jiffies():
    """(steal, total) CPU time of the machine from /proc/stat; (0, 0) elsewhere."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def run_worker(tag: str, spec_path: Path, env: dict, trace: bool = False) -> dict:
    """Run the op list in a fresh worker; also record the machine's CPU steal
    share meanwhile.  On a virtual machine the steal share tracks how busy
    the host is: theory-sweep runs took 18 s at 0.1% steal and 22 s at 2.7%.
    """
    result_path = OUT / f"{tag}.result.json"
    cmd = [sys.executable, str(WORKER), str(spec_path), str(result_path)]
    if trace:
        cmd += ["--trace", str(OUT / f"{tag}.spans.json")]
    steal0, total0 = cpu_jiffies()
    run_child(cmd, env, WORKER_TIMEOUT_S)
    steal1, total1 = cpu_jiffies()
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    res["steal_frac"] = (steal1 - steal0) / (total1 - total0) if total1 > total0 else 0.0
    return res


# ---------------------------------------------------------------------- checks


def structural_problem(op: dict, rec: dict):
    """Shape and finiteness of an op's table, or None when it is well formed."""
    try:
        if op["kind"] == "verify":
            return None
        if op["kind"] == "simulate":
            rows = simulate_rows(rec["stdout"])
            values = [v for trial in rows.values() for v in trial.values()]
            if sorted(rows) != list(range(op["trials"])) or len(values) != 4 * op["trials"]:
                return "simulate table does not hold four metrics per trial"
        else:
            header, rows = parse_table(rec["stdout"])
            if len(rows) != op["points"]:
                return f"expected {op['points']} rows, got {len(rows)}"
            values = [float(v) for row in rows for h, v in zip(header, row) if h != "regime"]
        if not all(v == v and abs(v) != float("inf") for v in values):
            return "non-finite value in output"
    except (ValueError, KeyError) as exc:
        return f"unparseable output: {exc}"
    return None


def sample(rng: random.Random, indices: list, k: int) -> list:
    return sorted(rng.sample(indices, min(k, len(indices))))


def check_outputs(seed: int, ops: list, records: list) -> dict:
    """Run the oracles on a seeded sample of ops and the cheap checks on all."""
    rng = random.Random(seed ^ 0x0EAC1E)
    ok_idx = [i for i, r in enumerate(records) if r["code"] == 0]
    results = {}
    for i in ok_idx:
        problem = structural_problem(ops[i], records[i])
        if problem:
            results[i] = {"ok": False, "max_rel_dev": None, "misses": [problem]}
    theory = [i for i in ok_idx if ops[i]["kind"] not in ("simulate", "verify") and i not in results]
    sims = [i for i in ok_idx if ops[i]["kind"] == "simulate" and i not in results]
    chosen = []
    if theory:
        oracle = TheoryOracle()
        for i in sample(rng, theory, THEORY_CHECKS):
            chosen.append((i, oracle.check(ops[i]["kind"], ops[i]["argv"], records[i]["stdout"])))
    if sims:
        oracle = LabOracle()
        for i in sample(rng, sims, LAB_CHECKS):
            trial = int(rng.random() * ops[i]["trials"])
            chosen.append((i, oracle.check(ops[i]["argv"], records[i]["stdout"], trial)))
    for i, r in enumerate(records):
        if ops[i]["kind"] == "verify":
            chosen.append((i, check_verify(r["code"], r["stdout"])))
    for i, chk in chosen:
        results[i] = {"ok": chk.ok, "max_rel_dev": chk.max_dev, "misses": chk.misses}
    return results


def rerun_hashes(seed: int, ops: list, records: list) -> list:
    """Re-run a seeded sample of ops here and list those whose bytes differ."""
    from memcost import cli
    from worker import run_op

    rng = random.Random(seed ^ 0x5A3E)
    ok_idx = [i for i, r in enumerate(records) if r["code"] == 0]
    return [
        i for i in sample(rng, ok_idx, RERUN_CHECKS)
        if run_op(cli.main, ops[i]["argv"])["sha256"] != records[i]["sha256"]
    ]


def history_mismatches(tag: str, ops: list, records: list) -> list:
    """Compare stdout hashes with earlier runs of the same ops on the same sources."""
    sources = hashlib.sha256()
    for path in sorted((SRC / "memcost").glob("*.py")):
        sources.update(path.read_bytes())
    path = OUT / f"{tag}.{sources.hexdigest()[:16]}.hashes.json"
    seen = {}
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            seen = json.load(fh)
    bad = []
    for op, rec in zip(ops, records):
        if rec["code"] != 0:
            continue
        key = " ".join(op["argv"])
        if key in seen and seen[key] != rec["sha256"]:
            bad.append(key)
        seen.setdefault(key, rec["sha256"])
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(seen, fh)
    return bad


def run_probes(workload: str, seed: int) -> list:
    """Known-defect ops: still failing (exit 1), refused (exit 2), or checked when they succeed."""
    from memcost import cli
    from worker import run_op

    out = []
    for op in workloads.probes(workload, seed):
        rec = run_op(cli.main, op["argv"])
        entry = {"defect": op["defect"], "argv": op["argv"], "code": rec["code"],
                 "stderr": rec["stderr"].strip()[-300:]}
        if rec["code"] == 1:
            entry["status"], entry["ok"] = "defect-present", True
        elif rec["code"] == 2:
            entry["status"], entry["ok"] = "refused", True
        elif rec["code"] == 0 and op["defect"] == "aniso-eps2-cap":
            chk = LabOracle().check(op["argv"], rec["stdout"], 0)
            entry["status"], entry["ok"] = "fixed", chk.ok
            entry["misses"] = chk.misses
        else:
            # an infeasible multiplier must never produce a table
            entry["status"], entry["ok"] = "wrong-success", False
        out.append(entry)
    return out


# --------------------------------------------------------------------- metrics


def percentile(values: list, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def units_done(workload: str, ops: list, records: list) -> int:
    key = "points" if workload == "theory-sweep" else "trials"
    return sum(op[key] for op, r in zip(ops, records) if r["code"] == 0)


def end_to_end(workload, ops, res, setup) -> dict:
    ok_ms = [r["ms"] for r in res["records"] if r["code"] == 0]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (res["wall_s"], "s"),
        "op_p50_ms": (percentile(ok_ms, 50), "ms"),
        "op_p90_ms": (percentile(ok_ms, 90), "ms"),
        "throughput_per_s": (units_done(workload, ops, res["records"]) / res["wall_s"], "1/s"),
    }


def per_layer(ops, res, traced, single, imports, checks, probes, single_mismatches) -> dict:
    lay = traced["layers"]
    self_ms, names = lay["self_ms"], lay["names"]
    total_self = sum(self_ms.values()) or 1.0
    n_ops = len(ops)
    points = sum(op["points"] for op in ops)
    trials = names.get("finite_n_lab.trial_metrics", 0)
    solves = sum(names.get(f"cost_engine.{n}", 0) for n in ("solve_rho", "solve_rho_ols", "solve_rho_def"))
    quad = sum(v for k, v in names.items() if k.startswith("spectra.mp_integrate"))
    factor_ms = lay["factor_ms"]

    def ratio(a, b):
        return a / b if b else 0.0

    devs = [c["max_rel_dev"] for c in checks.values() if c["max_rel_dev"] is not None]
    failed = sum(1 for r in res["records"] if r["code"] != 0)
    metrics = {
        "setup.import_memcost_ms": (imports["memcost"], "ms"),
        "setup.import_scipy_ms": (imports["scipy"], "ms"),
        "setup.import_numpy_ms": (imports["numpy"], "ms"),
        "cli.self_ms_per_op": (ratio(self_ms.get("cli", 0.0), n_ops), "ms"),
        "cost_engine.solves_per_op": (ratio(solves, n_ops), "count"),
        "cost_engine.self_ms": (self_ms.get("cost_engine", 0.0), "ms"),
        "numerics.bisect_evals_per_solve": (ratio(lay["bisect_evals"], names.get("numerics.bisect", 0)), "count"),
        "numerics.self_ms": (self_ms.get("numerics", 0.0), "ms"),
        "spectra.quad_calls_per_point": (ratio(quad, points), "count"),
        "spectra.self_ms_per_point": (ratio(self_ms.get("spectra", 0.0), points), "ms"),
        "deformed.silverstein_calls": (names.get("deformed.silverstein_solve", 0), "count"),
        "deformed.self_ms": (self_ms.get("deformed", 0.0), "ms"),
        "finite_n_lab.trial_ms_p50": (statistics.median(lay["trial_ms"]) if lay["trial_ms"] else 0.0, "ms"),
        "finite_n_lab.self_ms_per_trial": (ratio(self_ms.get("finite_n_lab", 0.0), trials), "ms"),
        "finite_n_lab.pool_busy_frac": (ratio(lay["pool_busy_s"], lay["pool_capacity_s"]), "frac"),
        "finite_n_lab.svd_calls": (names.get("linalg.svd", 0), "count"),
        "finite_n_lab.eig_calls": (names.get("linalg.eigh", 0) + names.get("linalg.eigvalsh", 0), "count"),
        "finite_n_lab.chol_calls": (names.get("linalg.cho_factor", 0), "count"),
        "finite_n_lab.factor_ms": (factor_ms, "ms"),
        "finite_n_lab.factor_flops": (lay["factor_flops"], "computed_flop"),
        "finite_n_lab.factor_gflops": (ratio(lay["factor_flops"], factor_ms * 1e6), "computed_GFLOP/s"),
    }
    for layer in ("cli", "cost_engine", "spectra", "numerics", "deformed", "finite_n_lab", "linalg"):
        metrics[f"{layer}.self_share"] = (self_ms.get(layer, 0.0) / total_self, "frac")
    metrics.update({
        "baseline.single_thread_wall_s": (single["wall_s"], "s"),
        "baseline.single_thread_hash_mismatches": (single_mismatches, "count"),
        "process.peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "oracle.max_rel_dev": (max(devs) if devs else 0.0, "rel"),
        "oracle.wrong_frac": (ratio(sum(not c["ok"] for c in checks.values()), len(checks)), "frac"),
        "ops.failed_frac": (ratio(failed, n_ops), "frac"),
        "defects.known_failures": (sum(p["status"] == "defect-present" for p in probes), "count"),
        "trace.overhead_frac": ((traced["wall_s"] - res["wall_s"]) / res["wall_s"], "frac"),
    })
    return metrics


def environment(env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {k: env.get(k, "unset") for k in THREAD_VARS},
        "note": (
            f"measured on a host with {len(os.sched_getaffinity(0))} usable cores that may be "
            "shared with other work; compare medians over many seeds, not single runs"
        ),
    }


# ------------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "memcost" / "cli.py").is_file():
        print(f"bench: no memcost sources under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(parents=True, exist_ok=True)
    (ROOT / workloads.POP_DIR).mkdir(parents=True, exist_ok=True)
    for name, text in workloads.POP_FILES.values():
        (ROOT / workloads.POP_DIR / name).write_text(text, encoding="utf-8")

    tag = f"{args.workload}-{args.seed}"
    ops = workloads.generate(args.workload, args.seed, args.seconds)
    spec_path = OUT / f"{tag}.ops.json"
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"ops": ops, "warmup": workloads.warmup(args.workload, args.seed)}, fh)

    env = child_env()
    setup = traced = single = imports = None
    if not args.trace:
        setup = setup_seconds(env)
    res = run_worker(tag, spec_path, env)
    if args.trace:
        traced = run_worker(f"{tag}.traced", spec_path, env, trace=True)
        single = run_worker(f"{tag}.single", spec_path, child_env(SINGLE_THREAD))
        imports = importtime_ms(env)

    # everything below is outside the timed region
    sys.path.insert(0, str(SRC))
    import memcost

    if Path(memcost.__file__).resolve().parent != (SRC / "memcost").resolve():
        raise BenchError(f"imported memcost from {memcost.__file__}, not from {SRC}")

    records = res["records"]
    checks = check_outputs(args.seed, ops, records)
    mismatches = [" ".join(ops[i]["argv"]) for i in rerun_hashes(args.seed, ops, records)]
    mismatches += history_mismatches(tag, ops, records)
    single_mismatches = 0
    if args.trace:
        mismatches += [
            " ".join(op["argv"]) for op, a, b in zip(ops, records, traced["records"])
            if a["sha256"] != b["sha256"]
        ]
        single_mismatches = sum(a["sha256"] != b["sha256"] for a, b in zip(records, single["records"]))
    probes = run_probes(args.workload, args.seed)

    failed = sum(1 for r in records if r["code"] != 0)
    wrong = [i for i, c in checks.items() if not c["ok"]]
    correct = not wrong and not mismatches and all(p["ok"] for p in probes)
    if args.trace:
        metrics = per_layer(ops, res, traced, single, imports, checks, probes, single_mismatches)
    else:
        metrics = end_to_end(args.workload, ops, res, setup)

    env_info = environment(env)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env_info,
        "setup_s": setup,
        "steal_frac": {"timed": res["steal_frac"], "traced": traced and traced["steal_frac"],
                       "single_thread": single and single["steal_frac"]},
        "ops": [
            {"argv": op["argv"], "ms": r["ms"], "code": r["code"], "sha256": r["sha256"],
             "stderr": r["stderr"].strip()[-300:]}
            for op, r in zip(ops, records)
        ],
        "checks": {str(i): c for i, c in sorted(checks.items())},
        "hash_mismatches": mismatches,
        "single_thread_hash_mismatches": single_mismatches,
        "known_defect_probes": probes,
        "metrics": reported,
    }
    with open(OUT / f"{tag}.trace{args.trace}.details.json", "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)

    ok_ops = len(records) - failed
    print(f"# workload {args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed, "
          f"{len(checks)} checked, {len(wrong)} wrong, {len(mismatches)} stdout hash mismatches")
    print(f"# latency samples {ok_ops}; CPU steal share during the timed run {res['steal_frac']:.4f}")
    print(f"# environment {json.dumps(env_info, sort_keys=True)}")
    for p in probes:
        print(f"# known defect {p['defect']}: {p['status']} (exit {p['code']}) {' '.join(p['argv'])}")
    for k, (v, u) in metrics.items():
        print(f"# {k} = {v!r} {u}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(1)
