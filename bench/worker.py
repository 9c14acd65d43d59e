"""Run a list of memcost ops in one process, closed loop, and record them.

Usage: python3 bench/worker.py OPS_JSON RESULT_JSON [--trace SPANS_JSON]

Each op calls the public ``memcost.cli.main(argv)`` in-process with stdout
and stderr captured; the next op starts only after the previous one
returned.  The result file holds, per op, the latency, exit code, stdout
sha256, stdout text and stderr text, plus the run's wall time and peak RSS.
With ``--trace`` the layer tracer is installed first and its spans and
per-layer summary are written as well.

``memcost`` must be importable (the caller puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback


def run_op(main, argv: list) -> dict:
    """Call ``main(argv)`` once with captured output; time only the call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raw traceback: the console script would exit 1
            traceback.print_exc()
            code = 1
        t1 = time.perf_counter()
    text = out.getvalue()
    return {
        "ms": (t1 - t0) * 1e3,
        "code": int(code),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stdout": text,
        "stderr": err.getvalue(),
    }


def main(argv: list) -> int:
    ops_path, result_path = argv[0], argv[1]
    spans_path = argv[argv.index("--trace") + 1] if "--trace" in argv else None
    with open(ops_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    from memcost import cli

    for op in spec["warmup"]:
        run_op(cli.main, op["argv"])

    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    records = []
    t0 = time.perf_counter()
    for op in spec["ops"]:
        if tracer:
            tracer.begin_op(len(records))
        records.append(run_op(cli.main, op["argv"]))
    wall_s = time.perf_counter() - t0

    result = {
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "records": records,
    }
    if tracer:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
