"""Layer tracer installed from outside the program.

For each layer module of memcost, every function listed in its ``__all__``
is wrapped at run time, in every ``memcost`` module namespace that binds
it, so calls between layers and inside a layer are both seen.  The dense
factorizations the lab calls are wrapped too: ``numpy.linalg.svd``,
``eigh`` and ``eigvalsh``, and the ``cho_factor``/``cho_solve`` names that
``memcost.finite_n_lab`` binds.  A name that is absent is skipped and
counts 0.

A span records name, layer, start, end, parent, thread and op index.  Open
spans live on per-thread stacks; a span opened on a pool worker thread with
an empty stack is parented to the open ``run_trials`` span.  Spans stay in
memory and are written out by ``write`` after the run.  A span's self time
is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "cost_engine", "spectra", "numerics", "deformed", "finite_n_lab")
LINALG = "linalg"
POOL = "finite_n_lab.run_trials"
TRIAL = "finite_n_lab.trial_metrics"
BISECT = "numerics.bisect"

# span fields
NAME, LAYER, START, END, PARENT, THREAD, OP, EXTRA = range(8)


def _shape(a):
    return getattr(a, "shape", (0, 0))


def _svd_flops(args, kwargs):
    # Golub & Van Loan operation counts: bidiagonalization only for
    # singular values, R-SVD for the thin factors.
    m, n = _shape(args[0])[-2:]
    p, q = min(m, n), max(m, n)
    compute_uv = kwargs.get("compute_uv", args[2] if len(args) > 2 else True)
    if compute_uv:
        return 6.0 * q * p * p + 20.0 * p**3
    return 4.0 * q * p * p - 4.0 * p**3 / 3.0


def _eigvalsh_flops(args, kwargs):
    return 4.0 * _shape(args[0])[-1] ** 3 / 3.0


def _eigh_flops(args, kwargs):
    return 9.0 * _shape(args[0])[-1] ** 3


def _chol_flops(args, kwargs):
    return _shape(args[0])[-1] ** 3 / 3.0


def _cho_solve_flops(args, kwargs):
    n = _shape(args[0][0])[-1]
    b = _shape(args[1])
    return 2.0 * n * n * (b[1] if len(b) > 1 else 1)


NUMPY_FACTORS = {"svd": _svd_flops, "eigh": _eigh_flops, "eigvalsh": _eigvalsh_flops}
LAB_FACTORS = {"cho_factor": _chol_flops, "cho_solve": _cho_solve_flops}


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._pool = None
        self._op = -1
        self._patches = []

    # ------------------------------------------------------------ recording

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, index: int) -> None:
        self._op = index

    def _wrap(self, fn, name, layer, flops=None):
        tracer = self
        is_pool = name == POOL
        is_bisect = name == BISECT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != tracer._main:
                parent = tracer._pool
            else:
                parent = None
            span = [name, layer, 0.0, 0.0, parent, threading.get_ident(), tracer._op, 0.0]
            if flops is not None:
                span[EXTRA] = flops(args, kwargs)
            if is_bisect:
                f = args[0]

                def counted(x):
                    span[EXTRA] += 1
                    return f(x)

                args = (counted,) + args[1:]
            stack.append(span)
            if is_pool:
                outer, tracer._pool = tracer._pool, span
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
                if is_pool:
                    tracer._pool = outer
                tracer.spans.append(span)

        return wrapper

    def _patch(self, namespace, attr, wrapper):
        self._patches.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def install(self) -> None:
        import numpy as np

        memcost_modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "memcost" or k.startswith("memcost."))
        ]
        for layer in LAYERS:
            module = sys.modules.get(f"memcost.{layer}")
            if module is None:
                continue
            for attr in getattr(module, "__all__", ()):
                fn = getattr(module, attr, None)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(fn, f"{layer}.{attr}", layer)
                for ns in memcost_modules:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, key, wrapper)
        for attr, flops in NUMPY_FACTORS.items():
            fn = getattr(np.linalg, attr, None)
            if fn is not None:
                self._patch(np.linalg, attr, self._wrap(fn, f"{LINALG}.{attr}", LINALG, flops))
        lab = sys.modules.get("memcost.finite_n_lab")
        for attr, flops in LAB_FACTORS.items():
            fn = getattr(lab, attr, None)
            if fn is not None:
                self._patch(lab, attr, self._wrap(fn, f"{LINALG}.{attr}", LINALG, flops))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------- analysis

    def _indexed(self):
        spans = sorted(self.spans, key=lambda s: s[START])
        index = {id(s): i for i, s in enumerate(spans)}
        threads = {}
        rows = []
        for s in spans:
            parent = index.get(id(s[PARENT])) if s[PARENT] is not None else None
            tid = threads.setdefault(s[THREAD], len(threads))
            rows.append((s[NAME], s[LAYER], s[START], s[END], parent, tid, s[OP], s[EXTRA]))
        return rows

    def summary(self) -> dict:
        """Per-layer self time, per-name call counts and the benchmark's counters."""
        rows = self._indexed()
        children = defaultdict(list)
        for i, r in enumerate(rows):
            if r[4] is not None:
                children[r[4]].append(i)

        self_s = Counter()
        names = Counter()
        factor_s = factor_flops = 0.0
        bisect_evals = 0
        trial_ms = []
        pool_busy = pool_capacity = 0.0
        for i, (name, layer, t0, t1, _, _, _, extra) in enumerate(rows):
            covered = 0.0
            edge = t0
            for c in children[i]:  # in start order, as rows are
                c0, c1 = max(rows[c][2], edge), min(rows[c][3], t1)
                if c1 > c0:
                    covered += c1 - c0
                    edge = c1
            self_s[layer] += (t1 - t0) - covered
            names[name] += 1
            if layer == LINALG:
                factor_s += t1 - t0
                factor_flops += extra
            elif name == BISECT:
                bisect_evals += int(extra)
            elif name == TRIAL:
                trial_ms.append((t1 - t0) * 1e3)
            elif name == POOL:
                kids = children[i]
                workers = len({rows[c][5] for c in kids}) or 1
                pool_busy += sum(rows[c][3] - rows[c][2] for c in kids)
                pool_capacity += (t1 - t0) * workers
        return {
            "self_ms": {k: v * 1e3 for k, v in self_s.items()},
            "names": dict(names),
            "factor_ms": factor_s * 1e3,
            "factor_flops": factor_flops,
            "bisect_evals": bisect_evals,
            "trial_ms": trial_ms,
            "pool_busy_s": pool_busy,
            "pool_capacity_s": pool_capacity,
            "spans": len(rows),
        }

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["name", "layer", "start", "end", "parent", "thread", "op", "extra"],
                 "spans": self._indexed()},
                fh,
            )
