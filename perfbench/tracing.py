"""Per-layer tracing from outside cutkit.

The tracer replaces public functions with timing wrappers at the module
attribute their callers look up (the name inside the calling module, since
cutkit modules import functions into their own namespace).  Spans and
counts stay in memory; `metrics` derives the per-layer numbers from them.
A wrapped name that no longer exists raises TraceError, so a refactor
cannot quietly zero a layer.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict


class TraceError(Exception):
    pass


PER_LAYER = (
    ("moments.solve.s", "s"),
    ("moments.solve.calls", "count"),
    ("moments.solve.iters", "count"),
    ("moments.solve.ms_per_iter", "ms"),
    ("moments.dim_mat", "count"),
    ("moments.build.s", "s"),
    ("moments.condition.s", "s"),
    ("moments.condition.best_effort", "count"),
    ("kernel.s", "s"),
    ("kernel.reduced_n", "count"),
    ("rounding.round.s", "s"),
    ("rounding.trials", "count"),
    ("rounding.balanced_trials", "count"),
    ("rounding.fallbacks", "count"),
    ("matroid.lp.s", "s"),
    ("matroid.pipage.s", "s"),
    ("matroid.constraint_rows", "count"),
    ("oracle.s", "s"),
    ("oracle.sets", "count"),
    ("oracle.ns_per_set", "ns"),
    ("oracle.matroid.s", "s"),
    ("oracle.matroid.candidates", "count"),
    ("io.read.s", "s"),
    ("bench.self_s", "s"),
    ("bench.relaxations_per_instance", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, start, end, parent index, op]
        self.stack = []
        self.counts = Counter()
        self.samples = defaultdict(list)
        self.op = None
        self._undo = []

    # -- wrapping ---------------------------------------------------------

    def _lookup(self, module, attr):
        if not hasattr(module, attr):
            raise TraceError(f"{module.__name__}.{attr} no longer exists; update perfbench/trace.py")
        return getattr(module, attr)

    def span(self, module, attr, layer, on_result=None, on_error=None):
        """Time every call of module.attr as a span of `layer`."""
        orig = self._lookup(module, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            rec = [layer, time.perf_counter(), None, parent, tracer.op]
            tracer.spans.append(rec)
            tracer.stack.append(len(tracer.spans) - 1)
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                rec[2] = time.perf_counter()
                tracer.stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def count(self, module, attr, on_call):
        """Count calls of module.attr without a span; on_call(args, result)."""
        orig = self._lookup(module, attr)

        def wrapper(*args, **kwargs):
            result = orig(*args, **kwargs)
            on_call(args, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def current(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def remove(self):
        for module, attr, orig in reversed(self._undo):
            setattr(module, attr, orig)
        self._undo.clear()

    # -- cutkit layers ----------------------------------------------------

    def install(self):
        from cutkit import bench, cli, matroid, moments, oracle, rounding
        from cutkit.errors import SearchFailureError

        c, s = self.counts, self.samples

        def kernel_done(res, args):
            s["kernel.reduced_n"].append(res.reduced.n)

        def solve_done(res, args):
            prog = args[0]
            s["moments.dim_mat"].append(sum(math.comb(prog.n, i) for i in range(prog.level + 1)))
            c["moments.solve.calls"] += 1

        def condition_failed(exc):
            if isinstance(exc, SearchFailureError):
                c["moments.condition.best_effort"] += 1

        def balance_done(res, args):
            c["rounding.balanced_trials"] += bool(res.joint)

        def projection(args, res):
            c["moments.psd_projections"] += 1

        def rows(args, res):
            if self.current() == "matroid.lp":
                c["matroid.constraint_rows"] += len(res)

        def mask_values(args, res):
            key = "oracle.matroid.candidates" if self.current() == "oracle.matroid" else "oracle.sets"
            c[key] += len(res)

        self.span(rounding, "kernelize_single", "kernel", on_result=kernel_done)
        self.span(rounding, "kernelize_multi", "kernel", on_result=kernel_done)
        self.span(rounding, "build_program", "moments.build")
        self.span(rounding, "solve", "moments.solve", on_result=solve_done)
        self.count(moments, "_psd_projection", projection)
        self.span(rounding, "make_block_independent", "moments.condition",
                  on_error=condition_failed)
        self.span(rounding, "round_biased", "rounding.round",
                  on_result=lambda r, a: c.update(["rounding.trials"]))
        self.span(rounding, "check_balance", "rounding.round", on_result=balance_done)
        self.span(rounding, "random_correct", "rounding.round")
        self.span(rounding, "greedy_feasible", "rounding.round",
                  on_result=lambda r, a: c.update(["rounding.fallbacks"]))
        self.span(matroid, "solve_lp", "matroid.lp")
        self.span(matroid, "pipage_round", "matroid.pipage")
        self.count(matroid, "_base_polytope_rows", rows)
        for name in ("oracle_maxcut_k", "oracle_constrained", "oracle_all_cut_decision"):
            self.span(oracle, name, "oracle")
        self.span(oracle, "oracle_matroid", "oracle.matroid")
        self.count(oracle, "_mask_values", mask_values)
        self.span(cli, "run_bench", "bench")
        self.span(bench, "read_instance", "io.read")
        self.span(bench, "oracle_constrained", "oracle")
        self.span(bench, "solve_multi", "rounding.pipeline")
        self.span(bench, "solve_matroid", "matroid.solve")
        self.span(bench, "greedy_feasible", "bench.greedy")

    # -- metrics ----------------------------------------------------------

    def busy(self, layer) -> float:
        return sum(e - b for name, b, e, _, _ in self.spans if name == layer)

    def self_time(self, layer) -> float:
        total = 0.0
        children = defaultdict(float)
        for name, b, e, parent, _ in self.spans:
            if parent is not None:
                children[parent] += e - b
        for i, (name, b, e, _, _) in enumerate(self.spans):
            if name == layer:
                total += (e - b) - children[i]
        return total

    def metrics(self, ops: int, overhead_s: float) -> dict:
        c, s = self.counts, self.samples
        solve_s = self.busy("moments.solve")
        calls = c["moments.solve.calls"]
        iters = c["moments.psd_projections"] - calls  # one projection precedes the loop
        oracle_s = self.busy("oracle")
        values = {
            "moments.solve.s": solve_s,
            "moments.solve.calls": calls,
            "moments.solve.iters": iters,
            "moments.solve.ms_per_iter": 1e3 * solve_s / iters if iters else 0.0,
            "moments.dim_mat": _mean(s["moments.dim_mat"]),
            "moments.build.s": self.busy("moments.build"),
            "moments.condition.s": self.busy("moments.condition"),
            "moments.condition.best_effort": c["moments.condition.best_effort"],
            "kernel.s": self.busy("kernel"),
            "kernel.reduced_n": _mean(s["kernel.reduced_n"]),
            "rounding.round.s": self.busy("rounding.round"),
            "rounding.trials": c["rounding.trials"],
            "rounding.balanced_trials": c["rounding.balanced_trials"],
            "rounding.fallbacks": c["rounding.fallbacks"],
            "matroid.lp.s": self.busy("matroid.lp"),
            "matroid.pipage.s": self.busy("matroid.pipage"),
            "matroid.constraint_rows": c["matroid.constraint_rows"],
            "oracle.s": oracle_s,
            "oracle.sets": c["oracle.sets"],
            "oracle.ns_per_set": 1e9 * oracle_s / c["oracle.sets"] if c["oracle.sets"] else 0.0,
            "oracle.matroid.s": self.busy("oracle.matroid"),
            "oracle.matroid.candidates": c["oracle.matroid.candidates"],
            "io.read.s": self.busy("io.read"),
            "bench.self_s": self.self_time("bench"),
            "bench.relaxations_per_instance": calls / ops,
            "trace.overhead_s": overhead_s,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}

    def dump(self):
        return [
            {"layer": n, "start": b, "end": e, "parent": p, "op": op}
            for n, b, e, p, op in self.spans
        ]


def _mean(xs):
    return sum(xs) / len(xs) if xs else 0.0
