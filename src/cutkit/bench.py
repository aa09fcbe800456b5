"""Benchmark harness comparing solver methods against the exact oracle.

Rows are keyed by (instance id, method) and fully reproducible from the
recorded seeds; the CSV carries only deterministic columns, while the JSON
report additionally records wall-clock timings.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace

from . import oracle
from .config import Config
from .errors import CutkitError, InputError
from .graph import CutSolution, cut_value
from .io import read_instance
from .matroid import PartitionMatroid, solve_matroid
from .oracle import oracle_constrained
from .rounding import greedy_feasible, relax_multi, round_relaxation
from .rounding import solve_multi  # noqa: F401  (perfbench/tracing.py wraps this name)

CSV_HEADER = "instance,method,value,oracle_value,ratio,feasible,seed"


@dataclass
class BenchRow:
    instance: str
    method: str
    value: float | None
    oracle_value: float | None
    feasible: bool
    seed: int
    wall_time_s: float
    skipped: str = ""
    ratio_base: str = "partition"  # the problem whose optimum `ratio` divides by
    base_value: float | None = None  # that optimum

    @property
    def ratio(self) -> float | None:
        if self.value is None or not self.base_value:
            return None
        return self.value / self.base_value

    def csv_line(self) -> str:
        if self.skipped:
            return (
                f"{self.instance},{self.method},skipped,skipped,,false,{self.seed}"
            )
        ratio = "" if self.ratio is None else f"{self.ratio!r}"
        return (
            f"{self.instance},{self.method},{self.value!r},"
            f"{self.oracle_value!r},{ratio},"
            f"{'true' if self.feasible else 'false'},{self.seed}"
        )

    def to_json_dict(self):
        return {
            "instance": self.instance,
            "method": self.method,
            "value": self.value,
            "oracle_value": self.oracle_value,
            "ratio": self.ratio,
            "ratio_base": self.ratio_base,
            "feasible": self.feasible,
            "seed": self.seed,
            "wall_time_s": self.wall_time_s,
            "skipped": self.skipped or None,
        }


@dataclass
class BenchReport:
    rows: list = field(default_factory=list)

    def aggregates(self):
        out = {}
        for method in sorted({r.method for r in self.rows}):
            ratios = [
                r.ratio
                for r in self.rows
                if r.method == method and r.ratio is not None and not r.skipped
            ]
            out[method] = {
                "rows": sum(1 for r in self.rows if r.method == method),
                "min_ratio": min(ratios) if ratios else None,
                "mean_ratio": sum(ratios) / len(ratios) if ratios else None,
            }
        return out

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(r.csv_line() for r in self.rows)
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        obj = {
            "schema": "cutkit-bench/1",
            "rows": [r.to_json_dict() for r in self.rows],
            "aggregates": self.aggregates(),
        }
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# Each method is prepare(inst, matroid, eps, config) -> answer, and
# answer(seed) -> CutSolution, with `feasible` judged against the problem the
# method solves.  prepare does the seed-independent work once per instance;
# only sdp's rounding depends on the seed.  The bodies look the solvers up
# as module globals at call time, so a wrapper installed on this module's
# attribute sees every call.


def _sdp(inst, matroid, eps, config):
    relaxation = relax_multi(inst, eps, config)
    return lambda seed: round_relaxation(relaxation, replace(config, seed=seed))


def _pipage(inst, matroid, eps, config):
    m = matroid or PartitionMatroid(inst.graph.n, inst.parts, inst.budgets)
    sol = solve_matroid(inst.graph, m)
    return lambda seed: sol


def _greedy(inst, matroid, eps, config):
    chosen = greedy_feasible(inst.graph, inst.parts, inst.budgets)
    sol = CutSolution(
        chosen, cut_value(inst.graph, chosen), inst.is_feasible_set(chosen), ("greedy",)
    )
    return lambda seed: sol


def _oracle(inst, matroid, eps, config):
    return _oracle_answer(oracle_constrained(inst, config=config))


def _oracle_answer(res):
    sol = CutSolution(res.best_set, res.opt_value, True, ("oracle",))
    return lambda seed: sol


METHODS = {"sdp": _sdp, "pipage": _pipage, "greedy": _greedy, "oracle": _oracle}


def _attempt(call, *args, **kwargs) -> tuple:
    """(call's result, "") or, when it raises a toolkit error, (None,
    "<Error>: <message>"), the text of a skipped row."""
    try:
        return call(*args, **kwargs), ""
    except CutkitError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def run_bench(
    corpus_dir: str,
    methods,
    seeds,
    eps: float = 0.5,
    config: Config | None = None,
) -> BenchReport:
    """Run every (instance, method, seed) combination; a toolkit error marks
    its row skipped instead of aborting the run, and a file that does not
    parse marks all of its rows skipped.  Every toolkit call goes through
    `_attempt`, with the solver named by its module global at call time.

    Each method prepares once per instance and answers once per seed, so
    the relaxation, the matroid LP and the oracle run once per instance; a
    toolkit error while preparing marks every seed row of that method
    skipped.  The oracle search that gives each row's oracle_value also
    prepares the oracle method.

    Ratios divide by the optimum of the problem the method solved: pipage
    on an instance that declares a matroid solves over that matroid's
    bases, every other row over the partition constraints.  When the
    matroid search fails, pipage keeps its answer and has no ratio.
    """
    config = config or Config()
    for method in methods:
        if method not in METHODS:
            raise InputError(f"unknown method {method!r}")
    report = BenchReport()
    names = sorted(
        f
        for f in os.listdir(corpus_dir)
        if f.endswith((".txt", ".json")) and not f.startswith(".")
    )
    for name in names:
        parsed, unread = _attempt(read_instance, os.path.join(corpus_dir, name))
        if parsed is None:
            report.rows.extend(
                BenchRow(
                    instance=name, method=method, value=None, oracle_value=None,
                    feasible=False, seed=seed, wall_time_s=0.0, skipped=unread,
                )
                for method in methods
                for seed in seeds
            )
            continue
        inst, matroid = parsed
        # one search gives every row's oracle_value and the oracle method's answer
        t0 = time.perf_counter()
        optimum, unsolved = _attempt(oracle_constrained, inst, config=config)
        searched = time.perf_counter() - t0
        oracle_value = None if optimum is None else optimum.opt_value
        matroid_value = None
        if matroid is not None and "pipage" in methods:
            # looked up on its module, so a wrapper installed there sees the call
            best, _ = _attempt(oracle.oracle_matroid, inst.graph, matroid, config)
            matroid_value = None if best is None else best.opt_value
        for method in methods:
            on_matroid = method == "pipage" and matroid is not None
            t0 = time.perf_counter()
            if method == "oracle":  # prepared by the search above, and timed there
                answer = None if optimum is None else _oracle_answer(optimum)
                failure, t0 = unsolved, t0 - searched
            else:
                answer, failure = _attempt(METHODS[method], inst, matroid, eps, config)
            # the shared stage's time goes to the first seed's row, so each
            # method's wall_time_s still sums to its total
            shared = time.perf_counter() - t0
            for seed in seeds:
                row = BenchRow(
                    instance=name,
                    method=method,
                    value=None,
                    oracle_value=oracle_value,
                    feasible=False,
                    seed=seed,
                    wall_time_s=0.0,
                    skipped=failure,
                    ratio_base="matroid" if on_matroid else "partition",
                    base_value=matroid_value if on_matroid else oracle_value,
                )
                t0 = time.perf_counter()
                if answer is not None:
                    sol, row.skipped = _attempt(answer, seed)
                    if sol is not None:
                        row.value, row.feasible = sol.value, sol.feasible
                row.wall_time_s = shared + time.perf_counter() - t0
                shared = 0.0
                report.rows.append(row)
    report.rows.sort(key=lambda r: (r.instance, r.method, r.seed))
    return report
