"""Time cutkit's three kinds of traffic and check every answer.

    python3 perfbench/run.py --workload sdp-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a cutkit checkout.  Each workload runs in this
process with one caller issuing one operation at a time (a closed loop);
cutkit runs as shipped, with its default Config and no config file.  The
run's operations are fixed by --workload, --seed and --seconds alone.
Every answer is checked against the optima in references.json, made by
reference.py apart from cutkit.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 0
reports the end-to-end metrics, with times divided by the host's slowdown
during the run (speed.py), and --trace 1 the per-layer metrics of a
separate traced pass, as measured.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import checks
import instances
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, ".out")
WORK = os.path.join(HERE, ".work")
CONFIG = os.path.join(HERE, "defaults.cfg")

EPS = 0.5
BENCH_METHODS = "sdp,pipage,greedy,oracle"
# Nominal seconds per round; a run makes max(1, seconds // this) rounds,
# so the operations of a run never depend on how fast the machine is.
ROUND_SECONDS = {"sdp-ladder": 25, "bench-sweep": 30, "exact": 7}
SETUP_SAMPLES = 5

END_TO_END = (
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ratio_mean", "ratio"),
    ("ratio_min", "ratio"),
)


class Op:
    """One timed call plus the check of its answer.

    `call` takes no argument; `check` takes the call's result and returns
    the ratios of value to optimum it contains (empty for a decision).
    """

    def __init__(self, key, call, check):
        self.key, self.call, self.check = key, call, check


def rounds_for(workload: str, seconds: int) -> int:
    """Rounds of a run, at most as many as the pools can fill without a repeat."""
    most = instances.POOL // max(s.count for s in instances.SLOTS[workload])
    return min(most, max(1, int(seconds // ROUND_SECONDS[workload])))


# ---------------------------------------------------------------------------
# set-up: import cutkit, make the inputs, load the references


def load_references(insts):
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        refs = json.load(fh)
    for inst in insts:
        ref = refs.get(inst.key)
        if ref is None or ref["fingerprint"] != inst.fingerprint():
            raise checks.CheckError(
                f"{inst.key}: no stored reference for this input; run perfbench/reference.py"
            )
        if inst.tdm is not None and ref["matching"] != instances.has_perfect_matching(*inst.tdm):
            raise checks.CheckError(f"{inst.key}: stored matching answer disagrees with the search")
    return refs


def sdp_op(inst, ref, rounding_seed):
    from cutkit import Config, ConstrainedInstance, RoundingParams, WeightedGraph, rounding

    graph = WeightedGraph(inst.n, inst.edges)
    ci = ConstrainedInstance(graph, inst.parts, inst.budgets)
    cfg = Config()

    def call():
        params = RoundingParams(eps=EPS, rng_seed=rounding_seed)
        if len(inst.parts) == 1:
            return rounding.solve_single(graph, inst.budgets[0], EPS, params, cfg)
        return rounding.solve_multi(ci, EPS, params, cfg)

    def check(sol):
        if not sol.feasible:
            raise checks.CheckError(f"{inst.key}: solution not marked feasible")
        return [checks.check_solver_answer(
            inst.key, inst, sol.set, sol.value, ref["opt"], checks.partition_feasible)]

    return Op(inst.key, call, check)


def exact_op(inst, ref):
    from cutkit import (Config, ConstrainedInstance, PartitionMatroid, UniformMatroid,
                        WeightedGraph, oracle)
    from cutkit.forge import ThreeDMInstance, gadget_from_3dm

    cfg = Config()
    if inst.op == "decision":
        gadget = gadget_from_3dm(ThreeDMInstance(*inst.tdm))

        def check_decision(answer):
            if answer != ref["matching"]:
                raise checks.CheckError(
                    f"{inst.key}: decision {answer} but the matching search says {ref['matching']}")
            return []

        return Op(inst.key, lambda: oracle.oracle_all_cut_decision(gadget, cfg), check_decision)

    graph = WeightedGraph(inst.n, inst.edges)
    feasible = checks.partition_feasible
    if inst.op == "maxcut_k":
        call = lambda: oracle.oracle_maxcut_k(graph, inst.budgets[0], config=cfg)  # noqa: E731
    elif inst.op == "constrained":
        ci = ConstrainedInstance(graph, inst.parts, inst.budgets)
        call = lambda: oracle.oracle_constrained(ci, config=cfg)  # noqa: E731
    else:
        if inst.matroid[0] == "uniform":
            m = UniformMatroid(inst.n, inst.matroid[1])
        else:
            m = PartitionMatroid(inst.n, inst.parts, inst.budgets)
        call = lambda: oracle.oracle_matroid(graph, m, cfg)  # noqa: E731
        feasible = checks.matroid_base

    def check(res):
        return [checks.check_oracle_answer(
            inst.key, inst, res.best_set, res.opt_value, ref["opt"], feasible)]

    return Op(inst.key, call, check)


def bench_op(inst, ref, workdir, seeds):
    from cutkit import cli

    slug = inst.key.replace("/", "_")
    directory = os.path.join(workdir, slug)
    os.makedirs(directory)
    with open(os.path.join(directory, slug + ".txt"), "w", encoding="utf-8") as fh:
        fh.write(inst.text())
    out = os.path.join(workdir, "report_" + slug)
    argv = ["--config", CONFIG, "bench", directory, "--methods", BENCH_METHODS,
            "--seeds", ",".join(str(s) for s in seeds), "--eps", str(EPS), "--out", out]

    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"cutkit bench exited with {rc}")
        with open(out + ".csv", encoding="utf-8") as fh:
            return fh.read()

    def check(csv_text):
        return check_bench_rows(inst, ref, csv_text, len(seeds))

    return Op(inst.key, call, check)


def check_bench_rows(inst, ref, csv_text, n_seeds):
    """Checks on one instance's bench CSV; returns the solver rows' ratios.

    The rows carry values but no sets, so set-level checks run on the
    other two workloads.  Pipage rows are divided by the optimum of the
    matroid problem pipage solved, not by the partition optimum.
    """
    lines = csv_text.strip().splitlines()[1:]
    methods = BENCH_METHODS.split(",")
    if len(lines) != len(methods) * n_seeds:
        raise checks.CheckError(f"{inst.key}: {len(lines)} bench rows, expected "
                                f"{len(methods) * n_seeds}")
    opt = ref["opt"]
    matroid_opt = ref.get("matroid_opt", opt)
    ratios = []
    for line in lines:
        _, method, value, oracle_value, _, feasible, seed = line.split(",")
        key = f"{inst.key} {method} seed {seed}"
        if feasible != "true" or value == "skipped":
            raise checks.CheckError(f"{key}: row is {feasible}/{value}")
        value = float(value)
        if abs(float(oracle_value) - opt) > checks.VALUE_TOL:
            raise checks.CheckError(f"{key}: oracle column {oracle_value} differs from {opt!r}")
        if method == "oracle":
            if abs(value - opt) > checks.VALUE_TOL:
                raise checks.CheckError(f"{key}: oracle value {value!r} differs from {opt!r}")
        elif method == "pipage":
            ratios.append(checks.check_ratio(key, value, matroid_opt))
            checks.check_half(key, value, matroid_opt)
        else:
            ratios.append(checks.check_ratio(key, value, opt))
    return ratios


def setup(workload: str, seed: int, seconds: int, workdir: str):
    """Everything before the first timed operation; returns the rounds."""
    sys.path.insert(0, SRC)
    import cutkit  # noqa: F401  (the import is part of set-up)

    rounds = instances.pick(workload, rounds_for(workload, seconds))
    shipped = []
    if workload == "bench-sweep":
        shipped = instances.corpus_instances(os.path.join(ROOT, "corpus"))
    refs = load_references(shipped + [inst for r in rounds for inst in r])
    labels = instances.rng_for(workload + "/relabel", seed & (2**63 - 1))
    rounds = [shipped + [instances.relabel(inst, labels) for inst in r] for r in rounds]
    rng = instances.rng_for(workload + "/rounding", seed & (2**63 - 1))
    plan = []
    for r in rounds:
        ops = []
        for inst in r:
            ref = refs[inst.key]
            if workload == "sdp-ladder":
                ops.append(sdp_op(inst, ref, int(rng.integers(2**31))))
            elif workload == "exact":
                ops.append(exact_op(inst, ref))
            else:
                ops.append(bench_op(inst, ref, workdir, [int(s) for s in rng.integers(1, 10**6, 2)]))
        plan.append(ops)
    return plan


# ---------------------------------------------------------------------------
# timing


def run_ops(plan, records, tracer=None, gauge=None):
    """Run every operation once, in order, appending one record per op;
    with a gauge, time its units before each operation."""
    from cutkit.errors import CutkitError

    for ops in plan:
        for op in ops:
            if gauge is not None:
                gauge.sample()
            if tracer is not None:
                tracer.op = op.key
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                result = op.call()
            except (CutkitError, RuntimeError) as exc:
                t1, c1 = time.perf_counter(), time.process_time()
                records.append({"op": op.key, "s": t1 - t0, "cpu_s": c1 - c0,
                                "failed": f"{type(exc).__name__}: {exc}", "ratios": []})
                continue
            t1, c1 = time.perf_counter(), time.process_time()
            records.append({"op": op.key, "s": t1 - t0, "cpu_s": c1 - c0,
                            "failed": None, "ratios": op.check(result)})


def setup_seconds(args, gauge) -> list:
    """Wall time from interpreter start to ready, in fresh processes; the
    gauge is sampled after each."""
    samples = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--probe"]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait(timeout=60)
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        samples.append(t1 - t0)
        gauge.sample()
    return samples


def end_to_end(records, setup_samples, slowdown):
    """The end-to-end metrics; times are divided by the run's slowdown."""
    ratios = [x for r in records for x in r["ratios"]]
    values = {
        "wall_s": sum(r["s"] for r in records) / slowdown,
        "op_s.p50": statistics.median(r["s"] for r in records) / slowdown,
        "cpu_s": sum(r["cpu_s"] for r in records) / slowdown,
        "setup_s": statistics.median(setup_samples) / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ratio_mean": statistics.fmean(ratios) if ratios else 0.0,
        "ratio_min": min(ratios) if ratios else 0.0,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="cutkit benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cutkit", "__init__.py")):
        print(f"error: no cutkit sources under {SRC}; run from a cutkit checkout",
              file=sys.stderr)
        return 2

    workdir = os.path.join(WORK, f"{os.getpid()}")
    os.makedirs(workdir)
    try:
        if args.probe:
            setup(args.workload, args.seed, args.seconds, workdir)
            print("ready", flush=True)
            return 0
        gauge = speed.Gauge()
        gauge.sample()
        samples = [] if args.trace else setup_seconds(args, gauge)
        plan = setup(args.workload, args.seed, args.seconds, workdir)
        records, traced, metrics, correct = [], [], {}, False
        try:
            run_ops(plan, records, gauge=gauge)
            if args.trace:
                from tracing import Tracer

                tracer, traced_gauge = Tracer(), speed.Gauge()
                tracer.install()
                try:
                    run_ops(plan, traced, tracer, traced_gauge)
                finally:
                    tracer.remove()
                # traced minus untraced wall_s, each divided by its own pass's slowdown
                overhead = (sum(r["s"] for r in traced) / traced_gauge.slowdown()
                            - sum(r["s"] for r in records) / gauge.slowdown())
                metrics = tracer.metrics(len(traced), overhead)
            else:
                metrics = end_to_end(records, samples, gauge.slowdown())
            correct = True
        except checks.CheckError as exc:
            print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records += traced
    failed = sum(1 for r in records if r["failed"])
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "ops": records, "setup_samples": samples,
                   "slowdown": gauge.slowdown(), "gauge_units": gauge.samples}, fh, indent=1)
    if args.trace and correct:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(tracer.dump(), fh)
    for r in records:
        if r["failed"]:
            print(f"failed: {r['op']}: {r['failed']}", file=sys.stderr)
    scaled = "per-layer times are as measured" if args.trace else "times below are divided by it"
    print(f"{args.workload}: attempted {len(records)} failed {failed}, "
          f"slowdown {gauge.slowdown():.4f} ({scaled})")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
