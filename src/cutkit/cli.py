"""Command-line front end.

Subcommands: solve, oracle, kernelize, gen, gadget, inspect-sdp, bench,
verify.  Exit codes: 0 ok, 1 parse/input error, 2 infeasible, 3 capacity,
4 convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import METHODS, run_bench
from .config import Config, load_config
from .errors import CutkitError, InputError
from .forge import gadget_from_3dm, gen_random
from .io import (
    SCHEMA,
    format_instance_json,
    format_instance_text,
    read_3dm,
    read_instance,
)
from .kernel import kernelize_multi
from .moments import block_independence_score, pair_moments
from .rounding import relax_multi


def _add_instance_arg(p):
    p.add_argument("instance", help="instance file (text or JSON mirror)")


def _add_common_solver_flags(p):
    p.add_argument("--eps", type=float, default=0.5, help="approximation knob")
    p.add_argument("--level", type=int, default=None, help="hierarchy level (0=auto)")
    p.add_argument("--trials", type=int, default=None, help="rounding repetitions")
    p.add_argument("--seed", type=int, default=None, help="master seed")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cutkit",
        description="Max-Cut under cardinality, partition, and matroid constraints",
    )
    ap.add_argument("--config", default=None, help="key=value config file")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="run a solver method on an instance")
    _add_instance_arg(p)
    p.add_argument("--method", choices=METHODS, default="sdp")
    _add_common_solver_flags(p)

    p = sub.add_parser("oracle", help="exact optimum by enumeration")
    _add_instance_arg(p)
    _add_common_solver_flags(p)

    p = sub.add_parser("kernelize", help="write the kernelized instance as JSON")
    _add_instance_arg(p)
    p.add_argument("--eps", type=float, default=0.5)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--weight-law", choices=("unit", "uniform"), default="unit")
    p.add_argument("--c", type=int, default=1)
    p.add_argument("--budget-law", choices=("uniform", "half", "one"), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output path (default stdout, text)")
    p.add_argument("--json", action="store_true", help="emit the JSON mirror")

    p = sub.add_parser("gadget", help="build the matching gadget from a 3DM file")
    p.add_argument("tdm_file", help="file with one 'x y z' triple per line")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("inspect-sdp", help="print relaxation marginals")
    _add_instance_arg(p)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--level", type=int, default=None)

    p = sub.add_parser("bench", help="compare methods over a corpus directory")
    p.add_argument("corpus_dir")
    p.add_argument("--methods", default="sdp,pipage,greedy,oracle")
    p.add_argument("--seeds", default="7", help="comma-separated seed list")
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--out", required=True, help="output prefix (.csv/.json added)")

    p = sub.add_parser("verify", help="run the property suites")
    p.add_argument("--suite", action="append", default=None, help="suite name; repeatable")
    p.add_argument("--list", action="store_true", help="list available suites")
    return ap


def _config_from_args(args) -> Config:
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "level", None) is not None:
        cfg.level = args.level
    if getattr(args, "trials", None) is not None:
        cfg.trials = args.trials
    return cfg


def _emit(obj):
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def cmd_solve(args) -> int:
    cfg = _config_from_args(args)
    inst, matroid = read_instance(args.instance)
    t0 = time.perf_counter()
    sol = METHODS[args.method](inst, matroid, args.eps, cfg)(cfg.seed)
    _emit(
        {
            "schema": SCHEMA,
            "method": args.method,
            "value": sol.value,
            "set": sorted(sol.set),
            "feasible": sol.feasible,
            "trace": list(sol.stage_trace),
            "seed": cfg.seed,
            "timings": {"wall_s": time.perf_counter() - t0},
        }
    )
    return 0


def cmd_oracle(args) -> int:
    args.method = "oracle"
    return cmd_solve(args)


def cmd_kernelize(args) -> int:
    cfg = _config_from_args(args)
    inst, _ = read_instance(args.instance)
    ker = kernelize_multi(inst, args.eps)
    out = ker.to_json_dict()
    out["schema"] = SCHEMA
    _emit(out)
    return 0


def cmd_gen(args) -> int:
    inst = gen_random(
        args.n, args.edge_prob, args.weight_law, args.c, args.budget_law, args.seed
    )
    text = format_instance_json(inst) if args.json else format_instance_text(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_gadget(args) -> int:
    tdm = read_3dm(args.tdm_file)
    inst = gadget_from_3dm(tdm)
    text = format_instance_json(inst) if args.json else format_instance_text(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_inspect_sdp(args) -> int:
    cfg = _config_from_args(args)
    inst, _ = read_instance(args.instance)
    relaxation = relax_multi(inst, args.eps, cfg)
    ker, program, mv = relaxation.kernel, relaxation.program, relaxation.moments
    parts = [sorted(p - ker.forbidden) for p in ker.parts]
    per_part, cross = block_independence_score(mv, parts)
    biases, correlations = pair_moments(mv)
    _emit(
        {
            "schema": SCHEMA,
            "level": mv.level,
            "objective": mv.objective_value(program.edges),
            "biases": biases.tolist(),
            "correlations": correlations.tolist(),
            "block_scores": per_part,
            "cross_block": cross,
            "forbidden": sorted(ker.forbidden),
        }
    )
    return 0


def cmd_bench(args) -> int:
    cfg = _config_from_args(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    report = run_bench(args.corpus_dir, methods, seeds, eps=args.eps, config=cfg)
    with open(args.out + ".csv", "w", encoding="utf-8") as fh:
        fh.write(report.to_csv())
    with open(args.out + ".json", "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
    agg = report.aggregates()
    for method in sorted(agg):
        a = agg[method]
        sys.stdout.write(
            f"{method}: rows={a['rows']} min_ratio={a['min_ratio']} "
            f"mean_ratio={a['mean_ratio']}\n"
        )
    return 0


def cmd_verify(args) -> int:
    from .verify import DEFAULT_VERIFY, SUITES, run_suites

    if args.list:
        for name in sorted(SUITES):
            sys.stdout.write(name + "\n")
        return 0
    names = args.suite or list(DEFAULT_VERIFY)
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown suite {name!r}; try --list")
    ok = True
    for res in run_suites(names, load_config(args.config)):
        sys.stdout.write(f"{'PASS' if res.passed else 'FAIL'} {res.report}\n")
        for f in res.failures:
            sys.stdout.write(f"  counterexample: {f}\n")
        ok = ok and res.passed
    return 0 if ok else 1


_DISPATCH = {
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "kernelize": cmd_kernelize,
    "gen": cmd_gen,
    "gadget": cmd_gadget,
    "inspect-sdp": cmd_inspect_sdp,
    "bench": cmd_bench,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except FileNotFoundError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except CutkitError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
