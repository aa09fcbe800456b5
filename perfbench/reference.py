"""Recompute the optimum of every workload instance, apart from cutkit.

    python3 perfbench/reference.py           # write perfbench/references.json
    python3 perfbench/reference.py --check   # recompute and compare

Partition, uniform and partition-matroid optima come from scipy's MILP
solver (HiGHS) on the textbook formulation: x binary, y_e <= x_u + x_v,
y_e <= 2 - x_u - x_v, maximize sum w_e y_e, plus one equality per part.
The relative gap is set to 0, and weights are multiples of 1/1000 on the
generated instances, so a returned set is optimal, not merely near it; the
stored value is the benchmark's own cut sum of that set.  Graphic and
explicit matroid optima are found by brute force over the bases.  3DM
gadgets store the answer of an exhaustive matching search.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from checks import acyclic, cut_sum, graphic_rank
from instances import SLOTS, corpus_instances, has_perfect_matching, pool

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")
CORPUS = os.path.join(HERE, "..", "corpus")


def milp_optimum(n, edges, groups):
    """Maximum cut over x in {0,1}^n with sum_{v in g} x_v = k per group."""
    m = len(edges)
    cost = np.concatenate([np.zeros(n), -np.array([w for _, _, w in edges])])
    rows, lo, hi = [], [], []
    for e, (u, v, _) in enumerate(edges):
        for sign, bound in ((-1.0, 0.0), (1.0, 2.0)):
            row = np.zeros(n + m)
            row[n + e] = 1.0
            row[u] += sign
            row[v] += sign
            rows.append(row)
            lo.append(-np.inf)
            hi.append(bound)
    for group, k in groups:
        row = np.zeros(n + m)
        row[list(group)] = 1.0
        rows.append(row)
        lo.append(k)
        hi.append(k)
    res = milp(
        cost,
        integrality=np.concatenate([np.ones(n), np.zeros(m)]),
        bounds=Bounds(0.0, 1.0),
        constraints=LinearConstraint(np.asarray(rows), lo, hi),
        options={"mip_rel_gap": 0.0},
    )
    if not res.success:
        raise RuntimeError(f"MILP failed: {res.message}")
    chosen = sorted(int(v) for v in np.nonzero(res.x[:n] > 0.5)[0])
    value = cut_sum(edges, set(chosen))
    if abs(value + res.fun) > 1e-6:
        raise RuntimeError(f"MILP objective {-res.fun} disagrees with its set ({value})")
    return value, chosen


def brute_force(edges, bases):
    best = None
    for b in bases:
        value = cut_sum(edges, set(b))
        if best is None or value > best[0]:
            best = (value, sorted(b))
    return best


def matroid_optimum(inst):
    kind = inst.matroid[0]
    if kind == "uniform":
        return milp_optimum(inst.n, inst.edges, [(range(inst.n), inst.matroid[1])])
    if kind == "partition":
        groups = [(p, min(k, len(p))) for p, k in zip(inst.parts, inst.budgets)]
        return milp_optimum(inst.n, inst.edges, groups)
    if kind == "graphic":
        aux = inst.matroid[2]
        r = graphic_rank(aux)
        bases = (b for b in itertools.combinations(range(inst.n), r) if acyclic(aux, b))
        return brute_force(inst.edges, bases)
    return brute_force(inst.edges, inst.matroid[1])


def reference(inst) -> dict:
    out = {"fingerprint": inst.fingerprint()}
    if inst.tdm is not None:
        out["matching"] = has_perfect_matching(*inst.tdm)
        return out
    out["opt"], out["opt_set"] = milp_optimum(
        inst.n, inst.edges, list(zip(inst.parts, inst.budgets))
    )
    if inst.matroid is not None:
        out["matroid_opt"], out["matroid_set"] = matroid_optimum(inst)
    return out


def all_instances():
    out = corpus_instances(CORPUS)
    for workload in SLOTS:
        out += pool(workload)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--check", action="store_true", help="compare with the stored file")
    args = ap.parse_args(argv)
    refs = {}
    for inst in all_instances():
        t0 = time.perf_counter()
        refs[inst.key] = reference(inst)
        print(f"{inst.key}: {time.perf_counter() - t0:.2f} s", file=sys.stderr, flush=True)
    if args.check:
        with open(REFERENCES, encoding="utf-8") as fh:
            stored = json.load(fh)
        bad = [k for k in refs if stored.get(k) != refs[k]]
        bad += [k for k in stored if k not in refs]
        for k in bad:
            print(f"differs: {k}")
        return 1 if bad else 0
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
