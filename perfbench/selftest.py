"""Fast self-test of the answer checks: each must refuse a bad answer.

    python3 perfbench/selftest.py

Exits 0 when a correct answer passes and a tampered value, an infeasible
set, a ratio above 1, a pipage value under half the optimum and a wrong
bench oracle row are all refused.
"""

from __future__ import annotations

import sys

import checks
from instances import Instance
from run import check_bench_rows

# A weighted 4-cycle; parts {0, 1} and {2, 3} with budget 1 each.  The
# sets {0, 2} and {1, 3} cut every edge, so the optimum is the total weight.
INST = Instance("selftest", "solve", 4,
                ((0, 1, 1.0), (1, 2, 0.5), (2, 3, 0.25), (0, 3, 0.125)),
                ((0, 1), (2, 3)), (1, 1))
OPT = 1.875


def refuses(fn, *args) -> bool:
    try:
        fn(*args)
    except checks.CheckError:
        return True
    return False


def bench_csv(oracle_value):
    rows = ["instance,method,value,oracle_value,ratio,feasible,seed"]
    for method, value in (("sdp", OPT), ("pipage", OPT), ("greedy", 1.25), ("oracle", oracle_value)):
        rows.append(f"selftest,{method},{value!r},{oracle_value!r},,true,1")
    return "\n".join(rows) + "\n"


def main() -> int:
    feasible = checks.partition_feasible
    ref = {"opt": OPT}
    cases = {
        "correct answer passes": not refuses(
            checks.check_solver_answer, "ok", INST, {1, 3}, OPT, OPT, feasible),
        "tampered value refused": refuses(
            checks.check_solver_answer, "tampered", INST, {1, 3}, OPT + 1e-6, OPT, feasible),
        "infeasible set refused": refuses(
            checks.check_solver_answer, "infeasible", INST, {1, 2, 3}, 1.0, OPT, feasible),
        "ratio above 1 refused": refuses(
            checks.check_solver_answer, "above", INST, {1, 3}, OPT, OPT - 0.01, feasible),
        "pipage under half refused": refuses(checks.check_half, "half", 0.7, OPT),
        "correct bench rows pass": not refuses(check_bench_rows, INST, ref, bench_csv(OPT), 1),
        "wrong bench oracle refused": refuses(check_bench_rows, INST, ref, bench_csv(OPT - 0.1), 1),
    }
    for name, ok in cases.items():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return 0 if all(cases.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
