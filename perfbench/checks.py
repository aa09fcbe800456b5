"""Answer checks written apart from cutkit.

Each check raises CheckError with a message naming the instance; a run
stops at the first failed check and prints no result.
"""

from __future__ import annotations

VALUE_TOL = 1e-9


class CheckError(Exception):
    pass


def cut_sum(edges, chosen) -> float:
    """Total weight of edges with exactly one endpoint in `chosen`."""
    return sum(w for u, v, w in edges if (u in chosen) != (v in chosen))


def _forest_size(aux_edges, chosen) -> int:
    """Edges of `chosen` that join two components (union-find)."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    joined = 0
    for i in chosen:
        a, b = find(aux_edges[i][0]), find(aux_edges[i][1])
        if a != b:
            parent[a] = b
            joined += 1
    return joined


def acyclic(aux_edges, chosen) -> bool:
    return _forest_size(aux_edges, chosen) == len(chosen)


def graphic_rank(aux_edges) -> int:
    return _forest_size(aux_edges, range(len(aux_edges)))


def partition_feasible(inst, chosen) -> bool:
    chosen = set(chosen)
    if not chosen <= set(range(inst.n)):
        return False
    return all(len(chosen & set(p)) == k for p, k in zip(inst.parts, inst.budgets))


def matroid_base(inst, chosen) -> bool:
    """Whether `chosen` is a base of the instance's matroid section."""
    chosen = set(chosen)
    kind = inst.matroid[0]
    if kind == "uniform":
        return len(chosen) == inst.matroid[1] and chosen <= set(range(inst.n))
    if kind == "partition":
        return all(
            len(chosen & set(p)) == min(k, len(p)) for p, k in zip(inst.parts, inst.budgets)
        )
    if kind == "graphic":
        aux = inst.matroid[2]
        return len(chosen) == graphic_rank(aux) and acyclic(aux, sorted(chosen))
    if kind == "explicit":
        return tuple(sorted(chosen)) in set(inst.matroid[1])
    raise CheckError(f"unknown matroid kind {kind!r}")


def check_value(key, edges, chosen, value):
    own = cut_sum(edges, set(chosen))
    if abs(own - value) > VALUE_TOL * max(1.0, abs(own)):
        raise CheckError(f"{key}: reported value {value!r} but the set cuts {own!r}")


def check_ratio(key, value, optimum) -> float:
    """value / optimum, refusing a value above the optimum."""
    if optimum <= 0:
        raise CheckError(f"{key}: reference optimum {optimum!r} is not positive")
    if value > optimum + VALUE_TOL * max(1.0, optimum):
        raise CheckError(f"{key}: value {value!r} exceeds the optimum {optimum!r}")
    return value / optimum


def check_solver_answer(key, inst, chosen, value, optimum, feasible) -> float:
    """Feasibility, cut sum and optimum bound of one solver answer; returns
    its ratio to the optimum."""
    if not feasible(inst, chosen):
        raise CheckError(f"{key}: answer {sorted(chosen)} is infeasible")
    check_value(key, inst.edges, chosen, value)
    return check_ratio(key, value, optimum)


def check_oracle_answer(key, inst, chosen, value, optimum, feasible):
    ratio = check_solver_answer(key, inst, chosen, value, optimum, feasible)
    if abs(value - optimum) > VALUE_TOL:
        raise CheckError(f"{key}: oracle value {value!r} differs from the optimum {optimum!r}")
    return ratio


def check_half(key, value, optimum):
    """The matroid route's guarantee: at least half the optimum."""
    if value < 0.5 * optimum - VALUE_TOL:
        raise CheckError(f"{key}: pipage value {value!r} is below half of {optimum!r}")
