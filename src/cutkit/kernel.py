"""Degree-based approximate kernels and the local-exchange moves behind them.

Per part, only the top ceil(k_i/eps) vertices by weighted degree are kept;
the remainder is contracted into a super vertex that downstream stages must
not select.  The exchange machinery is exposed so tests can witness the
kernel guarantee constructively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InputError
from .graph import (
    ConstrainedInstance,
    WeightedGraph,
    as_vertex_set,
    contract_groups,
    cut_between,
    cut_value,
    weighted_degree_order,
)


@dataclass(frozen=True)
class KernelResult:
    """Reduced instance plus the bookkeeping to map back to the original."""

    reduced: WeightedGraph
    forbidden: frozenset  # super-vertex ids in the reduced graph
    parts: tuple  # reduced-id parts, each including its super vertex if any
    budgets: tuple
    epsilon: float
    orig_to_reduced: dict  # kept original id -> reduced id
    super_sources: dict  # super reduced id -> frozenset of original ids

    @property
    def reduced_to_orig(self) -> dict:
        return {r: o for o, r in self.orig_to_reduced.items()}

    @property
    def kept_original(self) -> frozenset:
        return frozenset(self.orig_to_reduced)

    @property
    def kept_parts(self) -> tuple:
        """Kept vertices of each part, in reduced ids: the part without its
        super vertex, the vertices every later stage may select."""
        return tuple(part - self.forbidden for part in self.parts)

    def kept_parts_original(self) -> tuple:
        """Kept vertices of each part, in original ids."""
        back = self.reduced_to_orig
        return tuple(frozenset(back[v] for v in part) for part in self.kept_parts)

    def lift(self, reduced_set) -> frozenset:
        """Map a reduced-id set (avoiding supers) back to original ids."""
        back = self.reduced_to_orig
        out = set()
        for v in reduced_set:
            if v in self.forbidden:
                raise InputError(f"reduced vertex {v} is a super vertex")
            out.add(back[v])
        return frozenset(out)

    def to_json_dict(self):
        return {
            "n": self.reduced.n,
            "edges": [[u, v, w] for u, v, w in self.reduced.edges],
            "forbidden": sorted(self.forbidden),
            "parts": [sorted(p) for p in self.parts],
            "budgets": list(self.budgets),
            "epsilon": self.epsilon,
            "orig_to_reduced": {str(k): v for k, v in sorted(self.orig_to_reduced.items())},
            "super_sources": {str(k): sorted(v) for k, v in sorted(self.super_sources.items())},
        }


def kernelize_single(g: WeightedGraph, k: int, eps: float) -> KernelResult:
    """Kernelize Max-Cut_k, the one-part instance |S| = k."""
    return kernelize_multi(ConstrainedInstance(g, [range(g.n)], [k]), eps)


def kernelize_multi(inst: ConstrainedInstance, eps: float) -> KernelResult:
    """Kernelize each part of a constrained instance independently.

    Needs 1 <= k_i <= |V_i|/2 of every part, the one place that rule is
    checked, and eps in (0, 1/2].
    """
    if not 0.0 < eps <= 0.5:
        raise InputError(f"eps must lie in (0, 1/2], got {eps}")
    for i, (part, k) in enumerate(zip(inst.parts, inst.budgets)):
        if not 1 <= 2 * k <= len(part):
            raise InputError(
                f"part {i}: need 1 <= budget <= half the part size {len(part)}, got {k}"
            )
    graph, parts, budgets = inst.graph, inst.parts, inst.budgets
    order = weighted_degree_order(graph)
    rank = {v: i for i, v in enumerate(order)}

    keep = set()
    groups = []  # one tail group per contracted part
    group_part = []  # part index owning each group
    for i, (part, k) in enumerate(zip(parts, budgets)):
        h = math.ceil(k / eps)
        part_sorted = sorted(part, key=lambda v: rank[v])
        if h + 1 <= len(part):
            kept = part_sorted[:h]
            tail = part_sorted[h:]
            groups.append(frozenset(tail))
            group_part.append(i)
        else:
            kept = part_sorted
        keep.update(kept)

    if not groups:
        return KernelResult(
            reduced=graph,
            forbidden=frozenset(),
            parts=tuple(frozenset(p) for p in parts),
            budgets=tuple(budgets),
            epsilon=eps,
            orig_to_reduced={v: v for v in range(graph.n)},
            super_sources={},
        )

    reduced, super_ids, old_to_new = contract_groups(graph, keep, groups)
    super_of_part = {group_part[j]: super_ids[j] for j in range(len(groups))}
    new_parts = []
    for i, part in enumerate(parts):
        mapped = {old_to_new[v] for v in part if v in old_to_new}
        if i in super_of_part:
            mapped.add(super_of_part[i])
        new_parts.append(frozenset(mapped))
    super_sources = {
        super_ids[j]: frozenset(groups[j]) for j in range(len(groups))
    }
    return KernelResult(
        reduced=reduced,
        forbidden=frozenset(super_ids),
        parts=tuple(new_parts),
        budgets=tuple(budgets),
        epsilon=eps,
        orig_to_reduced=old_to_new,
        super_sources=super_sources,
    )


def local_exchange_step(g: WeightedGraph, s, h_set):
    """One degree-guided swap: pull in the least-attached high-degree vertex.

    Picks i in h_set \\ s minimizing the crossing weight to s and the
    lowest-id j in s \\ h_set, and returns (i, j, value after the swap).
    The returned value is guaranteed to be at least
    (1 - 2/|h_set \\ s|) * cut_value(g, s).
    """
    s = as_vertex_set(s, g.n)
    h_set = as_vertex_set(h_set, g.n)
    if not s - h_set:
        raise InputError("s is contained in h_set; nothing to exchange")
    if len(h_set) <= len(s):
        raise InputError("h_set must be strictly larger than s")
    deg = g.degrees
    out_min = min(deg[v] for v in h_set - s)
    in_max = max(deg[v] for v in s - h_set)
    if out_min < in_max - 1e-12:
        raise InputError(
            "degree condition violated: h_set \\ s must dominate s \\ h_set"
        )
    candidates = sorted(h_set - s)
    i = min(candidates, key=lambda v: (cut_between(g, s, {v}), v))
    j = min(s - h_set)
    new_set = (s - {j}) | {i}
    return i, j, cut_value(g, new_set)


def migrate_to_kernel(g: WeightedGraph, s_star, kernel: KernelResult, steps_out=None):
    """Exchange s_star into the kept vertices, part by part.

    Operates in original vertex ids.  Returns a feasible set contained in
    the kept vertices; each swap loses at most a 2/|H \\ S| fraction of the
    current cut value, so the final value is within the kernel guarantee of
    cut_value(g, s_star).  When `steps_out` is a list, one record per swap
    is appended for bound-checking.
    """
    s = as_vertex_set(s_star, g.n)
    kept_parts = kernel.kept_parts_original()
    orig_parts = []
    for part, kept in zip(kernel.parts, kept_parts):
        originals = set(kept)
        for v in part & kernel.forbidden:
            originals |= kernel.super_sources[v]
        orig_parts.append(frozenset(originals))
    for part, k in zip(orig_parts, kernel.budgets):
        if len(s & part) != k:
            raise InputError("s_star does not meet the instance budgets")

    while True:
        target = None
        for p, (part, kept) in enumerate(zip(orig_parts, kept_parts)):
            if (s & part) - kept:
                target = p
                break
        if target is None:
            return s
        part, kept = orig_parts[target], kept_parts[target]
        # Exchange within part `target`, freezing the selection elsewhere.
        h_set = (s - part) | kept
        before = cut_value(g, s)
        i, j, after = local_exchange_step(g, s, h_set)
        if steps_out is not None:
            steps_out.append(
                {
                    "i": i,
                    "j": j,
                    "value_before": before,
                    "value_after": after,
                    "h_minus_s": len(h_set - s),
                }
            )
        s = (s - {j}) | {i}
