"""Weighted graphs, cut evaluation, degree ordering, and contraction.

All types are immutable after construction and every operation is a pure
function, so values can be shared freely across threads.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import TOL
from .errors import InputError


def as_index(value, what: str) -> int:
    """`value` as an int when it is an integer (a numpy integer counts, a bool
    does not); else InputError naming `what`."""
    if type(value) is int:  # first, as every cut_value reads its ids through here
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} must be an integer, got {value!r}")


def as_vertex_set(vertices, n: int) -> frozenset:
    """Validate an iterable of vertex ids against [0, n) and freeze it."""
    s = frozenset(as_index(v, "vertex id") for v in vertices)
    for v in s:
        if not 0 <= v < n:
            raise InputError(f"vertex id {v} out of range [0, {n})")
    return s


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected graph with nonnegative edge weights.

    Edges are canonicalized on construction: endpoints ordered, parallel
    edges merged by summing weights, self-loops rejected.  Every weight,
    merged weight and the total weight must be finite.
    """

    n: int
    edges: tuple  # tuple of (u, v, w) with u < v, sorted

    def __init__(self, n, edges):
        n = as_index(n, "vertex count")
        if n < 0:
            raise InputError("vertex count must be nonnegative")
        merged = {}
        for u, v, w in edges:
            u, v, w = as_index(u, "edge end"), as_index(v, "edge end"), float(w)
            if u == v:
                raise InputError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError(f"edge ({u},{v}) out of range [0, {n})")
            if not math.isfinite(w):
                raise InputError(f"weight {w} on edge ({u},{v}) is not finite")
            if w < 0:
                raise InputError(f"negative weight {w} on edge ({u},{v})")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + w
        object.__setattr__(self, "n", n)
        object.__setattr__(
            self, "edges", tuple((u, v, w) for (u, v), w in sorted(merged.items()))
        )
        with np.errstate(over="ignore"):  # an overflow is refused here, not warned of
            if math.isinf(self.total_weight):  # so is a merged weight that overflows
                raise InputError("the edge weights overflow: their total is infinite")

    @cached_property
    def _edge_arrays(self):
        if not self.edges:
            z = np.zeros(0, dtype=np.int64)
            return z, z, np.zeros(0, dtype=np.float64)
        eu, ev, ew = zip(*self.edges)
        return (
            np.asarray(eu, dtype=np.int64),
            np.asarray(ev, dtype=np.int64),
            np.asarray(ew, dtype=np.float64),
        )

    @cached_property
    def total_weight(self) -> float:
        return float(self._edge_arrays[2].sum())

    @cached_property
    def degrees(self) -> np.ndarray:
        """Weighted degree of each vertex (== cut value of the singleton)."""
        eu, ev, ew = self._edge_arrays
        deg = np.zeros(self.n, dtype=np.float64)
        np.add.at(deg, eu, ew)
        np.add.at(deg, ev, ew)
        deg.flags.writeable = False
        return deg

    def normalize(self) -> "WeightedGraph":
        """Rescale weights so they sum to 1. Edgeless graphs are returned as is."""
        tw = self.total_weight
        if tw <= 0.0:
            return self
        return WeightedGraph(self.n, [(u, v, w / tw) for u, v, w in self.edges])

    def indicator(self, s) -> np.ndarray:
        ind = np.zeros(self.n, dtype=bool)
        if s:
            ind[list(s)] = True
        return ind


def cut_value(g: WeightedGraph, s) -> float:
    """Total weight of edges with exactly one endpoint in s."""
    s = as_vertex_set(s, g.n)
    if not g.edges:
        return 0.0
    eu, ev, ew = g._edge_arrays
    ind = g.indicator(s)
    return float(ew[ind[eu] ^ ind[ev]].sum())


def cut_between(g: WeightedGraph, s, t) -> float:
    """Total weight of edges with one endpoint in s and the other in t."""
    s = as_vertex_set(s, g.n)
    t = as_vertex_set(t, g.n)
    if s & t:
        raise InputError(f"sets overlap on {sorted(s & t)}")
    if not g.edges:
        return 0.0
    eu, ev, ew = g._edge_arrays
    si = g.indicator(s)
    ti = g.indicator(t)
    cross = (si[eu] & ti[ev]) | (ti[eu] & si[ev])
    return float(ew[cross].sum())


def weighted_degree_order(g: WeightedGraph) -> list:
    """Vertices sorted by weighted degree descending, ties by ascending id."""
    deg = g.degrees
    return sorted(range(g.n), key=lambda v: (-deg[v], v))


def contract_groups(g: WeightedGraph, keep, groups):
    """Contract each group of vertices into one super vertex.

    `keep` and the groups must partition V(g).  Kept vertices are re-indexed
     0..|keep|-1 in ascending original-id order; group j becomes super vertex
    |keep|+j.  Edges internal to a group, and edges between two groups, are
    dropped: with every super vertex barred from selection such edges can
    never cross a feasible cut, so all feasible-solution values are
    preserved exactly.

    Returns (graph, super_ids, old_to_new) where old_to_new maps kept ids.
    """
    keep = as_vertex_set(keep, g.n)
    groups = [as_vertex_set(grp, g.n) for grp in groups]
    covered = set(keep)
    for grp in groups:
        if not grp:
            raise InputError("empty contraction group")
        if covered & grp:
            raise InputError("contraction groups overlap")
        covered |= grp
    if covered != set(range(g.n)):
        raise InputError("keep plus groups must cover all vertices")

    old_to_new = {v: i for i, v in enumerate(sorted(keep))}
    super_ids = list(range(len(keep), len(keep) + len(groups)))
    group_of = {}
    for j, grp in enumerate(groups):
        for v in grp:
            group_of[v] = super_ids[j]

    def rename(v):
        return old_to_new[v] if v in old_to_new else group_of[v]

    new_edges = {}
    for u, v, w in g.edges:
        nu, nv = rename(u), rename(v)
        u_super = nu >= len(keep)
        v_super = nv >= len(keep)
        if u_super and v_super:
            continue  # can never cross a cut avoiding all supers
        key = (nu, nv) if nu < nv else (nv, nu)
        new_edges[key] = new_edges.get(key, 0.0) + w
    reduced = WeightedGraph(
        len(keep) + len(groups), [(u, v, w) for (u, v), w in new_edges.items()]
    )
    return reduced, super_ids, old_to_new


def check_partition(n: int, parts, budgets) -> tuple:
    """The partition rule of a constrained instance and a partition matroid:
    (parts, budgets) as frozensets and ints.  InputError unless there is one
    budget per part, the parts (one at least) partition [0, n), and none is < 0."""
    parts = tuple(as_vertex_set(p, n) for p in parts)
    budgets = tuple(as_index(k, "budget") for k in budgets)
    if len(parts) != len(budgets):
        raise InputError("need one budget per part")
    if not parts:
        raise InputError("need at least one part")
    covered = set()
    for p in parts:
        if covered & p:
            raise InputError("parts must be disjoint")
        covered |= p
    if covered != set(range(n)):
        raise InputError("parts must cover every vertex")
    if any(k < 0 for k in budgets):
        raise InputError("budgets must be nonnegative")
    return parts, budgets


@dataclass(frozen=True)
class ConstrainedInstance:
    """A weighted graph plus a vertex partition with per-part budgets.

    Construction validates the partition structure and that each budget is
    a nonnegative integer.  The kernel's condition 1 <= k_i <= |V_i|/2, on
    which every relaxation and pipeline entry rests, is checked by
    `kernel.kernelize_multi` alone, because the exact oracles and generated
    hardness instances legitimately violate it.
    """

    graph: WeightedGraph
    parts: tuple  # tuple of frozensets
    budgets: tuple  # tuple of ints

    def __init__(self, graph, parts, budgets):
        parts, budgets = check_partition(graph.n, parts, budgets)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "budgets", budgets)

    @property
    def c(self) -> int:
        return len(self.parts)

    def is_feasible_set(self, s) -> bool:
        s = frozenset(s)
        return all(len(s & p) == k for p, k in zip(self.parts, self.budgets))


@dataclass(frozen=True)
class CutSolution:
    """A vertex subset with its cut value and pipeline provenance."""

    set: frozenset
    value: float
    feasible: bool
    stage_trace: tuple

    def check_value(self, g: WeightedGraph, tol: float = TOL) -> bool:
        return abs(cut_value(g, self.set) - self.value) <= tol
