"""Seeded instance generators, including the 3D-matching hardness gadget.

Every generator is a pure function of its seed, so corpora are reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .config import check_seed
from .errors import InputError
from .graph import ConstrainedInstance, WeightedGraph


@dataclass(frozen=True)
class ThreeDMInstance:
    """Tripartite matching instance: equal-size element axes plus triples."""

    size: int  # |X| = |Y| = |Z|
    triples: tuple  # tuple of (x, y, z)

    def __post_init__(self):
        for x, y, z in self.triples:
            if not (0 <= x < self.size and 0 <= y < self.size and 0 <= z < self.size):
                raise InputError(f"triple ({x},{y},{z}) references a missing element")


def _rng(seed: int, *salt: int) -> np.random.Generator:
    """The generator for `seed`, salted with the instance's size parameters."""
    seed = int(seed)
    check_seed(seed)
    return np.random.default_rng(np.random.SeedSequence((seed, *salt)))


def tdm_has_perfect_matching(tdm: ThreeDMInstance) -> bool:
    """Exhaustive check for a set of triples covering every element once."""
    if tdm.size == 0:
        return True
    for combo in combinations(tdm.triples, tdm.size):
        xs = {t[0] for t in combo}
        ys = {t[1] for t in combo}
        zs = {t[2] for t in combo}
        if len(xs) == len(ys) == len(zs) == tdm.size:
            return True
    return False


def gen_3dm(size: int, extra_triples: int, seed: int, drop_planted: bool = False):
    """Random 3DM instance with a planted perfect matching plus decoys.

    `drop_planted` removes one planted triple, usually destroying the
    matching.  The returned flag is always the exhaustively verified truth,
    not the plant status.
    """
    size = int(size)
    if not 1 <= size <= 6:
        raise InputError("size must lie in [1, 6] to stay oracle-checkable")
    if extra_triples < 0:
        raise InputError(f"extra_triples must be non-negative, got {extra_triples}")
    rng = _rng(seed, size, extra_triples)
    perm_y = rng.permutation(size)
    perm_z = rng.permutation(size)
    triples = {(i, int(perm_y[i]), int(perm_z[i])) for i in range(size)}
    planted = sorted(triples)
    if drop_planted:
        triples.discard(planted[int(rng.integers(size))])
    attempts = 0
    while len(triples) < len(planted) - (1 if drop_planted else 0) + extra_triples:
        cand = (
            int(rng.integers(size)),
            int(rng.integers(size)),
            int(rng.integers(size)),
        )
        triples.add(cand)
        attempts += 1
        if attempts > 100 * (extra_triples + 1):
            break  # tiny universes may not have enough distinct triples
    tdm = ThreeDMInstance(size, tuple(sorted(triples)))
    return tdm, tdm_has_perfect_matching(tdm)


def gadget_from_3dm(tdm: ThreeDMInstance) -> ConstrainedInstance:
    """One unit-weight star per triple; budgets force a matching structure.

    Vertices: triple t gets center t and leaves T + 3t + axis.  Each element
    owns the part of its leaves with budget 1; all centers share one part
    with budget (#triples - size).  A feasible set cuts every edge exactly
    when the matching instance has a perfect matching.
    """
    if not tdm.triples:
        raise InputError("gadget needs at least one triple")
    t_count = len(tdm.triples)
    edges = []
    leaf_parts = {("x", e): set() for e in range(tdm.size)}
    leaf_parts.update({("y", e): set() for e in range(tdm.size)})
    leaf_parts.update({("z", e): set() for e in range(tdm.size)})
    for t, (x, y, z) in enumerate(tdm.triples):
        center = t
        for axis, elem in enumerate((x, y, z)):
            leaf = t_count + 3 * t + axis
            edges.append((center, leaf, 1.0))
            leaf_parts[("xyz"[axis], elem)].add(leaf)
    graph = WeightedGraph(4 * t_count, edges).normalize()
    parts = [frozenset(range(t_count))]
    # Fewer triples than elements leaves some element part empty, which
    # already makes the instance infeasible, so clamping keeps the
    # all-cut decision aligned with 3DM feasibility.
    budgets = [max(0, t_count - tdm.size)]
    for key in sorted(leaf_parts):
        parts.append(frozenset(leaf_parts[key]))
        budgets.append(1)
    return ConstrainedInstance(graph, parts, budgets)


def gen_random(
    n: int,
    edge_prob: float,
    weight_law: str = "unit",
    c: int = 1,
    budget_law: str = "uniform",
    seed: int = 0,
) -> ConstrainedInstance:
    """Random normalized instance: G(n, p) edges, c balanced parts, budgets.

    weight_law: "unit" or "uniform" (weights drawn from (0, 1]).
    budget_law: "uniform" draws k_i from [1, |V_i|/2]; "half" pins
    k_i = floor(|V_i|/2); "one" pins k_i = 1.
    """
    n, c = int(n), int(c)
    if n < 2 * c:
        raise InputError(f"need n >= 2c for nonempty budgets (n={n}, c={c})")
    if not 0.0 <= edge_prob <= 1.0:
        raise InputError("edge probability outside [0, 1]")
    if weight_law not in ("unit", "uniform"):
        raise InputError(f"unknown weight law {weight_law!r}")
    if budget_law not in ("uniform", "half", "one"):
        raise InputError(f"unknown budget law {budget_law!r}")
    rng = _rng(seed, n, c)

    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                w = 1.0 if weight_law == "unit" else float(1.0 - rng.random())
                edges.append((u, v, w))
    graph = WeightedGraph(n, edges).normalize()

    order = rng.permutation(n)
    bounds = np.linspace(0, n, c + 1).astype(int)
    parts = [frozenset(int(v) for v in order[bounds[i] : bounds[i + 1]]) for i in range(c)]
    budgets = []
    for p in parts:
        top = len(p) // 2
        if budget_law == "half":
            budgets.append(top)
        elif budget_law == "one":
            budgets.append(1)
        else:
            budgets.append(int(rng.integers(1, top + 1)))
    return ConstrainedInstance(graph, parts, budgets)
