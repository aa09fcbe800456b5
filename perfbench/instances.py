"""Seeded inputs of the three workloads, made without cutkit.

Every instance is a pure function of (slot, pool index): a slot fixes the
shape (vertex count, edge count, parts, budgets, matroid kind) and the pool
index seeds the random draws.  `references.json` holds the optimum of every
pool instance, computed apart from cutkit by `reference.py`.  Round i of a
run takes the same pool entries on every seed, and the run's `--seed`
relabels their vertices: different seeds give different inputs, the same
optima and the same work.  Pool entries of one slot differ in cost (ADMM
iterations vary by up to 50 % between them), so drawing entries by seed
made most of the spread between runs.

Graphs are G(n, m) with exactly m edges and weights in {0.001, ..., 1.000},
so a slot's edge count, and with it the cost of the cut evaluations, does
not depend on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

POOL = 8  # pool instances per slot

@dataclass(frozen=True)
class Instance:
    """A graph, a vertex partition with budgets, and an optional matroid.

    `matroid` is None, ("uniform", k), ("partition",), ("graphic", nv,
    aux_edges) or ("explicit", bases).  `op` names the call the instance
    feeds; `tdm` is set for 3DM gadgets.
    """

    key: str
    op: str
    n: int
    edges: tuple  # (u, v, w) with u < v
    parts: tuple  # tuples of vertex ids
    budgets: tuple
    matroid: tuple | None = None
    tdm: tuple | None = None  # (size, triples) for gadget instances

    def text(self) -> str:
        """The instance in cutkit's documented text format."""
        lines = [f"{self.n} {len(self.edges)} {len(self.parts)}"]
        lines += [f"{u} {v} {w!r}" for u, v, w in self.edges]
        for p, k in zip(self.parts, self.budgets):
            lines.append(" ".join(str(x) for x in (len(p), k, *p)))
        if self.matroid is not None:
            kind = self.matroid[0]
            if kind == "uniform":
                lines.append(f"matroid uniform {self.matroid[1]}")
            elif kind == "partition":
                lines.append("matroid partition")
            elif kind == "graphic":
                _, nv, aux = self.matroid
                lines.append(f"matroid graphic {nv} {len(aux)}")
                lines += [f"{a} {b}" for a, b in aux]
            elif kind == "explicit":
                bases = self.matroid[1]
                lines.append(f"matroid explicit {len(bases)}")
                lines += [" ".join(str(x) for x in (len(b), *b)) for b in bases]
        return "\n".join(lines) + "\n"

    def fingerprint(self) -> str:
        body = self.text()
        if self.tdm is not None:
            body += json.dumps(self.tdm)
        return hashlib.sha256(body.encode()).hexdigest()[:16]


def relabel(inst: Instance, rng) -> Instance:
    """An isomorphic copy of `inst` under random vertex labels.

    Vertex v becomes perm[v]; for 3DM gadgets each axis's elements are
    permuted.  The copy has the same optimum and key as `inst`.
    """
    if inst.tdm is not None:
        size, triples = inst.tdm
        axes = [rng.permutation(size) for _ in range(3)]
        triples = tuple(sorted(tuple(int(a[e]) for a, e in zip(axes, t)) for t in triples))
        return Instance(inst.key, inst.op, 0, (), (), (), tdm=(size, triples))
    perm = [int(v) for v in rng.permutation(inst.n)]
    edges = tuple(sorted((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                         for u, v, w in inst.edges))
    parts = tuple(tuple(sorted(perm[v] for v in p)) for p in inst.parts)
    matroid = inst.matroid
    if matroid is not None and matroid[0] == "graphic":
        # ground element v is auxiliary edge v: move each edge to its new label
        aux = [None] * inst.n
        for v, e in enumerate(matroid[2]):
            aux[perm[v]] = e
        matroid = ("graphic", matroid[1], tuple(aux))
    elif matroid is not None and matroid[0] == "explicit":
        matroid = ("explicit", tuple(sorted(tuple(sorted(perm[v] for v in b)) for b in matroid[1])))
    return Instance(inst.key, inst.op, inst.n, edges, parts, inst.budgets, matroid)


def rng_for(slot: str, index: int) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(slot.encode()).digest()[:8], "little")
    return np.random.default_rng(np.random.SeedSequence((tag, index)))


def random_graph(n: int, m: int, rng) -> tuple:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pick = sorted(rng.choice(len(pairs), size=m, replace=False))
    weights = rng.integers(1, 1001, size=m) / 1000.0
    return tuple((pairs[i][0], pairs[i][1], float(w)) for i, w in zip(pick, weights))


def random_parts(n: int, c: int, rng) -> tuple:
    order = rng.permutation(n)
    cuts = np.linspace(0, n, c + 1).astype(int)
    return tuple(tuple(sorted(int(v) for v in order[cuts[i] : cuts[i + 1]])) for i in range(c))


def _edge_count(n: int, density: float) -> int:
    return int(round(density * n * (n - 1) / 2))


def disjoint_cycles(n: int, rng) -> tuple:
    """Auxiliary graph on n vertices made of disjoint cycles of length 3-5.

    Its n edges are the ground set of a graphic matroid of rank n minus the
    number of cycles.  Graphic matroids whose auxiliary graph has two
    cycles through one vertex are left out: pipage stalls on some of them.
    """
    sizes, left = [], n
    while left:
        s = int(rng.integers(3, 6))
        if left - s in (1, 2) or s > left:
            s = left if left <= 5 else 3
        sizes.append(s)
        left -= s
    label = rng.permutation(n)
    edges, base = [], 0
    for s in sizes:
        edges += [(int(label[base + i]), int(label[base + (i + 1) % s])) for i in range(s)]
        base += s
    order = rng.permutation(n)
    return tuple(edges[i] for i in order)


def partition_bases(n: int, r: int, rng) -> tuple:
    """Bases of a rank-r partition matroid, listed one by one."""
    order = [int(v) for v in rng.permutation(n)]
    blocks = [sorted(order[i::r]) for i in range(r)]
    return tuple(tuple(sorted(b)) for b in itertools.product(*blocks))


def read_corpus(path: str) -> Instance:
    """Parse a shipped corpus file (text format or its JSON mirror)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    key = "corpus/" + path.replace("\\", "/").rsplit("/", 1)[-1]
    text = raw.decode()
    if text.lstrip().startswith("{"):
        obj = json.loads(text)
        edges = tuple((int(u), int(v), float(w)) for u, v, w in obj["edges"])
        parts = tuple(tuple(int(x) for x in p["vertices"]) for p in obj["parts"])
        budgets = tuple(int(p["k"]) for p in obj["parts"])
        m = obj.get("matroid")
        if m is not None:
            raise ValueError(f"{key}: JSON matroid sections are not read here")
        return Instance(key, "bench", int(obj["n"]), edges, parts, budgets)
    toks = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    toks = [t for t in toks if t]
    n, m, c = (int(x) for x in toks[0])
    edges = tuple((int(u), int(v), float(w)) for u, v, w in toks[1 : 1 + m])
    part_lines = toks[1 + m : 1 + m + c]
    parts = tuple(tuple(int(x) for x in t[2:]) for t in part_lines)
    budgets = tuple(int(t[1]) for t in part_lines)
    matroid = None
    rest = toks[1 + m + c :]
    if rest:
        if rest[0][:2] == ["matroid", "uniform"]:
            matroid = ("uniform", int(rest[0][2]))
        elif rest[0][:2] == ["matroid", "partition"]:
            matroid = ("partition",)
        else:
            raise ValueError(f"{key}: matroid section {rest[0]} is not read here")
    return Instance(key, "bench", n, edges, parts, budgets, matroid)


def corpus_instances(corpus_dir: str) -> list:
    names = sorted(f for f in os.listdir(corpus_dir) if f.endswith((".txt", ".json")))
    return [read_corpus(os.path.join(corpus_dir, f)) for f in names]


# ---------------------------------------------------------------------------
# 3DM gadgets


def has_perfect_matching(size: int, triples) -> bool:
    """Exhaustive backtracking search for triples covering each element once."""
    by_x = [[t for t in triples if t[0] == x] for x in range(size)]

    def extend(x, used_y, used_z):
        if x == size:
            return True
        for _, y, z in by_x[x]:
            if y not in used_y and z not in used_z:
                if extend(x + 1, used_y | {y}, used_z | {z}):
                    return True
        return False

    return extend(0, frozenset(), frozenset())


def random_tdm(size: int, occurrences, want_matching: bool, rng) -> tuple:
    """Distinct triples in which element i of every axis occurs
    occurrences[i] times, drawn until the matching status is `want_matching`.

    Fixed occurrence counts fix the number of feasible sets of the gadget:
    C(T, T - size) times the product of all occurrence counts.
    """
    labels = [e for e, k in enumerate(occurrences) for _ in range(k)]
    while True:
        axes = [rng.permutation(labels) for _ in range(3)]
        triples = sorted({(int(x), int(y), int(z)) for x, y, z in zip(*axes)})
        if len(triples) == len(labels) and has_perfect_matching(size, triples) == want_matching:
            return size, tuple(triples)


# ---------------------------------------------------------------------------
# workload slots


@dataclass(frozen=True)
class Slot:
    """One shape of a workload's instances; `op` names the call it feeds."""

    name: str
    op: str  # solve, bench, maxcut_k, constrained, matroid or decision
    n: int
    density: float
    budgets: tuple  # per-part budgets; 3DM: element occurrence counts
    matroid: str | None = None
    matching: bool | None = None  # 3DM: whether a perfect matching exists
    count: int = 1  # instances drawn per round


# sdp-ladder.  With eps = 0.5 each part keeps 2k vertices plus one super
# vertex, so the reduced size is sum(2k + 1); cutkit's automatic level
# choice then gives the moment-matrix side N noted per slot.
SDP_SLOTS = (
    Slot("sdp-c2-n16", "solve", 16, 0.4, (1, 1), count=2),  # reduced 6, level 4, N 57
    Slot("sdp-c1-n20", "solve", 20, 0.3, (3,), count=2),  # reduced 7, level 4, N 99
    Slot("sdp-c3-n36", "solve", 36, 0.2, (2, 2, 1), count=2),  # reduced 13, level 2, N 92
    Slot("sdp-c3-n30", "solve", 30, 0.25, (1, 1, 1), count=2),  # reduced 9, level 3, N 130
    Slot("sdp-c2-n40", "solve", 40, 0.15, (2, 1)),  # reduced 8, level 4, N 163
)

# bench-sweep: generated matroid instances beside the shipped corpus.
# Two of each per round: with one, the run's median operation was always
# the costlier of the four short calls, and it spread by up to 0.24.
BENCH_SLOTS = (
    Slot("bench-graphic-n14", "bench", 14, 0.35, (2,), matroid="graphic", count=2),
    Slot("bench-explicit-n12", "bench", 12, 0.4, (2,), matroid="explicit", count=2),
)

# exact.  Candidate-set counts depend on the shape alone.
EXACT_SLOTS = (
    Slot("exact-k-n22", "maxcut_k", 22, 0.3, (11,)),  # 705432 sets
    # two per round, so that the median operation of a run falls among them
    Slot("exact-k-n20", "maxcut_k", 20, 0.3, (10,), count=2),  # 184756 sets
    Slot("exact-c2-n22", "constrained", 22, 0.3, (5, 5)),  # 213444 sets
    Slot("exact-c3-n22", "constrained", 22, 0.3, (3, 3, 4)),  # 85750 sets
    Slot("exact-c4-n22", "constrained", 22, 0.3, (2, 2, 3, 3)),  # 30000 sets
    Slot("exact-uniform-n15", "matroid", 15, 0.35, (7,), matroid="uniform"),  # 6435 bases
    Slot("exact-partition-n16", "matroid", 16, 0.35, (3, 3), matroid="partition"),  # 3136 of 8008
    Slot("exact-3dm-yes", "decision", 3, 0.0, (3, 2, 2), matching=True),  # 60480 sets
    Slot("exact-3dm-no", "decision", 4, 0.0, (3, 2, 2, 2), matching=False),  # 1741824 sets
)

SLOTS = {"sdp-ladder": SDP_SLOTS, "bench-sweep": BENCH_SLOTS, "exact": EXACT_SLOTS}


def make_instance(slot: Slot, index: int) -> Instance:
    rng = rng_for(slot.name, index)
    key = f"{slot.name}/{index}"
    if slot.op == "decision":
        tdm = random_tdm(slot.n, slot.budgets, slot.matching, rng)
        return Instance(key, slot.op, 0, (), (), (), tdm=tdm)
    edges = random_graph(slot.n, _edge_count(slot.n, slot.density), rng)
    if slot.op == "maxcut_k" or slot.matroid == "uniform":
        parts = (tuple(range(slot.n)),)
    else:
        parts = random_parts(slot.n, len(slot.budgets), rng)
    matroid = None
    if slot.matroid == "uniform":
        matroid = ("uniform", slot.budgets[0])
    elif slot.matroid == "partition":
        matroid = ("partition",)
    elif slot.matroid == "graphic":
        matroid = ("graphic", slot.n, disjoint_cycles(slot.n, rng))
    elif slot.matroid == "explicit":
        matroid = ("explicit", partition_bases(slot.n, 4, rng))
    return Instance(key, slot.op, slot.n, edges, parts, slot.budgets, matroid)


def pool(workload: str):
    """Every instance a workload can draw, for the reference command."""
    return [make_instance(slot, i) for slot in SLOTS[workload] for i in range(POOL)]


def pick(workload: str, rounds: int):
    """Instances of one run, round by round, before relabelling: round i
    takes pool entries i * count to i * count + count - 1 of each slot, so
    no entry repeats in a run."""
    slots = SLOTS[workload]
    passes = max(s.count for s in slots)
    return [[make_instance(s, i * s.count + j) for j in range(passes)
             for s in slots if j < s.count] for i in range(rounds)]
