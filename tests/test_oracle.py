import contextlib
import itertools
import math
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutkit import _blas, oracle
from cutkit.config import Config
from cutkit.errors import CapacityError, InfeasibleError, InputError
from cutkit.forge import gadget_from_3dm, gen_3dm, gen_random, tdm_has_perfect_matching
from cutkit.graph import ConstrainedInstance, WeightedGraph, cut_value
from cutkit.matroid import ExplicitMatroid, GraphicMatroid, PartitionMatroid, UniformMatroid
from cutkit.oracle import (
    _blocks,
    _mask_values,
    _pools,
    _rev_codes,
    _sides,
    _subset_masks,
    oracle_all_cut_decision,
    oracle_constrained,
    oracle_maxcut_k,
    oracle_matroid,
)


def k3():
    return WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])


def brute_maxcut_k(g, k, forbidden=frozenset()):
    pool = [v for v in range(g.n) if v not in forbidden]
    best = -1.0
    for combo in itertools.combinations(pool, k):
        best = max(best, cut_value(g, combo))
    return best


def random_graph(n, p, rng):
    edges = [
        (u, v, float(rng.random() + 0.05))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return WeightedGraph(n, edges)


def test_k3_k1():
    res = oracle_maxcut_k(k3(), 1)
    assert res.opt_value == pytest.approx(2 / 3, abs=1e-12)
    assert res.optimal_count == 3
    assert res.best_set == frozenset({0})  # lexicographically smallest


def test_k_zero():
    assert oracle_maxcut_k(k3(), 0).opt_value == 0.0


def test_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    res = oracle_maxcut_k(g, 1)
    assert res.opt_value == 1.0


def test_matches_bruteforce_random():
    rng = np.random.default_rng(5)
    for _ in range(25):
        g = random_graph(int(rng.integers(2, 9)), 0.6, rng)
        k = int(rng.integers(0, g.n + 1))
        res = oracle_maxcut_k(g, k)
        assert res.opt_value == pytest.approx(brute_maxcut_k(g, k), abs=1e-12)
        assert cut_value(g, res.best_set) == res.opt_value


def test_forbidden_respected():
    g = k3()
    res = oracle_maxcut_k(g, 1, forbidden={0})
    assert res.best_set <= {1, 2}
    assert res.opt_value == pytest.approx(brute_maxcut_k(g, 1, {0}), abs=1e-12)


def test_cut_symmetry_of_optimum():
    rng = np.random.default_rng(6)
    for _ in range(15):
        g = random_graph(int(rng.integers(2, 9)), 0.6, rng)
        k = int(rng.integers(0, g.n + 1))
        a = oracle_maxcut_k(g, k).opt_value
        b = oracle_maxcut_k(g, g.n - k).opt_value
        assert a == pytest.approx(b, abs=1e-12)


def test_relabel_invariance():
    rng = np.random.default_rng(7)
    g = random_graph(7, 0.6, rng)
    k = 3
    base = oracle_maxcut_k(g, k).opt_value
    perm = rng.permutation(g.n)
    relabeled = WeightedGraph(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    assert oracle_maxcut_k(relabeled, k).opt_value == pytest.approx(base, abs=1e-12)


def test_capacity_errors():
    # no vertex cap below the 64-bit mask: n 23 answers, and n 30 stops at
    # the candidate-set cap, C(30, 15) > 10^7
    assert oracle_maxcut_k(WeightedGraph(23, []), 2).opt_value == 0.0
    with pytest.raises(CapacityError, match="enumeration cap"):
        oracle_maxcut_k(WeightedGraph(30, []), 15)
    small_cap = Config(oracle_combo_cap=10)
    with pytest.raises(CapacityError):
        oracle_maxcut_k(WeightedGraph(12, []), 6, config=small_cap)


def test_infeasible_k():
    with pytest.raises(InfeasibleError):
        oracle_maxcut_k(k3(), 3, forbidden={0})


@pytest.mark.parametrize("k", [2.5, "2", 2.0, True, None])
def test_maxcut_k_refuses_a_k_that_is_not_an_integer(k):
    g = random_graph(5, 0.8, np.random.default_rng(4))
    with pytest.raises(InputError, match="integer"):
        oracle_maxcut_k(g, k)
    # numpy integers are integers
    assert oracle_maxcut_k(g, np.int64(2)) == oracle_maxcut_k(g, 2)


def test_constrained_equals_single_when_one_part():
    rng = np.random.default_rng(8)
    g = random_graph(7, 0.5, rng)
    inst = ConstrainedInstance(g, [range(7)], [3])
    a = oracle_constrained(inst).opt_value
    b = oracle_maxcut_k(g, 3).opt_value
    assert a == pytest.approx(b, abs=1e-12)


def test_constrained_two_disjoint_edges():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    inst = ConstrainedInstance(g, [{0, 1}, {2, 3}], [1, 1])
    res = oracle_constrained(inst)
    assert res.opt_value == pytest.approx(2.0, abs=1e-12)


def test_constrained_zero_budgets():
    g = WeightedGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    inst = ConstrainedInstance(g, [{0, 1}, {2, 3}], [0, 0])
    assert oracle_constrained(inst).opt_value == 0.0


def test_constrained_infeasible():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    inst = ConstrainedInstance(g, [{0}, {1}], [1, 1])
    with pytest.raises(InfeasibleError):
        oracle_constrained(inst, forbidden={0})


def test_matroid_uniform_reduces_to_cardinality():
    rng = np.random.default_rng(9)
    g = random_graph(7, 0.6, rng)
    res = oracle_matroid(g, UniformMatroid(7, 3))
    assert res.opt_value == pytest.approx(oracle_maxcut_k(g, 3).opt_value, abs=1e-12)


def test_matroid_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    assert oracle_matroid(g, UniformMatroid(2, 1)).opt_value == 1.0


def test_matroid_graphic_triangle():
    # spanning trees of the auxiliary triangle are the three edge pairs
    g = k3()
    m = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    res = oracle_matroid(g, m)
    expect = max(cut_value(g, c) for c in itertools.combinations(range(3), 2))
    assert res.opt_value == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("matroid", [UniformMatroid(3, 1), UniformMatroid(5, 1)])
def test_matroid_refuses_a_graph_on_another_ground_set(matroid):
    # on ground set {0, 1, 2}, vertex 3 is in no base
    g = WeightedGraph(4, [(0, 3, 1.0), (1, 2, 0.1)])
    with pytest.raises(InputError, match="ground sets differ"):
        oracle_matroid(g, matroid)


def test_all_cut_single_star():
    g = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]).normalize()
    inst = ConstrainedInstance(g, [{0}, {1}, {2}, {3}], [0, 1, 1, 1])
    assert oracle_all_cut_decision(inst) is True


def test_all_cut_triangle_false():
    inst = ConstrainedInstance(k3(), [range(3)], [1])
    assert oracle_all_cut_decision(inst) is False


def test_all_cut_edgeless_true():
    g = WeightedGraph(3, [])
    inst = ConstrainedInstance(g, [range(3)], [1])
    assert oracle_all_cut_decision(inst) is True


def test_all_cut_infeasible_false():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    inst = ConstrainedInstance(g, [{0}, {1}], [1, 0])
    # make part 0 infeasible by demanding more than it holds
    inst2 = ConstrainedInstance(g, [frozenset(), {0, 1}], [1, 1])
    assert oracle_all_cut_decision(inst2) is False
    assert oracle_all_cut_decision(inst) is True  # cut the edge


def test_moderate_scale_enumeration():
    # C(18, 9) = 48620 candidate sets stay well under a second
    rng = np.random.default_rng(55)
    g = random_graph(18, 0.3, rng)
    res = oracle_maxcut_k(g, 9)
    assert cut_value(g, res.best_set) == res.opt_value
    assert res.optimal_count >= 1


# ---------------------------------------------------------------------------
# properties: every oracle against plain enumeration with cut_value.  Integer
# weights make exact ties common, so the tie rule and the tie count are
# exercised, not only the optimum.

SEEDED = settings(max_examples=60, derandomize=True, deadline=None)


@st.composite
def int_graphs(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    weights = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(u, v, float(w)) for (u, v), w in zip(pairs, weights) if w])


@st.composite
def partitioned(draw, n_max=8):
    """A graph, 1-3 parts (possibly empty) and a budget per part within its size."""
    n = draw(st.integers(1, n_max))
    c = draw(st.integers(1, 3))
    label = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    parts = [[v for v in range(n) if label[v] == i] for i in range(c)]
    budgets = [draw(st.integers(0, len(p))) for p in parts]
    return draw(int_graphs(n)), parts, budgets


def brute(g, candidates):
    """(optimum, lexicographically smallest optimal set, number of optimal sets)."""
    scored = [(cut_value(g, c), tuple(sorted(c))) for c in candidates]
    opt = max(v for v, _ in scored)
    ties = sorted(c for v, c in scored if v == opt)
    return opt, frozenset(ties[0]), len(ties)


def feasible_sets(parts, budgets):
    per_part = [itertools.combinations(sorted(p), k) for p, k in zip(parts, budgets)]
    return [frozenset().union(*combo) for combo in itertools.product(*per_part)]


def acyclic(aux_n, aux_edges, chosen):
    label = list(range(aux_n))
    for i in chosen:
        a, b = aux_edges[i]
        if label[a] == label[b]:
            return False
        old = label[b]
        label = [label[a] if x == old else x for x in label]
    return True


def as_triple(res):
    return res.opt_value, res.best_set, res.optimal_count


@SEEDED
@given(data=st.data(), n=st.integers(1, 8))
def test_property_maxcut_k_matches_enumeration(data, n):
    g = data.draw(int_graphs(n))
    forbidden = data.draw(st.frozensets(st.integers(0, n - 1), max_size=n - 1))
    pool = [v for v in range(n) if v not in forbidden]
    k = data.draw(st.integers(0, len(pool)))
    expect = brute(g, itertools.combinations(pool, k))
    assert as_triple(oracle_maxcut_k(g, k, forbidden=forbidden)) == expect


@SEEDED
@given(inst=partitioned())
def test_property_constrained_matches_enumeration(inst):
    g, parts, budgets = inst
    expect = brute(g, feasible_sets(parts, budgets))
    assert as_triple(oracle_constrained(ConstrainedInstance(g, parts, budgets))) == expect


@SEEDED
@given(inst=partitioned(n_max=7))
def test_property_all_cut_decision_matches_enumeration(inst):
    g, parts, budgets = inst
    expect = any(cut_value(g, s) == g.total_weight for s in feasible_sets(parts, budgets))
    assert oracle_all_cut_decision(ConstrainedInstance(g, parts, budgets)) is expect


@SEEDED
@given(data=st.data(), inst=partitioned())
def test_property_matroid_uniform_partition(data, inst):
    g, parts, budgets = inst
    k = data.draw(st.integers(0, g.n))
    uniform = brute(g, itertools.combinations(range(g.n), k))
    assert as_triple(oracle_matroid(g, UniformMatroid(g.n, k))) == uniform
    partition = brute(g, feasible_sets(parts, budgets))
    assert as_triple(oracle_matroid(g, PartitionMatroid(g.n, parts, budgets))) == partition


@SEEDED
@given(data=st.data(), aux_n=st.integers(2, 4))
def test_property_matroid_graphic(data, aux_n):
    vertex = st.integers(0, aux_n - 1)
    aux_edges = data.draw(
        st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), min_size=1, max_size=8)
    )
    n = len(aux_edges)
    g = data.draw(int_graphs(n))
    forests = [
        c
        for size in range(n, -1, -1)
        for c in itertools.combinations(range(n), size)
        if acyclic(aux_n, aux_edges, c)
    ]
    rank = len(forests[0])
    expect = brute(g, [c for c in forests if len(c) == rank])
    assert as_triple(oracle_matroid(g, GraphicMatroid(aux_n, aux_edges))) == expect


@SEEDED
@given(data=st.data(), inst=partitioned(n_max=7))
def test_property_matroid_explicit(data, inst):
    # the listed bases of a partition matroid, plus some of their subsets
    g, parts, budgets = inst
    bases = feasible_sets(parts, budgets)
    extra = data.draw(st.lists(st.sampled_from(bases), max_size=3))
    listed = bases + [b - {min(b)} for b in extra if b]
    expect = brute(g, bases)
    assert as_triple(oracle_matroid(g, ExplicitMatroid(g.n, listed))) == expect


@SEEDED
@given(data=st.data(), n=st.integers(0, 8))
def test_property_k_zero_is_the_empty_set(data, n):
    g = data.draw(int_graphs(n))
    assert as_triple(oracle_maxcut_k(g, 0)) == (0.0, frozenset(), 1)
    inst = ConstrainedInstance(g, [range(n)], [0])
    assert as_triple(oracle_constrained(inst)) == (0.0, frozenset(), 1)


@SEEDED
@given(data=st.data(), n=st.integers(1, 8))
def test_property_pool_smaller_than_k(data, n):
    g = data.draw(int_graphs(n))
    forbidden = data.draw(st.frozensets(st.integers(0, n - 1), min_size=1))
    k = data.draw(st.integers(n - len(forbidden) + 1, n))
    with pytest.raises(InfeasibleError):
        oracle_maxcut_k(g, k, forbidden=forbidden)
    inst = ConstrainedInstance(g, [range(n)], [k])
    with pytest.raises(InfeasibleError):
        oracle_constrained(inst, forbidden=forbidden)
    assert oracle_all_cut_decision(ConstrainedInstance(g, [range(n)], [n + 1])) is False


@SEEDED
@given(inst=partitioned())
def test_property_cap_is_exact(inst):
    # a cap one below the candidate count refuses; the count itself passes.
    # A partition matroid's candidates are its bases, the feasible sets.
    g, parts, budgets = inst
    total = math.prod(math.comb(len(p), k) for p, k in zip(parts, budgets))
    ci = ConstrainedInstance(g, parts, budgets)
    m = PartitionMatroid(g.n, parts, budgets)
    k = sum(budgets)
    for call, count in (
        (lambda cfg: oracle_constrained(ci, config=cfg), total),
        (lambda cfg: oracle_all_cut_decision(ci, config=cfg), total),
        (lambda cfg: oracle_maxcut_k(g, k, config=cfg), math.comb(g.n, k)),
        (lambda cfg: oracle_matroid(g, m, config=cfg), total),
    ):
        with pytest.raises(CapacityError):
            call(Config(oracle_combo_cap=count - 1))
        call(Config(oracle_combo_cap=count))


# ---------------------------------------------------------------------------
# the enumerate-everything oracles, kept as references: every feasible set is
# listed as a uint64 mask in lex order, scored edge by edge in blocks of
# REFERENCE_CHUNK sets, and fed to a running (max, lex-min set, tie count)

REFERENCE_CHUNK = 1 << 16


def reference_subset_masks(pool, k):
    """uint64 masks of all k-subsets of the sorted `pool`, in lex order."""
    by_size = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * k
    for left, v in zip(range(len(pool) - 1, -1, -1), reversed(pool)):
        bit = np.uint64(1 << v)
        for j in range(k, max(k - left, 1) - 1, -1):
            by_size[j] = np.concatenate((by_size[j - 1] | bit, by_size[j]))
    return by_size[k]


def reference_mask_values(g, masks):
    bits = [((masks >> np.uint64(v)) & np.uint64(1)).astype(bool) for v in range(g.n)]
    vals = np.zeros(masks.shape[0], dtype=np.float64)
    for u, v, w in g.edges:
        vals += w * (bits[u] ^ bits[v])
    return vals


def reference_rev_codes(masks, n):
    rev = np.zeros(masks.shape[0], dtype=np.uint64)
    for v in range(n):
        rev |= ((masks >> np.uint64(v)) & np.uint64(1)) << np.uint64(n - 1 - v)
    return rev


class ReferenceTracker:
    def __init__(self, g, atol=1e-12):
        self.g, self.atol = g, atol
        self.best_val, self.best_rev, self.best_mask, self.count = -np.inf, -1, None, 0

    def feed(self, masks):
        if masks.size == 0:
            return
        vals = reference_mask_values(self.g, masks)
        chunk_max = float(vals.max())
        if chunk_max < self.best_val - self.atol:
            return
        ties = masks[vals >= chunk_max - self.atol]
        revs = reference_rev_codes(ties, self.g.n)
        pick = int(revs.argmax())
        if chunk_max > self.best_val + self.atol:
            self.best_val, self.count = chunk_max, int(ties.size)
            self.best_rev, self.best_mask = int(revs[pick]), int(ties[pick])
        else:
            self.count += int(ties.size)
            if int(revs[pick]) > self.best_rev:
                self.best_rev, self.best_mask = int(revs[pick]), int(ties[pick])

    def result(self):
        best = frozenset(v for v in range(self.g.n) if (self.best_mask >> v) & 1)
        return cut_value(self.g, best), best, self.count


def reference_feasible_masks(parts, budgets, forbidden=frozenset()):
    """Masks with k_i allowed vertices from part i, the first part slowest;
    None when a budget exceeds its allowed vertices."""
    pools = [sorted(set(p) - forbidden) for p in parts]
    if any(k > len(pool) for pool, k in zip(pools, budgets)):
        return None
    masks = np.zeros(1, dtype=np.uint64)
    for pool, k in zip(pools, budgets):
        masks = np.bitwise_or.outer(masks, reference_subset_masks(pool, k)).ravel()
    return masks


def reference_best(g, masks):
    tracker = ReferenceTracker(g)
    for start in range(0, masks.size, REFERENCE_CHUNK):
        tracker.feed(masks[start : start + REFERENCE_CHUNK])
    return tracker.result()


def reference_maxcut_k(g, k, forbidden):
    return reference_best(g, reference_feasible_masks([range(g.n)], [k], forbidden))


def reference_constrained(g, parts, budgets, forbidden):
    return reference_best(g, reference_feasible_masks(parts, budgets, forbidden))


def reference_decision(g, parts, budgets):
    masks = reference_feasible_masks(parts, budgets)
    if masks is None:
        return False
    return bool(reference_mask_values(g, masks).max() >= g.total_weight - 1e-9)


def reference_matroid(g, m):
    """Rank-sized combinations that `is_independent` accepts, one call per
    set, fed in blocks of REFERENCE_CHUNK bases."""
    tracker = ReferenceTracker(g)
    block = []
    for combo in itertools.combinations(range(g.n), m.rank()):
        if m.is_independent(frozenset(combo)):
            block.append(sum(1 << v for v in combo))
            if len(block) == REFERENCE_CHUNK:
                tracker.feed(np.asarray(block, dtype=np.uint64))
                block = []
    tracker.feed(np.asarray(block, dtype=np.uint64))
    return tracker.result()


@st.composite
def float_graphs(draw, n):
    # arbitrary floats plus a few repeated values, so exact ties and sums
    # that differ in the last bits both occur
    pairs = list(itertools.combinations(range(n), 2))
    weight = st.one_of(st.sampled_from([0.0, 0.1, 0.3]), st.floats(0.0, 1.0))
    weights = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(pairs, weights) if w])


@st.composite
def any_matroid(draw, n):
    kind = draw(st.sampled_from(["uniform", "partition", "graphic", "explicit"]))
    if kind == "uniform":
        return UniformMatroid(n, draw(st.integers(0, n)))
    if kind == "partition":
        label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        parts = [p for p in ([v for v in range(n) if label[v] == i] for i in range(3)) if p]
        return PartitionMatroid(n, parts, [draw(st.integers(0, len(p))) for p in parts])
    if kind == "graphic":
        aux_n = draw(st.integers(2, 5))
        vertex = st.integers(0, aux_n - 1)
        edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1])
        return GraphicMatroid(aux_n, draw(st.lists(edge, min_size=n, max_size=n)))
    # any listed family: both enumerators read independence as its downward closure
    listed = st.frozensets(st.integers(0, n - 1), max_size=n)
    return ExplicitMatroid(n, draw(st.lists(listed, min_size=1, max_size=4)))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(1, 10))
def test_property_float_weights_match_the_reference_enumerators(data, n):
    g = data.draw(float_graphs(n))
    m = data.draw(any_matroid(n))
    assert as_triple(oracle_matroid(g, m)) == reference_matroid(g, m)
    forbidden = data.draw(st.frozensets(st.integers(0, n - 1), max_size=n - 1))
    k = data.draw(st.integers(0, n - len(forbidden)))
    expect = reference_maxcut_k(g, k, forbidden)
    assert as_triple(oracle_maxcut_k(g, k, forbidden=forbidden)) == expect


def wide_path(n=70):
    """A path with one single-vertex part per vertex: one feasible set."""
    g = WeightedGraph(n, [(v, v + 1, 1.0) for v in range(n - 1)])
    return ConstrainedInstance(g, [{v} for v in range(n)], [v % 2 for v in range(n)])


def test_oracles_refuse_graphs_wider_than_the_mask():
    inst = wide_path()
    matroid = PartitionMatroid(inst.graph.n, inst.parts, inst.budgets)
    calls = [
        lambda: oracle_constrained(inst),
        lambda: oracle_all_cut_decision(inst),
        lambda: oracle_matroid(inst.graph, matroid),
        lambda: oracle_maxcut_k(inst.graph, 1),
    ]
    for call in calls:
        with pytest.raises(CapacityError, match="64-bit"):
            call()


# ---------------------------------------------------------------------------
# the split enumerator: every feasible set is an A-side set joined to a
# B-side set, scored in blocks; a small _CHUNK makes many blocks on small
# graphs, and `split_anywhere` puts the split at any point

CHUNKS = st.sampled_from([1, 2, 3, 5, 16, 1 << 16])


@contextlib.contextmanager
def split_anywhere(data, chunk):
    """Blocks of at most `chunk` values, and a split point drawn by `data`
    for each pool shape: every split point, no split included, gives the
    same answers.  The plans kept so far are dropped, so that the drawn
    split is used and each example draws the same way when replayed."""

    def drawn(pools, edges):
        return data.draw(st.integers(0, sum(len(pool) for pool, _ in pools)))

    with mock.patch.object(oracle, "_CHUNK", chunk), mock.patch.object(oracle, "_split_point", drawn):
        oracle._plan.cache_clear()
        yield


def mask_to_set(mask):
    return frozenset(v for v in range(64) if (int(mask) >> v) & 1)


def copied_blocks(blocks):
    """The blocks, each `vals` copied as it arrives: `_blocks` reuses one
    buffer, so a block's values last only until the next."""
    return [(vals.copy(), rows, cols) for vals, rows, cols in blocks]


@st.composite
def split_instances(draw, n_max=9):
    """Float or integer weights, 1-4 parts (possibly empty), forbidden
    vertices, and a budget per part within its allowed vertices."""
    n = draw(st.integers(1, n_max))
    g = draw(st.one_of(float_graphs(n), int_graphs(n)))
    c = draw(st.integers(1, 4))
    label = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    parts = [frozenset(v for v in range(n) if label[v] == i) for i in range(c)]
    forbidden = draw(st.frozensets(st.integers(0, n - 1), max_size=n))
    budgets = [draw(st.integers(0, len(p - forbidden))) for p in parts]
    return g, parts, budgets, forbidden


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), inst=split_instances(), chunk=CHUNKS)
def test_property_split_oracles_match_the_reference(data, inst, chunk):
    g, parts, budgets, forbidden = inst
    ci = ConstrainedInstance(g, parts, budgets)
    k = data.draw(st.integers(0, g.n - len(forbidden)))
    with split_anywhere(data, chunk):
        by_k = oracle_maxcut_k(g, k, forbidden=forbidden)
        by_parts = oracle_constrained(ci, forbidden=forbidden)
        decision = oracle_all_cut_decision(ci)
    assert as_triple(by_k) == reference_maxcut_k(g, k, forbidden)
    assert as_triple(by_parts) == reference_constrained(g, parts, budgets, forbidden)
    assert decision is reference_decision(g, parts, budgets)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), n=st.integers(1, 10), chunk=CHUNKS)
def test_property_matroid_oracle_matches_the_reference_under_any_split(data, n, chunk):
    # small blocks and any split point give blocks that hold no base
    g = data.draw(float_graphs(n))
    m = data.draw(any_matroid(n))
    with split_anywhere(data, chunk):
        res = oracle_matroid(g, m)
    assert as_triple(res) == reference_matroid(g, m)


@SEEDED
@given(inst=split_instances(n_max=10), chunk=CHUNKS)
def test_property_split_blocks_hold_each_feasible_set_once(inst, chunk):
    g, parts, budgets, forbidden = inst
    pools = _pools(parts, budgets, forbidden, cap=10**7)
    expect = sorted(int(m) for m in reference_feasible_masks(parts, budgets, forbidden))
    assert len(expect) == math.prod(math.comb(len(pool), k) for pool, k in pools)
    for at in range(sum(len(pool) for pool, _ in pools) + 1):
        sides = _sides(pools, at)
        assert sorted(int(m) for xa, xb in sides for m in np.bitwise_or.outer(xa, xb).ravel()) == expect
    with mock.patch.object(oracle, "_CHUNK", chunk):
        blocks = copied_blocks(_blocks(g, pools))
    assert sorted(int(m) for _, r, c in blocks for m in np.bitwise_or.outer(r, c).ravel()) == expect
    for vals, rows, cols in blocks:
        assert vals.size <= chunk
        for (r, c), value in np.ndenumerate(vals):
            assert value == pytest.approx(cut_value(g, mask_to_set(rows[r] | cols[c])), abs=1e-12)


@SEEDED
@given(data=st.data(), inst=split_instances(n_max=10), chunk=CHUNKS)
def test_property_split_blocks_hold_each_set_above_the_floor_once(data, inst, chunk):
    g, parts, budgets, forbidden = inst
    pools = _pools(parts, budgets, forbidden, cap=10**7)
    values = {
        int(m): cut_value(g, mask_to_set(m))
        for m in reference_feasible_masks(parts, budgets, forbidden)
    }
    floor = data.draw(st.sampled_from(sorted(values.values())))
    for at in range(sum(len(pool) for pool, _ in pools) + 1):
        with mock.patch.object(oracle, "_CHUNK", chunk), mock.patch.object(
            oracle, "_split_point", lambda pools, edges: at
        ):
            oracle._plan.cache_clear()  # else the plan of the first split is reused
            blocks = copied_blocks(_blocks(g, pools, lambda: floor))
        seen = [int(m) for _, r, c in blocks for m in np.bitwise_or.outer(r, c).ravel()]
        assert len(seen) == len(set(seen)) and set(seen) <= set(values)
        assert {m for m, value in values.items() if value >= floor} <= set(seen)
        for vals, rows, cols in blocks:
            assert vals.size <= chunk
            for (r, c), value in np.ndenumerate(vals):
                assert value == pytest.approx(values[int(rows[r] | cols[c])], abs=1e-12)


# ---------------------------------------------------------------------------
# the block workspace: each open _blocks call writes its blocks into one
# buffer of its own, which it hands back when it ends


def workspace_calls():
    """(graph, pools) of two calls that fill many blocks of 64 values: two
    parts of a dense graph, which split, and 2-subsets of a one-edge graph,
    which do not."""
    dense = random_graph(20, 0.4, np.random.default_rng(37))
    parts = [frozenset(range(10)), frozenset(range(10, 20))]
    one_edge = WeightedGraph(20, [(0, 1, 0.5)])
    return [
        (dense, _pools(parts, [4, 5], frozenset(), cap=10**7)),
        (one_edge, _pools([frozenset(range(20))], [2], frozenset(), cap=10**7)),
    ]


def same_blocks(got, expect):
    return len(got) == len(expect) and all(
        v.shape == w.shape and v.tobytes() == w.tobytes()
        and np.array_equal(r, s) and np.array_equal(c, d)
        for (v, r, c), (w, s, d) in zip(got, expect)
    )


def test_interleaved_block_calls_give_the_blocks_of_calls_run_in_turn():
    split, direct = workspace_calls()
    with mock.patch.object(oracle, "_CHUNK", 64):
        oracle._plan.cache_clear()
        alone = [copied_blocks(_blocks(*call)) for call in (split, split, direct)]
        stepped = [[], [], []]
        calls = [_blocks(*call) for call in (split, split, direct)]
        for blocks in itertools.zip_longest(*calls):
            for got, block in zip(stepped, blocks):
                if block is not None:
                    got += copied_blocks([block])
    assert all(len(blocks) > 1 for blocks in alone)
    for got, expect in zip(stepped, alone):
        assert same_blocks(got, expect)


def test_every_block_of_a_call_is_a_view_of_one_buffer():
    with mock.patch.object(oracle, "_CHUNK", 64):
        oracle._plan.cache_clear()
        for g, pools in workspace_calls():
            held = [vals for vals, _, _ in _blocks(g, pools)]
            assert len(held) > 1
            assert all(np.shares_memory(vals, held[0]) for vals in held)


def test_decisions_that_stop_at_their_first_block_hand_back_their_workspace(monkeypatch):
    # the star's center alone cuts every edge; it is the first set listed,
    # in the first of three blocks of 4
    g = WeightedGraph(12, [(0, v, 1.0) for v in range(1, 12)])
    inst = ConstrainedInstance(g, [range(12)], [1])
    monkeypatch.setattr(oracle, "_CHUNK", 4)
    monkeypatch.setattr(oracle, "_SPARES", [])
    oracle._plan.cache_clear()
    pools = _pools(inst.parts, inst.budgets, frozenset(), cap=10**7)
    least = g.total_weight - 1e-9
    blocks = _blocks(g, pools, lambda: least)
    assert next(blocks)[0].max() >= least
    assert next(blocks, None) is not None
    blocks.close()
    assert len(oracle._SPARES) == 1
    workspace = oracle._SPARES[0]
    for _ in range(100):
        assert oracle_all_cut_decision(inst) is True
    assert len(oracle._SPARES) == 1 and oracle._SPARES[0] is workspace


def test_threads_scoring_blocks_at_once_get_the_sequential_answers():
    # full blocks, which numpy and BLAS score with the interpreter lock
    # released, so that a workspace two calls shared would be overwritten
    programs = [gen_random(20, 0.4, "uniform", c, "half", seed=60 + c) for c in (1, 2, 3)]
    for seed, drop in ((0, False), (1, True)):
        programs.append(gadget_from_3dm(gen_3dm(3, 3, seed, drop_planted=drop)[0]))

    def answers(inst):
        best = oracle_constrained(inst)
        return best.opt_value.hex(), best.best_set, best.optimal_count, oracle_all_cut_decision(inst)

    expected = [answers(inst) for inst in programs]
    assert {a[3] for a in expected} == {False, True}
    results = {}

    def worker(t):
        order = [(t + i) % len(programs) for i in range(3 * len(programs))]
        results[t] = [(i, answers(programs[i])) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == [0, 1, 2, 3]
    for got in results.values():
        for i, answer in got:
            assert answer == expected[i]


@st.composite
def unit_graphs(draw, n):
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return WeightedGraph(n, [(u, v, 1.0) for (u, v), kept in zip(pairs, keep) if kept])


@st.composite
def half_budget_instances(draw):
    """1-3 parts of even size (possibly empty) that hold every vertex, each
    with half its size as budget; vertex 0 may sit in any part, at any place.
    Integer or unit weights, so ties are common."""
    halves = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(lambda h: sum(h) < 6))
    n = 2 * sum(halves)
    order = draw(st.permutations(range(n)))
    ends = list(itertools.accumulate(2 * h for h in halves))
    parts = [frozenset(order[end - 2 * h : end]) for h, end in zip(halves, ends)]
    return draw(st.one_of(int_graphs(n), unit_graphs(n))), parts, halves


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data(), inst=half_budget_instances(), chunk=st.sampled_from([1, 3, 16, 1 << 16]))
def test_property_half_budget_oracles_match_the_reference(data, inst, chunk):
    # each cut is listed once, as the set that holds vertex 0, and counted twice
    g, parts, budgets = inst
    ci = ConstrainedInstance(g, parts, budgets)
    with split_anywhere(data, chunk):
        by_k = oracle_maxcut_k(g, g.n // 2)
        by_parts = oracle_constrained(ci)
        decision = oracle_all_cut_decision(ci)
    assert as_triple(by_k) == reference_maxcut_k(g, g.n // 2, frozenset())
    assert as_triple(by_parts) == reference_constrained(g, parts, budgets, frozenset())
    assert decision is reference_decision(g, parts, budgets)


@SEEDED
@given(data=st.data(), inst=st.one_of(partitioned(), half_budget_instances()))
def test_property_partition_and_uniform_matroid_oracles_are_the_constrained_oracle(data, inst):
    # the same feasible sets, halved alike when every budget is half its part
    g, parts, budgets = inst
    k = data.draw(st.one_of(st.just(g.n // 2), st.integers(0, g.n)))
    for m, ci in (
        (PartitionMatroid(g.n, parts, budgets), ConstrainedInstance(g, parts, budgets)),
        (UniformMatroid(g.n, k), ConstrainedInstance(g, [range(g.n)], [k])),
    ):
        got, expect = oracle_matroid(g, m), oracle_constrained(ci)
        assert got.opt_value.hex() == expect.opt_value.hex()
        assert (got.best_set, got.optimal_count) == (expect.best_set, expect.optimal_count)


# ---------------------------------------------------------------------------
# the enumeration plan: the split and the side sets of a call's pools, kept
# per pools, edge count and block size


@st.composite
def plan_instances(draw):
    """n <= 24, 1-4 parts (possibly empty) that hold every vertex, forbidden
    vertices or none, and budgets of any size or of half the allowed
    vertices of each part, so that complement pinning runs too."""
    n = draw(st.integers(1, 24))
    c = draw(st.integers(1, 4))
    label = draw(st.lists(st.integers(0, c - 1), min_size=n, max_size=n))
    parts = [frozenset(v for v in range(n) if label[v] == i) for i in range(c)]
    forbidden = draw(st.one_of(st.just(frozenset()), st.frozensets(st.integers(0, n - 1), max_size=n)))
    allowed = [len(p - forbidden) for p in parts]
    if draw(st.booleans()):
        budgets = [a // 2 for a in allowed]
    else:
        budgets = [draw(st.integers(0, a)) for a in allowed]
    return draw(int_graphs(n)), parts, budgets, forbidden


@settings(max_examples=40, derandomize=True, deadline=None)
@given(inst=plan_instances())
def test_property_plan_lists_the_side_sets_and_a_warm_call_answers_as_a_cold_one(inst):
    g, parts, budgets, forbidden = inst
    raw = _pools(parts, budgets, forbidden, cap=10**7)
    for pools in (raw, oracle._pinned(raw, g.n)[0]):
        at, flat, sizes = oracle._side_sets(pools, len(g.edges))
        assert at == oracle._split_point(pools, len(g.edges))
        lists = [x for pair in _sides(pools, at) for x in pair]
        if at == sum(len(pool) for pool, _ in pools):  # no split: every set, then the empty set
            assert [x.tolist() for x in lists[1:]] == [[0]]
            assert lists[0].tobytes() == oracle._product([_subset_masks(pool, k) for pool, k in pools]).tobytes()
        assert flat.dtype == np.uint64
        assert flat.tobytes() == np.concatenate(lists).tobytes()
        assert sizes == tuple(x.size for x in lists)

    ci = ConstrainedInstance(g, parts, budgets)
    oracle._plan.cache_clear()
    cold = oracle_constrained(ci, forbidden=forbidden)
    kept = oracle._plan.cache_info().entries
    warm = oracle_constrained(ci, forbidden=forbidden)
    assert oracle._plan.cache_info()[:2] == (kept, 1)  # hits, builds
    assert (warm.opt_value.hex(), warm.best_set, warm.optimal_count) == (
        cold.opt_value.hex(), cold.best_set, cold.optimal_count
    )


def test_plans_are_read_only_and_an_edgeless_plan_over_the_byte_bound_is_not_kept(monkeypatch):
    # an edgeless graph never splits, so its plan lists every feasible set:
    # C(23, 11) = 1 352 078 sets that hold vertex 0, 10.8 MB of masks
    res = oracle_maxcut_k(WeightedGraph(24, []), 12)
    assert (res.opt_value, res.optimal_count) == (0.0, math.comb(24, 12))
    assert oracle._plan.cache_info()[1:] == (1, 0, 0)  # builds, entries, bytes

    oracle._plan.cache_clear()
    rng = np.random.default_rng(30)
    graphs = [random_graph(n, 0.5, rng) for n in range(8, 20)]
    for g in graphs:  # 12 shapes, split or not, every plan kept
        oracle_maxcut_k(g, g.n // 3)
    info = oracle._plan.cache_info()
    assert (info.builds, info.entries) == (12, 12)
    assert all(not plan.flat.flags.writeable for plan in oracle._plan._kept.values())
    for entries, nbytes in ((3, info.nbytes), (64, info.nbytes // 2)):
        oracle._plan.cache_clear()
        monkeypatch.setattr(oracle, "_PLAN_CACHE_ENTRIES", entries)
        monkeypatch.setattr(oracle, "_PLAN_CACHE_BYTES", nbytes)
        for g in graphs:
            oracle_maxcut_k(g, g.n // 3)
            kept = oracle._plan.cache_info()
            assert kept.entries <= entries and kept.nbytes <= nbytes
        assert 0 < kept.entries < 12


def test_no_matching_decision_scores_under_a_tenth_of_its_feasible_sets(monkeypatch):
    # 653 184 feasible sets; only pairs of sides whose cuts sum to the
    # target can hold an all-edges cut
    tdm, has_matching = gen_3dm(4, 6, 1, drop_planted=True)
    assert not has_matching
    gadget = gadget_from_3dm(tdm)
    feasible = math.prod(math.comb(len(p), k) for p, k in zip(gadget.parts, gadget.budgets))
    scored = []
    blocks = oracle._blocks

    def spying(*args):
        for block in blocks(*args):
            scored.append(block[0].size)
            yield block

    monkeypatch.setattr(oracle, "_blocks", spying)
    assert oracle_all_cut_decision(gadget) is False
    assert 0 < sum(scored) < feasible / 10


def test_matroid_oracle_never_holds_its_candidates_whole(monkeypatch):
    # C(20, 10) = 184 756 rank-sized sets of a graphic matroid of rank 10
    # (a cycle through 11 auxiliary vertices, then chords), listed as side
    # sets of at most a sixteenth of that
    g = random_graph(20, 0.3, np.random.default_rng(20))
    m = GraphicMatroid(11, [(i % 11, (i + 1 + i // 11) % 11) for i in range(20)])
    candidates = reference_subset_masks(list(range(20)), 10)
    expect = reference_best(g, candidates[m._rank_table(candidates.view(np.int64)) == 10])
    listed = []
    subset_masks = oracle._subset_masks

    def spying(pool, k):
        listed.append(subset_masks(pool, k))
        return listed[-1]

    monkeypatch.setattr(oracle, "_subset_masks", spying)
    assert m.rank() == 10
    assert as_triple(oracle_matroid(g, m)) == expect
    assert 0 < max(masks.size for masks in listed) <= math.comb(20, 10) // 16


GADGETS = [(size, size, seed, drop) for size in (2, 3, 4) for seed in range(3) for drop in (False, True)]


# the last two have 653 184 feasible sets, more than one block holds
@pytest.mark.parametrize("size, extra, seed, drop", GADGETS + [(4, 5, 0, False), (4, 6, 1, True)])
def test_gadget_decisions_match_the_matching_search(size, extra, seed, drop):
    tdm, has_matching = gen_3dm(size, extra, seed, drop_planted=drop)
    assert has_matching is tdm_has_perfect_matching(tdm)
    gadget = gadget_from_3dm(tdm)
    assert oracle_all_cut_decision(gadget) is has_matching
    with mock.patch.object(oracle, "_CHUNK", 64):
        assert oracle_all_cut_decision(gadget) is has_matching


def test_subset_masks_mask_values_and_rev_codes_match_the_references():
    rng = np.random.default_rng(17)
    pools = [sorted(rng.choice(64, size, replace=False).tolist()) for size in range(13)]
    for pool in pools + [list(range(56, 64))]:
        for k in range(len(pool) + 2):
            masks = _subset_masks(pool, k)
            assert masks.dtype == np.uint64
            assert np.array_equal(masks, reference_subset_masks(pool, k))
            for n in (64, max(pool, default=-1) + 1):
                assert np.array_equal(_rev_codes(masks, n), reference_rev_codes(masks, n))
    for n in (0, 7, 20, 64):
        g = random_graph(n, 0.5, rng)
        masks = rng.integers(0, 2**64 - 1, 3000, dtype=np.uint64, endpoint=True) >> np.uint64(64 - n)
        assert np.array_equal(_mask_values(g, masks), reference_mask_values(g, masks))


def blas_counts():
    counts = []
    for set_local in _blas._openblas_thread_setters():
        count = set_local(1)
        set_local(count)
        counts.append(count)
    return counts


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps to find OpenBLAS in")
def test_split_oracles_score_on_one_blas_thread_and_restore_the_count(monkeypatch):
    saved = [(f, f(2)) for f in _blas._openblas_thread_setters()]
    try:
        seen = []
        scored = oracle._mask_values

        def spying(g, masks):
            seen.append(blas_counts())
            return scored(g, masks)

        monkeypatch.setattr(oracle, "_mask_values", spying)
        g = random_graph(12, 0.5, np.random.default_rng(3))
        ci = ConstrainedInstance(g, [range(6), range(6, 12)], [3, 2])
        oracle_maxcut_k(g, 6)
        oracle_constrained(ci)
        oracle_all_cut_decision(ci)
        assert seen == [[1] * len(saved)] * 3
        assert blas_counts() == [2] * len(saved)
    finally:
        for set_local, count in saved:
            set_local(count)
