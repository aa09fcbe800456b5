import itertools
import json
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from cutkit.cli import main
from cutkit.config import load_config
from cutkit.errors import InfeasibleError, InputError, ParseError, StallError
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, WeightedGraph, cut_value
from cutkit.io import format_instance_text, read_instance
from cutkit import _highs, matroid
from cutkit.matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    check_sandwich,
    pipage_round,
    quad_value,
    solve_lp,
    solve_matroid,
    spot_check_axioms,
)
from cutkit.oracle import oracle_matroid
from cutkit.verify import _matroid_corpus

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


# each of these was once truncated to an integer and accepted
@pytest.mark.parametrize(
    "build",
    [
        lambda: UniformMatroid(4, 2.0),
        lambda: UniformMatroid(4.5, 2),
        lambda: UniformMatroid(4, True),
        lambda: PartitionMatroid(4, [[0, 1], [2, 3]], [1.5, 1]),
        lambda: PartitionMatroid(4, [[0, 1.0], [2, 3]], [1, 1]),
        lambda: GraphicMatroid(3.5, [(0, 1), (1, 2)]),
        lambda: GraphicMatroid(3, [(0, 1), (1, 2.0)]),
        lambda: ExplicitMatroid(3, [[0, 1.0]]),
    ],
    ids=[
        "uniform-rank",
        "ground-set",
        "bool-rank",
        "partition-budget",
        "partition-vertex",
        "graphic-vertices",
        "graphic-edge-end",
        "explicit-element",
    ],
)
def test_matroids_refuse_a_number_that_is_not_an_integer(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()
    # numpy integers are integers
    i = np.int64
    assert UniformMatroid(i(4), i(2)).rank() == 2
    assert PartitionMatroid(i(4), [[i(0), 1], [2, 3]], [i(1), 1]).budgets == (1, 1)


def k3():
    return WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])


def single_edge():
    return WeightedGraph(2, [(0, 1, 1.0)])


# ---------------------------------------------------------------------------
# oracles


def test_uniform_matroid_basics():
    m = UniformMatroid(4, 2)
    assert m.is_independent({0, 1}) and not m.is_independent({0, 1, 2})
    assert m.rank() == 2
    assert spot_check_axioms(m)


def test_partition_matroid_basics():
    m = PartitionMatroid(4, [{0, 1}, {2, 3}], [1, 1])
    assert m.is_independent({0, 2}) and not m.is_independent({0, 1})
    assert m.rank() == 2
    assert spot_check_axioms(m)


def test_partition_matroid_infeasible_budget():
    with pytest.raises(InfeasibleError):
        PartitionMatroid(2, [{0}, {1}], [2, 0])


# (n, parts, budgets, message); a row of one part holding [0, n) and one
# budget is a uniform matroid's partition too
MALFORMED_PARTITIONS = {
    "budget-short": (4, [[0, 1], [2, 3]], [1], "one budget per part"),
    "budget-over": (4, [range(4)], [1, 1], "one budget per part"),
    "no-part": (0, [], [], "at least one part"),
    "overlap": (4, [[0, 1], [1, 2, 3]], [1, 1], "disjoint"),
    "gap": (4, [[0, 1], [3]], [1, 1], "cover every vertex"),
    "outside": (4, [[0, 1], [2, 3, 4]], [1, 1], "out of range"),
    "negative": (4, [[0, 1], [2, 3]], [1, -1], "nonnegative"),
    "vertex": (4, [[0, 1.0], [2, 3]], [1, 1], "must be an integer"),
    "fraction": (4, [range(4)], [1.5], "must be an integer"),
    "bool": (4, [range(4)], [True], "must be an integer"),
}


@pytest.mark.parametrize("case", MALFORMED_PARTITIONS.values(), ids=MALFORMED_PARTITIONS.keys())
def test_malformed_partitions_are_refused_alike(case):
    n, parts, budgets, message = case
    builds = [
        lambda: ConstrainedInstance(WeightedGraph(n, []), parts, budgets),
        lambda: PartitionMatroid(n, parts, budgets),
    ]
    if len(parts) == len(budgets) == 1 and set(parts[0]) == set(range(n)):
        builds.append(lambda: UniformMatroid(n, budgets[0]))
    for build in builds:
        with pytest.raises(InputError, match=message):
            build()


@pytest.mark.parametrize(
    "m",
    [UniformMatroid(4, 2), PartitionMatroid(4, [[0, 1], [2, 3]], [1, 1])],
    ids=["uniform", "partition"],
)
def test_a_set_holding_an_id_outside_the_ground_set_is_not_independent(m):
    assert m.is_independent({0, 2})
    for outside in (-1, 4, 70):
        assert not m.is_independent({0, outside})
        assert not m.is_independent({outside})


def test_graphic_matroid_basics():
    m = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    assert m.rank() == 2
    assert m.is_independent({0, 1}) and not m.is_independent({0, 1, 2})
    assert spot_check_axioms(m)


def test_explicit_matroid_closure():
    m = ExplicitMatroid(4, [[0, 2], [0, 3], [1, 2], [1, 3]])
    assert m.is_independent({0}) and m.is_independent({1, 3})
    assert not m.is_independent({0, 1})
    assert m.rank() == 2
    assert spot_check_axioms(m)


def test_spot_check_flags_non_matroid():
    bad = ExplicitMatroid(4, [[0, 1], [1, 2], [2, 3]])
    assert not spot_check_axioms(bad)


# ---------------------------------------------------------------------------
# LP


def _rank_rows(m):
    """Every rank row x(A) <= r(A) over the nonempty subsets A of [n]: the
    indicator of A in the first n columns, r(A) in the last.  r(A) comes
    from the matroid's rank table when it has one; else it is |A| when A
    is independent and the largest r(A - v) when not."""
    masks = np.arange(1, 1 << m.n, dtype=np.int64)
    rows = np.empty((len(masks), m.n + 1))
    rows[:, : m.n] = (masks[:, None] >> np.arange(m.n)) & 1
    if type(m)._rank_table is not matroid.MatroidOracle._rank_table:
        rows[:, m.n] = m._rank_table(masks)
        return rows
    rank = [0] * (1 << m.n)
    for a in range(1, 1 << m.n):
        subset = frozenset(v for v in range(m.n) if a >> v & 1)
        drop = (rank[a & ~(1 << v)] for v in subset)
        rank[a] = len(subset) if m.is_independent(subset) else max(drop)
    rows[:, m.n] = rank[1:]
    return rows


def in_base_polytope(m, x, tol=1e-7):
    x = np.asarray(x, dtype=np.float64)
    rows = _rank_rows(m)
    return (
        x.min(initial=0.0) >= -tol
        and x.max(initial=0.0) <= 1.0 + tol
        and abs(x.sum() - m.rank()) <= tol * max(1, m.n)
        and bool((rows[:, : m.n] @ x <= rows[:, m.n] + tol * m.n).all())
    )


def reference_lp(g, m):
    """The edge-capped LP over every enumerated rank row, in the HiGHS
    formulation the solver used before column generation; its value."""
    n, ne = g.n, len(g.edges)
    nv = n + ne
    cost = np.zeros(nv)
    cost[n:] = [-w for _, _, w in g.edges]
    rows = _rank_rows(m)
    rows = rows[rows[:, :n].sum(axis=1) < n]  # x(V) = rank covers x(V) <= rank
    a_ub = np.zeros((2 * ne + len(rows), nv))
    caps = a_ub[: 2 * ne].reshape(ne, 2, nv)
    e = np.arange(ne)
    ends = np.asarray([(u, v) for u, v, _ in g.edges], dtype=np.intp).reshape(ne, 2)
    caps[e, :, n + e] = 1.0
    caps[e, :, ends[:, 0]] = caps[e, :, ends[:, 1]] = [-1.0, 1.0]
    a_ub[2 * ne :, :n] = rows[:, :n]
    b_ub = np.concatenate([np.tile([0.0, 2.0], ne), rows[:, n]])
    a_eq = np.zeros((1, nv))
    a_eq[0, :n] = 1.0
    res = linprog(
        cost,
        A_ub=a_ub if len(a_ub) else None,
        b_ub=b_ub if len(b_ub) else None,
        A_eq=a_eq,
        b_eq=np.asarray([float(m.rank())]),
        bounds=[(0.0, 1.0)] * nv,
        method="highs",
    )
    assert res.success
    return float(-res.fun)


def assert_bases_combine_to_x(m, fp):
    assert all(m.is_independent(b) and len(b) == m.rank() for b in fp.bases)
    assert len(fp.weights) == len(fp.bases)
    assert fp.weights.min() >= 0.0
    assert abs(fp.weights.sum() - 1.0) <= 1e-9
    combo = sum(w * np.isin(np.arange(m.n), sorted(b)) for w, b in zip(fp.weights, fp.bases))
    assert np.allclose(fp.x, combo, rtol=0, atol=1e-12)


def test_lp_single_edge():
    fp = solve_lp(single_edge(), UniformMatroid(2, 1))
    assert fp.value == pytest.approx(1.0, abs=1e-7)


def test_lp_k3_rank1():
    fp = solve_lp(k3(), UniformMatroid(3, 1))
    assert fp.value >= 2 / 3 - 1e-7


def test_lp_edgeless():
    g = WeightedGraph(3, [])
    fp = solve_lp(g, UniformMatroid(3, 1))
    assert fp.value == pytest.approx(0.0, abs=1e-9)


def test_lp_edge_caps_respected():
    rng = np.random.default_rng(31)
    for s in range(8):
        inst = gen_random(7, 0.6, "unit", 2, "uniform", seed=400 + s)
        g = inst.graph
        if not g.edges:
            continue
        m = PartitionMatroid(7, inst.parts, inst.budgets)
        fp = solve_lp(g, m)
        assert in_base_polytope(m, fp.x)
        assert_bases_combine_to_x(m, fp)
        for e, (u, v, _) in enumerate(g.edges):
            cap = min(fp.x[u] + fp.x[v], 2 - fp.x[u] - fp.x[v])
            assert fp.y[e] <= cap + 1e-9


def test_lp_integrality_gap_chain():
    # LP value never exceeds twice the quadratic value at its own optimum
    for s in range(8):
        inst = gen_random(8, 0.7, "unit", 1, "uniform", seed=420 + s)
        g = inst.graph
        if not g.edges:
            continue
        m = UniformMatroid(8, inst.budgets[0])
        fp = solve_lp(g, m)
        assert fp.value <= 2 * quad_value(g, fp.x) + 1e-6


# ---------------------------------------------------------------------------
# quadratic proxy


def test_quad_integral_coincides():
    g = single_edge()
    assert quad_value(g, [1.0, 0.0]) == pytest.approx(cut_value(g, {0}), abs=1e-12)


def test_quad_half_half():
    assert quad_value(single_edge(), [0.5, 0.5]) == pytest.approx(0.5, abs=1e-12)


def test_quad_zeros():
    assert quad_value(single_edge(), [0.0, 0.0]) == 0.0


def test_quad_range_validation():
    with pytest.raises(InputError):
        quad_value(single_edge(), [1.5, 0.0])


# ---------------------------------------------------------------------------
# sandwich


@pytest.mark.parametrize(
    "x,y,expect",
    [
        (0.0, 0.0, (0.0, 0.0, 0.0, True)),
        (1.0, 0.0, (1.0, 1.0, 2.0, True)),
        (0.5, 0.5, (0.5, 1.0, 1.0, True)),
    ],
)
def test_sandwich_examples(x, y, expect):
    lhs, mid, rhs, ok = check_sandwich(x, y)
    assert (lhs, mid, rhs, ok) == pytest.approx(expect)


def test_sandwich_range_validation():
    with pytest.raises(InputError):
        check_sandwich(1.5, 0.0)


def test_sandwich_random_pairs():
    rng = np.random.default_rng(33)
    for _ in range(2000):
        _, _, _, ok = check_sandwich(float(rng.random()), float(rng.random()))
        assert ok


# ---------------------------------------------------------------------------
# pipage


def test_pipage_integral_noop():
    m = UniformMatroid(2, 1)
    out = pipage_round(single_edge(), m, [{0}], [1.0])
    assert out == {0}


def test_pipage_half_half_edge():
    m = UniformMatroid(2, 1)
    out = pipage_round(single_edge(), m, [{0}, {1}], [0.5, 0.5])
    assert out in ({0}, {1})
    assert cut_value(single_edge(), out) == 1.0


def test_pipage_outside_polytope_rejected():
    # a listed set that is no base, or weights that are no convex combination
    m = UniformMatroid(2, 1)
    for bases, weights in [
        ([{0, 1}], [1.0]),
        ([set()], [1.0]),
        ([{0}, {1}], [0.9, 0.9]),
        ([{0}, {1}], [1.5, -0.5]),
        ([{0}, {1}], [1.0]),
        ([], []),
    ]:
        with pytest.raises(InputError):
            pipage_round(single_edge(), m, bases, weights)


def test_pipage_partition_random_points():
    rng = np.random.default_rng(35)
    for s in range(10):
        inst = gen_random(8, 0.6, "unit", 2, "uniform", seed=440 + s)
        g = inst.graph
        if not g.edges:
            continue
        m = PartitionMatroid(8, inst.parts, inst.budgets)
        # random base-polytope point: mix of random bases
        bases = []
        for _ in range(4):
            chosen = []
            for part, k in zip(inst.parts, inst.budgets):
                chosen.extend(int(v) for v in rng.choice(sorted(part), size=k, replace=False))
            bases.append(set(chosen))
        weights = rng.dirichlet(np.ones(len(bases)))
        x = sum(w * g.indicator(b) for w, b in zip(weights, bases))
        before = quad_value(g, x)
        out = pipage_round(g, m, bases, weights)
        assert m.is_independent(out) and len(out) == m.rank()
        assert cut_value(g, out) >= before - 1e-7


def test_pipage_graphic():
    g = k3()
    m = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    bases = [{0, 1}, {1, 2}, {0, 2}]  # x = (2/3, 2/3, 2/3)
    out = pipage_round(g, m, bases, [1 / 3] * 3)
    assert m.is_independent(out) and len(out) == 2
    assert cut_value(g, out) >= quad_value(g, [2 / 3] * 3) - 1e-7


# ---------------------------------------------------------------------------
# end-to-end


def test_solve_matroid_single_edge():
    sol = solve_matroid(single_edge(), UniformMatroid(2, 1))
    assert sol.value == 1.0 and sol.feasible
    assert sol.stage_trace == ("lp", "pipage")


def test_solve_matroid_star():
    star = WeightedGraph(5, [(0, i, 0.25) for i in range(1, 5)])
    sol = solve_matroid(star, UniformMatroid(5, 1))
    assert sol.set == {0}
    assert sol.value == pytest.approx(1.0, abs=1e-9)


def test_solve_matroid_corpus_half_guarantee():
    for s in range(12):
        inst = gen_random(8, 0.5, "unit", 2, "uniform", seed=460 + s)
        g = inst.graph
        if not g.edges:
            continue
        m = PartitionMatroid(8, inst.parts, inst.budgets)
        lp = solve_lp(g, m)
        sol = solve_matroid(g, m)
        opt = oracle_matroid(g, m)
        assert sol.feasible
        assert sol.value >= 0.5 * lp.value - 1e-6
        assert sol.value >= 0.5 * opt.opt_value - 1e-9


@pytest.mark.parametrize("huge", [1e20, 1e50, 1e100])
def test_pipage_answers_with_a_weight_highs_reads_as_infinite(tmp_path, capsys, huge):
    # HiGHS's infinite_cost is 1e20; the masters run on the weights over the largest
    path = tmp_path / "huge.txt"
    head, first, rest = (CORPUS / "c1_n6.txt").read_text().split("\n", 2)
    u, v, _ = first.split()
    path.write_text(f"{head}\n{u} {v} {huge!r}\n{rest}")
    assert main(["solve", str(path), "--method", "pipage"]) == 0
    out = json.loads(capsys.readouterr().out)
    inst, _ = read_instance(str(path))
    m = PartitionMatroid(inst.graph.n, inst.parts, inst.budgets)
    opt = oracle_matroid(inst.graph, m)
    assert out["feasible"] is True and m.is_independent(set(out["set"]))
    assert len(out["set"]) == m.rank() and out["value"] >= 0.5 * opt.opt_value
    lp = solve_lp(inst.graph, m)
    assert opt.opt_value * (1 - 1e-12) <= lp.value <= 2 * huge


def test_solve_matroid_infeasible():
    with pytest.raises(InfeasibleError):
        solve_lp(single_edge(), ExplicitMatroid(2, []))


def test_pipage_stalls_on_non_matroid():
    # exchange fails for this listed family: the LP mixes {0, 1} and {2, 3},
    # and no j in {2, 3} swaps symmetrically with 0, so swap rounding stops
    # with a stall error instead of silently emitting a non-base
    bad = ExplicitMatroid(4, [[0, 1], [1, 2], [2, 3]])
    g = WeightedGraph(4, [(0, 1, 0.25), (1, 2, 0.25), (2, 3, 0.25), (0, 3, 0.25)])
    with pytest.raises(StallError):
        solve_matroid(g, bad)


def test_pipage_blocked_partner_graphic():
    # a 4-cycle with every edge doubled; each of the four spanning trees
    # takes one edge from three of the four doubled pairs
    g = gen_random(8, 0.6, "unit", 1, "one", seed=3).graph
    m = GraphicMatroid(4, [(1, 0), (2, 1), (3, 0), (0, 3), (3, 2), (2, 1), (1, 0), (3, 2)])
    sol = solve_matroid(g, m)
    assert sol.feasible
    assert sol.value >= 0.5 * oracle_matroid(g, m).opt_value - 1e-9
    x = np.array([0.25, 0.25, 0.25, 0.25, 0.75, 0.25, 0.75, 0.25])
    bases = [{0, 1, 4}, {6, 5, 4}, {6, 2, 4}, {6, 3, 7}]
    assert np.array_equal(sum(0.25 * g.indicator(b) for b in bases), x)
    out = pipage_round(g, m, bases, [0.25] * 4)
    assert m.is_independent(out) and len(out) == m.rank()
    assert cut_value(g, out) >= quad_value(g, x) - 1e-9


def test_pipage_random_multigraph_graphic():
    # auxiliary multigraphs with parallel edges and shared cycle vertices;
    # seeds 1, 6, 11 and 17 used to stall
    rng = np.random.default_rng(77)
    for seed in range(20):
        aux_n = int(rng.integers(3, 7))
        size = int(rng.integers(aux_n, 11))
        aux = []
        while len(aux) < size:
            a, b = rng.integers(0, aux_n, 2)
            if a != b:
                aux.append((int(a), int(b)))
        m = GraphicMatroid(aux_n, aux)
        g = gen_random(size, 0.6, "unit", 1, "one", seed=seed).graph
        sol = solve_matroid(g, m)
        assert sol.feasible
        assert sol.value >= 0.5 * oracle_matroid(g, m).opt_value - 1e-9


def test_solve_matroid_matches_the_suite_rounding():
    # `verify --suite matroid` rounds the LP point it already holds instead
    # of solving the LP a second time through solve_matroid
    for _, _, g, m in itertools.islice(_matroid_corpus(200, 3000), 9):
        fp = solve_lp(g, m)
        assert solve_matroid(g, m).set == pipage_round(g, m, fp.bases, fp.weights)


@st.composite
def multigraphs(draw):
    aux_n = draw(st.integers(1, 6))
    vertex = st.integers(0, aux_n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return aux_n, edges


@st.composite
def matroid_instances(draw):
    """A matroid of each kind on at most 10 elements, with a graph on its
    ground set.  Graphic matroids come from auxiliary multigraphs (parallel
    edges, loops and cycles sharing a vertex); explicit matroids list the
    bases of one."""
    kind = draw(st.sampled_from(["uniform", "partition", "graphic", "explicit"]))
    if kind in ("graphic", "explicit"):
        aux_n, aux = draw(multigraphs().filter(lambda c: c[1]))
        m = GraphicMatroid(aux_n, aux)
        if kind == "explicit":
            r = m.rank()
            m = ExplicitMatroid(
                m.n, [b for b in itertools.combinations(range(m.n), r) if m.is_independent(b)]
            )
    else:
        n = draw(st.integers(1, 10))
        if kind == "uniform":
            m = UniformMatroid(n, draw(st.integers(0, n)))
        else:
            label = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            parts = [{v for v in range(n) if label[v] == p} for p in sorted(set(label))]
            m = PartitionMatroid(n, parts, [draw(st.integers(0, len(p))) for p in parts])
    vertex = st.integers(0, m.n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 4)), max_size=15))
    return m, WeightedGraph(m.n, [(u, v, w / 4) for u, v, w in edges if u != v])


@settings(max_examples=80, derandomize=True, deadline=None)
@given(case=matroid_instances())
@example(  # two cycles through vertex 0, and two parallel pairs
    case=(
        GraphicMatroid(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0), (1, 2), (0, 3)]),
        gen_random(8, 0.6, "uniform", 1, "one", seed=8).graph,
    )
)
def test_generated_bases_match_the_enumerated_lp_and_round_to_a_base(case):
    m, g = case
    fp = solve_lp(g, m)
    assert abs(fp.value - reference_lp(g, m)) <= 1e-7
    assert_bases_combine_to_x(m, fp)
    out = pipage_round(g, m, fp.bases, fp.weights)
    assert m.is_independent(out) and len(out) == m.rank()
    q = quad_value(g, fp.x)
    assert cut_value(g, out) >= q - 1e-9
    assert q >= fp.value / 2 - 1e-6


# ---------------------------------------------------------------------------
# rank tables


def _forest_rank(aux_n, aux_edges, subset):
    parent = list(range(aux_n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    rank = 0
    for i in subset:
        a, b = find(aux_edges[i][0]), find(aux_edges[i][1])
        if a != b:
            parent[a] = b
            rank += 1
    return rank


def _check_rows(m, rank_of):
    rows = _rank_rows(m)
    assert rows.shape == ((1 << m.n) - 1, m.n + 1)
    for r, row in enumerate(rows):
        subset = [v for v in range(m.n) if (r + 1) >> v & 1]
        assert row[: m.n].tolist() == [float(v in subset) for v in range(m.n)]
        assert row[m.n] == rank_of(subset)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=multigraphs())
@example(case=(4, [(1, 0), (2, 1), (3, 0), (0, 3), (3, 2), (2, 1), (1, 0), (3, 2)]))
def test_graphic_rank_rows_match_a_union_find_per_subset(case):
    aux_n, edges = case
    m = GraphicMatroid(aux_n, edges)
    _check_rows(m, lambda s: _forest_rank(aux_n, edges, s))
    assert m.rank() == _forest_rank(aux_n, edges, range(len(edges)))


@st.composite
def families(draw, max_sets=8):
    n = draw(st.integers(0, 8))
    subset = st.frozensets(st.integers(0, n - 1), max_size=n) if n else st.just(frozenset())
    return n, draw(st.lists(subset, min_size=1, max_size=max_sets))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=families())
@example(case=(4, [{0, 1}, {1, 2}, {2, 3}]))  # not a matroid
def test_explicit_rank_rows_are_the_largest_overlap_with_a_listed_set(case):
    n, sets = case
    m = ExplicitMatroid(n, sets)
    _check_rows(m, lambda s: max(len(set(s) & t) for t in sets))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(case=families(max_sets=40))
@example(case=(3, [{0, 1}, {0}, {0, 1}, set(), {2}]))  # repeats and nested sets
def test_explicit_maximal_sets_match_the_pairwise_rule(case):
    n, sets = case
    listed = [frozenset(s) for s in sets]
    expected = tuple(s for s in listed if not any(s < t for t in listed))
    assert ExplicitMatroid(n, sets).maximal == expected


def test_explicit_rank_rows_stay_in_bounded_memory():
    # unchunked, the (subsets x listed sets) temporary would be 16383 x 3432
    # int64 entries, about 450 MB
    m = ExplicitMatroid(14, itertools.combinations(range(14), 7))
    masks = np.arange(1, 1 << 14, dtype=np.int64)
    tracemalloc.start()
    try:
        rank = m._rank_table(masks)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rank, np.minimum(np.bitwise_count(masks), 7))
    assert peak < 32 << 20


def _two_cycles_through_one_vertex(n=20):
    """A connected auxiliary graph on 17 vertices with n = 20 edges, listed
    in a shuffled order: the cycles 0-1-2-0 and 0-3-4-0 share vertex 0, and
    a path through the other vertices closes two more cycles."""
    edges = [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)]
    edges += [(v, v + 1) for v in range(4, 16)] + [(16, 10), (12, 7)]
    order = np.random.default_rng(20).permutation(n)
    return GraphicMatroid(17, [edges[i] for i in order])


def test_graphic_matroid_over_sixteen_elements_solves():
    m = _two_cycles_through_one_vertex()
    inst = gen_random(20, 0.3, "uniform", 1, "one", seed=20)
    opt = oracle_matroid(inst.graph, m).opt_value
    sol = solve_matroid(inst.graph, m)
    assert m.n == 20 and m.rank() == 16
    assert sol.feasible and len(sol.set) == 16
    assert sol.value >= 0.5 * opt - 1e-9


def test_bench_solves_a_graphic_matroid_over_sixteen_elements(tmp_path):
    m = _two_cycles_through_one_vertex()
    inst = gen_random(20, 0.3, "uniform", 1, "one", seed=20)
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "graphic20.txt").write_text(format_instance_text(inst, m))
    out = tmp_path / "report"
    argv = ["bench", str(corpus), "--methods", "pipage,oracle", "--seeds", "1", "--out", str(out)]
    assert main(argv) == 0
    rows = {r["method"]: r for r in json.loads(out.with_suffix(".json").read_text())["rows"]}
    pipage = rows["pipage"]
    assert pipage["skipped"] is None and pipage["feasible"]
    assert pipage["ratio_base"] == "matroid"
    assert pipage["oracle_value"] == rows["oracle"]["value"]
    assert pipage["ratio"] >= 0.5
    assert pipage["value"] >= 0.5 * oracle_matroid(inst.graph, m).opt_value - 1e-9


def test_config_file_setting_the_removed_enumeration_cap_is_refused(tmp_path):
    # the rank rows it capped are gone, so an old config file fails loudly
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matroid_enum_cap = 16\n")
    with pytest.raises(ParseError, match="matroid_enum_cap"):
        load_config(str(cfg))


# ---------------------------------------------------------------------------
# pinned answers on graphic and explicit instances


def _disjoint_cycles(seed, n=14, sizes=(5, 4, 5)):
    rng = np.random.default_rng(seed)
    label = rng.permutation(n)
    edges, base = [], 0
    for s in sizes:
        edges += [(int(label[base + i]), int(label[base + (i + 1) % s])) for i in range(s)]
        base += s
    return GraphicMatroid(n, [edges[i] for i in rng.permutation(n)])


def _partition_bases(seed, n=12, r=4):
    rng = np.random.default_rng(seed)
    order = [int(v) for v in rng.permutation(n)]
    return ExplicitMatroid(n, itertools.product(*(order[i::r] for i in range(r))))


# `enumerated` is the LP value over every rank row (the solver before column
# generation, and `reference_lp` here); `value` is the column-generation LP,
# bit for bit.
PINNED = [
    (
        _disjoint_cycles, 5, 14, "0x1.12c7e0e1306f2p-1", "0x1.12c7e0e1306f4p-1",
        [0.6666666666666665, 1.0, 0.6666666666666667, 0.33333333333333326, 0.6666666666666667,
         1.0, 0.33333333333333326, 1.0, 1.0, 1.0, 0.6666666666666666, 1.0, 0.6666666666666667,
         1.0],
        {1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13},
    ),
    (
        _partition_bases, 6, 12, "0x1.a7eced018e502p-1", "0x1.a7eced018e500p-1",
        [0.5, 0.4999999999999999, 0.5000000000000001, 0.5000000000000001, 0.0,
         0.4999999999999998, 0.5000000000000002, 0.4999999999999999, 0.0, 0.0, 0.0,
         0.49999999999999994],
        {1, 3, 5, 11},
    ),
]


@pytest.mark.parametrize(
    "make,seed,n,enumerated,value,x,chosen", PINNED, ids=["graphic", "explicit"]
)
def test_pinned_lp_and_pipage_answers(make, seed, n, enumerated, value, x, chosen):
    m = make(seed)
    g = gen_random(n, 0.35, "uniform", 1, "one", seed=seed).graph
    fp = solve_lp(g, m)
    assert reference_lp(g, m) == float.fromhex(enumerated)
    assert abs(fp.value - float.fromhex(enumerated)) <= 1e-9
    assert fp.value == float.fromhex(value)
    assert fp.x.tolist() == x
    assert pipage_round(g, m, fp.bases, fp.weights) == chosen


def _linprog_master(ew, cover):
    """One master LP posed to `linprog(method="highs")`, as `solve_lp` posed
    it before calling HiGHS itself: x, objective, edge-row and sum-row duals."""
    nb, ne = cover.shape
    a_ub = np.block([[np.eye(ne), -cover.T], [np.eye(ne), cover.T]])
    res = linprog(
        np.concatenate([-ew, np.zeros(nb)]),
        A_ub=a_ub if ne else None,
        b_ub=np.repeat([0.0, 2.0], ne) if ne else None,
        A_eq=np.concatenate([np.zeros(ne), np.ones(nb)])[None, :],
        b_eq=np.ones(1),
        bounds=[(0.0, 1.0)] * ne + [(0.0, None)] * nb,
        method="highs",
    )
    assert res.success
    return res.x, res.fun, res.ineqlin.marginals, res.eqlin.marginals[0]


def test_master_lp_on_highs_matches_linprog_bit_for_bit(monkeypatch):
    cases = [(g, m) for _, _, g, m in _matroid_corpus(9, 3000)]  # partition, uniform, graphic
    for seed in (3, 4, 5):
        g = gen_random(12, 0.35, "uniform", 1, "one", seed=seed).graph
        cases.append((g, _partition_bases(seed)))  # explicit
    cases.append((WeightedGraph(3, []), UniformMatroid(3, 2)))
    assert {m.kind for _, m in cases} == {"partition", "uniform", "graphic", "explicit"}

    masters = []
    solve_master = matroid._solve_master

    def recording(ew, cover):
        masters.append((ew.copy(), cover.copy()))
        return solve_master(ew, cover)

    monkeypatch.setattr(matroid, "_solve_master", recording)
    for g, m in cases:
        solve_lp(g, m)
    assert len(masters) > len(cases)  # column generation added bases
    for ew, cover in masters:
        got = solve_master(ew, cover)
        want = _linprog_master(ew, cover)
        for a, b in zip(got, want):
            assert np.float64(a).tobytes() == np.float64(b).tobytes()


def test_each_thread_reuses_one_highs_instance_and_a_failed_master_leaves_no_trace():
    g = gen_random(10, 0.4, "unit", 1, "one", seed=8).graph
    ew = g._edge_arrays[2]
    cover = np.array([[1.0, 0.0, 2.0] * (len(g.edges) // 3) + [1.0] * (len(g.edges) % 3)])
    fresh = _linprog_master(ew, cover)
    # no base column: sum_B lambda_B = 1 has no solution
    with pytest.raises(InfeasibleError):
        matroid._solve_master(ew, np.zeros((0, len(g.edges))))
    got = matroid._solve_master(ew, cover)
    for a, b in zip(got, fresh):
        assert np.float64(a).tobytes() == np.float64(b).tobytes()

    seen = []
    thread = threading.Thread(target=lambda: seen.append(matroid._solver()))
    thread.start()
    thread.join(timeout=30)
    assert not thread.is_alive()
    assert matroid._solver() is matroid._solver()
    assert seen[0] is not matroid._solver()


def test_concurrent_lp_solves_answer_as_serial_ones():
    cases = [(g, m) for _, _, g, m in _matroid_corpus(6, 3100)]
    serial = [solve_lp(g, m) for g, m in cases]
    answers = [None] * (2 * len(cases))

    def solve(i):
        g, m = cases[i % len(cases)]
        answers[i] = solve_lp(g, m)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=solve, args=(i,)) for i in range(len(answers))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for i, got in enumerate(answers):
        want = serial[i % len(cases)]
        assert got.x.tobytes() == want.x.tobytes() and got.value == want.value
        assert got.bases == want.bases and got.weights.tobytes() == want.weights.tobytes()


# ---------------------------------------------------------------------------
# the HiGHS extension, loaded without scipy.optimize


def _fresh_python(probe):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(res.stdout)


def test_cutkit_loads_highs_without_scipy_optimize():
    probe = (
        "import json, sys, cutkit.cli, cutkit.matroid as m; "
        "print(json.dumps(['scipy.optimize' in sys.modules, 'scipy.fft' in sys.modules, "
        f"m._lp()[0] is sys.modules[{_highs.HIGHS!r}]]))"
    )
    assert _fresh_python(probe) == [False, False, True]


@pytest.mark.parametrize(
    "imports", ["import cutkit.matroid, scipy.optimize", "import scipy.optimize, cutkit.matroid"]
)
def test_highs_is_one_module_in_either_import_order(imports):
    probe = (
        f"{imports}; import json, sys, cutkit; "
        "from scipy.optimize import linprog; "
        "from scipy.optimize._highspy import _core; "
        "res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], bounds=[(0, 1)] * 2, "
        "method='highs'); "
        f"print(json.dumps([_core is cutkit.matroid._lp()[0] is sys.modules[{_highs.HIGHS!r}], "
        "res.status, res.x.tolist()]))"
    )
    assert _fresh_python(probe) == [True, 0, [1.0, 0.0]]


def test_missing_highs_extension_names_the_folder_and_scipy(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, _highs.HIGHS)
    with pytest.raises(ImportError) as info:
        _highs.load(_highs.HIGHS, str(tmp_path))
    assert str(tmp_path) in str(info.value) and scipy.__version__ in str(info.value)
    assert _highs.HIGHS not in sys.modules
