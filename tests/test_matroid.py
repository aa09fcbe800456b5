import itertools
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutkit.cli import main
from cutkit.config import Config
from cutkit.errors import CapacityError, InfeasibleError, InputError
from cutkit.forge import gen_random
from cutkit.graph import WeightedGraph, cut_value
from cutkit.matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    check_sandwich,
    in_base_polytope,
    pipage_round,
    quad_value,
    solve_lp,
    solve_matroid,
    spot_check_axioms,
)
from cutkit.oracle import oracle_matroid


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
    out = pipage_round(single_edge(), m, [1.0, 0.0])
    assert out == {0}


def test_pipage_half_half_edge():
    m = UniformMatroid(2, 1)
    out = pipage_round(single_edge(), m, [0.5, 0.5])
    assert out in ({0}, {1})
    assert cut_value(single_edge(), out) == 1.0


def test_pipage_outside_polytope_rejected():
    m = UniformMatroid(2, 1)
    with pytest.raises(InputError):
        pipage_round(single_edge(), m, [0.9, 0.9])


def test_pipage_partition_random_points():
    rng = np.random.default_rng(35)
    for s in range(10):
        inst = gen_random(8, 0.6, "unit", 2, "uniform", seed=440 + s)
        g = inst.graph
        if not g.edges:
            continue
        m = PartitionMatroid(8, inst.parts, inst.budgets)
        # random base-polytope point: mix of random base indicators
        bases = []
        for _ in range(4):
            chosen = []
            for part, k in zip(inst.parts, inst.budgets):
                chosen.extend(rng.choice(sorted(part), size=k, replace=False))
            x = np.zeros(8)
            x[chosen] = 1.0
            bases.append(x)
        weights = rng.dirichlet(np.ones(len(bases)))
        x = np.einsum("i,ij->j", weights, np.array(bases))
        before = quad_value(g, x)
        out = pipage_round(g, m, x)
        assert m.is_independent(out) and len(out) == m.rank()
        assert cut_value(g, out) >= before - 1e-7


def test_pipage_graphic():
    g = k3()
    m = GraphicMatroid(3, [(0, 1), (1, 2), (0, 2)])
    x = np.array([2 / 3, 2 / 3, 2 / 3])
    out = pipage_round(g, m, x)
    assert m.is_independent(out) and len(out) == 2
    assert cut_value(g, out) >= quad_value(g, x) - 1e-7


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


def test_solve_matroid_infeasible():
    with pytest.raises(InfeasibleError):
        solve_lp(single_edge(), ExplicitMatroid(2, []))


def test_pipage_stalls_on_non_matroid():
    # exchange fails for this listed family, so the tight-set walk has no
    # valid partner at the LP optimum and stops with a stall error instead
    # of silently emitting a non-base
    from cutkit.errors import StallError

    bad = ExplicitMatroid(4, [[0, 1], [1, 2], [2, 3]])
    g = WeightedGraph(4, [(0, 1, 0.25), (1, 2, 0.25), (2, 3, 0.25), (0, 3, 0.25)])
    with pytest.raises(StallError):
        solve_matroid(g, bad)


def test_pipage_blocked_partner_graphic():
    # a 4-cycle with every edge doubled: at the LP point the preferred move of
    # the first pair has length zero, blocked by a tight set that holds the
    # partner but not u; pipage has to pair inside the partner's tight set
    g = gen_random(8, 0.6, "unit", 1, "one", seed=3).graph
    m = GraphicMatroid(4, [(1, 0), (2, 1), (3, 0), (0, 3), (3, 2), (2, 1), (1, 0), (3, 2)])
    sol = solve_matroid(g, m)
    assert sol.feasible
    assert sol.value >= 0.5 * oracle_matroid(g, m).opt_value - 1e-9
    x = np.array([0.25, 0.25, 0.25, 0.25, 0.75, 0.25, 0.75, 0.25])
    out = pipage_round(g, m, x)
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


# ---------------------------------------------------------------------------
# enumerated rank rows


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
    rows = m.polytope_constraints()
    assert rows.shape == ((1 << m.n) - 1, m.n + 1)
    for r, row in enumerate(rows):
        subset = [v for v in range(m.n) if (r + 1) >> v & 1]
        assert row[: m.n].tolist() == [float(v in subset) for v in range(m.n)]
        assert row[m.n] == rank_of(subset)


@st.composite
def multigraphs(draw):
    aux_n = draw(st.integers(1, 6))
    vertex = st.integers(0, aux_n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=10))
    return aux_n, edges


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


def test_solve_matroid_builds_its_rank_rows_once(monkeypatch):
    # the LP, the membership test and pipage share one table
    calls = []
    build = GraphicMatroid.polytope_constraints

    def counted(self, config=None):
        calls.append(self)
        return build(self, config)

    monkeypatch.setattr(GraphicMatroid, "polytope_constraints", counted)
    m = _disjoint_cycles(5)
    solve_matroid(gen_random(14, 0.35, "uniform", 1, "one", seed=5).graph, m)
    assert calls == [m]


def test_explicit_rank_rows_stay_in_bounded_memory():
    # unchunked, the (subsets x listed sets) temporary would be 16383 x 3432
    # int64 entries, about 450 MB
    m = ExplicitMatroid(14, itertools.combinations(range(14), 7))
    tracemalloc.start()
    try:
        rows = m.polytope_constraints()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows[:, 14], np.minimum(rows[:, :14].sum(axis=1), 7))
    assert peak < 32 << 20


def test_enum_cap_stops_the_lp():
    m = GraphicMatroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    g = WeightedGraph(5, [(0, 1, 0.5), (2, 3, 0.5)])
    assert solve_lp(g, m, Config(matroid_enum_cap=5)).value > 0
    with pytest.raises(CapacityError):
        solve_lp(g, m, Config(matroid_enum_cap=4))


def test_enum_cap_marks_the_bench_pipage_rows(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "graphic.txt").write_text(
        "5 2 1\n0 1 0.5\n2 3 0.5\n5 2 0 1 2 3 4\n"
        "matroid graphic 4 5\n0 1\n1 2\n2 3\n3 0\n0 2\n"
    )
    cfg = tmp_path / "run.cfg"
    cfg.write_text("matroid_enum_cap = 4\n")
    out = tmp_path / "report"
    argv = ["--config", str(cfg), "bench", str(corpus), "--methods", "pipage,greedy",
            "--seeds", "1,2", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads(out.with_suffix(".json").read_text())["rows"]
    skipped = {(r["method"], r["seed"]): r["skipped"] for r in rows}
    for seed in (1, 2):
        assert skipped["pipage", seed].startswith("CapacityError: ")
        assert skipped["greedy", seed] is None


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


PINNED = [
    (
        _disjoint_cycles, 5, 14, "0x1.12c7e0e1306f2p-1",
        [0.6666666666666667, 1, 0.6666666666666667, 0.3333333333333333, 0.6666666666666667,
         1, 0.33333333333333326, 1, 1, 1, 0.6666666666666667, 1, 0.6666666666666667, 1],
        {1, 2, 4, 5, 7, 8, 9, 10, 11, 12, 13},
    ),
    (
        _partition_bases, 6, 12, "0x1.a7eced018e502p-1",
        [0.5, 0.5, 0.5, 0.5, 0, 0.5, 0.5, 0.5, 0, 0, 0, 0.5],
        {1, 3, 5, 11},
    ),
]


@pytest.mark.parametrize("make,seed,n,value,x,chosen", PINNED, ids=["graphic", "explicit"])
def test_pinned_lp_and_pipage_answers(make, seed, n, value, x, chosen):
    m = make(seed)
    g = gen_random(n, 0.35, "uniform", 1, "one", seed=seed).graph
    fp = solve_lp(g, m)
    assert fp.value == float.fromhex(value)
    assert fp.x.tolist() == x
    assert pipage_round(g, m, fp.x) == chosen
