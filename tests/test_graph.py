import numpy as np
import pytest

from cutkit.errors import InputError
from cutkit.graph import (
    ConstrainedInstance,
    WeightedGraph,
    contract_groups,
    cut_between,
    cut_value,
    weighted_degree_order,
)
from cutkit.kernel import kernelize_multi


def k3():
    return WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])


def random_graph(n, p, rng, unit=True):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                edges.append((u, v, 1.0 if unit else float(rng.random() + 0.1)))
    return WeightedGraph(n, edges)


def brute_cut(g, s):
    s = set(s)
    return sum(w for u, v, w in g.edges if (u in s) != (v in s))


def test_cut_value_triangle():
    assert cut_value(k3(), {0}) == pytest.approx(2 / 3, abs=1e-12)


def test_cut_value_empty_set():
    assert cut_value(k3(), set()) == 0.0


def test_cut_value_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    assert cut_value(g, {0}) == 1.0


def test_cut_value_out_of_range():
    with pytest.raises(InputError):
        cut_value(k3(), {5})


def test_cut_between_triangle():
    assert cut_between(k3(), {0}, {1}) == pytest.approx(1 / 3, abs=1e-12)


def test_cut_between_empty():
    assert cut_between(k3(), set(), {1, 2}) == 0.0


def test_cut_between_path_no_direct_edge():
    path = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    assert cut_between(path, {0}, {2}) == 0.0


def test_cut_between_overlap_rejected():
    with pytest.raises(InputError):
        cut_between(k3(), {0, 1}, {1, 2})


def test_degree_order_star():
    star = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    assert weighted_degree_order(star) == [0, 1, 2, 3]


def test_degree_order_edgeless():
    g = WeightedGraph(5, [])
    assert weighted_degree_order(g) == [0, 1, 2, 3, 4]


def test_degree_order_symmetric_ties():
    assert weighted_degree_order(k3()) == [0, 1, 2]


def test_contract_tail_path():
    path = WeightedGraph(3, [(0, 1, 0.5), (1, 2, 0.5)])
    reduced, supers, _ = contract_groups(path, {0, 1}, [{2}])
    assert supers == [2]
    assert reduced.edges == ((0, 1, 0.5), (1, 2, 0.5))


def test_contract_tail_triangle():
    reduced, supers, _ = contract_groups(k3(), {0, 1}, [{2}])
    assert supers == [2]
    assert set(reduced.edges) == {(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)}


def test_contract_tail_isolated_vertex():
    g = WeightedGraph(3, [(0, 1, 1.0)])
    reduced, _, _ = contract_groups(g, {0, 1}, [{2}])
    assert reduced.n == 3
    assert reduced.edges == ((0, 1, 1.0),)  # super vertex ends up isolated


def test_contract_tail_rejects_full_keep():
    with pytest.raises(InputError):
        contract_groups(k3(), {0, 1, 2}, [set()])


def test_parallel_edges_merged():
    g = WeightedGraph(2, [(0, 1, 0.3), (1, 0, 0.2)])
    assert g.edges == ((0, 1, 0.5),)


def test_self_loop_rejected():
    with pytest.raises(InputError):
        WeightedGraph(2, [(1, 1, 1.0)])


def test_negative_weight_rejected():
    with pytest.raises(InputError):
        WeightedGraph(2, [(0, 1, -0.5)])


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1, float("inf"))], "not finite"),
        ([(0, 1, float("-inf"))], "not finite"),
        ([(0, 1, float("nan"))], "not finite"),
        ([(0, 1, "1e309")], "not finite"),
        ([(1, 2, 1.0), (0, 1, 1e308), (1, 0, 1e308)], "overflow"),  # parallel edges
        ([(0, 1, 1e308), (1, 2, 1e308)], "overflow"),
    ],
)
def test_non_finite_weights_are_refused(edges, message):
    # pytest turns RuntimeWarning into an error, so an overflow warning
    # while summing the total would fail here too
    with pytest.raises(InputError, match=message):
        WeightedGraph(3, edges)


def test_a_finite_total_near_the_largest_float_is_kept():
    g = WeightedGraph(3, [(0, 1, 1e308), (1, 2, 7e307)])
    assert g.total_weight == 1e308 + 7e307


def test_normalize_total_weight():
    g = WeightedGraph(3, [(0, 1, 2.0), (1, 2, 3.0)]).normalize()
    assert abs(g.total_weight - 1.0) <= 1e-12


def test_normalize_edgeless_identity():
    g = WeightedGraph(3, [])
    assert g.normalize() is g


def test_cut_symmetry_random():
    rng = np.random.default_rng(0)
    for _ in range(40):
        g = random_graph(int(rng.integers(2, 9)), 0.5, rng, unit=False)
        size = int(rng.integers(0, g.n + 1))
        s = frozenset(rng.choice(g.n, size=size, replace=False).tolist())
        comp = frozenset(range(g.n)) - s
        assert cut_value(g, s) == pytest.approx(cut_value(g, comp), abs=1e-12)
        assert cut_value(g, s) == pytest.approx(brute_cut(g, s), abs=1e-12)


def test_cut_submodularity_random():
    # cut(B + v) - cut(B) <= cut(A + v) - cut(A) whenever A <= B, v outside B
    rng = np.random.default_rng(1)
    for _ in range(60):
        g = random_graph(int(rng.integers(3, 8)), 0.6, rng, unit=False)
        verts = list(range(g.n))
        b_size = int(rng.integers(1, g.n))
        b = set(rng.choice(verts, size=b_size, replace=False).tolist())
        a_size = int(rng.integers(0, len(b) + 1))
        a = set(rng.choice(sorted(b), size=a_size, replace=False).tolist())
        outside = [v for v in verts if v not in b]
        if not outside:
            continue
        v = int(rng.choice(outside))
        gain_b = cut_value(g, b | {v}) - cut_value(g, b)
        gain_a = cut_value(g, a | {v}) - cut_value(g, a)
        assert gain_b <= gain_a + 1e-12


def test_contraction_preserves_kept_cuts():
    rng = np.random.default_rng(2)
    for _ in range(40):
        g = random_graph(int(rng.integers(4, 9)), 0.6, rng, unit=False)
        keep_size = int(rng.integers(1, g.n))
        keep = frozenset(rng.choice(g.n, size=keep_size, replace=False).tolist())
        reduced, _, _ = contract_groups(g, keep, [frozenset(range(g.n)) - keep])
        order = sorted(keep)
        rename = {v: i for i, v in enumerate(order)}
        sub_size = int(rng.integers(0, len(keep) + 1))
        sub = frozenset(rng.choice(order, size=sub_size, replace=False).tolist())
        mapped = frozenset(rename[v] for v in sub)
        assert cut_value(reduced, mapped) == pytest.approx(
            cut_value(g, sub), abs=1e-12
        )


def test_normalized_cut_in_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(30):
        g = random_graph(int(rng.integers(2, 9)), 0.7, rng, unit=False).normalize()
        size = int(rng.integers(0, g.n + 1))
        s = frozenset(rng.choice(g.n, size=size, replace=False).tolist())
        assert -1e-12 <= cut_value(g, s) <= 1.0 + 1e-12


def test_instance_partition_validation():
    g = WeightedGraph(4, [(0, 1, 1.0)])
    with pytest.raises(InputError):
        ConstrainedInstance(g, [{0, 1}, {1, 2, 3}], [1, 1])  # overlap
    with pytest.raises(InputError):
        ConstrainedInstance(g, [{0, 1}], [1])  # not covering
    inst = ConstrainedInstance(g, [{0, 1}, {2, 3}], [1, 1])
    assert inst.is_feasible_set({0, 2})
    assert not inst.is_feasible_set({0, 1})


def test_half_budget_check_is_consumer_side():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    inst = ConstrainedInstance(g, [{0}, {1}], [1, 1])  # k = |part| allowed here
    with pytest.raises(InputError, match="half the part size"):
        kernelize_multi(inst, 0.5)


# each of these was once truncated to an integer and accepted
@pytest.mark.parametrize(
    "build",
    [
        lambda: WeightedGraph(3.9, []),
        lambda: WeightedGraph(3, [(0, 1.5, 1.0)]),
        lambda: WeightedGraph(True, []),
        lambda: ConstrainedInstance(WeightedGraph(4, []), [range(4)], [True]),
        lambda: ConstrainedInstance(WeightedGraph(4, []), [range(4)], [1.5]),
        lambda: ConstrainedInstance(WeightedGraph(4, []), [[0, 1, 2, 3.0]], [1]),
    ],
    ids=["n", "edge-end", "bool-n", "bool-budget", "budget", "vertex"],
)
def test_graph_inputs_refuse_a_number_that_is_not_an_integer(build):
    with pytest.raises(InputError, match="must be an integer"):
        build()
    # numpy integers are integers
    i = np.int64
    g = WeightedGraph(i(4), [(i(0), i(1), 1.0)])
    assert g == WeightedGraph(4, [(0, 1, 1.0)])
    assert ConstrainedInstance(g, [[i(0), i(1)], [2, 3]], [i(1), 1]).budgets == (1, 1)


def test_degree_order_weighted_tie_break():
    g = WeightedGraph(4, [(0, 3, 0.5), (1, 3, 0.2), (2, 3, 0.2)])
    assert weighted_degree_order(g) == [3, 0, 1, 2]
