import math
import sys
import threading
from functools import lru_cache
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutkit.config import PSD_TOL
from cutkit.errors import (
    CapacityError,
    ConvergenceError,
    DegenerateEventError,
    InfeasibleError,
    InputError,
    SearchFailureError,
)
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, WeightedGraph
from cutkit.io import read_instance
from cutkit.kernel import KernelResult, kernelize_multi, kernelize_single
from cutkit import _blas, moments
from cutkit.moments import (
    MomentVector,
    _affine_chart,
    _affine_rows,
    _free_rows,
    block_independence_score,
    build_program,
    condition,
    entropy_of_vertex,
    face_basis,
    iid_pair_information_sum,
    information_matrix,
    integral_moment_vector,
    make_block_independent,
    marginals,
    moment_structure,
    mutual_information,
    solve,
    subset_basis,
    vertex_entropies,
)
from cutkit.oracle import oracle_constrained


def mv_from_dist(n, level, weighted_points):
    """Moment vector of an explicit distribution over +-1 assignments."""
    basis = subset_basis(n, 2 * level)
    y = np.zeros(basis.masks.size)
    for prob, assign in weighted_points:
        for pos, mask in enumerate(basis.masks):
            prod = 1.0
            m = int(mask)
            while m:
                v = (m & -m).bit_length() - 1
                prod *= assign[v]
                m &= m - 1
            y[pos] += prob * prod
    return MomentVector(n, level, y)


def product_uniform(n, level):
    basis = subset_basis(n, 2 * level)
    y = np.zeros(basis.masks.size)
    y[basis.position(())] = 1.0
    return MomentVector(n, level, y)


def perfectly_correlated_pair(level=3):
    return mv_from_dist(2, level, [(0.5, (1, 1)), (0.5, (-1, -1))])


def k3():
    return WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])


# ---------------------------------------------------------------------------
# program construction and solving


def test_program_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    ker = kernelize_single(g, 1, 0.5)
    prog = build_program(ker, 2)
    assert len(prog.edges) == 1
    mv = solve(prog)
    assert mv.objective_value(prog.edges) == pytest.approx(1.0, abs=1e-6)
    assert mv.bias(0) + mv.bias(1) == pytest.approx(0.0, abs=1e-6)


def test_program_k3_reaches_integral_optimum():
    ker = kernelize_single(k3(), 1, 0.5)
    prog = build_program(ker, 2)
    assert len(prog.edges) == 3
    mv = solve(prog)
    assert mv.objective_value(prog.edges) >= 2 / 3 - 1e-6


def test_super_vertex_never_selected():
    ker = kernelize_single(k3(), 1, 0.5)
    prog = build_program(ker, 2)
    mv = solve(prog)
    (s,) = ker.forbidden
    assert mv.bias(s) == pytest.approx(-1.0, abs=1e-6)


def test_k4_relaxation_dominates():
    g = WeightedGraph(4, [(u, v, 1 / 6) for u in range(4) for v in range(u + 1, 4)])
    ker = kernelize_single(g, 2, 0.5)
    prog = build_program(ker, 2)
    mv = solve(prog)
    assert mv.objective_value(prog.edges) >= 4 / 6 - 1e-6


def test_psd_gate_failure_reports_its_iterations(monkeypatch):
    calls = []

    def min_eigenvalue(self):
        calls.append(self)
        return -1.0

    monkeypatch.setattr(MomentVector, "min_eigenvalue", min_eigenvalue)
    with pytest.raises(ConvergenceError, match="min eigenvalue -1.00e\\+00") as info:
        solve(build_program(kernelize_single(k3(), 1, 0.5), 2))
    assert info.value.iterations >= 1
    assert len(calls) == 1


def test_level_validation():
    ker = kernelize_single(k3(), 1, 0.5)
    with pytest.raises(InputError):
        build_program(ker, 1)


def test_capacity_validation():
    g = WeightedGraph(16, [(0, 1, 1.0)])
    ker = kernelize_single(g, 8, 0.5)  # identity kernel keeps all 16 vertices
    with pytest.raises(CapacityError, match="n=16 exceeds cap 14"):
        build_program(ker, 2)


def test_infeasible_budget_detected():
    g = WeightedGraph(4, [(0, 1, 1.0)])
    inst = ConstrainedInstance(g, [{0, 1}, {2, 3}], [1, 1])
    ker = kernelize_multi(inst, 0.5)
    bad = type(ker)(
        reduced=ker.reduced,
        forbidden=ker.forbidden,
        parts=ker.parts,
        budgets=(2, 3),
        epsilon=ker.epsilon,
        orig_to_reduced=ker.orig_to_reduced,
        super_sources=ker.super_sources,
    )
    with pytest.raises(InfeasibleError):
        build_program(bad, 2)


def test_moment_matrix_psd_invariant():
    ker = kernelize_single(k3(), 1, 0.5)
    mv = solve(build_program(ker, 3))
    assert mv.min_eigenvalue() >= -1e-7
    assert mv.moment(()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# marginals and conditioning


def test_marginal_unbiased_single():
    mv = product_uniform(2, 2)
    mu = marginals(mv, [0])
    assert mu.prob((1,)) == pytest.approx(0.5, abs=1e-12)


def test_marginal_perfect_correlation():
    mv = perfectly_correlated_pair()
    mu = marginals(mv, [0, 1])
    assert mu.prob((1, 1)) == pytest.approx(0.5, abs=1e-12)
    assert mu.prob((-1, -1)) == pytest.approx(0.5, abs=1e-12)
    assert mu.prob((1, -1)) == pytest.approx(0.0, abs=1e-12)


def test_marginal_independent_pair():
    mv = product_uniform(2, 2)
    mu = marginals(mv, [0, 1])
    for assign in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        assert mu.prob(assign) == pytest.approx(0.25, abs=1e-12)


def test_marginal_support_capped_by_level():
    mv = product_uniform(4, 2)
    with pytest.raises(InputError):
        marginals(mv, [0, 1, 2])


def test_marginals_sum_to_one_on_solver_output():
    ker = kernelize_single(k3(), 1, 0.5)
    mv = solve(build_program(ker, 2))
    mu = marginals(mv, [0, 1])
    assert mu.total() == pytest.approx(1.0, abs=1e-7)
    assert all(-1e-7 <= p <= 1 + 1e-7 for p in mu.probs.values())


def test_condition_deterministic_variable():
    mv = mv_from_dist(2, 2, [(1.0, (1, -1))])
    child, lam = condition(mv, 0, 1)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert child.level == 1
    assert child.bias(1) == pytest.approx(-1.0, abs=1e-12)


def test_condition_perfect_correlation_forces_partner():
    mv = perfectly_correlated_pair()
    child, lam = condition(mv, 0, 1)
    assert lam == pytest.approx(0.5, abs=1e-12)
    assert child.bias(1) == pytest.approx(1.0, abs=1e-12)


def test_condition_product_leaves_marginals():
    mv = mv_from_dist(
        3,
        2,
        [
            (p0 * p1 * p2, (s0, s1, s2))
            for p0, s0 in ((0.7, 1), (0.3, -1))
            for p1, s1 in ((0.4, 1), (0.6, -1))
            for p2, s2 in ((0.5, 1), (0.5, -1))
        ],
    )
    child, lam = condition(mv, 0, 1)
    assert lam == pytest.approx(0.7, abs=1e-12)
    assert child.bias(1) == pytest.approx(mv.bias(1), abs=1e-12)
    assert child.bias(2) == pytest.approx(mv.bias(2), abs=1e-12)


def test_condition_degenerate_event():
    mv = mv_from_dist(2, 2, [(1.0, (1, -1))])
    with pytest.raises(DegenerateEventError):
        condition(mv, 0, -1)


def test_condition_level_floor():
    mv = product_uniform(2, 1)
    with pytest.raises(InputError):
        condition(mv, 0, 1)


def test_condition_convex_split():
    mv = mv_from_dist(2, 3, [(0.4, (1, 1)), (0.35, (1, -1)), (0.25, (-1, -1))])
    plus, lp = condition(mv, 0, 1)
    minus, lm = condition(mv, 0, -1)
    assert lp + lm == pytest.approx(1.0, abs=1e-12)
    recon = lp * plus.y + lm * minus.y
    parent = mv.y[mv.basis.pos[plus.basis.masks]]
    assert np.abs(recon - parent).max() <= 1e-12


# ---------------------------------------------------------------------------
# information quantities


def test_mi_independent_zero():
    assert mutual_information(product_uniform(2, 2), 0, 1) == 0.0


def test_mi_perfect_correlation_one_bit():
    assert mutual_information(perfectly_correlated_pair(2), 0, 1) == pytest.approx(
        1.0, abs=1e-12
    )


def test_mi_half_correlation_value():
    mv = mv_from_dist(2, 2, [(3 / 8, (1, 1)), (1 / 8, (1, -1)), (1 / 8, (-1, 1)), (3 / 8, (-1, -1))])
    assert mv.corr(0, 1) == pytest.approx(0.5, abs=1e-12)
    # independent evaluation of I = 2 H(1/2) - H(joint)
    joint = np.array([3 / 8, 1 / 8, 1 / 8, 3 / 8])
    expect = 2.0 - float(-(joint * np.log2(joint)).sum())
    assert mutual_information(mv, 0, 1) == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.18872, abs=5e-6)


def test_mi_requires_distinct():
    with pytest.raises(InputError):
        mutual_information(product_uniform(2, 2), 1, 1)


def test_block_score_product_zero():
    per_part, cross = block_independence_score(product_uniform(4, 2), [[0, 1], [2, 3]])
    assert per_part == [0.0, 0.0]
    assert cross == 0.0


def test_block_score_correlated_pair():
    per_part, cross = block_independence_score(perfectly_correlated_pair(2), [[0, 1]])
    assert per_part[0] == pytest.approx(1.0, abs=1e-12)
    assert cross == 0.0


def test_block_score_singleton_parts():
    mv = perfectly_correlated_pair(2)
    per_part, cross = block_independence_score(mv, [[0], [1]])
    assert per_part == [0.0, 0.0]
    assert cross == pytest.approx(mutual_information(mv, 0, 1), abs=1e-12)


@pytest.mark.parametrize("i, j", [(0, 5), (0, -1), (3, 0), (-3, 1)])
def test_mi_rejects_vertices_outside_the_graph(i, j):
    with pytest.raises(InputError, match="outside"):
        mutual_information(product_uniform(3, 2), i, j)


@pytest.mark.parametrize("i", [3, -1])
def test_entropy_rejects_vertices_outside_the_graph(i):
    with pytest.raises(InputError, match="outside"):
        entropy_of_vertex(product_uniform(3, 2), i)


BAD_PARTS = [
    ([[0, 5]], "outside"),
    ([[7], [0, 1]], "outside"),
    ([[0, -1]], "outside"),
    ([[0, 1], [1, 2]], "repeat"),
    ([[0, 0, 1]], "repeat"),
]


@pytest.mark.parametrize("parts, message", BAD_PARTS)
def test_part_scores_reject_bad_parts(parts, message):
    mv = product_uniform(3, 2)
    with pytest.raises(InputError, match=message):
        block_independence_score(mv, parts)
    with pytest.raises(InputError, match=message):
        iid_pair_information_sum(mv, parts)
    with pytest.raises(InputError, match=message):
        make_block_independent(mv, parts, 0.1, 0, rng_seed=0)


# ---------------------------------------------------------------------------
# the all-pairs information matrix against a reference from the marginals


def binary_entropy(p):
    p = min(max(p, 0.0), 1.0)
    return -sum(q * math.log2(q) for q in (p, 1.0 - p) if q > 0.0)


def reference_information(mv, i, j):
    """I(X_i; X_j) in bits from the local distribution on {i, j}."""
    probs = marginals(mv, (i, j)).probs
    total = sum(probs.values())
    joint = {a: p / total for a, p in probs.items()}

    def entropy(ps):
        return -sum(p * math.log2(p) for p in ps if p > 0.0)

    sides = [[sum(p for a, p in joint.items() if a[k] == s) for s in (1, -1)] for k in (0, 1)]
    return max(entropy(sides[0]) + entropy(sides[1]) - entropy(joint.values()), 0.0)


def reference_pair(mv, i, j):
    return binary_entropy((1.0 + mv.bias(i)) / 2.0) if i == j else reference_information(mv, i, j)


@st.composite
def explicit_distributions(draw):
    n = draw(st.integers(2, 5))
    points = draw(
        st.lists(
            st.tuples(st.integers(1, 50), st.tuples(*[st.sampled_from((1, -1))] * n)),
            min_size=1,
            max_size=6,
        )
    )
    total = sum(w for w, _ in points)
    return mv_from_dist(n, 2, [(w / total, a) for w, a in points])


@lru_cache(maxsize=1)
def corpus_relaxation():
    inst, _ = read_instance(str(CORPUS / "c2_n7.txt"))
    return solve(build_program(kernelize_multi(inst, 0.5), 0))


@st.composite
def conditioned_children(draw):
    mv = corpus_relaxation()
    for _ in range(draw(st.integers(0, mv.level - 2))):
        i = draw(st.integers(0, mv.n - 1))
        value = draw(st.sampled_from((1, -1)))
        if (1.0 + value * mv.bias(i)) / 2.0 >= 1e-6:
            mv, _ = condition(mv, i, value)
    return mv


MOMENT_VECTORS = st.one_of(explicit_distributions(), conditioned_children())


@settings(max_examples=40, derandomize=True, deadline=None)
@given(mv=MOMENT_VECTORS)
def test_information_matrix_matches_the_marginals(mv):
    info = information_matrix(mv)
    assert info.shape == (mv.n, mv.n)
    for i, j in product(range(mv.n), repeat=2):
        assert abs(info[i, j] - reference_pair(mv, i, j)) <= 1e-12
    assert np.abs(vertex_entropies(mv) - np.diag(info)).max() <= 1e-12


@settings(max_examples=20, derandomize=True, deadline=None)
@given(mv=MOMENT_VECTORS, data=st.data())
def test_iid_pair_information_sum_over_ordered_pairs(mv, data):
    # each vertex goes to one of three parts or to none; parts may be empty
    where = data.draw(st.lists(st.integers(-1, 2), min_size=mv.n, max_size=mv.n))
    parts = [[v for v in range(mv.n) if where[v] == p] for p in range(3)]
    expect = 0.0
    for a in parts:
        for b in parts:
            if a and b:
                pairs = sum(reference_pair(mv, i, j) for i in a for j in b)
                expect += pairs / (len(a) * len(b))
    assert iid_pair_information_sum(mv, parts) == pytest.approx(expect, abs=1e-12)


# ---------------------------------------------------------------------------
# block-independence search


def test_make_block_independent_early_exit():
    mv = product_uniform(3, 3)
    out = make_block_independent(mv, [[0, 1, 2]], 0.05, 1, rng_seed=0)
    assert out is mv


def test_make_block_independent_conditions_away_correlation():
    mv = perfectly_correlated_pair(3)
    out = make_block_independent(mv, [[0, 1]], 0.1, 1, rng_seed=1)
    assert mutual_information(out, 0, 1) <= 0.1
    assert out.level == 2


def test_make_block_independent_budget_validation():
    mv = perfectly_correlated_pair(2)
    with pytest.raises(InputError):
        make_block_independent(mv, [[0, 1]], 0.1, 1, rng_seed=0)


def test_make_block_independent_failure_carries_candidate():
    # budget 0 on a correlated input cannot succeed
    mv = perfectly_correlated_pair(2)
    with pytest.raises(SearchFailureError) as exc_info:
        make_block_independent(mv, [[0, 1]], 0.1, 0, rng_seed=0)
    assert exc_info.value.best is not None


def test_relaxation_dominance_small_corpus():
    checked = 0
    for s in range(12):
        inst = gen_random(6, 0.6, "unit", 1, "uniform", seed=300 + s)
        if not inst.graph.edges or not inst.has_half_budgets():
            continue
        ker = kernelize_multi(inst, 0.5)
        prog = build_program(ker, 0)
        mv = solve(prog)
        reduced_inst = ConstrainedInstance(ker.reduced, ker.parts, ker.budgets)
        opt = oracle_constrained(reduced_inst, forbidden=ker.forbidden)
        assert mv.objective_value(prog.edges) >= opt.opt_value - 1e-6
        checked += 1
    assert checked >= 8


def test_integral_moment_vector_matches_cut():
    g = k3()
    mv = integral_moment_vector(3, 2, {0})
    assert mv.objective_value(g.edges) == pytest.approx(2 / 3, abs=1e-12)
    assert mv.min_eigenvalue() >= -1e-9


def test_moment_vector_json_map():
    mv = perfectly_correlated_pair(2)
    obj = mv.to_json_dict()
    assert obj["level"] == 2 and obj["n"] == 2
    assert obj["y"][""] == 1.0
    assert obj["y"]["0,1"] == pytest.approx(1.0)
    assert obj["y"]["0"] == pytest.approx(0.0)


def test_mi_symmetry_and_nonnegativity():
    rng = np.random.default_rng(51)
    ker = kernelize_single(k3(), 1, 0.5)
    mv = solve(build_program(ker, 2))
    for i in range(3):
        for j in range(i + 1, 3):
            a = mutual_information(mv, i, j)
            b = mutual_information(mv, j, i)
            assert a == pytest.approx(b, abs=1e-12)
            assert a >= 0.0


def test_conditioned_children_stay_psd():
    # conditioning corresponds to localizing the moment matrix with the
    # indicator (1 +- x_i)/2; on solver output both branches must remain
    # PSD within tolerance one level down
    ker = kernelize_single(k3(), 1, 0.5)
    mv = solve(build_program(ker, 3))
    for i in range(3):
        b = mv.bias(i)
        for v in (1, -1):
            if (1 + v * b) / 2 < 1e-6:
                continue
            child, _ = condition(mv, i, v)
            assert child.min_eigenvalue() >= -1e-6


# ---------------------------------------------------------------------------
# super vertices substituted out of the relaxation

SEEDED = settings(max_examples=6, derandomize=True, deadline=None)


def reduced_optimum(ker):
    reduced_inst = ConstrainedInstance(ker.reduced, ker.parts, ker.budgets)
    return oracle_constrained(reduced_inst, forbidden=ker.forbidden).opt_value


@SEEDED
@given(
    n=st.integers(5, 12),
    c=st.integers(1, 2),
    seed=st.integers(0, 10**6),
)
def test_solve_pins_super_vertices_by_sign_flip(n, c, seed):
    ker = kernelize_multi(gen_random(n, 0.6, "uniform", c, "uniform", seed=seed), 0.5)
    assume(ker.forbidden)
    mv = solve(build_program(ker, 0))
    masks = mv.basis.masks
    for s in ker.forbidden:
        with_s = masks[(masks >> s) & 1 == 1]
        pos = mv.basis.pos
        assert np.array_equal(mv.y[pos[with_s]], -mv.y[pos[with_s ^ (1 << s)]])
        assert mv.bias(s) == -1.0


@SEEDED
@given(
    tail=st.lists(
        st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0)), min_size=5, max_size=7
    ),
    hub=st.floats(0.0, 0.1),
)
def test_relaxation_dominates_when_weight_runs_to_the_tail(tail, hub):
    # hubs 0 and 1 outrank every tail vertex, so the kernel keeps them and
    # contracts the tail: nearly all weight sits on edges to the super
    edges = [(0, 1, hub)]
    for i, (w0, w1) in enumerate(tail):
        edges += [(0, 2 + i, w0), (1, 2 + i, w1)]
    total = sum(w for _, _, w in edges)
    g = WeightedGraph(2 + len(tail), [(u, v, w / total) for u, v, w in edges])
    ker = kernelize_single(g, 1, 0.5)
    assert ker.reduced.n == 3 and len(ker.forbidden) == 1
    prog = build_program(ker, 0)
    mv = solve(prog)
    assert mv.objective_value(prog.edges) >= reduced_optimum(ker) - 1e-6


@SEEDED
@given(
    n=st.integers(6, 10),
    seed=st.integers(0, 10**6),
    w=st.floats(0.05, 1.0),
)
def test_edge_between_super_vertices_is_never_cut(n, seed, w):
    ker = kernelize_multi(gen_random(n, 0.7, "uniform", 2, "one", seed=seed), 0.5)
    s0, s1 = sorted(ker.forbidden)
    g = ker.reduced
    ker = type(ker)(
        reduced=WeightedGraph(g.n, g.edges + ((s0, s1, w),)),
        forbidden=ker.forbidden,
        parts=ker.parts,
        budgets=ker.budgets,
        epsilon=ker.epsilon,
        orig_to_reduced=ker.orig_to_reduced,
        super_sources=ker.super_sources,
    )
    prog = build_program(ker, 0)
    assert (s0, s1, w) in prog.edges
    obj = solve(prog).objective_value(prog.edges)
    opt = reduced_optimum(ker)
    assert obj >= opt - 1e-6
    # the level covers every selectable vertex, so the relaxation is exact
    assert prog.level >= g.n - 2
    assert obj <= opt + 1e-6


# ---------------------------------------------------------------------------
# the face forced by the cardinality rows


def lifted_null_vectors(prog):
    """v_T = sum_{i in K} e_{T ^ {i}} - t e_T on the lifted moment matrix,
    one column per part and per row T with |T| <= level - 1.

    Free row T stands for the m_T lifted rows T | S, S a set of supers, each
    a sign flip of it, so the largest ||M v|| over these columns equals the
    largest ||M_s D^-1 v_T|| on the scaled free matrix M_s = D M D.
    """
    rows = subset_basis(prog.n, prog.level)
    T = rows.masks[[bin(int(m)).count("1") <= prog.level - 1 for m in rows.masks]]
    cols = []
    for part, k in zip(prog.parts, prog.budgets):
        kept = sorted(part - prog.forbidden)
        W = np.zeros((rows.masks.size, T.size))
        for j, t in enumerate(T):
            for i in kept:
                W[rows.pos[int(t) ^ (1 << i)], j] += 1.0
            W[rows.pos[int(t)], j] -= 2 * k - len(kept)
        cols.append(W)
    return np.hstack(cols)


def pinned_kernel(n, c, with_supers, modes, seed):
    """Identity kernel on a random graph; with_supers pins the first vertex
    of every part of two or more vertices.  A part's budget is 0, all of its
    selectable vertices, or drawn between them, by its mode."""
    rng = np.random.default_rng(seed)
    edges = [
        (u, v, float(1.0 - rng.random()))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < 0.6
    ]
    order = rng.permutation(n)
    cuts = sorted(rng.choice(np.arange(1, n), size=c - 1, replace=False))
    parts = [frozenset(int(v) for v in p) for p in np.split(order, cuts)]
    supers = frozenset(min(p) for p in parts if with_supers and len(p) >= 2)
    budgets = []
    for p, mode in zip(parts, modes):
        avail = len(p - supers)
        drawn = int(rng.integers(0, avail + 1))
        budgets.append({"zero": 0, "full": avail, "any": drawn}[mode])
    return KernelResult(
        reduced=WeightedGraph(n, edges),
        forbidden=supers,
        parts=tuple(parts),
        budgets=tuple(budgets),
        epsilon=0.5,
        orig_to_reduced={v: v for v in range(n) if v not in supers},
        super_sources={s: frozenset({s}) for s in supers},
    )


@settings(max_examples=8, derandomize=True, deadline=None)
@given(
    n=st.integers(4, 8),
    c=st.integers(1, 2),
    with_supers=st.booleans(),
    modes=st.lists(st.sampled_from(["zero", "full", "any"]), min_size=2, max_size=2),
    seed=st.integers(0, 10**6),
)
@example(n=8, c=2, with_supers=False, modes=["zero", "full"], seed=1)
@example(n=7, c=2, with_supers=True, modes=["full", "zero"], seed=2)
@example(n=6, c=1, with_supers=True, modes=["any", "any"], seed=3)
@example(n=8, c=2, with_supers=False, modes=["any", "any"], seed=9)
def test_solution_lies_on_the_cardinality_face(n, c, with_supers, modes, seed):
    ker = pinned_kernel(n, c, with_supers, modes[:c], seed)
    prog = build_program(ker, 0)
    mv = solve(prog)
    W = lifted_null_vectors(prog)
    assert np.linalg.norm(mv.moment_matrix() @ W, axis=0).max() <= 1e-6
    assert mv.min_eigenvalue() >= -PSD_TOL
    assert mv.objective_value(prog.edges) >= reduced_optimum(ker) - 1e-6


def test_face_basis_is_the_orthogonal_complement_of_the_null_vectors():
    # with no supers D is the identity and the lifted rows are the free rows
    prog = build_program(pinned_kernel(8, 2, False, ["any", "any"], 5), 0)
    V = face_basis(prog)
    W = lifted_null_vectors(prog)
    N = moment_structure(prog.n, prog.level).dim_mat
    assert V.shape == (N, N - np.linalg.matrix_rank(W))
    assert np.allclose(V.T @ V, np.eye(V.shape[1]), atol=1e-12)
    assert np.abs(V.T @ W).max() <= 1e-12


def test_full_cone_reaches_the_face_objective(monkeypatch):
    # the face is exact: the same solver run on the whole PSD cone (V = I),
    # where the LMI has no interior, finds the same optimum
    ker = kernelize_multi(gen_random(7, 0.6, "uniform", 2, "uniform", seed=11), 0.5)
    prog = build_program(ker, 0)
    face = solve(prog).objective_value(prog.edges)
    N = moment_structure(prog.n - len(prog.forbidden), prog.level).dim_mat
    monkeypatch.setattr(moments, "face_basis", lambda program: np.eye(N))
    assert solve(prog).objective_value(prog.edges) == pytest.approx(face, abs=1e-7)


# ---------------------------------------------------------------------------
# the affine set in coordinates, y = q + K u


def test_affine_chart_with_dependent_rows():
    # c = 2: P's row at depth {q}, q in Q, and Q's at depth {p}, p in P,
    # both sum to the product of the two budget equations
    prog = build_program(pinned_kernel(7, 2, False, ["any", "any"], 4), 0)
    _, label, ms, _ = _free_rows(prog)
    B, d = _affine_rows(prog, ms.basis, label)
    B = B.toarray()
    assert np.linalg.matrix_rank(B) < B.shape[0]
    W = np.bincount(ms.class_idx.ravel(), minlength=ms.dim_y).astype(float)  # no supers
    q, K = _affine_chart(B, d, W)
    assert 0 < K.shape[1] == ms.dim_y - np.linalg.matrix_rank(B)
    assert np.abs(K.T @ (W[:, None] * K) - np.eye(K.shape[1])).max() <= 1e-10
    assert np.abs(K.T @ (W * q)).max() <= 1e-10
    null = lifted_null_vectors(prog)
    rng = np.random.default_rng(0)
    for u in [np.zeros(K.shape[1])] + [rng.normal(size=K.shape[1]) for _ in range(4)]:
        y = q + K @ u
        assert np.abs(B @ y - d).max() <= 1e-10
        assert np.linalg.norm(y[ms.class_idx] @ null) <= 1e-10


@pytest.mark.parametrize("with_supers", [False, True])
def test_single_feasible_point_solves(with_supers):
    # every budget 0 or full: the rows pin the moment vector, so k = 0
    ker = pinned_kernel(7, 2, with_supers, ["zero", "full"], 6)
    prog = build_program(ker, 0)
    _, label, ms, mult = _free_rows(prog)
    weight = np.outer(mult, mult).ravel()
    q, K = _affine_chart(
        *_affine_rows(prog, ms.basis, label),
        np.bincount(ms.class_idx.ravel(), weights=weight, minlength=ms.dim_y),
    )
    assert K.shape[1] == 0
    mv = solve(prog)
    chosen = [v for p, k in zip(ker.parts, ker.budgets) if k for v in p - ker.forbidden]
    assert np.allclose(mv.y, integral_moment_vector(prog.n, prog.level, chosen).y, atol=1e-9)
    assert mv.objective_value(prog.edges) == pytest.approx(reduced_optimum(ker), abs=1e-9)


# ---------------------------------------------------------------------------
# the interior-point solver

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# relaxation objectives of the corpus at the default Config, as the ADMM
# solver that preceded the interior-point method returned them
ADMM_OBJECTIVES = {
    "c1_n6.txt": 0.7777777780483479,
    "c1_n6_uniform_matroid.txt": 0.7837014323005004,
    "c1_n7.json": 0.8181818180945339,
    "c2_n7.txt": 0.8000000001389153,
    "c2_n8.txt": 0.7500000002211269,
}


@pytest.mark.parametrize("name", sorted(ADMM_OBJECTIVES))
def test_corpus_objective_matches_the_admm_answer(name):
    inst, _ = read_instance(str(CORPUS / name))
    prog = build_program(kernelize_multi(inst, 0.5), 0)
    mv = solve(prog)
    assert mv.objective_value(prog.edges) == pytest.approx(ADMM_OBJECTIVES[name], abs=1e-6)
    assert mv.min_eigenvalue() >= -PSD_TOL


def test_newton_step_cap_reports_the_gap(monkeypatch):
    monkeypatch.setattr(moments, "SDP_MAX_ITER", 1)
    prog = build_program(pinned_kernel(8, 2, False, ["any", "any"], 5), 0)
    with pytest.raises(ConvergenceError, match="after 1 Newton steps \\(gap ") as info:
        solve(prog)
    assert info.value.iterations == 1
    assert info.value.primal is not None and info.value.dual is not None


def test_singular_face_block_at_the_chart_origin_solves(monkeypatch):
    # here Lq = V' M(q) V is singular to rounding (r 35, k 1), so the
    # start cannot take S = Lq
    seen = []
    run = moments._interior_point

    def recording(Lq, Lu, kc, tol, max_steps):
        seen.append((Lq, kc.size))
        return run(Lq, Lu, kc, tol, max_steps)

    monkeypatch.setattr(moments, "_interior_point", recording)
    ker = pinned_kernel(8, 2, False, ["any", "any"], 9)
    prog = build_program(ker, 0)
    mv = solve(prog)
    ((Lq, k),) = seen
    assert (Lq.shape, k) == ((35, 35), 1)
    assert np.linalg.eigvalsh(Lq)[0] <= 1e-12
    assert mv.min_eigenvalue() >= -PSD_TOL
    assert mv.objective_value(prog.edges) >= reduced_optimum(ker) - 1e-6


# ---------------------------------------------------------------------------
# one BLAS thread per solve

needs_proc_maps = pytest.mark.skipif(
    not Path("/proc/self/maps").exists(), reason="no /proc/self/maps to find OpenBLAS in"
)


def blas_counts():
    """The thread count of every OpenBLAS the solver caps, read by setting it
    and setting it back."""
    counts = []
    for set_local in _blas._openblas_thread_setters():
        count = set_local(1)
        set_local(count)
        counts.append(count)
    return counts


@pytest.fixture
def two_blas_threads():
    """Runs the test with every capped OpenBLAS at two threads, so a restored
    count differs from the cap, and puts the counts back afterwards."""
    saved = [(f, f(2)) for f in _blas._openblas_thread_setters()]
    yield [2] * len(saved)
    for set_local, count in saved:
        set_local(count)


@needs_proc_maps
def test_solve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch, two_blas_threads):
    inside = []
    run = moments._interior_point

    def spying(*args):
        inside.append(blas_counts())
        return run(*args)

    monkeypatch.setattr(moments, "_interior_point", spying)
    prog = build_program(pinned_kernel(8, 2, False, ["any", "any"], 5), 0)
    solve(prog)
    assert inside == [[1] * len(two_blas_threads)]
    assert blas_counts() == two_blas_threads


@needs_proc_maps
def test_failed_solve_restores_the_blas_count(monkeypatch, two_blas_threads):
    monkeypatch.setattr(moments, "SDP_MAX_ITER", 1)
    prog = build_program(pinned_kernel(8, 2, False, ["any", "any"], 5), 0)
    with pytest.raises(ConvergenceError):
        solve(prog)
    assert blas_counts() == two_blas_threads


@needs_proc_maps
def test_concurrent_solves_leave_the_blas_count_as_it_was(two_blas_threads):
    programs = [
        build_program(kernelize_multi(read_instance(str(CORPUS / name))[0], 0.5), 0)
        for name in ("c1_n6.txt", "c2_n7.txt", "c1_n7.json")
    ]
    expected = [solve(prog).y for prog in programs]
    results = {}

    def worker(t):
        order = [(t + i) % len(programs) for i in range(2 * len(programs))]
        results[t] = [(i, solve(programs[i]).y) for i in order]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(3)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert sorted(results) == [0, 1, 2]
    for answers in results.values():
        for i, y in answers:
            assert np.array_equal(y, expected[i])
    assert blas_counts() == two_blas_threads


def test_openblas_lookup_finds_numpys_bundled_blas():
    # a renamed wheel library must not silently drop the one-thread cap
    if not sys.platform.startswith("linux"):
        pytest.skip("the OpenBLAS lookup reads /proc/self/maps")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy is built against {blas.get('name')}, not scipy-openblas")
    assert len(_blas._openblas_thread_setters()) >= 1
