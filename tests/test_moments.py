import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import replace
from functools import lru_cache
from itertools import combinations, product
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
from cutkit import _blas, _highs, moments
from cutkit.moments import (
    MomentVector,
    _affine_chart,
    _affine_rows,
    _free_rows,
    block_independence_score,
    build_program,
    condition,
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


@pytest.mark.parametrize("n, max_size", [(0, 2), (1, 0), (5, 2), (7, 9), (10, 4)])
def test_subset_basis_lists_masks_by_size_then_value(n, max_size):
    want = [
        sum(1 << v for v in c)
        for size in range(min(max_size, n) + 1)
        for c in sorted(combinations(range(n), size), key=lambda c: sum(1 << v for v in c))
    ]
    basis = subset_basis(n, max_size)
    assert basis.masks.dtype == np.int64 and basis.masks.tolist() == want
    assert basis.pos[basis.masks].tolist() == list(range(len(want)))
    assert np.count_nonzero(basis.pos >= 0) == len(want)


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

    def min_eigenvalue(*args):
        calls.append(args)
        return -1.0

    monkeypatch.setattr(moments, "_lifted_min_eigenvalue", min_eigenvalue)
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


# a vertex >= n raised a bare IndexError, -1 "negative shift count", and
# moment([3, 3]) returned E[x_3] where E[x_3^2] is 1
@pytest.mark.parametrize(
    "read, message",
    [
        (lambda mv: mv.bias(7), "outside"),
        (lambda mv: mv.bias(-1), "outside"),
        (lambda mv: mv.corr(0, 5), "outside"),
        (lambda mv: mv.moment([2, -1]), "outside"),
        (lambda mv: marginals(mv, [9]), "outside"),
        (lambda mv: mv.moment([3, 3]), "repeated"),
    ],
    ids=["bias_7", "bias_-1", "corr_0_5", "moment_2_-1", "marginals_9", "moment_3_3"],
)
def test_moment_reads_refuse_vertices_outside_the_graph_and_repeats(read, message):
    mv = integral_moment_vector(5, 2, {3})
    assert mv.moment([3]) == 1.0 and mv.corr(1, 3) == -1.0
    with pytest.raises(InputError, match=message):
        read(mv)


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(2, 8),
    n=st.integers(4, 9),
    data=st.data(),
)
def test_part_scores_of_a_stack_are_each_members_own_bit_for_bit(seed, batch, n, data):
    # conditioning scores the paths of a depth as one stack, and ties go by
    # restart order: a path's score must not hang on which paths share it
    info = np.random.default_rng(seed).random((batch, n, n))
    where = data.draw(st.lists(st.integers(-1, 2), min_size=n, max_size=n))
    parts = [[v for v in range(n) if where[v] == p] for p in range(3)]
    stacked = moments._part_scores(info, parts)
    for b in range(batch):
        assert stacked[b].tobytes() == moments._part_scores(info[b], parts).tobytes()


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


def test_each_sampled_conditioning_path_is_conditioned_once(monkeypatch):
    # every restart starts from the same vector, so on c1_n6.txt most of the
    # RESTARTS sampled paths repeat an earlier one
    from cutkit.rounding import solve_multi

    steps = []

    def recording(mv, i, value):
        steps.append((mv.y.tobytes(), int(i), int(value)))
        return condition(mv, i, value)

    monkeypatch.setattr(moments, "condition", recording)
    inst, _ = read_instance(str(CORPUS / "c1_n6.txt"))
    solve_multi(inst, 0.5)
    assert 0 < len(steps) < moments.RESTARTS
    assert len(set(steps)) == len(steps)


def reference_objective(mv, edges):
    total = 0.0
    for u, v, w in edges:
        total += w * (1.0 - mv.corr(u, v)) / 2.0
    return total


def reference_block_independent(m, parts, alpha, budget_L, rng_seed, edges=None):
    """make_block_independent as a restart-by-restart loop that conditions
    and scores one path at a time; parts are sorted and nonempty."""

    def worst_part(mv):
        upper = np.triu(information_matrix(mv), 1)
        return max(
            float(upper[np.ix_(p, p)].sum() / (len(p) * (len(p) - 1) / 2)) if len(p) > 1 else 0.0
            for p in parts
        )

    start_obj = reference_objective(m, edges) if edges is not None else None

    def winner_key(mv, worst):
        if worst > alpha:
            return None
        if start_obj is None:
            return worst
        obj = reference_objective(mv, edges)
        return None if obj < start_obj - alpha - 1e-9 else -obj

    if winner_key(m, worst_part(m)) is not None:
        return m

    def scored(mv, vertex, value):
        try:
            nxt, _ = condition(mv, vertex, value)
        except DegenerateEventError:
            return None
        worst = worst_part(nxt)
        return nxt, worst, winner_key(nxt, worst)

    seen = {}
    best_candidate = None
    winners = []
    for r in range(moments.RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, r)))
        cur, path = m, ()
        for _ in range(budget_L):
            for _ in range(16):
                block = parts[rng.integers(len(parts))]
                vertex = int(block[rng.integers(len(block))])
                step = path + ((vertex, moments.sample_value(cur, vertex, rng)),)
                if step not in seen:
                    seen[step] = scored(cur, *step[-1])
                if seen[step] is not None:
                    break
            else:
                break
            path = step
            cur, worst, key = seen[path]
            if best_candidate is None or worst < best_candidate[0]:
                best_candidate = (worst, r, cur)
            if key is not None:
                winners.append((key, r, cur))
                break
    if winners:
        winners.sort(key=lambda t: (t[0], t[1]))
        return winners[0][2]
    raise SearchFailureError("no candidate", best=best_candidate[2] if best_candidate else m)


@lru_cache(maxsize=None)
def small_relaxation(n, c, seed, level, eps):
    from cutkit import Config
    from cutkit.rounding import relax_multi

    return relax_multi(gen_random(n, 0.6, "uniform", c, "uniform", seed=seed), eps, Config(level=level))


def search_outcome(search, *args, **kwargs):
    """(won, y bytes, level) of a search's answer, or of the best candidate
    its SearchFailureError carries."""
    try:
        out, won = search(*args, **kwargs), True
    except SearchFailureError as exc:
        out, won = exc.best, False
    return won, out.y.tobytes(), out.level


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(6, 9),
    c=st.integers(1, 2),
    seed=st.integers(0, 2),
    level=st.sampled_from([3, 4]),
    eps=st.sampled_from([0.5, 0.3]),
    strict=st.booleans(),
    with_edges=st.booleans(),
    rng_seed=st.integers(0, 2**64),
)
@example(n=8, c=2, seed=0, level=4, eps=0.3, strict=False, with_edges=True, rng_seed=7)
@example(n=9, c=1, seed=1, level=4, eps=0.5, strict=True, with_edges=True, rng_seed=12)
def test_search_by_depth_matches_the_restart_loop(
    n, c, seed, level, eps, strict, with_edges, rng_seed
):
    # alpha 0 lets no candidate qualify, so the search fails and reports
    # the best one of every restart's steps
    relax = small_relaxation(n, c, seed, level, eps)
    parts = [sorted(p - relax.kernel.forbidden) for p in relax.kernel.parts]
    parts = [p for p in parts if p]
    alpha = 0.0 if strict else eps**6
    edges = relax.program.edges if with_edges else None
    args = (relax.moments, parts, alpha, relax.moments.level - 2, rng_seed)
    got = search_outcome(make_block_independent, *args, edges=edges)
    assert got == search_outcome(reference_block_independent, *args, edges=edges)
    assert relax.moments.objective_value(relax.program.edges) == reference_objective(
        relax.moments, relax.program.edges
    )


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(3, 5),
    points=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 31)), min_size=1, max_size=4),
    split=st.integers(1, 5),
    alpha=st.sampled_from([0.0, 0.05, 1.0]),
    with_edges=st.booleans(),
    rng_seed=st.integers(0, 2**64),
)
def test_search_ties_go_to_the_first_restart(n, points, split, alpha, with_edges, rng_seed):
    # distributions on a few points, with small weights, give many distinct
    # vectors with equal scores and equal objectives
    total = sum(w for w, _ in points)
    mv = mv_from_dist(
        n, 3, [(w / total, [1 if bits >> v & 1 else -1 for v in range(n)]) for w, bits in points]
    )
    parts = [p for p in (list(range(min(split, n))), list(range(min(split, n), n))) if p]
    edges = [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)] if with_edges else None
    args = (mv, parts, alpha, 1, rng_seed)
    got = search_outcome(make_block_independent, *args, edges=edges)
    assert got == search_outcome(reference_block_independent, *args, edges=edges)
    if with_edges:
        assert mv.objective_value(edges) == reference_objective(mv, edges)


def test_relaxation_dominance_small_corpus():
    checked = 0
    for s in range(12):
        inst = gen_random(6, 0.6, "unit", 1, "uniform", seed=300 + s)
        if not inst.graph.edges:
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
    moments._geometry.cache_clear()  # the first solve kept the face's geometry
    assert solve(prog).objective_value(prog.edges) == pytest.approx(face, abs=1e-7)


# ---------------------------------------------------------------------------
# the affine set in coordinates, y = q + K u


def test_affine_chart_with_dependent_rows():
    # c = 2: P's row at depth {q}, q in Q, and Q's at depth {p}, p in P,
    # both sum to the product of the two budget equations
    prog = build_program(pinned_kernel(7, 2, False, ["any", "any"], 4), 0)
    _, label, ms, _ = _free_rows(prog)
    rows, d = _affine_rows(prog, ms.basis, label)
    B = rows.toarray()
    assert np.linalg.matrix_rank(B) < B.shape[0]
    W = np.bincount(ms.class_idx.ravel(), minlength=ms.dim_y).astype(float)  # no supers
    q, K = _affine_chart(rows, d, W)
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

# Newton steps of each corpus program at the default Config, as the solver
# took them with an eigendecomposition of the Schur matrix
NEWTON_STEPS = {
    "c1_n6.txt": 7,
    "c1_n6_uniform_matroid.txt": 8,
    "c1_n7.json": 8,
    "c2_n7.txt": 8,
    "c2_n8.txt": 8,
}


@pytest.mark.parametrize("name", sorted(ADMM_OBJECTIVES))
def test_corpus_objective_matches_the_admm_answer(name, monkeypatch):
    steps = []
    run = moments._interior_point

    def counting(*args):
        out = run(*args)
        steps.append(out[1])
        return out

    monkeypatch.setattr(moments, "_interior_point", counting)
    inst, _ = read_instance(str(CORPUS / name))
    prog = build_program(kernelize_multi(inst, 0.5), 0)
    mv = solve(prog)
    assert mv.objective_value(prog.edges) == pytest.approx(ADMM_OBJECTIVES[name], abs=1e-6)
    assert mv.min_eigenvalue() >= -PSD_TOL
    assert steps == [NEWTON_STEPS[name]]


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
# the geometry, built once per canonical program


def solve_outcome(prog):
    """(Newton steps, y bytes or the ConvergenceError's message, objective)."""
    steps = []
    run = moments._interior_point

    def counting(*args):
        out = run(*args)
        steps.append(out[1])
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(moments, "_interior_point", counting)
        try:
            mv = solve(prog)
        except ConvergenceError as exc:
            return exc.iterations, str(exc), None
    return steps[0], mv.y.tobytes(), mv.objective_value(prog.edges)


def relabelled(inst, rng):
    """An isomorphic copy of inst under random vertex labels, its parts and
    budgets listed in reverse order."""
    perm = rng.permutation(inst.graph.n)
    graph = WeightedGraph(inst.graph.n, [(perm[u], perm[v], w) for u, v, w in inst.graph.edges])
    parts = [frozenset(int(perm[v]) for v in p) for p in inst.parts]
    return ConstrainedInstance(graph, parts[::-1], inst.budgets[::-1])


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    n=st.integers(8, 14),
    c=st.integers(1, 4),
    eps=st.sampled_from([0.5, 0.25]),
    law=st.sampled_from(["one", "uniform", "half"]),
    seed=st.integers(0, 10**6),
)
def test_property_a_cached_geometry_answers_as_a_cold_one(n, c, eps, law, seed):
    # weights drawn from (0, 1] leave no degree ties, so the kernel keeps
    # the same vertices of the relabelled copy
    inst = gen_random(n, 0.5, "uniform", c, law, seed=seed)
    try:
        prog = build_program(kernelize_multi(inst, eps), 0)
    except CapacityError:
        assume(False)
    # keeps every solve of the property well under a second
    assume(moments.basis_dim(prog.n - len(prog.forbidden), prog.level) <= 93)
    moments._geometry.cache_clear()
    cold = solve_outcome(prog)
    assert solve_outcome(prog) == cold
    assert moments._geometry.cache_info()[:3] == (1, 1, 1)  # hits, builds, entries
    copy = build_program(kernelize_multi(relabelled(inst, np.random.default_rng(seed)), eps), 0)
    assert moments._canonical(copy)[0] == moments._canonical(prog)[0]
    steps, _, objective = solve_outcome(copy)
    assert moments._geometry.cache_info()[:3] == (2, 1, 1)
    assert steps == cold[0]
    if objective is None or cold[2] is None:
        assert objective is None and cold[2] is None
    else:
        assert objective == pytest.approx(cold[2], abs=1e-9)


def test_canonical_layout_puts_free_vertices_outside_every_part_last():
    # parts of kept sizes 2 and 1 (one super each), vertex 3 in no part
    prog = moments.SdpProgram(
        n=7,
        level=2,
        edges=((0, 3, 0.5), (1, 5, 0.5)),
        parts=(frozenset({0, 5, 6}), frozenset({4, 1})),
        budgets=(1, 0),
        forbidden=frozenset({6, 1}),
    )
    canonical, free = moments._canonical(prog)
    assert free == [4, 0, 5, 2, 3]
    assert canonical.parts == (frozenset({0}), frozenset({1, 2}))
    assert canonical.budgets == (0, 1)
    assert canonical.forbidden == frozenset({5, 6}) and canonical.edges == ()
    mv = solve(prog)
    assert [mv.bias(v) for v in (1, 4, 6)] == [-1.0, pytest.approx(-1.0, abs=1e-6), -1.0]
    assert mv.objective_value(prog.edges) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(InputError, match="parts repeat a vertex"):
        moments._canonical(replace(prog, parts=(frozenset({0, 5}), frozenset({0, 4}))))


def test_geometry_cache_keeps_read_only_arrays_within_its_bounds(monkeypatch):
    programs = [
        build_program(pinned_kernel(n, 2, with_supers, ["any", "any"], seed), 0)
        for n, with_supers, seed in [(6, False, 1), (7, True, 2), (8, False, 3), (8, True, 4)]
    ]
    canonicals = [moments._canonical(prog)[0] for prog in programs]
    assert len(set(canonicals)) == len(canonicals)
    sizes = [moments._geometry(p).nbytes for p in canonicals]
    geometry = moments._geometry(canonicals[sizes.index(max(sizes))])
    assert geometry.A.size
    for array in geometry:
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        geometry.K[0, 0] = 1.0
    assert np.shares_memory(geometry.Lu, geometry.A)

    monkeypatch.setattr(moments, "_GEOMETRY_CACHE_ENTRIES", 2)
    moments._geometry.cache_clear()
    for prog in programs:
        solve(prog)
    info = moments._geometry.cache_info()
    assert (info.hits, info.builds, info.entries) == (0, 4, 2)
    assert info.nbytes == sum(sizes[2:])  # the two most recent

    # a geometry larger than the byte bound is returned and not kept
    monkeypatch.setattr(moments, "_GEOMETRY_CACHE_ENTRIES", 32)
    monkeypatch.setattr(moments, "_GEOMETRY_CACHE_BYTES", max(sizes) - 1)
    moments._geometry.cache_clear()
    for prog in programs + programs:
        solve(prog)
    info = moments._geometry.cache_info()
    assert info.nbytes <= max(sizes) - 1 and info.entries < len(programs)
    assert info.builds > len(programs)
    assert info.hits + info.builds == 2 * len(programs)


def test_concurrent_solves_share_the_geometry_cache(monkeypatch):
    # four threads on a cold cache that keeps two of the three shapes, so
    # lookups, builds and evictions interleave
    programs = [
        build_program(pinned_kernel(n, 2, with_supers, ["any", "any"], seed), 0)
        for n, with_supers, seed in [(7, True, 2), (8, False, 3), (8, True, 4)]
    ]
    expected = [solve(prog).y for prog in programs]
    monkeypatch.setattr(moments, "_GEOMETRY_CACHE_ENTRIES", 2)
    moments._geometry.cache_clear()
    results = {}

    def worker(t):
        order = [(t + i) % len(programs) for i in range(3 * len(programs))]
        results[t] = [(i, solve(programs[i]).y) for i in order]

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
    for answers in results.values():
        for i, y in answers:
            assert y.tobytes() == expected[i].tobytes()
    info = moments._geometry.cache_info()
    assert info.hits + info.builds == 4 * 3 * len(programs)  # no count lost
    assert info.entries <= 2


# ---------------------------------------------------------------------------
# the chart without scipy.linalg or scipy.sparse, against the scipy path it
# replaces, bit for bit; the face basis against scipy's null space, as a span


def scipy_rows(rows):
    import scipy.sparse

    return scipy.sparse.csr_array((rows.vals, (rows.rows, rows.cols)), shape=rows.shape)


def scipy_chart(rows, d, weights):
    """_affine_chart as it read on scipy.sparse and scipy.linalg."""
    import scipy.linalg
    import scipy.sparse

    B = scipy_rows(rows)
    root = np.sqrt(weights)
    A = scipy.sparse.csr_array(B / root[None, :])
    G = np.asfortranarray((A.T @ A).toarray())
    U, piv, rank, _ = scipy.linalg.lapack.dpstrf(G, overwrite_a=True)
    piv -= 1
    U1, U2 = U[:rank, :rank], U[:rank, rank:]
    K = np.zeros((A.shape[1], A.shape[1] - rank))
    K[piv[:rank]] = -scipy.linalg.solve_triangular(U1, U2)
    K[piv[rank:], np.arange(K.shape[1])] = 1.0
    for _ in range(2):
        K = np.linalg.solve(np.linalg.cholesky(K.T @ K), K.T).T
    q = np.zeros(A.shape[1])
    q[piv[:rank]] = scipy.linalg.cho_solve((U1, False), (A.T @ d)[piv[:rank]])
    q -= K @ (K.T @ q)
    return (A.T @ A).toarray(), q / root, K / root[:, None]


@lru_cache(maxsize=1)
def chart_programs():
    """The corpus programs, and pinned ones with and without super vertices."""
    progs = {}
    for name in sorted(ADMM_OBJECTIVES):
        inst, _ = read_instance(str(CORPUS / name))
        progs[name] = build_program(kernelize_multi(inst, 0.5), 0)
    for with_supers in (False, True):
        ker = pinned_kernel(8, 2, with_supers, ["any", "any"], 5)
        progs[f"pinned-supers-{with_supers}"] = build_program(ker, 0)
    progs["single-point"] = build_program(pinned_kernel(7, 2, True, ["zero", "full"], 6), 0)
    return progs


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()  # tobytes reads C order


@pytest.mark.parametrize("name", sorted(chart_programs()))
def test_chart_and_face_basis_match_scipy_bit_for_bit(name):
    import scipy.linalg

    prog = chart_programs()[name]
    _, label, ms, mult = _free_rows(prog)
    rows, d = _affine_rows(prog, ms.basis, label)
    weights = np.bincount(
        ms.class_idx.ravel(), weights=np.outer(mult, mult).ravel(), minlength=ms.dim_y
    )
    assert same_bits(rows.toarray(), scipy_rows(rows).toarray())
    G, q, K = scipy_chart(rows, d, weights)
    scaled = rows._replace(vals=rows.vals * np.divide(1, np.sqrt(weights))[rows.cols])
    assert same_bits(moments._gram(scaled), G)
    got_q, got_K = _affine_chart(rows, d, weights)
    assert same_bits(got_q, q) and same_bits(got_K, K)
    V, want = face_basis(prog), scipy.linalg.null_space(scaled_null_rows(prog))
    assert V.shape == want.shape
    assert np.abs(V @ V.T - want @ want.T).max() <= 1e-12


@pytest.mark.parametrize("name", sorted(chart_programs()))
def test_the_free_block_gate_is_the_lifted_matrix_smallest_eigenvalue(name, monkeypatch):
    prog = chart_programs()[name]
    canonical, free = moments._canonical(prog)
    geometry = moments._geometry(canonical)
    gate, calls = moments._lifted_min_eigenvalue, []

    def recording(*args):
        calls.append((args, gate(*args)))
        return calls[-1][1]

    def assert_gate_is_lifted(args, got):
        y = moments._lift(args[0], prog.n, prog.level, free)
        M = MomentVector(prog.n, prog.level, y).moment_matrix()
        assert abs(got - moments._min_eigenvalue(M)) <= 1e-12 * M.diagonal().max()

    # the solver's answer, which passes the gate
    monkeypatch.setattr(moments, "_lifted_min_eigenvalue", recording)
    solve(prog)
    ((args, got),) = calls
    _, n_free, level, root, supers = args
    assert (n_free, level, supers) == (len(free), prog.level, bool(prog.forbidden))
    assert root is geometry.root  # kept with the cached geometry
    assert got >= -PSD_TOL
    assert_gate_is_lifted(args, got)
    # the identity holds for any free vector: the uniform distribution,
    # whose free block is the identity, and vectors off the PSD cone
    uniform = np.zeros(geometry.q.size)
    uniform[0] = 1.0
    got = gate(uniform, *args[1:])
    assert got == (0.0 if supers else 1.0)
    assert_gate_is_lifted((uniform,) + args[1:], got)
    rng = np.random.default_rng(7)
    for _ in range(3):
        y = rng.standard_normal(geometry.q.size)
        y[0] = 1.0
        got = gate(y, *args[1:])
        assert got < -PSD_TOL
        assert_gate_is_lifted((y,) + args[1:], got)


def transposed_column_operator(prog):
    """The LMI operator built as an r^2 x k array whose column j is
    vec(V' M(K e_j) V), then transposed and made contiguous."""
    _, _, ms, mult = _free_rows(prog)
    K, V = moments._geometry(prog).K, face_basis(prog)
    scale = np.sqrt(np.outer(mult, mult))
    r = V.shape[1]
    L = np.empty((r * r, K.shape[1]))
    for j in range(K.shape[1]):
        L[:, j] = (V.T @ (K[:, j][ms.class_idx] * scale) @ V).ravel()
    return np.ascontiguousarray(L.T).reshape(-1, r, r)


# c1_n7.json and c2_n7.txt have a super vertex
@pytest.mark.parametrize("name", ["c1_n6.txt", "c1_n7.json", "c2_n7.txt", "c2_n8.txt"])
def test_face_operator_matches_the_transposed_column_build_bit_for_bit(name):
    canonical, _ = moments._canonical(chart_programs()[name])
    geometry = moments._geometry(canonical)
    assert geometry.A.shape[0] > 0 and geometry.A.flags.c_contiguous
    assert same_bits(geometry.A, transposed_column_operator(canonical))
    assert np.shares_memory(geometry.Lu, geometry.A)


@pytest.mark.parametrize("rows", [1, 3])
def test_newton_step_in_slices_gives_the_same_bits(rows, monkeypatch):
    # c2_n8.txt has k 35 and r 36: one slice at the default bound, and 3
    # rows a slice leave a shorter last slice
    steps, newton_step = [], moments._newton_step

    def recording(*args):
        out = newton_step(*args)
        steps.append((args, out))
        return out

    monkeypatch.setattr(moments, "_newton_step", recording)
    solve(chart_programs()["c2_n8.txt"])
    A = steps[0][0][0]
    k, r, _ = A.shape
    assert (k, r) == (35, 36) and moments._SCHUR_SLICE >= k * r * r
    monkeypatch.setattr(moments, "_SCHUR_SLICE", 1 if rows == 1 else rows * r * r)
    for args, want in steps:
        got = newton_step(*args)
        assert all(same_bits(a, b) for a, b in zip(got, want))


def scaled_null_rows(prog):
    """The rows D^-1 v_T of the scaled free matrix D M D as a dense array,
    part by part, then by free row T with |T| <= level - 1 (see
    `face_basis`), built here entry by entry."""
    _, label, ms, mult = _free_rows(prog)
    rows = []
    for part, k in zip(prog.parts, prog.budgets):
        kept = [label[v] for v in sorted(part - prog.forbidden)]
        for t in ms.row_masks:
            if bin(int(t)).count("1") < prog.level:
                v = np.zeros(ms.dim_mat)
                for i in kept:
                    v[ms.basis.pos[int(t) ^ (1 << i)]] = 1.0
                v[ms.basis.pos[int(t)]] = len(kept) - 2.0 * k
                rows.append(v / np.sqrt(mult))
    return np.array(rows)


def kernelized(n, c, law, eps, seed):
    return kernelize_multi(gen_random(n, 0.5, "unit", c, law, seed=seed), eps)


def pinned(n, c, with_supers, modes, seed):
    return pinned_kernel(n, c, with_supers, modes[:c], seed)


@settings(max_examples=20, derandomize=True, deadline=None)
@given(
    ker=st.one_of(
        st.builds(
            kernelized,
            st.integers(6, 12),
            st.integers(1, 3),
            st.sampled_from(["one", "uniform", "half"]),
            st.sampled_from([0.5, 0.25]),
            st.integers(0, 10**6),
        ),
        st.builds(
            pinned,
            st.integers(6, 12),
            st.integers(1, 3),
            st.booleans(),
            st.lists(st.sampled_from(["zero", "full", "any"]), min_size=3, max_size=3),
            st.integers(0, 10**6),
        ),
    )
)
# every budget 0 or full, so one feasible point; with supers the face is its one line
@example(ker=pinned_kernel(7, 2, False, ["zero", "full"], 6))
@example(ker=pinned_kernel(7, 2, True, ["zero", "full"], 6))
def test_the_integral_optimum_satisfies_the_chart_and_lies_on_the_face(ker):
    prog = build_program(ker, 0)
    _, label, ms, mult = _free_rows(prog)
    V, null = face_basis(prog), scaled_null_rows(prog)
    assert V.shape == (ms.dim_mat, ms.dim_mat - np.linalg.matrix_rank(null))
    assert np.abs(V.T @ V - np.eye(V.shape[1])).max() <= 1e-12
    assert np.abs(null @ V).max() <= 1e-12 * np.abs(null).max()
    best = oracle_constrained(
        ConstrainedInstance(ker.reduced, ker.parts, ker.budgets), forbidden=ker.forbidden
    ).best_set
    y = integral_moment_vector(ms.n, prog.level, [label[v] for v in best]).y
    rows, d = _affine_rows(prog, ms.basis, label)
    assert np.abs(rows.toarray() @ y - d).max() <= 1e-12
    x = np.sqrt(mult) * y[ms.basis.pos[ms.row_masks]]  # its monomials on the scaled rows
    assert np.linalg.norm(V @ (V.T @ x) - x) <= 1e-9


@pytest.mark.parametrize(
    "imports", ["import cutkit.moments, scipy.linalg", "import scipy.linalg, cutkit.moments"]
)
def test_flapack_is_one_module_in_either_import_order(imports):
    src = Path(__file__).resolve().parent.parent / "src"
    probe = (
        f"{imports}; import json, sys; "
        "from scipy.linalg import _flapack, lapack; "
        "x = scipy.linalg.solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 2.0]); "
        f"registered = sys.modules[{_highs.FLAPACK!r}]; "
        "print(json.dumps([_flapack is cutkit.moments._flapack is registered, "
        "lapack.dpstrf is _flapack.dpstrf, x.tolist()]))"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(res.stdout) == [True, True, [1.0, 0.5]]


def test_missing_flapack_names_the_folder_and_scipy(tmp_path, monkeypatch):
    import scipy

    monkeypatch.delitem(sys.modules, _highs.FLAPACK)
    with pytest.raises(ImportError) as info:
        _highs.load(_highs.FLAPACK, str(tmp_path))
    assert str(tmp_path) in str(info.value) and scipy.__version__ in str(info.value)
    assert _highs.FLAPACK in str(info.value) and _highs.FLAPACK not in sys.modules


def _fresh_python(probe):
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(res.stdout)


@pytest.mark.parametrize("callers", [None, "7"])
def test_load_sets_the_idle_worker_timeout_only_while_it_maps(monkeypatch, callers):
    import importlib.util

    key = "OPENBLAS_THREAD_TIMEOUT"
    if callers is None:
        monkeypatch.delenv(key, raising=False)
    else:
        monkeypatch.setenv(key, callers)
    before = dict(os.environ)
    seen = []
    real = importlib.util.module_from_spec
    monkeypatch.setattr(
        importlib.util, "module_from_spec", lambda spec: seen.append(os.environ.get(key)) or real(spec)
    )
    monkeypatch.delitem(sys.modules, _highs.FLAPACK)
    module = _highs.load(_highs.FLAPACK)
    assert seen == ["4" if callers is None else callers]
    assert dict(os.environ) == before and module is sys.modules[_highs.FLAPACK]
    assert module.dpotrf(np.array([[4.0]]))[0].tolist() == [[2.0]]


def test_concurrent_loads_map_each_module_once_with_the_timeout_set(monkeypatch):
    import importlib.util
    import time

    key = "OPENBLAS_THREAD_TIMEOUT"
    monkeypatch.delenv(key, raising=False)
    # either may be unloaded yet: HiGHS maps on the first master LP
    monkeypatch.delitem(sys.modules, _highs.FLAPACK, raising=False)
    monkeypatch.delitem(sys.modules, _highs.HIGHS, raising=False)
    before = dict(os.environ)
    seen = []
    real = importlib.util.module_from_spec

    def slow_mapping(spec):  # widens the window in which another load could interleave
        time.sleep(0.02)
        seen.append(os.environ.get(key))
        return real(spec)

    monkeypatch.setattr(importlib.util, "module_from_spec", slow_mapping)
    names = [_highs.FLAPACK, _highs.HIGHS] * 4
    barrier, got = threading.Barrier(len(names)), [None] * len(names)

    def worker(i):
        barrier.wait(timeout=10)
        got[i] = _highs.load(names[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(names))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(module is sys.modules[name] for name, module in zip(names, got))
    assert seen == ["4", "4"] and dict(os.environ) == before


def test_load_runs_no_scipy_package_init():
    probe = (
        "import json, os, sys, numpy as np; from cutkit import _highs; "
        "lapack = _highs.load(_highs.FLAPACK); highs = _highs.load(_highs.HIGHS); "
        "print(json.dumps([[m for m in ('scipy', 'scipy.linalg', 'scipy.optimize') if m in sys.modules], "
        "lapack.dpotrf(np.array([[9.0]]))[0].tolist(), highs.HIGHS_VERSION_MAJOR >= 1, "
        "'OPENBLAS_THREAD_TIMEOUT' in os.environ]))"
    )
    assert _fresh_python(probe) == [[], [[3.0]], True, False]


def test_missing_extension_names_scipy_when_scipy_was_not_imported(tmp_path):
    import scipy

    probe = (
        "import json, sys; from cutkit import _highs; "
        "before = 'scipy' in sys.modules\n"
        f"try: _highs.load(_highs.FLAPACK, {str(tmp_path)!r})\n"
        "except ImportError as exc: print(json.dumps([before, str(exc)]))"
    )
    before, message = _fresh_python(probe)
    assert before is False
    assert str(tmp_path) in message and f"scipy {scipy.__version__}" in message


# each OpenBLAS mapped, by file name, and its thread count, read through the
# return value of openblas_set_num_threads_local with the types `_blas` gives it
_THREAD_COUNTS = (
    "import ctypes, json, os\n"
    "counts = {}\n"
    "for path in dict.fromkeys(l.split(None, 5)[5].strip() for l in open('/proc/self/maps') "
    "if 'openblas' in l):\n"
    "    f = ctypes.CDLL(path).openblas_set_num_threads_local\n"
    "    f.argtypes, f.restype = [ctypes.c_int], ctypes.c_int\n"
    "    counts[os.path.basename(path)] = f(1)\n"
    "    f(counts[os.path.basename(path)])\n"
    "print(json.dumps(counts))"
)


@pytest.mark.skipif(
    not _blas._openblas_thread_setters(), reason="no OpenBLAS with a thread-local setter"
)
def test_scipys_openblas_keeps_its_thread_count_in_either_import_order():
    counts = [
        _fresh_python(f"import {imports}\n{_THREAD_COUNTS}")
        for imports in ("cutkit.moments, scipy.linalg", "scipy.linalg, cutkit.moments")
    ]
    assert counts[0] == counts[1] and counts[0]
    assert all(count >= 1 for count in counts[0].values())


@pytest.mark.parametrize(
    "routine, info",
    [
        ("dpstrf", -1),
        ("dtrtrs", 3),
        ("dpotrs", -2),
        ("dsyevr", -4),  # first called by the start test on Lq, before any Newton step
        ("dpotrf", 2),  # X or S not positive definite
        ("dtrtri", 1),
    ],
)
def test_lapack_failure_is_a_convergence_error(routine, info, monkeypatch):
    real = getattr(moments._flapack, routine)
    monkeypatch.setattr(
        moments._flapack, routine, lambda *args, **kwargs: (*real(*args, **kwargs)[:-1], info)
    )
    moments._geometry.cache_clear()  # so that the chart and the face are built again
    newton = routine in ("dpotrf", "dtrtri")  # first called inside a Newton step
    prog = chart_programs()["c2_n7.txt"]
    failure = f"LAPACK {routine} failed with info {info}"
    match = f"^Newton step 0 failed: {failure} \\(gap " if newton else f"^{failure}$"
    with pytest.raises(ConvergenceError, match=match) as raised:
        solve(prog)
    assert (raised.value.iterations == 0) if newton else raised.value.iterations is None


@pytest.mark.parametrize("rank", [0, 1, 3, 5])
def test_schur_solve_on_a_singular_matrix_solves_on_its_range(rank):
    # M = B B' of rank `rank`, with b = M z in its range; rank 0 gives x = 0
    rng = np.random.default_rng(rank)
    B = rng.standard_normal((6, rank))
    M = B @ B.T
    b = M @ rng.standard_normal(6)
    U1, _, piv = moments._pivoted_cholesky(M.copy(), 1e-14 * M.diagonal().max(initial=0.0))
    assert U1.shape == (rank, rank)
    x = moments._pivoted_solve(U1, piv, b)
    assert np.count_nonzero(x) <= rank
    assert np.abs(M @ x - b).max() <= 1e-12 * max(1.0, np.abs(b).max())


def test_pivoted_cholesky_rank_report_is_not_a_failure():
    # dpstrf returns info 1 whenever the Gram matrix is singular, as on
    # every program with a free direction
    prog = chart_programs()["c2_n7.txt"]
    _, label, ms, _ = _free_rows(prog)
    rows, d = _affine_rows(prog, ms.basis, label)
    *_, rank, info = moments._flapack.dpstrf(moments._gram(rows))
    assert info == 1 and rank < ms.dim_y
    q, K = _affine_chart(rows, d, np.ones(ms.dim_y))
    assert K.shape[1] == ms.dim_y - rank


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
