import dataclasses
import functools
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cutkit import rounding
from cutkit.config import Config
from cutkit.errors import InfeasibleError, InputError
from cutkit.forge import gen_random
from cutkit.graph import ConstrainedInstance, WeightedGraph, cut_value
from cutkit.rounding import (
    BiasProfile,
    RoundingParams,
    check_balance,
    greedy_feasible,
    random_correct,
    realized_correction_prob,
    round_biased,
    sampled_union_bound_check,
    solve_multi,
    solve_single,
)


def k3():
    return WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])


def k4():
    return WeightedGraph(4, [(u, v, 1 / 6) for u in range(4) for v in range(u + 1, 4)])


# ---------------------------------------------------------------------------
# round_biased


def assert_within_8_ulp_of_ndtri(got, p):
    """got is scipy.special.ndtri(p): exactly at p 0, 1/2 and 1 (-inf, 0
    and +inf), and within 8 units in the last place elsewhere."""
    from scipy.special import ndtri

    p = np.asarray(p, dtype=np.float64)
    want = ndtri(p)
    assert got.shape == want.shape
    exact = (p == 0.0) | (p == 0.5) | (p == 1.0)
    np.testing.assert_array_equal(got[exact], want[exact])
    err = np.abs(got[~exact] - want[~exact]) / np.spacing(np.abs(want[~exact]))
    assert err.max(initial=0.0) <= 8.0


def assert_thresholds_are_norm_ppf(bias):
    assert_within_8_ulp_of_ndtri(bias.thresholds, np.clip((1.0 + bias.b) / 2.0, 0.0, 1.0))


def test_deterministic_biases():
    bias = BiasProfile([1.0, -1.0], np.eye(2) + np.array([[0, -1], [-1, 0]]) * 1.0)
    assert_thresholds_are_norm_ppf(bias)
    assert bias.thresholds.tolist() == [np.inf, -np.inf]
    for seed in range(20):
        picked = round_biased(bias, seed)
        assert 0 in picked and 1 not in picked


def test_perfect_correlation_moves_together():
    bias = BiasProfile([0.0, 0.0], np.array([[1.0, 1.0], [1.0, 1.0]]))
    together = 0
    trials = 10_000
    seeds = np.random.SeedSequence(123).spawn(trials)
    for s in seeds:
        picked = round_biased(bias, s)
        if len(picked) in (0, 2):
            together += 1
    assert together == trials  # exactly coupled under the shared Gaussian


def test_marginal_preservation():
    b = np.array([0.4, -0.2, 0.0])
    rho = np.array([[1.0, 0.1, -0.3], [0.1, 1.0, 0.2], [-0.3, 0.2, 1.0]])
    bias = BiasProfile(b, rho)
    trials = 20_000
    counts = np.zeros(3)
    seeds = np.random.SeedSequence(7).spawn(trials)
    for s in seeds:
        for v in round_biased(bias, s):
            counts[v] += 1
    p = (1 + b) / 2
    sigma = np.sqrt(p * (1 - p) / trials)
    assert (np.abs(counts / trials - p) <= 4 * sigma).all()
    assert_thresholds_are_norm_ppf(bias)
    # a seeded independent profile with deterministic and unbiased vertices
    b = np.random.default_rng(11).uniform(-1.0, 1.0, 200)
    b[:3] = -1.0, 0.0, 1.0
    rho = np.outer(b, b)
    np.fill_diagonal(rho, 1.0)
    assert_thresholds_are_norm_ppf(BiasProfile(b, rho))


# ---------------------------------------------------------------------------
# the thresholds' inverse normal CDF against scipy.special.ndtri


def ulps_around(x, count=1):
    """x and the `count` doubles on each side of it."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = np.nextafter(y, direction)
            out.append(y)
    return out


def assert_quantiles_match_ndtri(p):
    assert_within_8_ulp_of_ndtri(rounding._normal_quantiles(p), p)


def test_ndtri_at_the_ends():
    assert rounding._normal_quantiles([0.0, 1.0]).tolist() == [-np.inf, np.inf]
    assert_quantiles_match_ndtri([0.0, 1.0, 0.5])


def test_ndtri_where_the_central_branch_meets_the_tails():
    # scipy's central rational branch gives way to its tails at exp(-2)
    e2 = math.exp(-2.0)
    assert_quantiles_match_ndtri(ulps_around(e2) + ulps_around(1.0 - e2))
    assert_quantiles_match_ndtri(ulps_around(0.13533528323661269189, 4))


def test_ndtri_where_the_tail_variable_crosses_eight():
    # x = sqrt(-2 log y) = 8 at y = exp(-32), on both tails
    y = math.exp(-32.0)
    assert_quantiles_match_ndtri(ulps_around(y, 3) + ulps_around(1.0 - y, 3))


def test_ndtri_at_the_extreme_doubles():
    assert_quantiles_match_ndtri([5e-324, 2.0**-1074 * 3, 2.0**-1022, 1.0 - 2.0**-53, 2.0**-53])


def test_ndtri_on_a_dense_grid():
    grid = np.linspace(0.0, 1.0, 200_001)
    assert_quantiles_match_ndtri(grid)
    assert_quantiles_match_ndtri(np.exp(-np.linspace(0.0, 744.0, 20_001)))  # down to 5e-324
    assert_quantiles_match_ndtri(1.0 - np.exp(-np.linspace(0.0, 36.0, 20_001)))
    # through BiasProfile, on independent vertices with biases on a grid
    b = 2.0 * grid[::400] - 1.0
    rho = np.outer(b, b)
    np.fill_diagonal(rho, 1.0)
    assert_thresholds_are_norm_ppf(BiasProfile(b, rho))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20))
def test_ndtri_matches_scipy(ps):
    assert_quantiles_match_ndtri(ps)


def test_inconsistent_profile_rejected():
    with pytest.raises(InputError):
        BiasProfile([1.0, -1.0], np.array([[1.0, 1.0], [1.0, 1.0]]))


@pytest.mark.parametrize("where", ["b", "rho"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_profile_rejected(where, value):
    # a NaN bias passes the [-1, 1] and pair-mass checks, as every
    # comparison with NaN is false, and its vertex is then never selected
    b, rho = np.zeros(2), np.eye(2)
    if where == "b":
        b[0] = value
    else:
        rho[0, 1] = rho[1, 0] = value
    with pytest.raises(InputError, match="finite"):
        BiasProfile(b, rho)


# ---------------------------------------------------------------------------
# balance and correction


def test_balance_exact():
    rep = check_balance({0, 1}, [range(4)], [2], eps=0.5)
    assert rep.joint and rep.sizes == (2,)


def test_balance_boundary():
    # window is eps^2 * 4 = 1; deviation of 2 must fail
    rep = check_balance({0, 1, 2, 3}, [range(4)], [2], eps=0.5)
    assert not rep.joint


def test_balance_conjunction():
    rep = check_balance({0, 4}, [range(4), range(4, 8)], [1, 3], eps=0.5)
    assert rep.flags == (True, False)
    assert not rep.joint


def test_correct_noop():
    out = random_correct(k4(), {0, 1}, range(4), 2, rng_seed=0)
    assert out == {0, 1}


def test_correct_surplus_k4():
    # removing either of {0, 1} leaves a singleton cutting exactly 1/2
    for seed in range(10):
        out = random_correct(k4(), {0, 1}, range(4), 1, rng_seed=seed)
        assert len(out) == 1
        assert cut_value(k4(), out) == pytest.approx(0.5, abs=1e-12)


def test_correct_deficit_k3():
    for seed in range(10):
        out = random_correct(k3(), set(), range(3), 1, rng_seed=seed)
        assert len(out) == 1
        assert cut_value(k3(), out) == pytest.approx(2 / 3, abs=1e-12)


def test_correct_respects_forbidden():
    # vertex 2, a super, lies outside the kept part {0, 1} a caller passes
    g = WeightedGraph(3, [(0, 1, 1.0)])
    for seed in range(10):
        out = random_correct(g, set(), {0, 1}, 1, rng_seed=seed)
        assert out <= {0, 1}


def test_correct_infeasible():
    g = WeightedGraph(3, [])
    with pytest.raises(InfeasibleError):
        random_correct(g, set(), {2}, 2, rng_seed=0)


def test_realized_probability():
    assert realized_correction_prob({0, 1}, range(4), 2) == 0.0
    assert realized_correction_prob({0, 1}, range(4), 1) == pytest.approx(0.5)
    assert realized_correction_prob(set(), range(4), 1) == pytest.approx(0.25)


def test_correction_mean_bound_statistical():
    # surplus regime on K4 with p = 1/2: mean ratio well above 1 - p
    base = cut_value(k4(), {0, 1})
    trials = 3000
    ratios = np.empty(trials)
    seeds = np.random.SeedSequence(5).spawn(trials)
    for t in range(trials):
        out = random_correct(k4(), {0, 1}, range(4), 1, rng_seed=seeds[t])
        ratios[t] = cut_value(k4(), out) / base
    p = 0.5
    stderr = ratios.std(ddof=1) / np.sqrt(trials)
    assert ratios.mean() >= (1 - p) - 3 * stderr


# ---------------------------------------------------------------------------
# sampled union bound


def test_union_bound_p_zero():
    ratio, _ = sampled_union_bound_check(k3(), {0}, 0.0, 50, rng_seed=0)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_union_bound_full_set_vacuous():
    ratio, stderr = sampled_union_bound_check(k3(), {0, 1, 2}, 0.5, 50, rng_seed=0)
    assert ratio == 1.0 and stderr == 0.0


def test_union_bound_uniform_law_k3():
    # adding one of the two remaining triangle vertices keeps the cut at 2/3
    ratio, stderr = sampled_union_bound_check(
        k3(), {0}, 0.5, 2000, rng_seed=1, law="uniform"
    )
    assert ratio >= (1 - 0.5) - 3 * stderr
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_union_bound_tight_law_k3():
    ratio, stderr = sampled_union_bound_check(
        k3(), {0}, 0.5, 4000, rng_seed=2, law="all_or_nothing"
    )
    assert abs(ratio - 0.5) <= 3 * stderr


def test_union_bound_validation():
    with pytest.raises(InputError):
        sampled_union_bound_check(k3(), {0}, 1.5, 10)
    with pytest.raises(InputError):
        sampled_union_bound_check(k3(), {0}, 0.5, 10, law="bogus")


@pytest.mark.parametrize("trials", [0, -1])
def test_union_bound_needs_a_trial(trials):
    # no draws give no (ratio, stderr) pair: refused, not nan or a numpy error
    with pytest.raises(InputError, match="at least one"):
        sampled_union_bound_check(k3(), {0}, 0.5, trials)


# ---------------------------------------------------------------------------
# greedy fallback


def test_greedy_feasible_budgets():
    inst = gen_random(8, 0.6, "unit", 2, "uniform", seed=11)
    out = greedy_feasible(inst.graph, inst.parts, inst.budgets)
    assert inst.is_feasible_set(out)


def test_greedy_prefers_high_degree():
    star = WeightedGraph(4, [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)])
    out = greedy_feasible(star, [range(4)], [1])
    assert out == {0}


# ---------------------------------------------------------------------------
# end-to-end pipelines


def test_pipeline_single_edge():
    g = WeightedGraph(2, [(0, 1, 1.0)])
    sol = solve_single(g, 1, 0.5)
    assert sol.feasible and len(sol.set) == 1
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert sol.stage_trace[0] == "kernel"


def test_pipeline_k3():
    sol = solve_single(k3(), 1, 0.5)
    assert sol.value == pytest.approx(2 / 3, abs=1e-9)
    assert len(sol.set) == 1


def test_pipeline_two_disjoint_edges():
    g = WeightedGraph(4, [(0, 1, 0.5), (2, 3, 0.5)])
    inst = ConstrainedInstance(g, [{0, 1}, {2, 3}], [1, 1])
    sol = solve_multi(inst, 0.5)
    assert sol.value == pytest.approx(1.0, abs=1e-9)
    assert inst.is_feasible_set(sol.set)


def test_pipeline_multi_matches_single_for_one_part():
    g = k4()
    inst = ConstrainedInstance(g, [range(4)], [2])
    cfg = Config(trials=4)
    a = solve_multi(inst, 0.5, RoundingParams(eps=0.5, rng_seed=42), cfg)
    b = solve_single(g, 2, 0.5, RoundingParams(eps=0.5, rng_seed=42), cfg)
    assert a.set == b.set and a.value == b.value


def test_pipeline_determinism():
    inst = gen_random(8, 0.5, "unit", 2, "uniform", seed=17)
    cfg = Config(trials=4)
    a = solve_multi(inst, 0.5, RoundingParams(eps=0.5, rng_seed=9), cfg)
    b = solve_multi(inst, 0.5, RoundingParams(eps=0.5, rng_seed=9), cfg)
    assert a.set == b.set
    assert a.value == b.value
    assert a.stage_trace == b.stage_trace


def test_pipeline_value_recomputes():
    inst = gen_random(8, 0.5, "unit", 1, "uniform", seed=19)
    sol = solve_single(inst.graph, inst.budgets[0], 0.5)
    assert sol.check_value(inst.graph)


def test_pipeline_rejects_eps_mismatch():
    params = RoundingParams(eps=0.25, rng_seed=1)
    with pytest.raises(InputError):
        solve_single(k3(), 1, 0.5, params, Config(trials=2))


def test_pipeline_rejects_zero_trials():
    with pytest.raises(InputError, match="at least one rounding trial"):
        solve_single(k3(), 1, 0.5, config=Config(trials=0))


def test_pipeline_rejects_a_negative_seed():
    # numpy's SeedSequence raised a bare ValueError here
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        solve_single(k3(), 1, 0.5, config=Config(seed=-1))
    with pytest.raises(InputError, match="seed must be a non-negative integer"):
        solve_single(k3(), 1, 0.5, RoundingParams(eps=0.5, rng_seed=-1))


def test_pipeline_refuses_a_k_that_is_not_an_integer():
    # k 1.9 once solved k = 1 and returned a 1-vertex set
    g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
    with pytest.raises(InputError, match="must be an integer"):
        solve_single(g, 1.9, 0.5)
    with pytest.raises(InputError, match="must be an integer"):
        rounding.kernelize_single(g, 1.9, 0.5)


def test_pipeline_part_cap():
    inst = gen_random(10, 0.5, "unit", 5, "one", seed=23)
    with pytest.raises(InputError, match="5 parts exceed the cap 4"):
        solve_multi(inst, 0.5)


@pytest.mark.parametrize("eps", [1e-26, 1e-30])
def test_pipeline_tiny_eps_caps_the_conditioning_budget(monkeypatch, eps):
    # 4c^2 / eps^12 would overflow to inf at 1e-26 and divide by 0 at 1e-30;
    # the budget is min(INDEPENDENCE_BUDGET, level - 2) at every eps
    budgets = []
    search = rounding.make_block_independent

    def recording(mv, parts, alpha, budget_L, *args, **kwargs):
        budgets.append((budget_L, mv.level))
        return search(mv, parts, alpha, budget_L, *args, **kwargs)

    monkeypatch.setattr(rounding, "make_block_independent", recording)
    inst = gen_random(7, 0.6, "unit", 2, "uniform", seed=5)
    cfg = Config(trials=4)
    sol = solve_multi(inst, eps, RoundingParams(eps=eps, rng_seed=3), cfg)
    assert inst.is_feasible_set(sol.set)
    ((budget, level),) = budgets
    assert level > 2 and budget == min(rounding.INDEPENDENCE_BUDGET, level - 2)


def test_variance_tracks_independence_score():
    # correlated inclusions inflate the size variance: across a family of
    # profiles with growing uniform correlation, the block-independence
    # score and the empirical variance of |S| move together
    from itertools import product as iproduct

    from scipy.stats import spearmanr

    from cutkit.moments import MomentVector, block_independence_score, subset_basis

    n = 5
    scores, variances = [], []
    for q in (0.0, 0.25, 0.5, 0.75, 0.95):
        # mixture: all-equal with probability q, else iid uniform
        basis = subset_basis(n, 4)
        y = np.zeros(basis.masks.size)
        for pos, mask in enumerate(basis.masks):
            bits = int(mask).bit_count()
            if bits == 0:
                y[pos] = 1.0
            elif bits % 2 == 0:
                y[pos] = q  # iid part contributes zero for nonempty sets
        mv = MomentVector(n, 2, y)
        per_part, _ = block_independence_score(mv, [list(range(n))])
        scores.append(per_part[0])

        rho = np.full((n, n), q)
        np.fill_diagonal(rho, 1.0)
        bias = BiasProfile(np.zeros(n), rho)
        seeds = np.random.SeedSequence((99, int(q * 100))).spawn(4000)
        sizes = rounding._draws(bias, seeds).sum(axis=0)  # one column per round_biased draw
        variances.append(np.var(sizes / n))
    corr = spearmanr(scores, variances).statistic
    assert corr >= 0.0


CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def assert_supers_stay_pinned(relaxation, seed):
    """Every super reads bias -1.0 exactly, and threshold -inf, after the
    solve and after each step of a random conditioning path down to level
    1, so no rounding draw can select one."""
    from cutkit.moments import condition, sample_value

    kernel, mv = relaxation.kernel, relaxation.moments
    supers = sorted(kernel.forbidden)
    kept = sorted(set().union(*kernel.kept_parts))
    rng = np.random.default_rng(seed)
    while True:
        assert [mv.bias(s) for s in supers] == [-1.0] * len(supers)
        assert np.isneginf(BiasProfile.from_moment_vector(mv).thresholds[supers]).all()
        if mv.level < 2:
            return
        v = kept[int(rng.integers(len(kept)))]
        value = sample_value(mv, v, rng)
        if (1.0 + value * mv.bias(v)) / 2.0 < 1e-9:  # a degenerate branch
            value = -value
        mv, _ = condition(mv, v, value)


@pytest.mark.parametrize("name", ["c1_n7.json", "c2_n7.txt"])
def test_corpus_supers_stay_pinned_through_solve_and_conditioning(name):
    # the corpus files whose kernels have supers, both at eps 0.5
    from cutkit.io import read_instance
    from cutkit.rounding import relax_multi

    relaxation = relax_multi(read_instance(str(CORPUS_DIR / name))[0], 0.5)
    assert relaxation.kernel.forbidden
    for seed in range(4):
        assert_supers_stay_pinned(relaxation, seed)


@settings(max_examples=10, derandomize=True, deadline=None)
@given(
    n=st.integers(6, 11),
    c=st.integers(1, 2),
    law=st.sampled_from(["one", "uniform"]),
    eps=st.sampled_from([0.25, 0.5]),
    seed=st.integers(0, 10**6),
)
def test_property_supers_stay_pinned_through_solve_and_conditioning(n, c, law, eps, seed):
    from cutkit.errors import CutkitError
    from cutkit.kernel import kernelize_multi
    from cutkit.rounding import relax_multi

    inst = gen_random(n, 0.6, "uniform", c, law, seed=seed)
    assume(kernelize_multi(inst, eps).forbidden)
    try:
        relaxation = relax_multi(inst, eps)
    except CutkitError:  # over a size cap, or a relaxation that fails to solve
        assume(False)
    assert_supers_stay_pinned(relaxation, seed)


def test_pipeline_three_parts():
    from cutkit.forge import gen_random
    from cutkit.oracle import oracle_constrained

    inst = gen_random(9, 0.6, "unit", 3, "one", seed=203)
    sol = solve_multi(inst, 0.5, RoundingParams(eps=0.5, rng_seed=1), Config(trials=8))
    assert inst.is_feasible_set(sol.set)
    opt = oracle_constrained(inst)
    assert sol.value >= 0.5 * opt.opt_value - 1e-9


# ---------------------------------------------------------------------------
# the batched rounding against one trial at a time


def reference_round(relaxation, config):
    """round_relaxation as one loop over the trials: each trial spawns its
    children, draws its own normal vector, checks its balance and corrects
    every part."""
    from cutkit.moments import make_block_independent
    from cutkit.errors import SearchFailureError

    kernel, mv = relaxation.kernel, relaxation.moments
    trace = ["kernel", "sdp"]
    kept_parts = kernel.kept_parts
    budget = min(rounding.INDEPENDENCE_BUDGET, mv.level - 2)
    try:
        mv = make_block_independent(
            mv, kept_parts, relaxation.eps**6, budget, config.seed,
            edges=relaxation.program.edges,
        )
        trace.append("independence")
    except SearchFailureError as exc:
        mv = exc.best if exc.best is not None else mv
        trace.append("independence:best-effort")
    bias = BiasProfile.from_moment_vector(mv)
    reduced = kernel.reduced
    trial_seeds = np.random.SeedSequence((config.seed, 1)).spawn(config.trials)
    best = fallback = None
    for t in range(config.trials):
        child = trial_seeds[t].spawn(1 + len(kept_parts))
        g = np.random.default_rng(child[0]).standard_normal(bias.factor.shape[1])
        s_hat = frozenset(int(v) for v in np.flatnonzero(bias.factor @ g <= bias.thresholds))
        hat_val = cut_value(reduced, s_hat)
        if fallback is None or hat_val > fallback[0]:
            fallback = (hat_val, s_hat)
        if not check_balance(s_hat, kernel.parts, kernel.budgets, relaxation.eps).joint:
            continue
        s = s_hat
        for j, (part, k) in enumerate(zip(kept_parts, kernel.budgets)):
            s = random_correct(reduced, s, part, k, child[1 + j])
        val = cut_value(reduced, s)
        if best is None or val > best[0]:
            best = (val, s)
    if best is not None:
        trace.extend(["rounding", "correction"])
        reduced_set = best[1]
    else:
        trace.extend(["rounding", "correction:fallback"])
        reduced_set = greedy_feasible(reduced, kept_parts, kernel.budgets, start=fallback[1])
    original = kernel.lift(reduced_set)
    return original, cut_value(relaxation.graph, original), tuple(trace)


@functools.lru_cache(maxsize=None)
def relaxation_of(n, edge_prob, c, law, seed, eps, narrow=False):
    """The relaxation of gen_random(n, edge_prob, "unit", c, law, seed) at
    eps, or None when its kernel keeps more than 10 vertices (a slow solve)
    or it cannot be solved; `narrow` reads it at eps 0.05, whose balance
    window only an exact size meets, so many trials miss it."""
    from cutkit.errors import CutkitError
    from cutkit.kernel import kernelize_multi

    inst = gen_random(n, edge_prob, "unit", c, law, seed=seed)
    try:
        if kernelize_multi(inst, eps).reduced.n > 10:
            return None
        rel = rounding.relax_multi(inst, eps)
    except CutkitError:
        return None
    if narrow:
        rel = dataclasses.replace(rel, kernel=dataclasses.replace(rel.kernel, epsilon=0.05))
    return rel


def assert_rounds_as_the_reference(rel, seed, trials):
    config = Config(seed=seed, trials=trials)
    sol = rounding.round_relaxation(rel, config)
    want_set, want_value, want_trace = reference_round(rel, config)
    assert sol.set == want_set
    assert sol.value.hex() == want_value.hex()
    assert sol.stage_trace == want_trace
    return sol


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    n=st.integers(6, 30),
    edge_prob=st.sampled_from([0.0, 0.2, 0.5]),
    c=st.integers(1, 3),
    law=st.sampled_from(["one", "uniform", "half"]),
    instance=st.integers(0, 2),
    eps=st.sampled_from([0.5, 0.25]),
    narrow=st.booleans(),
    seed=st.integers(0, 2**32),
    trials=st.integers(1, 9),
)
# balance never holds here, so the fallback completes the raw rounding
@example(n=7, edge_prob=0.0, c=1, law="half", instance=0, eps=0.5, narrow=True, seed=0, trials=1)
# ... and here the best raw rounding is the last of three
@example(n=9, edge_prob=0.2, c=1, law="half", instance=2, eps=0.5, narrow=True, seed=2, trials=3)
# the second part of a balanced trial is corrected from its own child seed
@example(n=7, edge_prob=0.0, c=2, law="half", instance=0, eps=0.5, narrow=False, seed=3, trials=3)
def test_batched_rounding_equals_the_per_trial_loop(
    n, edge_prob, c, law, instance, eps, narrow, seed, trials
):
    assume(n >= 2 * c)
    rel = relaxation_of(n, edge_prob, c, law, 1000 + instance, eps, narrow)
    assume(rel is not None)
    assert_rounds_as_the_reference(rel, seed, trials)


def test_batched_rounding_equals_the_per_trial_loop_on_the_fallback():
    rel = relaxation_of(7, 0.0, 1, "half", 1000, 0.5, narrow=True)
    traces = [assert_rounds_as_the_reference(rel, seed, 1).stage_trace for seed in range(10)]
    assert {trace[-1] for trace in traces} == {"correction", "correction:fallback"}


def test_a_trial_seed_is_the_spawned_child():
    for entropy in [(7, 1), (0, 1), 2**70 + 3]:
        seedseq = np.random.SeedSequence(entropy)
        spawned = seedseq.spawn(5)
        for t in range(5):
            children = spawned[t].spawn(4)
            for i in range(4):
                got = rounding._trial_seed(seedseq, t, i).generate_state(4)
                assert np.array_equal(got, children[i].generate_state(4))


def test_round_relaxation_draws_once_and_corrects_only_the_missed_parts(monkeypatch):
    rel = relaxation_of(8, 0.2, 2, "uniform", 1000, 0.5)
    draws, corrected = [], []
    draw, correct = rounding._draws, rounding.random_correct

    def drawing(bias, seeds):
        draws.append(len(seeds))
        return draw(bias, seeds)

    def correcting(g, s_hat, part, k, rng_seed):
        corrected.append(len(frozenset(s_hat) & frozenset(part)) != k)
        return correct(g, s_hat, part, k, rng_seed)

    monkeypatch.setattr(rounding, "_draws", drawing)
    monkeypatch.setattr(rounding, "random_correct", correcting)
    for seed in range(10):
        assert_rounds_as_the_reference(rel, seed, 8)
    assert draws == [8] * 10
    assert corrected and all(corrected)
