import math

import numpy as np
import pytest
from hypothesis import given, settings
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
    g = WeightedGraph(3, [(0, 1, 1.0)])
    for seed in range(10):
        out = random_correct(g, set(), range(3), 1, forbidden={2}, rng_seed=seed)
        assert out <= {0, 1}


def test_correct_infeasible():
    g = WeightedGraph(3, [])
    with pytest.raises(InfeasibleError):
        random_correct(g, set(), range(3), 2, forbidden={0, 1}, rng_seed=0)


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
        sizes = []
        seeds = np.random.SeedSequence((99, int(q * 100))).spawn(4000)
        for s in seeds:
            sizes.append(len(round_biased(bias, s)))
        variances.append(np.var(np.array(sizes) / n))
    corr = spearmanr(scores, variances).statistic
    assert corr >= 0.0


def test_pipeline_three_parts():
    from cutkit.forge import gen_random
    from cutkit.oracle import oracle_constrained

    inst = gen_random(9, 0.6, "unit", 3, "one", seed=203)
    sol = solve_multi(inst, 0.5, RoundingParams(eps=0.5, rng_seed=1), Config(trials=8))
    assert inst.is_feasible_set(sol.set)
    opt = oracle_constrained(inst)
    assert sol.value >= 0.5 * opt.opt_value - 1e-9
