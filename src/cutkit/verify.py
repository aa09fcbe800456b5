"""Property suites that exercise the toolkit's guarantees end to end.

Each suite builds its own seeded corpus, checks one guarantee, and returns
a SuiteResult whose report string is deterministic (no timings, fixed
formatting), so identical seeds reproduce identical reports byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .config import Config
from .errors import InputError
from .forge import gadget_from_3dm, gen_3dm, gen_random, tdm_has_perfect_matching
from .graph import ConstrainedInstance, WeightedGraph, cut_value
from .kernel import kernelize_multi, kernelize_single, migrate_to_kernel
from .moments import condition, iid_pair_information_sum, marginals, vertex_entropies
from .matroid import (
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    check_sandwich,
    pipage_round,
    quad_value,
    solve_lp,
)
from .oracle import oracle_all_cut_decision, oracle_constrained
from .rounding import (
    INDEPENDENCE_BUDGET,
    BiasProfile,
    _draws,
    random_correct,
    realized_correction_prob,
    relax_multi,
    sampled_union_bound_check,
    solve_multi,
)


@dataclass
class SuiteResult:
    name: str
    passed: bool
    report: str
    failures: list = field(default_factory=list)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# kernel guarantees (acceptance criteria 1-3)


def _kernel_corpus_single(count, seed0):
    """Deterministic stream of (graph, k, eps) triples with n <= 12.

    Half the stream uses small budgets on larger graphs so the contraction
    branch (and hence the exchange machinery) is exercised often.
    """
    rng = np.random.default_rng(seed0)
    out = []
    s = seed0
    while len(out) < count:
        s += 1
        small_k = len(out) % 2 == 0
        n = int(rng.integers(9, 13)) if small_k else int(rng.integers(4, 13))
        p = float(rng.uniform(0.25, 0.85))
        inst = gen_random(n, p, "unit", 1, "uniform", seed=s)
        if not inst.graph.edges:
            continue
        k = int(rng.integers(1, 3)) if small_k else inst.budgets[0]
        eps = 0.25 if len(out) % 4 < 2 else 0.5
        out.append((inst.graph, k, eps, s))
    return out


def _kernel_case(label, inst, eps, witnesses, config):
    """(margin, exchange steps, failures) of one kernelized instance.

    The restricted optimum must reach the floor max(0, 1 - 4 c eps) times
    the optimum (margin is its excess), the optimum migrated into the kernel
    must too, and every exchange step that migrates the optimum or one of
    the (name, set) `witnesses` must obey its per-step inequality.
    """
    g = inst.graph
    ker = kernelize_multi(inst, eps)
    opt = oracle_constrained(inst, config=config)
    restricted = oracle_constrained(
        inst, forbidden=frozenset(range(g.n)) - ker.kept_original, config=config
    )
    floor = max(0.0, 1.0 - 4.0 * inst.c * eps) * opt.opt_value
    margin = restricted.opt_value - floor
    failures = []
    if margin < -1e-12:
        failures.append(
            f"{label}: restricted={_fmt(restricted.opt_value)} < floor={_fmt(floor)}"
        )
    steps_total = 0
    for name, s_star in (("opt", opt.best_set), *witnesses):
        steps = []
        migrated = migrate_to_kernel(g, s_star, ker, steps_out=steps)
        steps_total += len(steps)
        for st in steps:
            bound = (1.0 - 2.0 / st["h_minus_s"]) * st["value_before"]
            if st["value_after"] < bound - 1e-12:
                failures.append(
                    f"{label} {name}: exchange step violated its bound "
                    f"({_fmt(st['value_after'])} < {_fmt(bound)})"
                )
        if name == "opt" and cut_value(g, migrated) < floor - 1e-9:
            failures.append(f"{label}: migrated witness below the kernel floor")
    return margin, steps_total, failures


def suite_kernel_single(config: Config | None = None):
    """Restricted optimum stays within (1 - 4 eps) of the true optimum, and
    every witness exchange step obeys its per-step inequality."""
    config = config or Config()
    count, seed0 = 200, 1000
    failures = []
    steps_total = 0
    min_margin = np.inf
    for g, k, eps, s in _kernel_corpus_single(count, seed0):
        # besides the optimum, a tail-heavy feasible set that forces actual
        # exchanges
        deg_order = np.argsort(g.degrees, kind="stable")
        tail_set = frozenset(int(v) for v in deg_order[:k])
        margin, steps, found = _kernel_case(
            f"seed={s} n={g.n} k={k} eps={eps}",
            ConstrainedInstance(g, [range(g.n)], [k]),
            eps,
            [("tail", tail_set)],
            config,
        )
        min_margin = min(min_margin, margin)
        steps_total += steps
        failures += found
    report = (
        f"kernel-single: instances={count} exchange_steps={steps_total} "
        f"min_margin={_fmt(min_margin)} failures={len(failures)}"
    )
    return SuiteResult("kernel-single", not failures, report, failures)


def suite_kernel_multi(config: Config | None = None):
    """Multi-part kernel: factor (1 - 4 c eps), clipped at zero."""
    config = config or Config()
    count, seed0 = 100, 2000
    failures = []
    steps_total = 0
    built = 0
    rng = np.random.default_rng(seed0)
    s = seed0
    while built < count:
        s += 1
        c = 2 if built % 2 == 0 else 3
        n = int(rng.integers(3 * c, 13))
        p = float(rng.uniform(0.3, 0.85))
        inst = gen_random(n, p, "unit", c, "uniform", seed=s)
        if not inst.graph.edges:
            continue
        built += 1
        eps = 0.25 if built % 2 == 0 else 0.5
        _, steps, found = _kernel_case(f"seed={s} c={c} eps={eps}", inst, eps, [], config)
        steps_total += steps
        failures += found
    report = (
        f"kernel-multi: instances={count} exchange_steps={steps_total} "
        f"failures={len(failures)}"
    )
    return SuiteResult("kernel-multi", not failures, report, failures)


# ---------------------------------------------------------------------------
# matroid approximation (criterion 4)


def _matroid_corpus(count, seed0):
    rng = np.random.default_rng(seed0)
    built = 0
    s = seed0
    while built < count:
        s += 1
        n = int(rng.integers(4, 11))
        p = float(rng.uniform(0.3, 0.9))
        kind = ("partition", "uniform", "graphic")[built % 3]
        inst = gen_random(n, p, "unit", 2 if kind == "partition" else 1, "uniform", seed=s)
        g = inst.graph
        if not g.edges:
            continue
        if kind == "partition":
            m = PartitionMatroid(n, inst.parts, inst.budgets)
        elif kind == "uniform":
            m = UniformMatroid(n, int(rng.integers(1, n)))
        else:
            # random connected auxiliary graph with n edges
            nv = n  # n auxiliary vertices, n auxiliary edges
            aux = [(i, int(rng.integers(0, i))) for i in range(1, nv)]
            while len(aux) < n:
                a, b = rng.integers(0, nv, size=2)
                if a != b:
                    aux.append((int(a), int(b)))
            m = GraphicMatroid(nv, aux[:n])
        built += 1
        yield s, kind, g, m


def suite_matroid(config: Config | None = None):
    """The rounded LP point is a base cutting at least half the LP optimum.

    Each LP is solved once and its point rounded here, which is what
    `solve_matroid` does."""
    config = config or Config()
    count, seed0 = 200, 3000
    from .oracle import oracle_matroid

    failures = []
    min_lp_ratio = np.inf
    min_opt_ratio = np.inf
    for s, kind, g, m in _matroid_corpus(count, seed0):
        lp = solve_lp(g, m)
        chosen = pipage_round(g, m, lp.bases, lp.weights)
        value = cut_value(g, chosen)
        opt = oracle_matroid(g, m, config=config)
        if not (m.is_independent(chosen) and len(chosen) == m.rank()):
            failures.append(f"seed={s} {kind}: output not a base")
        if value < 0.5 * lp.value - 1e-6:
            failures.append(
                f"seed={s} {kind}: value {_fmt(value)} < half LP {_fmt(lp.value)}"
            )
        if value < 0.5 * opt.opt_value - 1e-9:
            failures.append(
                f"seed={s} {kind}: value {_fmt(value)} < half OPT "
                f"{_fmt(opt.opt_value)}"
            )
        if lp.value > 2.0 * quad_value(g, lp.x) + 1e-6:
            failures.append(f"seed={s} {kind}: LP exceeds twice the quad value")
        if lp.value > 0:
            min_lp_ratio = min(min_lp_ratio, value / lp.value)
        if opt.opt_value > 0:
            min_opt_ratio = min(min_opt_ratio, value / opt.opt_value)
    report = (
        f"matroid: instances={count} min_vs_lp={_fmt(min_lp_ratio)} "
        f"min_vs_opt={_fmt(min_opt_ratio)} failures={len(failures)}"
    )
    return SuiteResult("matroid", not failures, report, failures)


# ---------------------------------------------------------------------------
# sandwich inequality (criterion 5)


def suite_sandwich(config: Config | None = None):
    """q <= min(x+y, 2-x-y) <= 2q on a grid plus random pairs, at 1e-12."""
    grid, randoms, seed0 = 201, 100_000, 4000
    ticks = np.linspace(0.0, 1.0, grid)
    gx, gy = np.meshgrid(ticks, ticks)
    rng = np.random.default_rng(seed0)
    rx = rng.random(randoms)
    ry = rng.random(randoms)
    xs = np.concatenate([gx.ravel(), rx])
    ys = np.concatenate([gy.ravel(), ry])
    lhs = xs + ys - 2.0 * xs * ys
    mid = np.minimum(xs + ys, 2.0 - xs - ys)
    bad = (lhs > mid + 1e-12) | (mid > 2.0 * lhs + 1e-12)
    failures = [
        f"x={_fmt(xs[i])} y={_fmt(ys[i])}" for i in np.nonzero(bad)[0][:10]
    ]
    # exercise the scalar operation on a deterministic subsample as well
    for i in range(0, xs.size, max(1, xs.size // 500)):
        _, _, _, ok = check_sandwich(float(xs[i]), float(ys[i]))
        if not ok:
            failures.append(f"check_sandwich failed at x={xs[i]} y={ys[i]}")
    report = (
        f"sandwich: points={xs.size} violations={int(bad.sum())} "
        f"failures={len(failures)}"
    )
    return SuiteResult("sandwich", not failures, report, failures)


# ---------------------------------------------------------------------------
# relaxation consistency (criterion 6)


def _sdp_corpus(count, seed0, max_n=8):
    rng = np.random.default_rng(seed0)
    built = 0
    s = seed0
    while built < count:
        s += 1
        c = 1 if built % 3 else 2
        n = int(rng.integers(max(4, 2 * c + 1), max_n + 1))
        p = float(rng.uniform(0.35, 0.9))
        inst = gen_random(n, p, "unit", c, "uniform", seed=s)
        if not inst.graph.edges:
            continue
        built += 1
        yield s, inst


def suite_relaxation_consistency(config: Config | None = None):
    """Marginal consistency, conditioning splits, and relaxation dominance."""
    config = config or Config()
    count, seed0 = 50, 5000
    auto_level = replace(config, level=0)
    failures = []
    rng = np.random.default_rng(seed0)
    for s, inst in _sdp_corpus(count, seed0):
        relaxation = relax_multi(inst, 0.5, auto_level)
        ker, program, mv = relaxation.kernel, relaxation.program, relaxation.moments

        # relaxation dominance against the conditioned exact optimum
        reduced_inst = ConstrainedInstance(ker.reduced, ker.parts, ker.budgets)
        opt = oracle_constrained(reduced_inst, forbidden=ker.forbidden, config=config)
        obj = mv.objective_value(program.edges)
        if obj < opt.opt_value - 1e-6:
            failures.append(
                f"seed={s}: objective {_fmt(obj)} below conditioned OPT "
                f"{_fmt(opt.opt_value)}"
            )

        # marginal consistency on random overlapping supports
        n = ker.reduced.n
        for _ in range(4):
            size_s = int(rng.integers(1, min(mv.level, n) + 1))
            size_t = int(rng.integers(1, min(mv.level, n) + 1))
            sup_s = tuple(sorted(rng.choice(n, size=size_s, replace=False).tolist()))
            sup_t = tuple(sorted(rng.choice(n, size=size_t, replace=False).tolist()))
            inter = tuple(sorted(set(sup_s) & set(sup_t)))
            if not inter:
                continue
            mu_i = marginals(mv, inter)
            from_s = marginals(mv, sup_s).marginalize(inter)
            from_t = marginals(mv, sup_t).marginalize(inter)
            for assign, p in mu_i.probs.items():
                if abs(from_s.prob(assign) - p) > 1e-7 or abs(
                    from_t.prob(assign) - p
                ) > 1e-7:
                    failures.append(f"seed={s}: marginal inconsistency on {inter}")
                    break

        # conditioning is a convex split of the parent moments
        free = sorted(set().union(*ker.kept_parts))
        i = int(free[int(rng.integers(len(free)))])
        b = mv.bias(i)
        if abs(b) < 1.0 - 1e-6:
            plus, lp_ = condition(mv, i, 1)
            minus, lm_ = condition(mv, i, -1)
            if abs(lp_ + lm_ - 1.0) > 1e-9:
                failures.append(f"seed={s}: branch weights do not sum to one")
            recon = lp_ * plus.y + lm_ * minus.y
            parent = mv.y[mv.basis.pos[plus.basis.masks]]
            err = float(np.abs(recon - parent).max())
            if err > 1e-7:
                failures.append(f"seed={s}: split reconstruction error {err:.2e}")
    report = f"relaxation-consistency: programs={count} failures={len(failures)}"
    return SuiteResult("relaxation-consistency", not failures, report, failures)


# ---------------------------------------------------------------------------
# conditioning telescoping (criterion 7)


def _phi(leaves, parts):
    """The budget-weighted average vertex entropy over the value mixture."""
    nonempty = [p for p in parts if p]
    phi = 0.0
    for w, m in leaves:
        h = vertex_entropies(m)
        phi += w * sum(h[part].mean() for part in nonempty) / len(parts)
    return phi


def _cross(leaves, parts):
    """The telescoped information sum: `iid_pair_information_sum` averaged
    over the value mixture."""
    cross = 0.0
    for w, m in leaves:
        cross += w * iid_pair_information_sum(m, parts)
    return cross


def suite_conditioning_telescope(config: Config | None = None):
    """Per-path potentials never increase; the telescoped information sum
    averaged over sampled paths stays below c^2 plus noise."""
    config = config or Config()
    count, seed0, paths = 20, 6000, 64
    failures = []
    summaries = []
    for s, inst in _sdp_corpus(count, seed0, max_n=7):
        c = inst.c
        # a kernel has at most max_n = 7 vertices here, so it runs at level 4
        relaxation = relax_multi(inst, 0.5, replace(config, level=4))
        ker, mv = relaxation.kernel, relaxation.moments
        parts = [sorted(p) for p in ker.kept_parts]
        budget = min(INDEPENDENCE_BUDGET, mv.level - 2)
        path_sums = []
        for p_idx in range(paths):
            rng = np.random.default_rng(np.random.SeedSequence((seed0, s, p_idx)))
            leaves = [(1.0, mv)]
            phis = [_phi(leaves, parts)]
            crosses = []
            for _ in range(budget):
                crosses.append(_cross(leaves, parts))
                block = parts[int(rng.integers(len(parts)))]
                vertex = int(block[int(rng.integers(len(block)))])
                new_leaves = []
                for w, m in leaves:
                    for v in (1, -1):
                        lam = (1.0 + v * m.bias(vertex)) / 2.0
                        if lam < 1e-9:
                            continue
                        child, l = condition(m, vertex, v)
                        new_leaves.append((w * l, child))
                leaves = new_leaves
                phis.append(_phi(leaves, parts))
            for t in range(len(phis) - 1):
                if phis[t + 1] > phis[t] + 1e-7:
                    failures.append(
                        f"seed={s} path={p_idx}: potential rose "
                        f"{_fmt(phis[t])} -> {_fmt(phis[t + 1])}"
                    )
            path_sums.append(sum(crosses))
        mean = float(np.mean(path_sums))
        stderr = (
            float(np.std(path_sums, ddof=1) / np.sqrt(len(path_sums)))
            if len(path_sums) > 1
            else 0.0
        )
        summaries.append(mean)
        if mean > c * c + 3.0 * stderr + 1e-6:
            failures.append(
                f"seed={s}: telescoped sum {_fmt(mean)} above c^2={c * c} "
                f"+ 3*stderr={_fmt(3 * stderr)}"
            )
    report = (
        f"conditioning-telescope: instances={count} paths={paths} "
        f"max_mean_sum={_fmt(max(summaries) if summaries else 0.0)} "
        f"failures={len(failures)}"
    )
    return SuiteResult("conditioning-telescope", not failures, report, failures)


# ---------------------------------------------------------------------------
# bias preservation (criterion 8)


def suite_bias_preservation(config: Config | None = None):
    """Empirical inclusion frequencies match (1 + b_i)/2 within 4 sigma."""
    config = config or Config()
    count, seed0, trials = 20, 7000, 10_000
    auto_level = replace(config, level=0)
    failures = []
    worst = 0.0
    for s, inst in _sdp_corpus(count, seed0):
        mv = relax_multi(inst, 0.5, auto_level).moments
        bias = BiasProfile.from_moment_vector(mv)
        seeds = np.random.SeedSequence((seed0, s)).spawn(trials)
        freq = _draws(bias, seeds).sum(axis=1) / trials
        p = np.clip((1.0 + bias.b) / 2.0, 0.0, 1.0)
        sigma = np.sqrt(p * (1.0 - p) / trials)
        dev = np.abs(freq - p)
        slack = 4.0 * sigma + 1e-12
        worst = max(worst, float((dev - slack).max()))
        bad = np.nonzero(dev > slack)[0]
        for v in bad:
            failures.append(
                f"seed={s} vertex={int(v)}: freq={_fmt(freq[v])} "
                f"target={_fmt(p[v])} sigma={_fmt(sigma[v])}"
            )
    report = (
        f"bias-preservation: instances={count} trials={trials} "
        f"worst_excess={_fmt(worst)} failures={len(failures)}"
    )
    return SuiteResult("bias-preservation", not failures, report, failures)


# ---------------------------------------------------------------------------
# correction bound (criterion 9)


def suite_correction_bound(config: Config | None = None):
    """Random correction loses at most an eps fraction in expectation, and
    the correlated fill-in law reproduces the tight (1 - p) ratio on K3."""
    seed0, trials = 8000, 4000
    failures = []
    rng = np.random.default_rng(seed0)
    regimes = 0
    for s in range(12):
        inst = gen_random(
            int(rng.integers(6, 11)), 0.6, "unit", 1, "uniform", seed=seed0 + s
        )
        g = inst.graph
        if not g.edges:
            continue
        k = inst.budgets[0]
        eps = 0.5
        ker = kernelize_single(g, k, eps)
        reduced = ker.reduced
        (part,) = ker.kept_parts
        # start from a feasible-size perturbation the balance event allows
        window = int(np.floor(eps * eps * reduced.n))
        for dev in (-window, window):
            size = k + dev
            if not 0 < size <= len(part):
                continue
            pool = sorted(part)
            s_hat = frozenset(
                int(v) for v in rng.choice(pool, size=size, replace=False)
            )
            p_real = realized_correction_prob(s_hat, part, k)
            if p_real > eps:
                continue
            base = cut_value(reduced, s_hat)
            if base <= 0:
                continue
            regimes += 1
            seeds = np.random.SeedSequence((seed0, s, window + dev)).spawn(trials)
            ratios = np.empty(trials)
            for t in range(trials):
                corrected = random_correct(reduced, s_hat, part, k, seeds[t])
                ratios[t] = cut_value(reduced, corrected) / base
            mean = float(ratios.mean())
            stderr = float(ratios.std(ddof=1) / np.sqrt(trials))
            if mean < (1.0 - eps) - 3.0 * stderr - 1e-12:
                failures.append(
                    f"seed={seed0 + s} dev={dev}: mean ratio {_fmt(mean)} below "
                    f"(1-eps) - 3*stderr with p={_fmt(p_real)}"
                )

    # tight case: all-or-nothing fill-in on the triangle
    k3 = WeightedGraph(3, [(0, 1, 1 / 3), (0, 2, 1 / 3), (1, 2, 1 / 3)])
    p = 0.5
    mean, stderr = sampled_union_bound_check(
        k3, {0}, p, trials, rng_seed=seed0, law="all_or_nothing"
    )
    if abs(mean - (1.0 - p)) > 3.0 * stderr + 1e-12:
        failures.append(
            f"tight case: mean {_fmt(mean)} not within 3 sigma of {_fmt(1 - p)}"
        )
    # the uniform fixed-size law must also respect the lower bound
    mean_u, stderr_u = sampled_union_bound_check(
        k3, {0}, p, trials, rng_seed=seed0, law="uniform"
    )
    if mean_u < (1.0 - p) - 3.0 * stderr_u - 1e-12:
        failures.append(f"uniform law: mean {_fmt(mean_u)} below 1-p")
    report = (
        f"correction-bound: regimes={regimes} tight_mean={_fmt(mean)} "
        f"failures={len(failures)}"
    )
    return SuiteResult("correction-bound", not failures, report, failures)


# ---------------------------------------------------------------------------
# end-to-end pipeline floor (criterion 10)


def _pipeline_corpus(seed0):
    """Fixed mixed corpus, n <= 10, feasible budgets."""
    plan = []
    for i in range(12):
        plan.append((1, 6 + (i % 5), seed0 + i))
    for i in range(8):
        plan.append((2, 7 + (i % 4), seed0 + 100 + i))
    out = []
    for c, n, s in plan:
        inst = gen_random(n, 0.55, "unit", c, "uniform", seed=s)
        if inst.graph.edges:
            out.append((s, inst))
    return out


def suite_pipeline_ratio(config: Config | None = None):
    """Best-of-trials pipeline value against the exact optimum."""
    config = config or Config()
    seed0 = 9000
    failures = []
    ratios = []
    eps = 0.5
    for s, inst in _pipeline_corpus(seed0):
        # one part covering V is Max-Cut_k
        sol = solve_multi(inst, eps, config=replace(config, seed=s))
        opt = oracle_constrained(inst, config=config)
        if not inst.is_feasible_set(sol.set):
            failures.append(f"seed={s}: infeasible pipeline output")
            continue
        ratio = sol.value / opt.opt_value if opt.opt_value > 0 else 1.0
        ratios.append((s, ratio))
        if ratio < 0.5 - 1e-9:
            failures.append(
                f"seed={s} c={inst.c}: ratio {_fmt(ratio)} below the 0.5 floor"
            )
    frac_08 = (
        sum(1 for _, r in ratios if r >= 0.8 - 1e-9) / len(ratios) if ratios else 0.0
    )
    if frac_08 < 0.8:
        failures.append(
            f"only {_fmt(100 * frac_08)}% of instances reached 0.8 * OPT"
        )
    ratio_strs = " ".join(f"{s}:{_fmt(r)}" for s, r in ratios)
    report = (
        f"pipeline-ratio: instances={len(ratios)} "
        f"min_ratio={_fmt(min(r for _, r in ratios) if ratios else 0.0)} "
        f"frac>=0.8={_fmt(frac_08)} failures={len(failures)}\n"
        f"  ratios: {ratio_strs}"
    )
    return SuiteResult("pipeline-ratio", not failures, report, failures)


# ---------------------------------------------------------------------------
# hardness gadget (criterion 11)


def suite_gadget_equivalence(config: Config | None = None):
    """Gadget all-cut decision coincides with exhaustive 3DM feasibility."""
    config = config or Config()
    seeds, seed0 = 50, 10_000
    failures = []
    checked = 0
    for s in range(seeds):
        size = 1 + (s % 3)
        extras = (s // 3) % 3
        drop = s % 2 == 1
        tdm, has_matching = gen_3dm(size, extras, seed=seed0 + s, drop_planted=drop)
        if not tdm.triples:
            continue
        checked += 1
        gadget = gadget_from_3dm(tdm)
        decided = oracle_all_cut_decision(gadget, config=config)
        truth = tdm_has_perfect_matching(tdm)
        if truth != has_matching:
            failures.append(f"seed={seed0 + s}: generator flag disagrees")
        if decided != truth:
            failures.append(
                f"seed={seed0 + s} size={size} extras={extras} drop={drop}: "
                f"gadget={decided} 3dm={truth}"
            )
    report = f"gadget-equivalence: checked={checked} failures={len(failures)}"
    return SuiteResult("gadget-equivalence", not failures, report, failures)


# ---------------------------------------------------------------------------
# registry


SUITES = {
    "kernel": suite_kernel_single,
    "kernel-multi": suite_kernel_multi,
    "matroid": suite_matroid,
    "sandwich": suite_sandwich,
    "relaxation": suite_relaxation_consistency,
    "conditioning": suite_conditioning_telescope,
    "bias": suite_bias_preservation,
    "correction": suite_correction_bound,
    "pipeline": suite_pipeline_ratio,
    "gadget": suite_gadget_equivalence,
}

# the quick quartet run by `cutkit verify` with no flags
DEFAULT_VERIFY = ("kernel", "sandwich", "gadget", "conditioning")


def run_suites(names, config: Config | None = None):
    names = list(names)
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise InputError(f"unknown suite {', '.join(map(repr, unknown))}; try --list")
    config = config or Config()
    return [SUITES[name](config) for name in names]
