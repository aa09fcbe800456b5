"""Bias-preserving rounding, balance checks, random correction, and the
end-to-end kernel -> relaxation -> conditioning -> rounding -> correction
pipeline for partitioned instances, of which Max-Cut_k (`solve_single`)
is the one-part case.  The pipeline runs in two stages: `relax_multi`
(kernel, program, SDP solve; no randomness) and `round_relaxation`
(everything seeded), so one relaxation can be rounded under many seeds.

Rounding draws one shared Gaussian vector and thresholds each vertex's
centered unit component at the Gaussian quantile of its inclusion
probability, so every marginal P(i selected) = (1 + b_i)/2 is preserved
exactly while pairwise correlations carry over from the relaxation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from statistics import NormalDist

import numpy as np

from .config import Config, check_seed
from .errors import InfeasibleError, InputError, SearchFailureError
from .graph import ConstrainedInstance, CutSolution, WeightedGraph, cut_value
from .kernel import KernelResult, kernelize_multi
from .kernel import kernelize_single  # noqa: F401  (perfbench/tracing.py wraps this name)
from .moments import (
    MomentVector,
    SdpProgram,
    build_program,
    make_block_independent,
    pair_moments,
    solve,
)

_PAIR_TOL = 1e-6

# Cap on conditioning steps.  The paper's ceil(4c^2 / alpha^2), alpha = eps^6,
# is at least 4 * 2^12 = 16 384 for every eps <= 1/2, so only this cap binds.
INDEPENDENCE_BUDGET = 12

# The most parts the pipeline accepts (the paper's c = O(1)).
C_CAP = 4


@dataclass
class RoundingParams:
    """Optional to solve_*: eps must equal their eps; rng_seed replaces config.seed."""

    eps: float = 0.5
    rng_seed: int = 7

    def __post_init__(self):
        if not 0.0 < self.eps <= 0.5:
            raise InputError(f"eps must lie in (0, 1/2], got {self.eps}")


@dataclass(frozen=True)
class BalanceReport:
    """Per-part sizes of a rounded set against the allowed windows."""

    sizes: tuple
    flags: tuple
    joint: bool


def _normal_quantiles(p) -> np.ndarray:
    """The standard normal quantile of each p in [0, 1], from
    `statistics.NormalDist`: -inf at 0, +inf at 1."""
    inv_cdf = NormalDist().inv_cdf
    x = [-math.inf if v == 0.0 else math.inf if v == 1.0 else inv_cdf(v) for v in np.ravel(p)]
    return np.array(x, dtype=np.float64)


class BiasProfile:
    """Per-vertex bias and pairwise correlation extracted from a relaxation.

    The Gram factor and thresholds are cached so repeated rounding draws
    are cheap.
    """

    def __init__(self, biases, correlations):
        self.b = np.asarray(biases, dtype=np.float64)
        self.rho = np.asarray(correlations, dtype=np.float64)
        n = self.b.size
        if self.rho.shape != (n, n):
            raise InputError("correlation matrix shape mismatch")
        # a NaN passes both checks below, as every comparison with it is false
        if not (np.isfinite(self.b).all() and np.isfinite(self.rho).all()):
            raise InputError("biases and correlations must be finite")
        if np.abs(self.b).max(initial=0.0) > 1.0 + _PAIR_TOL:
            raise InputError("biases must lie in [-1, 1]")
        # Every pairwise 2x2 local distribution must be nonnegative.
        for si in (1.0, -1.0):
            for sj in (1.0, -1.0):
                q = 1.0 + si * self.b[:, None] + sj * self.b[None, :] + si * sj * self.rho
                np.fill_diagonal(q, 1.0)
                if q.min(initial=1.0) < -4.0 * _PAIR_TOL:
                    raise InputError("inconsistent bias profile: negative pair mass")

    @classmethod
    def from_moment_vector(cls, m: MomentVector) -> "BiasProfile":
        return cls(*pair_moments(m))

    @property
    def n(self) -> int:
        return self.b.size

    @cached_property
    def thresholds(self) -> np.ndarray:
        p = np.clip((1.0 + self.b) / 2.0, 0.0, 1.0)
        return _normal_quantiles(p)  # -inf / +inf for deterministic vertices

    @cached_property
    def factor(self) -> np.ndarray:
        """Unit-row Gram factor of the centered correlations.

        Negative eigenvalues (solver tolerance) are zeroed; rows are
        renormalized so marginals stay exact; degenerate rows fall back to
        fresh independent coordinates.
        """
        n = self.n
        s = np.sqrt(np.clip(1.0 - self.b**2, 0.0, None))
        centered = self.rho - np.outer(self.b, self.b)
        denom = np.outer(s, s)
        r = np.divide(centered, denom, out=np.zeros((n, n)), where=denom > 1e-12)
        np.fill_diagonal(r, 1.0)
        vals, vecs = np.linalg.eigh((r + r.T) / 2.0)
        f = vecs * np.sqrt(np.clip(vals, 0.0, None))
        norms = np.linalg.norm(f, axis=1)
        degenerate = norms <= 1e-9
        f[~degenerate] /= norms[~degenerate, None]
        if degenerate.any():
            extra = np.zeros((n, int(degenerate.sum())))
            extra[degenerate] = np.eye(int(degenerate.sum()))
            f = np.hstack([f, extra])
        return f


def _draws(bias: BiasProfile, seeds) -> np.ndarray:
    """One rounding draw per seed, as the columns of an n x len(seeds) bool
    array: column t thresholds factor @ g_t, where g_t is the standard
    normal vector of default_rng(seeds[t]), and all columns come from one
    matrix product."""
    f = bias.factor
    g = np.empty((len(seeds), f.shape[1]))
    for t, seed in enumerate(seeds):
        np.random.default_rng(seed).standard_normal(out=g[t])
    with np.errstate(invalid="ignore"):
        return (f @ g.T) <= bias.thresholds[:, None]


def round_biased(bias: BiasProfile, rng_seed) -> frozenset:
    """One randomized rounding draw; P(i selected) = (1 + b_i)/2 exactly."""
    (chosen,) = _draws(bias, [rng_seed]).T
    return frozenset(int(v) for v in np.flatnonzero(chosen))


def _balanced(sizes, part_sizes, budgets, eps: float) -> np.ndarray:
    """The balance window, elementwise: |size - k| <= eps^2 * |part|."""
    return np.abs(sizes - budgets) <= eps * eps * part_sizes + 1e-12


def check_balance(s_hat, parts, budgets, eps: float) -> BalanceReport:
    """Whether each |s_hat intersect part| sits within eps^2 * |part| of its budget."""
    s_hat = frozenset(s_hat)
    rows = [(len(s_hat & frozenset(part)), len(part), k) for part, k in zip(parts, budgets)]
    sizes, lens, ks = np.array(rows, dtype=np.float64).reshape(-1, 3).T
    flags = tuple(bool(f) for f in _balanced(sizes, lens, ks, eps))
    return BalanceReport(tuple(row[0] for row in rows), flags, all(flags))


def random_correct(
    g: WeightedGraph, s_hat, part, k: int, forbidden=frozenset(), rng_seed=0
) -> frozenset:
    """Uniformly add or delete vertices inside one part to hit its budget.

    Additions are drawn from the part's unselected, non-forbidden vertices;
    deletions from the selected ones.  In the balanced regime (per-element
    probability at most eps) the expected cut value loses at most an eps
    fraction.
    """
    s_hat = frozenset(s_hat)
    part = frozenset(part)
    forbidden = frozenset(forbidden)
    rng = np.random.default_rng(rng_seed)
    cur = sorted(s_hat & part)
    if len(cur) == k:
        return s_hat
    if len(cur) > k:
        drop = rng.choice(cur, size=len(cur) - k, replace=False)
        return s_hat - frozenset(int(v) for v in drop)
    pool = sorted(part - s_hat - forbidden)
    need = k - len(cur)
    if need > len(pool):
        raise InfeasibleError(
            f"cannot reach budget {k}: only {len(pool)} selectable vertices remain"
        )
    add = rng.choice(pool, size=need, replace=False)
    return s_hat | frozenset(int(v) for v in add)


def realized_correction_prob(s_hat, part, k: int, forbidden=frozenset()) -> float:
    """Per-element add/delete probability the correction step will use."""
    s_hat = frozenset(s_hat)
    part = frozenset(part)
    cur = len(s_hat & part)
    if cur == k:
        return 0.0
    if cur > k:
        return (cur - k) / cur
    pool = len(part - s_hat - frozenset(forbidden))
    if pool <= 0:
        return 1.0
    return (k - cur) / pool


def sampled_union_bound_check(
    g: WeightedGraph,
    s,
    inclusion_prob: float,
    trials: int,
    rng_seed=0,
    law: str = "uniform",
):
    """Monte Carlo estimate of E[cut(S u R)] / cut(S) under a random fill-in.

    `law` picks how R is drawn from V \\ S with per-element inclusion
    probability at most p: "uniform" draws a fixed-size uniform subset of
    floor(p * |V \\ S|) elements (the correction step's law); "all_or_nothing"
    takes the whole complement with probability p (the coupling that makes
    the (1-p) lower bound tight).  Returns (ratio_estimate, stderr); a zero
    base cut makes the bound vacuous, signalled by the certified-pass ratio
    1.0 (also the right answer for S = V, whose complement is empty).
    """
    p = float(inclusion_prob)
    if not 0.0 <= p <= 1.0:
        raise InputError(f"probability {p} outside [0, 1]")
    if law not in ("uniform", "all_or_nothing"):
        raise InputError(f"unknown law {law!r}")
    _check_trials(trials)
    s = frozenset(int(v) for v in s)
    base = cut_value(g, s)
    if base <= 0.0:
        return 1.0, 0.0
    complement = sorted(set(range(g.n)) - s)
    rng = np.random.default_rng(rng_seed)
    ratios = np.empty(trials)
    r_size = int(np.floor(p * len(complement)))
    for t in range(trials):
        if law == "uniform":
            picked = rng.choice(complement, size=r_size, replace=False) if r_size else []
        else:
            picked = complement if rng.random() < p else []
        ratios[t] = cut_value(g, s | frozenset(int(v) for v in picked)) / base
    stderr = float(ratios.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return float(ratios.mean()), stderr


def greedy_feasible(g: WeightedGraph, parts, budgets, forbidden=frozenset(), start=None):
    """Per-part completion toward the budgets, guided by weighted degree.

    Starts from `start` (clipped to allowed vertices), drops lowest-degree
    surplus and adds highest-degree missing vertices.  Deterministic.
    """
    deg = g.degrees
    forbidden = frozenset(forbidden)
    chosen = set() if start is None else set(frozenset(start) - forbidden)
    out = set()
    for part, k in zip(parts, budgets):
        allowed = sorted(frozenset(part) - forbidden, key=lambda v: (-deg[v], v))
        if k > len(allowed):
            raise InfeasibleError(f"budget {k} exceeds part capacity {len(allowed)}")
        cur = [v for v in allowed if v in chosen]
        if len(cur) >= k:
            out.update(cur[:k])
        else:
            out.update(cur)
            missing = k - len(cur)
            for v in allowed:
                if missing == 0:
                    break
                if v not in chosen:
                    out.add(v)
                    missing -= 1
    return frozenset(out)


# ---------------------------------------------------------------------------
# end-to-end pipelines: relax (seed-independent), then round (per seed)


@dataclass(frozen=True)
class Relaxation:
    """The seed-independent half of the pipeline: a solved relaxation.

    Rounding it again with another seed repeats none of the kernel,
    program-building or SDP-solving work.
    """

    kernel: KernelResult
    program: SdpProgram
    moments: MomentVector
    graph: WeightedGraph  # the original graph the answer is lifted to

    @property
    def eps(self) -> float:
        return self.kernel.epsilon


def relax_multi(
    inst: ConstrainedInstance, eps: float, config: Config | None = None
) -> Relaxation:
    """Kernelize a partitioned instance and solve its relaxation at config.level."""
    if inst.c > C_CAP:
        raise InputError(f"{inst.c} parts exceed the cap {C_CAP}")
    kernel = kernelize_multi(inst, eps)
    program = build_program(kernel, (config or Config()).level)
    return Relaxation(kernel, program, solve(program), inst.graph)


def _trial_seed(seedseq: np.random.SeedSequence, t: int, i: int) -> np.random.SeedSequence:
    """Child i of trial t, the SeedSequence seedseq.spawn(trials)[t].spawn(n)[i]
    for any trials > t and n > i, built without spawning its siblings."""
    return np.random.SeedSequence(
        seedseq.entropy, spawn_key=(*seedseq.spawn_key, t, i), pool_size=seedseq.pool_size
    )


def _check_trials(trials: int):
    if trials < 1:
        raise InputError("need at least one rounding trial")


def round_relaxation(relaxation: Relaxation, config: Config | None = None) -> CutSolution:
    """Condition, round, correct and lift one solved relaxation at its eps.

    All randomness of the pipeline is here, drawn from config.seed.
    """
    config = config or Config()
    _check_trials(config.trials)
    check_seed(config.seed)
    kernel, program, mv = relaxation.kernel, relaxation.program, relaxation.moments
    trace = ["kernel", "sdp"]

    kept_parts = tuple(p - kernel.forbidden for p in kernel.parts)
    c = len(kept_parts)
    alpha = relaxation.eps**6  # independence target
    budget = min(INDEPENDENCE_BUDGET, mv.level - 2)
    try:
        mv = make_block_independent(
            mv, kept_parts, alpha, budget, config.seed, edges=program.edges
        )
        trace.append("independence")
    except SearchFailureError as exc:
        mv = exc.best if exc.best is not None else mv
        trace.append("independence:best-effort")

    bias = BiasProfile.from_moment_vector(mv)
    reduced = kernel.reduced
    seedseq = np.random.SeedSequence((config.seed, 1))
    # every trial's draw in one product: column t is trial t's raw rounding
    chosen = _draws(bias, [_trial_seed(seedseq, t, 0) for t in range(config.trials)])
    eu, ev, ew = reduced._edge_arrays
    crossing = (chosen[eu] ^ chosen[ev]).T
    raw = np.array([ew[row].sum() for row in crossing])  # cut_value's reduction
    # sizes in each part, then in each part's selectable vertices
    indicator = np.zeros((2 * c, reduced.n), dtype=np.int64)
    for j, part in enumerate((*kernel.parts, *kept_parts)):
        indicator[j, list(part)] = 1
    sizes = indicator @ chosen
    budgets = np.array(kernel.budgets)
    part_sizes = np.array([len(part) for part in kernel.parts])
    balanced = _balanced(sizes[:c], part_sizes[:, None], budgets[:, None], relaxation.eps)

    def drawn(t) -> frozenset:
        return frozenset(int(v) for v in np.flatnonzero(chosen[:, t]))

    best = None  # (value, reduced-id set), the first best balanced trial
    for t in np.flatnonzero(balanced.all(axis=0)).tolist():
        s, val = drawn(t), float(raw[t])
        # a part at its budget is left alone: its correction would draw nothing
        misses = np.flatnonzero(sizes[c:, t] != budgets).tolist()
        for j in misses:
            seed = _trial_seed(seedseq, t, 1 + j)
            s = random_correct(reduced, s, kept_parts[j], kernel.budgets[j], kernel.forbidden, seed)
        if misses:
            val = cut_value(reduced, s)
        if best is None or val > best[0]:
            best = (val, s)

    if best is not None:
        trace.extend(["rounding", "correction"])
        reduced_set = best[1]
    else:
        # Balance never held: greedily complete the first best raw rounding.
        trace.extend(["rounding", "correction:fallback"])
        reduced_set = greedy_feasible(
            reduced,
            kept_parts,
            kernel.budgets,
            kernel.forbidden,
            start=drawn(int(np.argmax(raw))),
        )

    for part, k in zip(kept_parts, kernel.budgets):
        if len(reduced_set & part) != k:
            raise AssertionError("pipeline produced an infeasible set")
    if reduced_set & kernel.forbidden:
        raise AssertionError("pipeline selected a super vertex")

    original_set = kernel.lift(reduced_set)
    return CutSolution(
        set=original_set,
        value=cut_value(relaxation.graph, original_set),
        feasible=True,
        stage_trace=tuple(trace),
    )


def _settings(eps: float, params: RoundingParams | None, config: Config | None) -> Config:
    """The config a pipeline runs with, seeded from params when given.

    Checked before relaxing, so a bad setting fails before the SDP solve.
    """
    config = config or Config()
    if params is not None:
        if params.eps != eps:
            raise InputError("eps argument disagrees with params.eps")
        config = replace(config, seed=params.rng_seed)
    _check_trials(config.trials)
    check_seed(config.seed)
    return config


def solve_single(
    g: WeightedGraph,
    k: int,
    eps: float,
    params: RoundingParams | None = None,
    config: Config | None = None,
) -> CutSolution:
    """Full pipeline for Max-Cut_k, the one-part instance |S| = k."""
    return solve_multi(ConstrainedInstance(g, [range(g.n)], [k]), eps, params, config)


def solve_multi(
    inst: ConstrainedInstance,
    eps: float,
    params: RoundingParams | None = None,
    config: Config | None = None,
) -> CutSolution:
    """Full pipeline for a partitioned instance with per-part budgets."""
    config = _settings(eps, params, config)
    return round_relaxation(relax_multi(inst, eps, config), config)
