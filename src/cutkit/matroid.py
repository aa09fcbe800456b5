"""Half-approximate Max-Cut over matroid bases: LP relaxation plus rounding.

The LP maximizes sum_e w_e y_e with y_e capped by both x_u + x_v and
2 - (x_u + x_v) over the base polytope.  Its point is kept as a convex
combination of bases, x = sum_B lambda_B 1_B, generated column by column:
the greedy algorithm prices a maximum-weight base under the edge-row duals
(Edmonds 1971), so every matroid kind needs only `is_independent`.  Swap
rounding (Chekuri, Vondrak & Zenklusen 2010) then merges the bases pair by
pair.  Each exchange moves x along e_i - e_j, where the quadratic cut proxy
sum_e w_e (x_u + x_v - 2 x_u x_v) is convex (Ageev & Sviridenko 2004), so
taking the better of the two moves never lowers it, and the final base cuts
at least half the LP optimum.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._highs import HIGHS, load
from .errors import CapacityError, InfeasibleError, InputError, StallError
from .graph import CutSolution, WeightedGraph, as_index, as_vertex_set, check_partition, cut_value

_FEAS_TOL = 1e-7
_PRICE_TOL = 1e-9  # least reduced-cost gain for a base to enter the master LP
_TIE_TOL = 1e-12  # quad-value gap, relative to the total weight, read as a tie


# ---------------------------------------------------------------------------
# matroid oracles


class MatroidOracle:
    """Independence-query abstraction over ground set [n]."""

    kind = "abstract"

    def __init__(self, n: int):
        self.n = as_index(n, "ground set size")

    def is_independent(self, s) -> bool:
        raise NotImplementedError

    def rank(self) -> int:
        raise NotImplementedError

    def _rank_table(self, masks) -> np.ndarray:
        """Rank of every subset in `masks` (int64 bitmasks over [n])."""
        raise NotImplementedError

    def max_weight_base(self, weight) -> frozenset:
        """Greedy base of largest total weight (Edmonds 1971): elements in
        decreasing weight, ties to the lower index, each kept when the set
        stays independent."""
        cur = set()
        for v in np.argsort(-np.asarray(weight, dtype=np.float64), kind="stable"):
            if self.is_independent(frozenset(cur | {int(v)})):
                cur.add(int(v))
        return frozenset(cur)

    def any_base(self) -> frozenset:
        return self.max_weight_base(np.zeros(self.n))


class PartitionMatroid(MatroidOracle):
    """Independent: at most k_i elements of each part V_i of a partition of [0, n)."""

    kind = "partition"

    def __init__(self, n: int, parts, budgets):
        super().__init__(n)
        self.parts, self.budgets = check_partition(self.n, parts, budgets)
        for p, k in zip(self.parts, self.budgets):
            if k > len(p):
                raise InfeasibleError(f"budget {k} exceeds part size {len(p)}")

    def is_independent(self, s) -> bool:
        s = frozenset(s)
        held = [len(s & p) for p in self.parts]
        # an element outside [0, n) lies in no part
        return sum(held) == len(s) and all(h <= k for h, k in zip(held, self.budgets))

    def rank(self) -> int:
        return sum(self.budgets)


class UniformMatroid(PartitionMatroid):
    """The one-part partition matroid: the sets of at most k elements."""

    kind = "uniform"

    def __init__(self, n: int, k: int):
        n, k = as_index(n, "ground set size"), as_index(k, "uniform rank")
        if not 0 <= k <= n:
            raise InfeasibleError(f"uniform rank {k} out of range for n={n}")
        super().__init__(n, [range(n)], [k])
        self.k = k


class GraphicMatroid(MatroidOracle):
    """Ground-set elements are the edges of an auxiliary graph; a subset is
    independent when those edges are acyclic."""

    kind = "graphic"

    def __init__(self, aux_vertices: int, aux_edges):
        super().__init__(len(aux_edges))
        self.aux_vertices = as_index(aux_vertices, "auxiliary vertex count")
        self.aux_edges = tuple(
            (as_index(a, "auxiliary edge end"), as_index(b, "auxiliary edge end"))
            for a, b in aux_edges
        )
        for a, b in self.aux_edges:
            if not (0 <= a < aux_vertices and 0 <= b < aux_vertices):
                raise InputError("auxiliary edge endpoint out of range")

    def _acyclic_rank(self, s):
        parent = list(range(self.aux_vertices))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        count = 0
        acyclic = True
        for idx in sorted(s):
            a, b = self.aux_edges[idx]
            ra, rb = find(a), find(b)
            if ra == rb:
                acyclic = False
            else:
                parent[ra] = rb
                count += 1
        return count, acyclic

    def is_independent(self, s) -> bool:
        return self._acyclic_rank(frozenset(s))[1]

    def rank_of(self, s) -> int:
        return self._acyclic_rank(frozenset(s))[0]

    def rank(self) -> int:
        return self.rank_of(range(self.n))

    def _rank_table(self, masks) -> np.ndarray:
        # one union-find over every subset at once: a row of component
        # labels per subset, relabelled edge by edge in index order
        verts, ends = np.unique(np.ravel(self.aux_edges), return_inverse=True)
        ends = ends.reshape(-1, 2)
        label = np.tile(np.arange(len(verts), dtype=np.int16), (len(masks), 1))
        rank = np.zeros(len(masks), dtype=np.int64)
        for e, (a, b) in enumerate(ends):
            la, lb = label[:, a, None], label[:, b, None]
            join = ((masks >> e) & 1).astype(bool) & (la[:, 0] != lb[:, 0])
            rank += join
            label = np.where(join[:, None] & (label == lb), la, label)
        return rank


class ExplicitMatroid(MatroidOracle):
    """Independence given by the downward closure of explicitly listed sets."""

    kind = "explicit"

    def __init__(self, n: int, independent_sets):
        super().__init__(n)
        if self.n > 63:  # each listed set is packed into an int64
            raise CapacityError(f"{self.n} elements exceed the explicit matroid's 63-bit masks")
        sets = [as_vertex_set(s, self.n) for s in independent_sets]
        if not sets:
            raise InfeasibleError("explicit matroid needs at least one set")
        # keep only maximal sets; the closure is unchanged
        masks = np.asarray([sum(1 << v for v in s) for s in sets], dtype=np.int64)
        keep = _not_dominated(masks)
        self.maximal = tuple(s for s, k in zip(sets, keep) if k)
        self._masks = masks[keep]

    def is_independent(self, s) -> bool:
        s = frozenset(s)
        return any(s <= t for t in self.maximal)

    def _rank_table(self, masks) -> np.ndarray:
        # max |A & T| over the listed sets T, a chunk of sets at a time so
        # that the (subsets x sets) temporary stays near 2^20 entries
        rank = np.zeros(len(masks), dtype=np.uint8)
        step = max(1, (1 << 20) // max(1, len(masks)))
        for i in range(0, len(self._masks), step):
            inter = np.bitwise_count(masks[:, None] & self._masks[None, i : i + step])
            np.maximum(rank, inter.max(axis=1), out=rank)
        return rank

    def rank(self) -> int:
        return max(len(s) for s in self.maximal)


def _not_dominated(masks) -> np.ndarray:
    """True where no mask in the list is a proper superset of the entry.

    A proper superset has a strictly larger popcount, so each size class is
    compared only with the larger sets, a chunk at a time so that the
    (sets x larger sets) temporary stays near 2^20 entries.
    """
    sizes = np.bitwise_count(masks)
    keep = np.ones(len(masks), dtype=bool)
    for size in np.flatnonzero(np.bincount(sizes)):  # np.unique would import numpy.ma
        larger = masks[sizes > size]
        here = np.nonzero(sizes == size)[0]
        step = max(1, (1 << 20) // max(1, larger.size))
        for i in range(0, here.size, step):
            idx = here[i : i + step]
            m = masks[idx, None]
            keep[idx] = ~((m & larger[None, :]) == m).any(axis=1)
    return keep


def spot_check_axioms(m: MatroidOracle, rng_seed=0, rounds=200) -> bool:
    """Hereditary + exchange checks; returns True when clean.

    Exhaustive over all independent-set pairs for n <= 12, randomized
    sampling beyond that.
    """
    if m.n <= 12:
        independents = []
        for mask in range(1 << m.n):
            s = frozenset(v for v in range(m.n) if (mask >> v) & 1)
            if m.is_independent(s):
                if s and any(not m.is_independent(s - {v}) for v in s):
                    return False
                independents.append(s)
        for s in independents:
            for b in independents:
                if len(s) < len(b):
                    if not any(m.is_independent(s | {v}) for v in b - s):
                        return False
        return True

    rng = np.random.default_rng(rng_seed)
    universe = list(range(m.n))
    for _ in range(rounds):
        size = int(rng.integers(0, m.n + 1))
        s = frozenset(rng.choice(universe, size=size, replace=False).tolist())
        if m.is_independent(s):
            if s and any(not m.is_independent(s - {v}) for v in s):
                return False
        size_b = int(rng.integers(0, m.n + 1))
        b = frozenset(rng.choice(universe, size=size_b, replace=False).tolist())
        if m.is_independent(s) and m.is_independent(b) and len(s) < len(b):
            if not any(m.is_independent(s | {v}) for v in b - s):
                return False
    return True


# ---------------------------------------------------------------------------
# LP relaxation


@dataclass(frozen=True)
class FractionalPoint:
    x: np.ndarray
    y: np.ndarray  # per-edge, aligned with g.edges
    value: float
    bases: tuple  # frozensets, in the order they entered the LP
    weights: np.ndarray  # x = sum of weights[b] * indicator(bases[b])


def _base_polytope_rows(n: int, bases) -> np.ndarray:
    """0/1 indicator rows of the generated bases, one row per base."""
    rows = np.zeros((len(bases), n))
    for r, base in enumerate(bases):
        rows[r, list(base)] = 1.0
    return rows


@cache
def _lp():
    """HiGHS's bindings and the options `linprog(method="highs")` passes
    to HiGHS, output off.  HiGHS is mapped here, on the first master LP,
    so a process that only builds matroids and enumerates them never maps
    it."""
    highs = load(HIGHS)
    opts = highs.HighsOptions()
    opts.presolve = "on"
    opts.output_flag = False
    opts.log_to_console = False
    opts.highs_debug_level = highs.HighsDebugLevel.kHighsDebugLevelNone
    opts.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    return highs, opts


_THREAD = threading.local()


def _solver():
    """This thread's HiGHS instance, given the options once.  passModel
    drops the previous model with its solution and basis, so every master
    is still solved from scratch."""
    solver = getattr(_THREAD, "highs", None)
    if solver is None:
        highs, opts = _lp()
        solver = _THREAD.highs = highs._Highs()
        solver.passOptions(opts)
    return solver


def _solve_master(ew, cover):
    """Solve one master LP on HiGHS; `cover[b, e]` is |B & e| for base b.

    The columns are y (one per edge) then lambda (one per base), and the
    rows are y_e - sum_B lambda_B |B & e| <= 0, then y_e + sum_B lambda_B
    |B & e| <= 2, then sum_B lambda_B = 1: the column-wise matrix, bounds
    and options `linprog(method="highs")` would build for the same master,
    so the answer is the same bits.  Returns the columns' values, the
    minimized objective -sum_e w_e y_e, the 2|E| edge-row duals and the
    sum-row dual.
    """
    nb, ne = cover.shape
    ncol, nrow = ne + nb, 2 * ne + 1
    # column y_e holds 1 in rows e and ne + e; column lambda_B is row B of
    # `lam`, whose nonzeros nonzero() walks in row order
    lam = np.hstack([-cover, cover, np.ones((nb, 1))])
    base, row = np.nonzero(lam)
    counts = np.concatenate([np.full(ne, 2), np.bincount(base, minlength=nb)])

    highs, _ = _lp()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = ncol
    lp.num_row_ = lp.a_matrix_.num_row_ = nrow
    lp.a_matrix_.format_ = highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = np.concatenate([[0], np.cumsum(counts)])
    lp.a_matrix_.index_ = np.concatenate([(np.arange(ne)[:, None] + [0, ne]).ravel(), row])
    lp.a_matrix_.value_ = np.concatenate([np.ones(2 * ne), lam[base, row]])
    lp.col_cost_ = np.concatenate([-ew, np.zeros(nb)])
    lp.col_lower_ = np.zeros(ncol)
    lp.col_upper_ = np.concatenate([np.ones(ne), np.full(nb, highs.kHighsInf)])
    lp.row_lower_ = np.concatenate([np.full(2 * ne, -highs.kHighsInf), [1.0]])
    lp.row_upper_ = np.concatenate([np.repeat([0.0, 2.0], ne), [1.0]])

    solver = _solver()
    solver.passModel(lp)
    solver.run()
    status = solver.getModelStatus()
    if status != highs.HighsModelStatus.kOptimal:
        raise InfeasibleError(f"LP failed: HiGHS model status {solver.modelStatusToString(status)}")
    solution = solver.getSolution()
    dual = np.array(solution.row_dual)
    return (
        np.array(solution.col_value),
        solver.getInfo().objective_function_value,
        dual[: 2 * ne],
        float(dual[2 * ne]),
    )


def solve_lp(g: WeightedGraph, m: MatroidOracle) -> FractionalPoint:
    """Optimal fractional point of the edge-capped cut relaxation.

    The master LP has y_e in [0, 1] and a weight lambda_B >= 0 per generated
    base B, with y_e <= sum_B lambda_B |B & e| and y_e + sum_B lambda_B
    |B & e| <= 2 per edge e, and sum_B lambda_B = 1.  With edge-row duals
    pi1, pi2 and the dual mu of the sum row, a base B improves the master
    when sum_{v in B} omega_v + mu > 0, where omega_v sums pi2_e - pi1_e over
    the edges at v; the greedy base of largest omega is the best such B.
    HiGHS solves each master through scipy's bindings (`_solve_master`),
    on one instance per thread.  Each master is built afresh, with the
    base cover grown one row per entering base: a model warm-started by
    adding columns ends degenerate masters on other optimal vertices, and
    so other bases.  HiGHS reads a cost at or above its `infinite_cost`
    (1e20) as infinite, so when the largest weight reaches it the masters
    are solved on the weights divided by the largest, and the value is
    scaled back.
    """
    if g.n != m.n:
        raise InputError("graph and matroid ground sets differ")
    base = m.any_base()
    if not m.is_independent(base) or len(base) < m.rank():
        raise InfeasibleError("matroid has no base")

    n, ne = g.n, len(g.edges)
    eu, ev, ew = g._edge_arrays
    scale = 1.0
    _, opts = _lp()
    if ne and ew.max() >= opts.infinite_cost:
        scale = ew.max()
        ew = ew / scale
    incidence = np.zeros((n, ne))
    incidence[eu, np.arange(ne)] = 1.0
    incidence[ev, np.arange(ne)] = 1.0
    bases = [base]
    cover = incidence[list(base)].sum(axis=0)[None, :]  # cover[b, e] = |B & e|
    while True:
        z, fun, pi, mu = _solve_master(ew, cover)
        omega = incidence @ (pi[ne:] - pi[:ne])
        entering = m.max_weight_base(omega)
        gain = omega[list(entering)].sum() + mu
        if gain <= _PRICE_TOL or entering in bases:
            break
        bases.append(entering)
        cover = np.vstack([cover, incidence[list(entering)].sum(axis=0)])

    lam = np.maximum(z[ne:], 0.0)
    keep = lam > 0.0
    bases = tuple(b for b, k in zip(bases, keep) if k)
    weights = lam[keep] / lam[keep].sum()
    x = weights @ _base_polytope_rows(n, bases)
    return FractionalPoint(x=x, y=z[:ne], value=float(-fun) * scale, bases=bases, weights=weights)


def quad_value(g: WeightedGraph, x) -> float:
    """Quadratic cut proxy; equals the cut value at integral points."""
    x = np.asarray(x, dtype=np.float64)
    if x.min(initial=0.0) < -_FEAS_TOL or x.max(initial=0.0) > 1.0 + _FEAS_TOL:
        raise InputError("coordinates must lie in [0, 1]")
    eu, ev, ew = g._edge_arrays
    return float(ew @ (x[eu] + x[ev] - 2.0 * x[eu] * x[ev]))


def check_sandwich(x: float, y: float):
    """Evaluate q <= min(x+y, 2-x-y) <= 2q with q = x + y - 2xy on [0,1]^2."""
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise InputError("inputs must lie in [0, 1]")
    lhs = x + y - 2.0 * x * y
    mid = min(x + y, 2.0 - x - y)
    rhs = 2.0 * lhs
    ok = lhs <= mid + 1e-12 and mid <= rhs + 1e-12
    return lhs, mid, rhs, ok


# ---------------------------------------------------------------------------
# swap rounding


def pipage_round(g: WeightedGraph, m: MatroidOracle, bases, weights) -> frozenset:
    """Round the point sum_b weights[b] * 1_{bases[b]} to a base without
    losing quad value, by deterministic swap rounding.

    The bases merge left to right into `cur`, which carries the weight of
    every base merged so far.  While `cur` differs from the next base
    `other`, take i = min(cur - other) and the first j in other - cur with
    both cur - i + j and other - j + i independent.  Either `other` takes i
    for j, moving x by w_other (e_i - e_j), or `cur` takes j for i, moving x
    by w_cur (e_j - e_i).  x lies between the two endpoints and the proxy is
    convex on that line, so the endpoint with the larger quad value is no
    worse than x.  On a tie the lighter side gives way, the shorter move
    that randomized swap rounding makes the more often.
    """
    if g.n != m.n:
        raise InputError("graph and matroid ground sets differ")
    bases = [as_vertex_set(b, m.n) for b in bases]
    weights = np.asarray(weights, dtype=np.float64)
    rank = m.rank()
    if weights.shape != (len(bases),) or not bases:
        raise InputError("need one weight per base and at least one base")
    if weights.min() < 0.0 or abs(weights.sum() - 1.0) > _FEAS_TOL:
        raise InputError("weights must be nonnegative and sum to 1")
    if any(len(b) != rank or not m.is_independent(b) for b in bases):
        raise InputError("a listed set is not a matroid base")

    x = weights @ _base_polytope_rows(m.n, bases)
    tie = _TIE_TOL * max(g.total_weight, 1.0)
    cur, w_cur = set(bases[0]), weights[0]
    for other, w_other in zip(bases[1:], weights[1:]):
        other = set(other)
        while cur != other:
            i = min(cur - other)
            j = next(
                (j for j in sorted(other - cur)
                 if m.is_independent(frozenset(cur - {i} | {j}))
                 and m.is_independent(frozenset(other - {j} | {i}))),
                None,
            )
            if j is None:
                raise StallError("no symmetric exchange: the listed family is not a matroid")
            d = np.zeros(m.n)
            d[i], d[j] = 1.0, -1.0
            q_other = quad_value(g, np.clip(x + w_other * d, 0.0, 1.0))
            q_cur = quad_value(g, np.clip(x - w_cur * d, 0.0, 1.0))
            if q_other > q_cur + tie or (q_other >= q_cur - tie and w_other <= w_cur):
                other = other - {j} | {i}
                x = x + w_other * d
            else:
                cur = cur - {i} | {j}
                x = x - w_cur * d
        w_cur = w_cur + w_other

    chosen = frozenset(cur)
    if len(chosen) != rank or not m.is_independent(chosen):
        raise StallError("swap rounding ended on a set that is not a matroid base")
    return chosen


def solve_matroid(g: WeightedGraph, m: MatroidOracle) -> CutSolution:
    """LP + swap rounding; the result cuts at least half of the LP optimum."""
    frac = solve_lp(g, m)
    chosen = pipage_round(g, m, frac.bases, frac.weights)
    return CutSolution(
        set=chosen,
        value=cut_value(g, chosen),
        feasible=m.is_independent(chosen) and len(chosen) == m.rank(),
        stage_trace=("lp", "pipage"),
    )
