"""Half-approximate Max-Cut over matroid bases: LP relaxation plus pipage.

The LP maximizes sum_e w_e y_e with y_e capped by both x_u + x_v and
2 - (x_u + x_v) over the base polytope.  Pipage rounding then walks the
fractional optimum along two-coordinate directions, using the convexity of
the quadratic cut proxy sum_e w_e (x_u + x_v - 2 x_u x_v) so its value
never drops, until the point is integral.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .config import Config
from .errors import CapacityError, InfeasibleError, InputError, StallError
from .graph import CutSolution, WeightedGraph, cut_value

_FEAS_TOL = 1e-7
_STEP_TOL = 1e-9


# ---------------------------------------------------------------------------
# matroid oracles


class MatroidOracle:
    """Independence-query abstraction over ground set [n]."""

    kind = "abstract"

    def __init__(self, n: int):
        self.n = int(n)
        self._rows = None  # (enumeration cap, rows) once _base_polytope_rows ran

    def is_independent(self, s) -> bool:
        raise NotImplementedError

    def rank(self) -> int:
        raise NotImplementedError

    def _rank_table(self, masks) -> np.ndarray:
        """Rank of every subset in `masks` (int64 bitmasks over [n])."""
        raise NotImplementedError

    def any_base(self) -> frozenset:
        """Greedy base through the exchange property."""
        cur = set()
        for v in range(self.n):
            if self.is_independent(frozenset(cur | {v})):
                cur.add(v)
        return frozenset(cur)

    def polytope_constraints(self, config: Config | None = None):
        """Rows x(A) <= bound defining the independence part of the base
        polytope, plus the implicit box [0,1]^n; together with x(V) = rank
        they carve out the base polytope exactly.  An (R, n+1) float array:
        the indicator of A in the first n columns, the bound in the last.
        By default every rank constraint is enumerated."""
        return _enumerated_constraints(self, config)


class UniformMatroid(MatroidOracle):
    kind = "uniform"

    def __init__(self, n: int, k: int):
        super().__init__(n)
        self.k = int(k)
        if not 0 <= self.k <= self.n:
            raise InfeasibleError(f"uniform rank {k} out of range for n={n}")

    def is_independent(self, s) -> bool:
        return len(frozenset(s)) <= self.k

    def rank(self) -> int:
        return self.k

    def polytope_constraints(self, config: Config | None = None):
        return _set_rows(self.n, [range(self.n)], [self.k])


class PartitionMatroid(MatroidOracle):
    kind = "partition"

    def __init__(self, n: int, parts, budgets):
        super().__init__(n)
        self.parts = tuple(frozenset(int(v) for v in p) for p in parts)
        self.budgets = tuple(int(k) for k in budgets)
        covered = set()
        for p in self.parts:
            if covered & p:
                raise InputError("partition matroid parts must be disjoint")
            covered |= p
        if covered != set(range(n)):
            raise InputError("partition matroid parts must cover the ground set")
        for p, k in zip(self.parts, self.budgets):
            if k < 0:
                raise InputError("budgets must be nonnegative")
            if k > len(p):
                raise InfeasibleError(f"budget {k} exceeds part size {len(p)}")

    def is_independent(self, s) -> bool:
        s = frozenset(s)
        return all(len(s & p) <= k for p, k in zip(self.parts, self.budgets))

    def rank(self) -> int:
        return sum(self.budgets)

    def polytope_constraints(self, config: Config | None = None):
        return _set_rows(self.n, self.parts, self.budgets)


class GraphicMatroid(MatroidOracle):
    """Ground-set elements are the edges of an auxiliary graph; a subset is
    independent when those edges are acyclic."""

    kind = "graphic"

    def __init__(self, aux_vertices: int, aux_edges):
        super().__init__(len(aux_edges))
        self.aux_vertices = int(aux_vertices)
        self.aux_edges = tuple((int(a), int(b)) for a, b in aux_edges)
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
        sets = [frozenset(int(v) for v in s) for s in independent_sets]
        for s in sets:
            for v in s:
                if not 0 <= v < n:
                    raise InputError(f"element {v} out of range")
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
    for size in np.unique(sizes):
        larger = masks[sizes > size]
        here = np.nonzero(sizes == size)[0]
        step = max(1, (1 << 20) // max(1, larger.size))
        for i in range(0, here.size, step):
            idx = here[i : i + step]
            m = masks[idx, None]
            keep[idx] = ~((m & larger[None, :]) == m).any(axis=1)
    return keep


def _enumerated_constraints(m: MatroidOracle, config: Config | None = None):
    """All rank constraints x(A) <= rank(A), enumerated over subsets."""
    config = config or Config()
    if m.n > config.matroid_enum_cap:
        raise CapacityError(
            f"ground set {m.n} exceeds enumerated-constraint cap "
            f"{config.matroid_enum_cap}"
        )
    masks = np.arange(1, 1 << m.n, dtype=np.int64)
    rows = np.empty((len(masks), m.n + 1))
    rows[:, : m.n] = (masks[:, None] >> np.arange(m.n)) & 1
    rows[:, m.n] = m._rank_table(masks)
    return rows


def _set_rows(n: int, sets, bounds):
    """Constraint rows x(A) <= bound for a short list of sets."""
    rows = np.zeros((len(bounds), n + 1))
    for r, (subset, bound) in enumerate(zip(sets, bounds)):
        rows[r, list(subset)] = 1.0
        rows[r, n] = bound
    return rows


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


def _base_polytope_rows(m: MatroidOracle, config: Config):
    """The kind's constraint rows, built once per matroid and enumeration
    cap, and shared read-only by the LP, the membership test and pipage."""
    cap = config.matroid_enum_cap
    if m._rows is None or m._rows[0] != cap:
        rows = m.polytope_constraints(config)
        rows.flags.writeable = False
        m._rows = (cap, rows)
    return m._rows[1]


def _constraint_matrix(m: MatroidOracle, config: Config):
    """0/1 membership matrix and bounds of the rank constraints."""
    rows = _base_polytope_rows(m, config)
    return rows[:, : m.n], rows[:, m.n]


def in_base_polytope(m: MatroidOracle, x, tol: float = _FEAS_TOL, config=None) -> bool:
    """Membership in the base polytope, via the kind's constraint rows."""
    config = config or Config()
    x = np.asarray(x, dtype=np.float64)
    if x.min(initial=0.0) < -tol or x.max(initial=0.0) > 1.0 + tol:
        return False
    if abs(x.sum() - m.rank()) > tol * max(1, m.n):
        return False
    mat, bounds = _constraint_matrix(m, config)
    if mat.size and (mat @ x > bounds + tol * np.maximum(1, mat.sum(axis=1))).any():
        return False
    return True


def solve_lp(
    g: WeightedGraph, m: MatroidOracle, config: Config | None = None
) -> FractionalPoint:
    """Optimal fractional point of the edge-capped cut relaxation."""
    config = config or Config()
    if g.n != m.n:
        raise InputError("graph and matroid ground sets differ")
    rank = m.rank()
    base = m.any_base()
    if not m.is_independent(base) or len(base) < rank:
        raise InfeasibleError("matroid has no base")

    n, ne = g.n, len(g.edges)
    nv = n + ne
    cost = np.zeros(nv)
    cost[n:] = [-w for _, _, w in g.edges]  # linprog minimizes

    # per edge, y_e - x_u - x_v <= 0 and y_e + x_u + x_v <= 2, then the rank
    # rows other than x(V) <= rank, which the equality x(V) = rank covers
    rows = _base_polytope_rows(m, config)
    rows = rows[rows[:, :n].sum(axis=1) < n]
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
        b_eq=np.asarray([float(rank)]),
        bounds=[(0.0, 1.0)] * nv,
        method="highs",
    )
    if not res.success:
        raise InfeasibleError(f"LP failed: {res.message}")
    x = np.clip(res.x[:n], 0.0, 1.0)
    y = res.x[n:]
    return FractionalPoint(x=x, y=y, value=float(-res.fun))


def quad_value(g: WeightedGraph, x) -> float:
    """Quadratic cut proxy; equals the cut value at integral points."""
    x = np.asarray(x, dtype=np.float64)
    if x.min(initial=0.0) < -_FEAS_TOL or x.max(initial=0.0) > 1.0 + _FEAS_TOL:
        raise InputError("coordinates must lie in [0, 1]")
    total = 0.0
    for u, v, w in g.edges:
        total += w * (x[u] + x[v] - 2.0 * x[u] * x[v])
    return float(total)


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
# pipage rounding


def _max_step(x, u, v, mat, bounds):
    """Largest t >= 0 with x + t(e_u - e_v) inside the polytope."""
    t = min(1.0 - x[u], x[v])
    if mat.size:
        sel = mat[:, u] > mat[:, v]  # holds u but not v
        if sel.any():
            slack = bounds[sel] - mat[sel] @ x
            t = min(t, float(slack.min()))
    return max(t, 0.0)


def pipage_round(
    g: WeightedGraph, m: MatroidOracle, x, config: Config | None = None
) -> frozenset:
    """Round a base-polytope point to a base without losing quad value.

    Repeatedly picks the lowest-index fractional coordinate u, finds the
    minimal tight constraint set containing u (its partner pool), then moves
    along +-(e_u - e_v) to whichever reachable endpoint has the larger quad
    value.  Each move makes a coordinate integral or tightens a new
    constraint, so the walk ends in a bounded number of steps.  When the
    preferred endpoint is x itself, the next step takes u = v, whose minimal
    tight set is strictly smaller, until a move has positive length.
    """
    config = config or Config()
    x = np.asarray(x, dtype=np.float64).copy()
    if x.shape != (g.n,):
        raise InputError("fractional point has wrong dimension")
    if not in_base_polytope(m, x, tol=_FEAS_TOL, config=config):
        raise InputError("point is outside the base polytope")

    mat, bounds = _constraint_matrix(m, config)

    def snap(vec):
        vec[np.abs(vec) < _STEP_TOL] = 0.0
        vec[np.abs(vec - 1.0) < _STEP_TOL] = 1.0

    snap(x)
    max_steps = 10 * g.n * g.n + 50
    blocked = None
    for _ in range(max_steps):
        frac = np.nonzero((x > 0.0) & (x < 1.0))[0]
        if frac.size == 0:
            break
        u = int(frac[0]) if blocked is None else blocked
        # minimal tight set containing u (x(V) = rank is always tight)
        tight = np.ones(g.n, dtype=bool)
        if mat.size:
            is_tight = (mat @ x >= bounds - _STEP_TOL) & (mat[:, u] > 0)
            if is_tight.any():
                tight = mat[is_tight].all(axis=0)
        partners = [int(v) for v in frac if v != u and tight[v]]
        if not partners:
            raise StallError("no fractional partner inside the tight set")
        v = partners[0]
        t_up = _max_step(x, u, v, mat, bounds)
        t_dn = _max_step(x, v, u, mat, bounds)
        d = np.zeros_like(x)
        d[u], d[v] = 1.0, -1.0
        cand_up = np.clip(x + t_up * d, 0.0, 1.0)
        cand_dn = np.clip(x - t_dn * d, 0.0, 1.0)
        q_up = quad_value(g, cand_up)
        q_dn = quad_value(g, cand_dn)
        base_q = quad_value(g, x)
        prev = x
        x = cand_up if q_up >= q_dn else cand_dn
        if max(q_up, q_dn) < base_q - 1e-9:
            raise StallError("quadratic value decreased during pipage")
        snap(x)
        # A chosen move of length zero is blocked by a tight set holding v
        # but not u; v's minimal tight set is then strictly smaller than
        # u's, so the next step pairs inside it.
        blocked = v if np.array_equal(x, prev) else None
    else:
        raise StallError(f"pipage made no progress within {max_steps} steps")

    chosen = frozenset(int(v) for v in np.nonzero(x > 0.5)[0])
    if len(chosen) != m.rank() or not m.is_independent(chosen):
        raise StallError("pipage endpoint is not a matroid base")
    return chosen


def solve_matroid(
    g: WeightedGraph, m: MatroidOracle, config: Config | None = None
) -> CutSolution:
    """LP + pipage; the result cuts at least half of the LP optimum."""
    config = config or Config()
    frac = solve_lp(g, m, config)
    chosen = pipage_round(g, m, frac.x, config)
    return CutSolution(
        set=chosen,
        value=cut_value(g, chosen),
        feasible=m.is_independent(chosen) and len(chosen) == m.rank(),
        stage_trace=("lp", "pipage"),
    )
