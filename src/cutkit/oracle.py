"""Exact brute-force solvers for all three problem variants.

Candidate sets are uint64 bitmasks held in numpy arrays.  The k-subset,
partitioned and all-edges-cut oracles meet in the middle: they list the
allowed vertices part by part and cut the list into halves A and B, so that
every feasible set S is an A-side set joined to a B-side set and

    cut(S) = cut(S & A) + cut(S & B) - 2 w(S & A, S & B).

The first two terms are scored once per side set, edge by edge; the cross
term of a whole block of A-side by B-side sets is one matrix product, run
with OpenBLAS held to one thread.  The cut in the list falls inside at most
one part, and each way of dividing that part's budget between the halves
gives one pair of sides.  The split goes where the sides hold the fewest
sets, and only where it pays: scoring every set edge by edge costs sets x
edges, the split side sets x edges plus one value per pair.  Where it does
not pay, side A takes every allowed vertex: the one pair is then every
feasible set against the empty set, no edge crosses, and each set is
scored edge by edge.

Weights are nonnegative, so cut(S & A) + cut(S & B) bounds cut(S).  Pairs
are scored in order of that bound, and the sides of a pair that fills more
than one block are sorted by cut, so that a floor ends each row's columns
and the rows themselves: target - TOL for the decision, and the running
best less the tie tolerance for the optimizing oracles.  When nothing is
forbidden and every budget is half its part, S and V - S cut the same
edges; the oracles then list only the sets that hold vertex 0, which of
the two lists first, and count each optimum twice.

The split point and the side sets read only the pools, the edge count and
_CHUNK, so `_plan` builds them once per such key and keeps them in a
bounded LRU.

The matroid oracle lists a partition (or uniform) matroid's bases as the
feasible sets of its parts and budgets, halved as above.  Of a graphic or
explicit matroid it lists the rank-sized sets through the same search and
keeps the bases: a set whose rank-table rank is below its size scores
-inf, and a block with no base is skipped.  A non-base only lowers a
block, so the floor holds; nothing is halved, as the complement of such a
base is in general not a base.  Ties on the optimum go to the
lexicographically smallest list.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._blas import ONE_BLAS_THREAD
from ._cache import bounded_cache
from .config import Config, TOL
from .errors import CapacityError, InfeasibleError, InputError
from .graph import ConstrainedInstance, WeightedGraph, as_vertex_set, cut_value

_CHUNK = 1 << 16  # values per scored block; keeps a block's arrays in cache
_MASK_BITS = 64  # candidate sets are uint64 masks
_TIE_ATOL = 1e-12  # cut values this close to the best tie with it

# Spare (2, >= _CHUNK) float64 workspaces of `_blocks` calls that have
# ended.  A call pops one and pushes it back when it ends, so the list holds
# at most as many as there were calls open at once; pop and append are each
# atomic, so no two open calls share one.
_SPARES = []

# The enumeration plans of the most recently seen pools are kept,
# within this many entries and this many bytes of masks; a larger plan is
# built for each call and not kept.
_PLAN_CACHE_ENTRIES = 256
_PLAN_CACHE_BYTES = 8 << 20


@dataclass(frozen=True)
class OracleResult:
    opt_value: float
    best_set: frozenset
    optimal_count: int


def _check_mask_width(n: int):
    if n > _MASK_BITS:
        raise CapacityError(f"n={n} exceeds the {_MASK_BITS}-bit candidate mask")


def _bytes(masks: np.ndarray) -> np.ndarray:
    """The masks as rows of 8 bytes, least significant byte first."""
    return masks.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)


# vertex v is bit _SHIFT[v] of byte _PLANE[v] of a mask
_PLANE = np.arange(_MASK_BITS) >> 3
_SHIFT = (np.arange(_MASK_BITS) & 7).astype(np.uint8)[:, None]


def _unpack(masks: np.ndarray, n: int) -> np.ndarray:
    """Bool matrix whose row v says which masks hold vertex v, for v < n."""
    planes = np.ascontiguousarray(_bytes(masks)[:, : (n + 7) // 8].T)  # row b: byte b of each mask
    return ((planes[_PLANE[:n]] >> _SHIFT[:n]) & np.uint8(1)).view(bool)


def _mask_values(g: WeightedGraph, masks: np.ndarray) -> np.ndarray:
    """Cut value of every bitmask in `masks`.

    The vertex bits are unpacked once per call; the weights of cut edges
    are then added in edge order.
    """
    bits = _unpack(masks, g.n)
    vals = np.zeros(masks.shape[0], dtype=np.float64)
    for u, v, w in g.edges:
        vals += w * (bits[u] ^ bits[v])
    return vals


# _REV8[b] is the byte b with its bit order reversed
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _rev_codes(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit-reversed encoding; larger code == lexicographically smaller id list.

    Reversing all 64 bits puts vertex v at bit 63 - v; the shift leaves it
    at bit n - 1 - v.
    """
    reversed64 = _REV8[_bytes(masks)[:, ::-1]].view("<u8").ravel()
    return reversed64 >> np.uint64(64 - n)


def _mask_to_set(mask: int, n: int) -> frozenset:
    return frozenset(v for v in range(n) if (mask >> v) & 1)


class _BestTracker:
    """Running (max value, lex-min set, tie count) over scored blocks."""

    def __init__(self, g: WeightedGraph):
        self.g = g
        self.best_val = -np.inf
        self.best_rev = -1
        self.best_mask = None
        self.count = 0

    def feed(self, vals: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        """Takes vals[r, c], the cut value of the set rows[r] | cols[c]."""
        chunk_max = float(vals.max())
        if chunk_max < self.best_val - _TIE_ATOL:
            return
        r, c = np.nonzero(vals >= chunk_max - _TIE_ATOL)
        ties = rows[r] | cols[c]
        revs = _rev_codes(ties, self.g.n)
        pick = int(revs.argmax())
        if chunk_max > self.best_val + _TIE_ATOL:
            self.best_val = chunk_max
            self.best_rev = int(revs[pick])
            self.best_mask = int(ties[pick])
            self.count = int(ties.size)
        else:
            self.count += int(ties.size)
            if int(revs[pick]) > self.best_rev:
                self.best_rev = int(revs[pick])
                self.best_mask = int(ties[pick])

    def floor(self) -> float:
        """The least cut value that can still tie the best so far."""
        return self.best_val - _TIE_ATOL

    def result(self, copies: int = 1) -> OracleResult:
        """The optimum, when each scored set stands for `copies` sets."""
        if self.best_mask is None:
            raise InfeasibleError("no feasible set")
        best = _mask_to_set(self.best_mask, self.g.n)
        # Recompute with the canonical evaluator so stored and re-derived
        # values agree bit for bit.
        return OracleResult(cut_value(self.g, best), best, copies * self.count)


def _subset_masks(pool, k) -> np.ndarray:
    """uint64 masks of all k-subsets of the sorted `pool`, in lex order.

    Lex order groups the j-subsets by their first element, ascending, and
    the j-subsets of a suffix of the pool come last.  So after step j,
    `masks` holds the j-subsets of pool[k - j:], the only ones that can
    still grow to size k, and step j + 1 puts each possible first element
    in front of the last (j)-subsets that fit after it.
    """
    if k == 0:
        return np.zeros(1, dtype=np.uint64)
    if k > len(pool):
        return np.zeros(0, dtype=np.uint64)
    bits = np.array([1 << v for v in pool], dtype=np.uint64)
    masks = bits[k - 1 :]
    for j in range(2, k + 1):
        firsts = range(k - j, len(pool) - j + 1)
        counts = [math.comb(len(pool) - e - 1, j - 1) for e in firsts]
        tails = [masks[masks.size - c :] for c in counts]
        masks = np.concatenate(tails) | np.repeat(bits[firsts.start : firsts.stop], counts)
    return masks


def _product(factors) -> np.ndarray:
    """Every union of one mask from each factor, the first varying slowest."""
    return functools.reduce(lambda x, y: np.bitwise_or.outer(x, y).ravel(), factors)


def _pools(parts, budgets, forbidden, cap) -> list:
    """(sorted allowed vertices, budget) of each part.  InfeasibleError when
    a budget exceeds its allowed vertices, CapacityError when there are more
    than `cap` feasible sets."""
    pools = []
    total = 1
    for p, k in zip(parts, budgets):
        pool = sorted(p - forbidden)
        if k > len(pool):
            raise InfeasibleError(
                f"part needs {k} vertices but only {len(pool)} are allowed"
            )
        total *= math.comb(len(pool), k)
        pools.append((pool, k))
    if total > cap:
        raise CapacityError(f"{total} feasible sets exceed enumeration cap {cap}")
    return pools


def _straddle(pools, at) -> tuple:
    """(j, t, a_range): the first `at` allowed vertices, listed part by part
    (0 <= at <= their number), end after the t-th vertex of part j, and
    a_range holds every share of part j's budget that side A can take
    while side B takes the rest."""
    for j, (pool, k) in enumerate(pools):
        if at <= len(pool):
            return j, at, range(max(0, k - (len(pool) - at)), min(k, at) + 1)
        at -= len(pool)


def _sides(pools, at) -> list:
    """(A-side masks, B-side masks) of each block pair when side A holds the
    first `at` allowed vertices, listed part by part.  Every feasible set is
    the union of an A-side and a B-side mask of exactly one pair."""
    j, t, a_range = _straddle(pools, at)
    head = [_subset_masks(pool, k) for pool, k in pools[:j]]
    tail = [_subset_masks(pool, k) for pool, k in pools[j + 1 :]]
    pool, k = pools[j]
    return [
        (
            _product(head + [_subset_masks(pool[:t], a)]),
            _product([_subset_masks(pool[t:], k - a)] + tail),
        )
        for a in a_range
    ]


def _split_point(pools, edges: int) -> int:
    """How many allowed vertices go to side A.

    Scoring every feasible set edge by edge costs sets x edges; the split
    with the fewest side sets costs side sets x edges plus one value per
    pair of side sets.  All vertices go to A, whose one pair of sides is
    every set and the empty set, when that is cheaper or the sets fill at
    most an eighth of a block: on so few, a split's set-up outweighs its
    saving.
    """
    listed = sum(len(pool) for pool, _ in pools)
    sets = [math.comb(len(pool), k) for pool, k in pools]
    total = math.prod(sets)
    if total <= _CHUNK // 8:
        return listed

    def side_sets(at):
        j, t, a_range = _straddle(pools, at)
        head, tail = math.prod(sets[:j]), math.prod(sets[j + 1 :])
        n_j, k = len(pools[j][0]), pools[j][1]
        return sum(head * math.comb(t, a) + math.comb(n_j - t, k - a) * tail for a in a_range)

    count, at = min((side_sets(at), at) for at in range(listed + 1))
    return at if count * edges + total < total * edges else listed


def _pinned(pools, n: int) -> tuple:
    """(pools, copies).  When the pools hold all n vertices and every budget
    is half its pool, S and its complement are both feasible and cut the
    same edges, and the one holding vertex 0 lists first: the pools of the
    sets that hold vertex 0, each standing for 2 sets.  Else `pools`, 1."""
    listed = sum(len(pool) for pool, _ in pools)
    if listed == 0 or listed < n or any(2 * k != len(pool) for pool, k in pools):
        return pools, 1
    j = next(j for j, (pool, _) in enumerate(pools) if pool and pool[0] == 0)
    pool, k = pools[j]
    return pools[:j] + [([0], 1), (pool[1:], k - 1)] + pools[j + 1 :], 2


class _Plan(NamedTuple):
    """How the feasible sets of some pools are listed.  Side A holds the
    first `at` allowed vertices, listed part by part.  `flat` holds the
    A-side then the B-side sets of each pair of `_sides`, `sizes` their
    counts; with no split, the one pair of every set and the empty set.
    `flat` is read-only."""

    at: int
    flat: np.ndarray
    sizes: tuple

    @property
    def nbytes(self) -> int:
        return self.flat.nbytes


@bounded_cache(lambda: (_PLAN_CACHE_ENTRIES, _PLAN_CACHE_BYTES))
def _plan(key) -> _Plan:
    """The plan of key = (pools, edges, _CHUNK), pools holding the (sorted
    allowed vertices, budget) of each pool in list order, as tuples."""
    pools, edges, _ = key
    at = _split_point(pools, edges)
    lists = [x for pair in _sides(pools, at) for x in pair]
    flat = np.concatenate(lists)
    flat.flags.writeable = False
    return _Plan(at, flat, tuple(x.size for x in lists))


def _side_sets(pools, edges: int) -> tuple:
    """(at, flat, sizes) of the `_Plan` of these pools and edge count."""
    return _plan((tuple((tuple(pool), k) for pool, k in pools), edges, _CHUNK))


def _blocks(g: WeightedGraph, pools, floor=lambda: -math.inf):
    """(vals, rows, cols) blocks of at most _CHUNK sets: vals[r, c] is the
    cut value of rows[r] | cols[c].  No feasible set comes twice, and every
    one whose cut is at least floor() comes once; floor() is read again
    before each band of blocks, so it may rise while they are scored.

    With A and B the two sides, cut(S) = cut(S & A) + cut(S & B)
    - 2 w(S & A, S & B); the first two terms are scored once per side set,
    and the cross weights of a block come from one matrix product.  As
    weights are nonnegative, the first two terms bound cut(S).  Pairs go
    in order of that bound at their best sets; the sides of a pair that
    fills more than one block are sorted by cut, so that the floor ends
    each band's columns and the bands.  With no split, side B holds only
    the empty set, so the blocks are one column of sets scored directly.

    Every block of a call is written into one workspace, taken from
    `_SPARES` (or allocated) when the first block is asked for and
    returned when the call ends, closed early included: fresh block-sized
    arrays would fault in fresh pages for each block.  So a yielded `vals`
    is valid only until the next block is asked for; copy it to keep it.
    """
    listed = [v for pool, _ in pools for v in pool]
    at, flat, sizes = _side_sets(pools, len(g.edges))
    cuts = _mask_values(g, flat)  # cut value of each side set on its own
    on_a, on_b = set(listed[:at]), set(listed[at:])
    # (A end, B end, weight) of each edge across the split
    cross = [
        (u, v, w) if u in on_a else (v, u, w)
        for u, v, w in g.edges
        if (u in on_a and v in on_b) or (u in on_b and v in on_a)
    ]
    if cross:
        # only the ends of crossing edges enter the products: per side set,
        # twice its weight to each B end (read for an A-side set) and its
        # B ends (read for a B-side set)
        a_ends = sorted({u for u, _, _ in cross})
        b_ends = sorted({v for _, v, _ in cross})
        w2 = np.zeros((len(a_ends), len(b_ends)))
        for u, v, w in cross:
            w2[a_ends.index(u), b_ends.index(v)] = 2.0 * w
        ends = _unpack(flat, g.n)[a_ends + b_ends].T.astype(np.float64)
        reach = ends[:, : len(a_ends)] @ w2
        in_b = ends[:, len(a_ends) :]
    starts = [0, *itertools.accumulate(sizes[:-1])]
    best = np.maximum.reduceat(cuts, starts).tolist()  # best cut of each side
    spans = []  # (bound, A side, B side, sorted): the sides index flat
    for i in range(0, len(sizes), 2):
        a = slice(starts[i], starts[i] + sizes[i])
        b = slice(a.stop, a.stop + sizes[i + 1])
        ordered = min(sizes[i], sizes[i + 1]) > 1 and sizes[i] * sizes[i + 1] > _CHUNK
        if ordered:
            a = a.start + np.argsort(-cuts[a], kind="stable")
            b = b.start + np.argsort(-cuts[b], kind="stable")
        spans.append((best[i] + best[i + 1], a, b, ordered))
    try:
        work = _SPARES.pop()
    except IndexError:
        work = None
    if work is None or work.shape[1] < _CHUNK:
        work = np.empty((2, _CHUNK))
    try:
        for bound, a, b, ordered in sorted(spans, key=lambda span: -span[0]):
            ca, cb, ma, mb = cuts[a], cuts[b], flat[a], flat[b]
            if ordered:
                ka, kb = -ca, -cb  # ascending, for searchsorted
            if cross:
                ra, rb = reach[a], in_b[b]
            rows, ncols = ca.size, cb.size
            r = 0
            while r < rows:
                least = floor()
                # cut values sum nonnegative terms, so their relative rounding
                # error is far below this margin
                least -= TOL * (1.0 + abs(least))
                if ordered:  # the rows that can reach the floor, and row r's columns
                    rows = int(np.searchsorted(ka, cb[0] - least, side="right"))
                    ncols = int(np.searchsorted(kb, ca[r] - least, side="right"))
                if bound < least or r >= rows or ncols == 0:
                    break
                width = min(ncols, _CHUNK)
                top = slice(r, min(r + _CHUNK // width, rows))
                for c in range(0, ncols, width):
                    cols = slice(c, min(c + width, ncols))
                    shape = (top.stop - r, cols.stop - c)
                    vals = work[0, : shape[0] * shape[1]].reshape(shape)
                    np.add(ca[top, None], cb[None, cols], out=vals)
                    if cross:  # else no edge crosses the split
                        crossed = work[1, : vals.size].reshape(shape)
                        vals -= np.matmul(ra[top], rb[cols].T, out=crossed)
                    yield vals, ma[top], mb[cols]
                r = top.stop
    finally:
        _SPARES.append(work)


def _best(g: WeightedGraph, pools, copies: int = 1, keep=None) -> OracleResult:
    """The optimum over the feasible sets of `pools`, each standing for
    `copies` sets; blocks that cannot reach the running best are skipped.
    keep(rows, cols), when given, says which sets rows[r] | cols[c] of a
    block count: the others score -inf, and a block with none is skipped."""
    tracker = _BestTracker(g)
    with ONE_BLAS_THREAD:
        for vals, rows, cols in _blocks(g, pools, tracker.floor):
            if keep is not None:
                kept = keep(rows, cols)
                if not kept.any():  # else the tracker would score a block of -inf
                    continue
                np.copyto(vals, -np.inf, where=~kept)
            tracker.feed(vals, rows, cols)
    return tracker.result(copies)


def _constrained(inst: ConstrainedInstance, forbidden, config: Config | None) -> OracleResult:
    """The optimum of `oracle_constrained`, which `oracle_maxcut_k` shares."""
    config = config or Config()
    _check_mask_width(inst.graph.n)
    forbidden = as_vertex_set(forbidden, inst.graph.n)
    pools = _pools(inst.parts, inst.budgets, forbidden, config.oracle_combo_cap)
    return _best(inst.graph, *_pinned(pools, inst.graph.n))


def oracle_maxcut_k(
    g: WeightedGraph, k: int, forbidden=frozenset(), config: Config | None = None
) -> OracleResult:
    """Exact maximum cut over all k-subsets avoiding `forbidden`: the
    one-part instance of `oracle_constrained`."""
    return _constrained(ConstrainedInstance(g, [range(g.n)], [k]), forbidden, config)


def oracle_constrained(
    inst: ConstrainedInstance, forbidden=frozenset(), config: Config | None = None
) -> OracleResult:
    """Exact optimum over sets meeting every part budget exactly."""
    return _constrained(inst, forbidden, config)


def oracle_matroid(g: WeightedGraph, m, config: Config | None = None) -> OracleResult:
    """Exact maximum cut over the bases of matroid m.  A partition (or
    uniform) matroid's bases are listed as its parts' feasible sets."""
    config = config or Config()
    if g.n != m.n:
        raise InputError("graph and matroid ground sets differ")
    from .matroid import PartitionMatroid  # here, as the other oracles never load it
    if isinstance(m, PartitionMatroid):
        return _constrained(ConstrainedInstance(g, m.parts, m.budgets), frozenset(), config)
    _check_mask_width(g.n)
    rank = m.rank()
    pools = _pools([frozenset(range(g.n))], [rank], frozenset(), config.oracle_combo_cap)

    def is_base(rows, cols):
        unions = (rows[:, None] | cols).ravel().view(np.int64)
        return (m._rank_table(unions) == rank).reshape(rows.size, cols.size)

    # never pinned: a graphic or explicit base's complement is in general no base
    return _best(g, pools, keep=is_base)


def oracle_all_cut_decision(
    inst: ConstrainedInstance, config: Config | None = None
) -> bool:
    """Whether some feasible set cuts the entire edge weight.

    Infeasible instances (a budget exceeding its part) decide False.
    """
    config = config or Config()
    _check_mask_width(inst.graph.n)
    target = inst.graph.total_weight
    try:
        pools = _pools(inst.parts, inst.budgets, frozenset(), config.oracle_combo_cap)
    except InfeasibleError:
        return False
    pools, _ = _pinned(pools, inst.graph.n)
    least = target - TOL
    with ONE_BLAS_THREAD:
        return any(
            float(vals.max()) >= least for vals, _, _ in _blocks(inst.graph, pools, lambda: least)
        )
