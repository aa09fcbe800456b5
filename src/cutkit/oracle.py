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
gives one pair of sides.  When every feasible set fits one block, all
allowed vertices go to A.  The matroid oracle keeps the rank-sized sets
whose rank, from the matroid's rank table, is their size, and scores them
edge by edge.  Ties on the optimum go to the lexicographically smallest
list.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._blas import ONE_BLAS_THREAD
from .config import Config, TOL
from .errors import CapacityError, InfeasibleError, InputError
from .graph import ConstrainedInstance, WeightedGraph, as_vertex_set, cut_value

_CHUNK = 1 << 16  # values per scored block; keeps a block's arrays in cache
_MASK_BITS = 64  # candidate sets are uint64 masks
_NO_SET = np.zeros(1, dtype=np.uint64)  # the one set on an empty side
_TIE_ATOL = 1e-12  # cut values this close to the best tie with it


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

    def result(self) -> OracleResult:
        best = _mask_to_set(self.best_mask, self.g.n)
        # Recompute with the canonical evaluator so stored and re-derived
        # values agree bit for bit.
        return OracleResult(cut_value(self.g, best), best, self.count)


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


def _chunks(masks: np.ndarray):
    for start in range(0, masks.size, _CHUNK):
        yield masks[start : start + _CHUNK]


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


def _split_point(pools) -> int:
    """How many allowed vertices go to side A: all of them when every
    feasible set fits one block, else the count that makes the A-side and
    B-side sets fewest, since each of those is scored edge by edge."""
    listed = sum(len(pool) for pool, _ in pools)
    sets = [math.comb(len(pool), k) for pool, k in pools]
    if math.prod(sets) <= _CHUNK:
        return listed

    def side_sets(at):
        j, t, a_range = _straddle(pools, at)
        head, tail = math.prod(sets[:j]), math.prod(sets[j + 1 :])
        n_j, k = len(pools[j][0]), pools[j][1]
        return sum(head * math.comb(t, a) + math.comb(n_j - t, k - a) * tail for a in a_range)

    return min(range(listed + 1), key=side_sets)


def _blocks(g: WeightedGraph, pools):
    """(vals, rows, cols) for every feasible set, in blocks of at most
    _CHUNK sets: vals[r, c] is the cut value of rows[r] | cols[c].

    With A and B the two sides, cut(S) = cut(S & A) + cut(S & B)
    - 2 w(S & A, S & B); the first two terms are scored once per side set,
    and the cross weights of a block come from one matrix product.
    """
    listed = [v for pool, _ in pools for v in pool]
    at = _split_point(pools)
    on_a, on_b = set(listed[:at]), set(listed[at:])
    # (A end, B end, weight) of each edge across the split
    cross = [
        (u, v, w) if u in on_a else (v, u, w)
        for u, v, w in g.edges
        if (u in on_a and v in on_b) or (u in on_b and v in on_a)
    ]
    pairs = _sides(pools, at)
    flat = np.concatenate([x for pair in pairs for x in pair])
    cuts = _mask_values(g, flat)  # cut value of each side set on its own
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
    start = 0
    for xa, xb in pairs:
        a = slice(start, start + xa.size)
        b = slice(a.stop, a.stop + xb.size)
        start = b.stop
        width = min(xb.size, _CHUNK)
        height = max(1, _CHUNK // width)
        for c in range(b.start, b.stop, width):
            cols = slice(c, min(c + width, b.stop))
            for r in range(a.start, a.stop, height):
                rows = slice(r, min(r + height, a.stop))
                vals = cuts[rows, None] + cuts[None, cols]
                if cross:  # else the cross term is 0, as with every vertex on A
                    vals -= reach[rows] @ in_b[cols].T
                yield vals, flat[rows], flat[cols]


def _best(g: WeightedGraph, blocks) -> OracleResult:
    tracker = _BestTracker(g)
    with ONE_BLAS_THREAD:
        for block in blocks:
            tracker.feed(*block)
    if tracker.best_mask is None:
        raise InfeasibleError("no feasible set")
    return tracker.result()


def oracle_maxcut_k(
    g: WeightedGraph, k: int, forbidden=frozenset(), config: Config | None = None
) -> OracleResult:
    """Exact maximum cut over all k-subsets avoiding `forbidden`."""
    config = config or Config()
    k = int(k)
    if k < 0 or k > g.n:
        raise InputError(f"k={k} out of range for n={g.n}")
    _check_mask_width(g.n)
    forbidden = as_vertex_set(forbidden, g.n)
    everyone = frozenset(range(g.n))
    return _best(g, _blocks(g, _pools([everyone], [k], forbidden, config.oracle_combo_cap)))


def oracle_constrained(
    inst: ConstrainedInstance, forbidden=frozenset(), config: Config | None = None
) -> OracleResult:
    """Exact optimum over sets meeting every part budget exactly."""
    config = config or Config()
    _check_mask_width(inst.graph.n)
    forbidden = as_vertex_set(forbidden, inst.graph.n)
    pools = _pools(inst.parts, inst.budgets, forbidden, config.oracle_combo_cap)
    return _best(inst.graph, _blocks(inst.graph, pools))


def oracle_matroid(g: WeightedGraph, m, config: Config | None = None) -> OracleResult:
    """Exact maximum cut over the bases of matroid m."""
    config = config or Config()
    _check_mask_width(g.n)
    rank = m.rank()
    if math.comb(g.n, rank) > config.oracle_combo_cap:
        raise CapacityError(
            f"C({g.n},{rank}) exceeds enumeration cap {config.oracle_combo_cap}"
        )
    masks = _subset_masks(range(g.n), rank)
    # a block at a time, which bounds the rank table's temporaries
    bases = [c[m._rank_table(c.view(np.int64)) == rank] for c in _chunks(masks)]
    bases = np.concatenate([masks[:0], *bases])
    return _best(g, ((_mask_values(g, c)[:, None], c, _NO_SET) for c in _chunks(bases)))


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
    with ONE_BLAS_THREAD:
        return any(
            float(vals.max()) >= target - TOL for vals, _, _ in _blocks(inst.graph, pools)
        )
