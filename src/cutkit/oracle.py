"""Exact brute-force solvers for all three problem variants.

Candidate sets are uint64 bitmasks built as numpy arrays, and cut values
are evaluated for whole blocks of them at once, so n = 22 (about 7e5
candidate sets at k = 11) takes a fraction of a second.  The matroid oracle
keeps the rank-sized sets whose rank, from the matroid's rank table, is
their size.  Ties on the optimum go to the lexicographically smallest list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import Config, TOL
from .errors import CapacityError, InfeasibleError, InputError
from .graph import ConstrainedInstance, WeightedGraph, as_vertex_set, cut_value

_CHUNK = 1 << 16  # sets per evaluated block; keeps a block's arrays in cache
_MASK_BITS = 64  # candidate sets are uint64 masks


@dataclass(frozen=True)
class OracleResult:
    opt_value: float
    best_set: frozenset
    optimal_count: int


def _check_mask_width(n: int):
    if n > _MASK_BITS:
        raise CapacityError(f"n={n} exceeds the {_MASK_BITS}-bit candidate mask")


def _mask_values(g: WeightedGraph, masks: np.ndarray) -> np.ndarray:
    """Cut value of every bitmask in `masks`.

    Each vertex bit is unpacked once per call; the weights of cut edges are
    then added in edge order.
    """
    bits = [((masks >> np.uint64(v)) & np.uint64(1)).astype(bool) for v in range(g.n)]
    vals = np.zeros(masks.shape[0], dtype=np.float64)
    for u, v, w in g.edges:
        vals += w * (bits[u] ^ bits[v])
    return vals


def _rev_codes(masks: np.ndarray, n: int) -> np.ndarray:
    """Bit-reversed encoding; larger code == lexicographically smaller id list."""
    rev = np.zeros(masks.shape[0], dtype=np.uint64)
    for v in range(n):
        rev |= (((masks >> np.uint64(v)) & np.uint64(1)) << np.uint64(n - 1 - v))
    return rev


def _mask_to_set(mask: int, n: int) -> frozenset:
    return frozenset(v for v in range(n) if (mask >> v) & 1)


class _BestTracker:
    """Running (max value, lex-min set, tie count) over mask chunks."""

    def __init__(self, g: WeightedGraph, atol: float = 1e-12):
        self.g = g
        self.atol = atol
        self.best_val = -np.inf
        self.best_rev = -1
        self.best_mask = None
        self.count = 0

    def feed(self, masks: np.ndarray):
        if masks.size == 0:
            return
        vals = _mask_values(self.g, masks)
        chunk_max = float(vals.max())
        if chunk_max < self.best_val - self.atol:
            return
        ties = masks[vals >= chunk_max - self.atol]
        revs = _rev_codes(ties, self.g.n)
        pick = int(revs.argmax())
        if chunk_max > self.best_val + self.atol:
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

    by_size[j] holds the j-subsets of the pool's suffix seen so far; adding
    the next smaller element v puts the sets that gain v ahead of those
    that do not, which is lexicographic order.  Sizes that can no longer
    reach k are dropped.
    """
    by_size = [np.zeros(1, dtype=np.uint64)] + [np.zeros(0, dtype=np.uint64)] * k
    for left, v in zip(range(len(pool) - 1, -1, -1), reversed(pool)):
        bit = np.uint64(1 << v)
        for j in range(k, max(k - left, 1) - 1, -1):
            by_size[j] = np.concatenate((by_size[j - 1] | bit, by_size[j]))
    return by_size[k]


def _chunks(masks: np.ndarray):
    for start in range(0, masks.size, _CHUNK):
        yield masks[start : start + _CHUNK]


def _feasible_masks(parts, budgets, forbidden, cap) -> np.ndarray:
    """uint64 masks of every set with exactly k_i vertices from part i
    outside `forbidden`: the first part's subsets vary slowest, each in lex
    order."""
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

    combined = _subset_masks(*pools[0])
    for pool, k in pools[1:]:
        combined = np.bitwise_or.outer(combined, _subset_masks(pool, k)).ravel()
    return combined


def _best(g: WeightedGraph, masks: np.ndarray) -> OracleResult:
    tracker = _BestTracker(g)
    for chunk in _chunks(masks):
        tracker.feed(chunk)
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
    if g.n > config.oracle_n_max:
        raise CapacityError(f"n={g.n} exceeds oracle cap {config.oracle_n_max}")
    _check_mask_width(g.n)
    forbidden = as_vertex_set(forbidden, g.n)
    everyone = frozenset(range(g.n))
    return _best(g, _feasible_masks([everyone], [k], forbidden, config.oracle_combo_cap))


def oracle_constrained(
    inst: ConstrainedInstance, forbidden=frozenset(), config: Config | None = None
) -> OracleResult:
    """Exact optimum over sets meeting every part budget exactly."""
    config = config or Config()
    _check_mask_width(inst.graph.n)
    forbidden = as_vertex_set(forbidden, inst.graph.n)
    masks = _feasible_masks(inst.parts, inst.budgets, forbidden, config.oracle_combo_cap)
    return _best(inst.graph, masks)


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
    return _best(g, np.concatenate([masks[:0], *bases]))


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
        masks = _feasible_masks(inst.parts, inst.budgets, frozenset(), config.oracle_combo_cap)
    except InfeasibleError:
        return False
    for chunk in _chunks(masks):
        if float(_mask_values(inst.graph, chunk).max()) >= target - TOL:
            return True
    return False
