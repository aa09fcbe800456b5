"""Moment-vector machinery for small conditioned cut relaxations.

A level-L vector stores pseudo-moments of all +-1 monomials on subsets of
size <= 2L.  The moment matrix indexed by subsets of size <= L has entry
(I, J) equal to the moment of the symmetric difference I ^ J, so PSD-ness,
marginal extraction, and conditioning are all cheap index arithmetic on
bitmasks.  The program solver takes coordinates on the affine constraint
set and on the face of the PSD cone that the cardinality rows force, and
solves the resulting small linear matrix inequality by a primal-dual
interior-point method.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, product
from typing import NamedTuple

import numpy as np

from ._blas import ONE_BLAS_THREAD
from ._cache import bounded_cache
from ._highs import FLAPACK, load
from .config import PSD_TOL
from .errors import (
    CapacityError,
    ConvergenceError,
    DegenerateEventError,
    InfeasibleError,
    InputError,
    SearchFailureError,
)
from .kernel import KernelResult

_flapack = load(FLAPACK)

_LUT_N_MAX = 20  # mask lookup tables get size 2^n

# The relaxation's size policy.  auto_level picks level 4, else 3, while the
# moment-matrix side N stays within these
_LEVEL4_MAX_DIM, _LEVEL3_MAX_DIM = 200, 300
_MAX_DIM = 3 * _LEVEL3_MAX_DIM  # the largest N at any level
N_MAX_SDP = 14  # the largest reduced graph the relaxation accepts

# The interior-point solver stops once the relative duality gap and the
# relative primal and dual residuals are all at most SDP_TOL, so it bounds
# the relative objective error; more than SDP_MAX_ITER Newton steps raise
# ConvergenceError.
SDP_TOL = 2e-8
SDP_MAX_ITER = 100

# The chart and the face take a matrix's rank from the pivoted Cholesky of
# its Gram matrix, cut off at the first pivot at most _RANK_TOL times the
# largest diagonal entry (`_null_basis`).
_RANK_TOL = 1e-9

# The relaxation's geometry is kept for the most recently solved shapes,
# within this many entries and this many bytes of arrays; a geometry larger
# than the byte bound is built for each solve and not kept.
_GEOMETRY_CACHE_ENTRIES = 32
_GEOMETRY_CACHE_BYTES = 32 << 20

# A Newton step computes the Schur matrix's blocks R' A_j P this many
# entries at a time, so the one full-size array it allocates holds them.
_SCHUR_SLICE = 1 << 16

RESTARTS = 64  # sampled paths the conditioning search tries; a repeated path is conditioned once


# ---------------------------------------------------------------------------
# subset bases and moment-matrix structure


def basis_dim(n: int, max_size: int) -> int:
    return sum(math.comb(n, i) for i in range(min(max_size, n) + 1))


@dataclass(frozen=True)
class SubsetBasis:
    """All subsets of [n] with size <= max_size, as sorted bitmasks."""

    n: int
    max_size: int
    masks: np.ndarray  # int64, sorted by (popcount, value)
    pos: np.ndarray  # int32 lookup table of size 2^n; -1 for absent masks

    def position(self, subset) -> int:
        """Index of the vertex set `subset`; InputError for a vertex outside
        [0, n), a repeated vertex, or a set larger than max_size."""
        mask = 0
        for v in subset:
            if not 0 <= v < self.n:
                raise InputError(f"vertex {v} outside [0, {self.n})")
            if (mask >> v) & 1:
                raise InputError(f"vertex {v} repeated in {list(subset)}")
            mask |= 1 << v
        p = int(self.pos[mask])
        if p < 0:
            raise InputError(f"subset {sorted(subset)} outside basis")
        return p


@lru_cache(maxsize=64)
def subset_basis(n: int, max_size: int) -> SubsetBasis:
    if n > _LUT_N_MAX:
        raise CapacityError(f"n={n} exceeds moment-basis cap {_LUT_N_MAX}")
    max_size = min(max_size, n)
    masks = np.arange(1 << n, dtype=np.int64)
    sizes = np.bitwise_count(masks)
    masks = masks[sizes <= max_size][np.argsort(sizes[sizes <= max_size], kind="stable")]
    pos = np.full(1 << n, -1, dtype=np.int32)
    pos[masks] = np.arange(masks.size, dtype=np.int32)
    pos.flags.writeable = False
    masks.flags.writeable = False
    return SubsetBasis(n, max_size, masks, pos)


@dataclass(frozen=True)
class MomentStructure:
    """Index plumbing tying a moment matrix to its moment vector."""

    n: int
    level: int
    basis: SubsetBasis  # subsets up to 2*level
    row_masks: np.ndarray  # subsets up to level, the matrix index
    class_idx: np.ndarray  # (N, N) -> position in basis of I ^ J

    @property
    def dim_y(self) -> int:
        return self.basis.masks.size

    @property
    def dim_mat(self) -> int:
        return self.row_masks.size


@lru_cache(maxsize=32)
def moment_structure(n: int, level: int) -> MomentStructure:
    basis = subset_basis(n, 2 * level)
    rows = subset_basis(n, level).masks
    class_idx = basis.pos[rows[:, None] ^ rows[None, :]].astype(np.int64)
    class_idx.flags.writeable = False
    return MomentStructure(n, level, basis, rows, class_idx)


# ---------------------------------------------------------------------------
# moment vectors


@dataclass(frozen=True)
class MomentVector:
    """Pseudo-moments E[prod_{i in S} x_i] for |S| <= 2*level over {-1,1}^n."""

    n: int
    level: int
    y: np.ndarray  # aligned with subset_basis(n, 2*level).masks

    def __post_init__(self):
        self.y.flags.writeable = False

    @property
    def basis(self) -> SubsetBasis:
        return subset_basis(self.n, 2 * self.level)

    def moment(self, subset) -> float:
        return float(self.y[self.basis.position(subset)])

    def bias(self, i: int) -> float:
        return self.moment([i])

    def corr(self, i: int, j: int) -> float:
        if i == j:
            return 1.0
        return self.moment([i, j])

    def moment_matrix(self) -> np.ndarray:
        ms = moment_structure(self.n, self.level)
        return self.y[ms.class_idx]

    def min_eigenvalue(self) -> float:
        return float(_min_eigenvalue(self.moment_matrix()))

    def objective_value(self, edges) -> float:
        """Expected cut weight sum_e w_e * P(endpoints disagree)."""
        return float(_expected_cut(pair_moments(self)[1], edges))

    def to_json_dict(self):
        out = {}
        for mask, val in zip(self.basis.masks, self.y):
            key = ",".join(str(v) for v in range(self.n) if (int(mask) >> v) & 1)
            out[key] = float(val)
        return {"n": self.n, "level": self.level, "y": out}


def integral_moment_vector(n: int, level: int, s) -> MomentVector:
    """Moment vector of the point distribution on the indicator of s."""
    basis = subset_basis(n, 2 * level)
    x = np.full(n, -1.0)
    for v in s:
        x[int(v)] = 1.0
    y = np.ones(basis.masks.size)
    for p, mask in enumerate(basis.masks):
        prod = 1.0
        m = int(mask)
        while m:
            v = (m & -m).bit_length() - 1
            prod *= x[v]
            m &= m - 1
        y[p] = prod
    return MomentVector(n, level, y)


# ---------------------------------------------------------------------------
# local distributions and information quantities


@dataclass(frozen=True)
class LocalDistribution:
    """Distribution over +-1 assignments of a small support set."""

    support: tuple
    probs: dict  # assignment tuple -> probability

    def prob(self, assignment) -> float:
        return self.probs.get(tuple(assignment), 0.0)

    def total(self) -> float:
        return float(sum(self.probs.values()))

    def marginalize(self, sub) -> "LocalDistribution":
        sub = tuple(sorted(sub))
        idx = [self.support.index(v) for v in sub]
        out = {}
        for assign, p in self.probs.items():
            key = tuple(assign[i] for i in idx)
            out[key] = out.get(key, 0.0) + p
        return LocalDistribution(sub, out)


def marginals(m: MomentVector, s) -> LocalDistribution:
    """Local distribution on s recovered by inverting the moment map."""
    s = tuple(sorted(int(v) for v in s))
    if len(set(s)) != len(s):
        raise InputError("duplicate vertices in support")
    if len(s) > m.level:
        raise InputError(f"support size {len(s)} exceeds level {m.level}")
    k = len(s)
    subsets = []
    for r in range(k + 1):
        for c in combinations(range(k), r):
            subsets.append((c, m.moment([s[i] for i in c])))
    probs = {}
    scale = 2.0 ** (-k)
    for assign in product((1, -1), repeat=k):
        val = 0.0
        for idx, mom in subsets:
            sign = 1
            for i in idx:
                sign *= assign[i]
            val += sign * mom
        probs[assign] = min(max(val * scale, 0.0), 1.0)
    return LocalDistribution(s, probs)


def pair_moments(m: MomentVector):
    """Biases b_i = E[x_i] and the unit-diagonal pair moments
    rho_ij = E[x_i x_j], read through the basis in one index."""
    if m.level < 1:
        raise InputError("pair moments need level >= 1")
    return _pair_moments(m.basis, m.y)


def _pair_moments(basis: SubsetBasis, y):
    """`pair_moments` of every moment vector along the last axis of y, which
    may carry leading batch axes."""
    bits = np.left_shift(1, np.arange(basis.n, dtype=np.int64))
    rho = y[..., basis.pos[bits[:, None] | bits[None, :]]]
    diag = np.arange(basis.n)
    b = rho[..., diag, diag]  # {i} | {i} is the singleton {i}
    rho[..., diag, diag] = 1.0
    return b, rho


def _expected_cut(rho, edges) -> np.ndarray:
    """sum_e w_e (1 - rho_e) / 2 for pair moments rho (..., n, n), added in
    edge order to a running total from 0.0 (np.cumsum is sequential), so
    each entry has the bits of the plain Python loop."""
    ends = np.array([(u, v) for u, v, _ in edges], dtype=np.intp).reshape(-1, 2)
    w = np.array([w for *_, w in edges], dtype=np.float64)
    terms = w * (1.0 - rho[..., ends[:, 0], ends[:, 1]]) / 2.0
    zero = np.zeros(terms.shape[:-1] + (1,))
    return np.cumsum(np.concatenate([zero, terms], axis=-1), axis=-1)[..., -1]


def _normalised(p) -> np.ndarray:
    """p clipped at 0 and scaled to sum 1 along the last axis; 0 where no mass is left."""
    p = np.maximum(p, 0.0)
    t = p.sum(axis=-1, keepdims=True)
    return np.divide(p, t, out=np.zeros_like(p), where=t > 0.0)


def _entropy_bits(p) -> np.ndarray:
    """Entropy in bits of each distribution along the last axis of p."""
    p = _normalised(p)
    return -(p * np.log2(p, out=np.zeros_like(p), where=p > 0.0)).sum(axis=-1)


# the signs of x_i and of x_j in the joint's order (++, +-, -+, --)
_PAIR_SIGNS = np.array([[1.0, 1.0, -1.0, -1.0], [1.0, -1.0, 1.0, -1.0]])


def information_matrix(m: MomentVector) -> np.ndarray:
    """I(X_i; X_j) in bits for every vertex pair, under the 2x2 joint of the
    pair moments clipped to [0, 1].  The diagonal holds H(X_i) = I(X_i; X_i);
    entries (i, j) and (j, i) agree up to rounding."""
    if m.level < 2:
        raise InputError("mutual information needs level >= 2")
    return _information(*pair_moments(m))


def _information(b, rho) -> np.ndarray:
    """`information_matrix` from biases b (..., n) and pair moments rho
    (..., n, n), over any leading batch axes."""
    s_i, s_j = _PAIR_SIGNS
    joint = (
        1 + s_i * b[..., :, None, None] + s_j * b[..., None, :, None] + s_i * s_j * rho[..., None]
    )
    joint = _normalised(np.minimum(joint / 4.0, 1.0))
    # the marginals of x_i, (+., -.), and of x_j, (.+, .-)
    h_i, h_j = _entropy_bits(
        np.stack([joint[..., [0, 2]] + joint[..., [1, 3]], joint[..., [0, 1]] + joint[..., [2, 3]]])
    )
    return np.clip(h_i + h_j - _entropy_bits(joint), 0.0, 1.0)


def vertex_entropies(m: MomentVector) -> np.ndarray:
    """H(X_i) in bits for every vertex, from the biases alone: the diagonal
    of `information_matrix` up to rounding."""
    singletons = np.left_shift(1, np.arange(m.n, dtype=np.int64))
    p = (1.0 + m.y[m.basis.pos[singletons]]) / 2.0
    return _entropy_bits(np.stack([p, 1.0 - p], axis=-1))


def _vertex(m: MomentVector, i) -> int:
    i = int(i)
    if not 0 <= i < m.n:
        raise InputError(f"vertex {i} outside [0, {m.n})")
    return i


def _checked_parts(m: MomentVector, parts) -> list:
    """The parts as sorted vertex lists; InputError unless every vertex is
    in [0, n) and in one place only."""
    parts = [sorted(_vertex(m, v) for v in p) for p in parts]
    flat = [v for p in parts for v in p]
    if len(set(flat)) != len(flat):
        raise InputError("parts repeat a vertex")
    return parts


def mutual_information(m: MomentVector, i: int, j: int) -> float:
    """I(X_i; X_j) in bits under the pairwise local distribution."""
    if i == j:
        raise InputError("mutual information needs two distinct vertices")
    return float(information_matrix(m)[_vertex(m, i), _vertex(m, j)])


def _part_scores(info: np.ndarray, parts) -> np.ndarray:
    """Average pairwise MI inside each sorted part, over its upper triangle
    (the pairs a < b, without the entropy diagonal); 0 below two vertices.
    info may carry leading batch axes; the scores are the last axis.  The
    gathered blocks are made contiguous, so each sums its terms in the
    order it would alone, and a batch scores as its members one by one."""
    upper = np.triu(info, 1)
    return np.stack(
        [
            np.ascontiguousarray(upper[..., np.array(p)[:, None], p]).sum(axis=(-2, -1))
            / (len(p) * (len(p) - 1) / 2)
            if len(p) > 1
            else np.zeros(info.shape[:-2])
            for p in parts
        ],
        axis=-1,
    )


def block_independence_score(m: MomentVector, parts):
    """Average pairwise MI inside each part plus the cross-part total.

    Per-part scores average over unordered distinct pairs; parts with fewer
    than two vertices score 0.  The cross term sums, over unordered part
    pairs, the average MI between vertices drawn from the two parts.
    """
    parts = _checked_parts(m, parts)
    info = information_matrix(m)
    cross = sum(
        (float(info[np.ix_(a, b)].mean()) for a, b in combinations(parts, 2) if a and b),
        0.0,
    )
    return _part_scores(info, parts).tolist(), cross


def iid_pair_information_sum(m: MomentVector, parts) -> float:
    """Sum over ordered part pairs (a, b) of E_{i in a, j in b}[I(X_i;X_j)]
    with i, j drawn independently (so coinciding draws contribute the
    vertex entropy, the diagonal of `information_matrix`).

    This is the exact quantity telescoped by the conditioning potential.
    """
    parts = [p for p in _checked_parts(m, parts) if p]
    info = information_matrix(m)
    return sum((float(info[np.ix_(a, b)].mean()) for a in parts for b in parts), 0.0)


# ---------------------------------------------------------------------------
# conditioning


def condition(m: MomentVector, i: int, value: int):
    """Split on X_i = value; returns the conditioned vector and its weight.

    Drops one level.  Expectations are preserved as the convex combination
    of the two branches with weight P(X_i = value).
    """
    if m.level < 2:
        raise InputError("conditioning needs level >= 2")
    if value not in (1, -1):
        raise InputError("value must be +1 or -1")
    i = int(i)
    if not 0 <= i < m.n:
        raise InputError(f"vertex {i} out of range")
    lam = (1.0 + value * m.bias(i)) / 2.0
    if lam < 1e-9:
        raise DegenerateEventError(
            f"P(X_{i} = {value:+d}) = {lam:.3e} below tolerance"
        )
    child = subset_basis(m.n, 2 * (m.level - 1))
    parent = m.basis
    child_masks = child.masks
    pos_u = parent.pos[child_masks]
    pos_ui = parent.pos[child_masks ^ (1 << i)]
    y = (m.y[pos_u] + value * m.y[pos_ui]) / (2.0 * lam)
    return MomentVector(m.n, m.level - 1, y), float(lam)


def sample_value(m: MomentVector, i: int, rng) -> int:
    """Draw +-1 from the marginal of X_i."""
    p_plus = (1.0 + m.bias(i)) / 2.0
    return 1 if rng.random() < p_plus else -1


def make_block_independent(
    m: MomentVector,
    parts,
    alpha: float,
    budget_L: int,
    rng_seed: int,
    edges=None,
):
    """Search sampled conditioning paths for an alpha-block-independent vector.

    Each of RESTARTS restarts walks up to budget_L conditioning steps:
    sample a part, a vertex within it, and a value from the vertex's
    marginal, then condition.  A candidate qualifies when every per-part
    average MI is at most alpha and, if `edges` is supplied, its objective
    is within alpha of the starting objective.  The best-objective
    qualifier wins, ties going to the earlier restart; exhausting all
    restarts raises SearchFailureError carrying the closest candidate, the
    first met in restart order among those of the lowest part score.

    The restarts walk side by side, one depth at a time, each drawing from
    its own generator, so every draw is the one a restart-by-restart walk
    would make.  The paths new at a depth are scored together in one
    numpy pass.
    """
    parts = [p for p in _checked_parts(m, parts) if p]
    if not parts:
        raise InputError("need at least one nonempty part")
    if budget_L < 0:
        raise InputError("budget must be nonnegative")
    if m.level < budget_L + 2:
        raise InputError(
            f"level {m.level} cannot support {budget_L} conditioning steps"
        )
    # m's objective is the starting objective, so its score alone decides
    # whether m qualifies
    if not _part_scores(information_matrix(m), parts).max() > alpha:
        return m
    start_obj = m.objective_value(edges) if edges is not None else None

    def scored(vectors):
        """(worst part score, winner key) of each vector, all of one level.
        The key sorts qualifiers, the lower the better; None when the
        vector does not qualify."""
        b, rho = _pair_moments(vectors[0].basis, np.stack([mv.y for mv in vectors]))
        worst = _part_scores(_information(b, rho), parts).max(axis=-1).tolist()
        if start_obj is None:
            return [(w, None if w > alpha else w) for w in worst]
        objs = _expected_cut(rho, edges).tolist()
        return [
            (w, None if w > alpha or obj < start_obj - alpha - 1e-9 else -obj)
            for w, obj in zip(worst, objs)
        ]

    def conditioned(mv: MomentVector, vertex: int, value: int):
        try:
            return condition(mv, vertex, value)[0]
        except DegenerateEventError:
            return None

    # Every restart starts from m, so restarts repeat paths; each path of
    # (vertex, value) steps is conditioned and scored once.
    seen = {}  # path -> conditioned vector, or None for a degenerate event
    rngs = [np.random.default_rng(np.random.SeedSequence((rng_seed, r))) for r in range(RESTARTS)]
    walking = {r: (m, ()) for r in range(RESTARTS)}  # restart -> (vector, path)
    visits = [[] for _ in range(RESTARTS)]  # per restart, (score, key, vector) per step
    for _ in range(budget_L):
        moved = {}  # restart -> its path one step longer
        for r, (cur, path) in walking.items():
            rng = rngs[r]
            for _ in range(16):  # resample degenerate events
                block = parts[rng.integers(len(parts))]
                vertex = int(block[rng.integers(len(block))])
                step = path + ((vertex, sample_value(cur, vertex, rng)),)
                if step not in seen:
                    seen[step] = conditioned(cur, *step[-1])
                if seen[step] is not None:
                    moved[r] = step
                    break
        if not moved:
            break
        fresh = list(dict.fromkeys(moved.values()))  # restarts may meet on a path
        scores = dict(zip(fresh, scored([seen[p] for p in fresh])))
        walking = {}
        for r, path in moved.items():
            worst, key = scores[path]
            visits[r].append((worst, key, seen[path]))
            if key is None:
                walking[r] = (seen[path], path)

    best_candidate = None  # (max_part_score, restart, MomentVector)
    winners = []  # (negative objective or score, restart, MomentVector)
    for r, steps in enumerate(visits):
        for worst, key, cur in steps:
            if best_candidate is None or worst < best_candidate[0]:
                best_candidate = (worst, r, cur)
            if key is not None:
                winners.append((key, r, cur))
    if winners:
        return min(winners, key=lambda t: (t[0], t[1]))[2]
    raise SearchFailureError(
        f"no alpha={alpha} block-independent conditioning found in "
        f"{RESTARTS} restarts of {budget_L} steps",
        best=best_candidate[2] if best_candidate else m,
    )


# ---------------------------------------------------------------------------
# program construction


@dataclass(frozen=True)
class SdpProgram:
    """Cut objective plus cardinality constraints; supers are pinned to -1."""

    n: int
    level: int
    edges: tuple
    parts: tuple  # frozensets, including super vertices
    budgets: tuple
    forbidden: frozenset


def auto_level(n: int) -> int:
    """The highest level 2..4 whose moment-matrix side stays within its cap."""
    if basis_dim(n, 4) <= _LEVEL4_MAX_DIM:
        return 4
    if basis_dim(n, 3) <= _LEVEL3_MAX_DIM:
        return 3
    return 2


def build_program(kernel: KernelResult, level: int) -> SdpProgram:
    """Assemble the conditioned relaxation for a kernelized instance."""
    g = kernel.reduced
    if level == 0:
        level = auto_level(g.n)
    if level < 2:
        raise InputError(f"level must be >= 2, got {level}")
    if g.n > N_MAX_SDP:
        raise CapacityError(f"n={g.n} exceeds cap {N_MAX_SDP}")
    dim = basis_dim(g.n, level)
    if dim > _MAX_DIM:
        raise CapacityError(
            f"moment matrix side {dim} too large for n={g.n}, level={level}"
        )
    for part, k in zip(kernel.parts, kernel.budgets):
        avail = len(part - kernel.forbidden)
        if k > avail:
            raise InfeasibleError(
                f"budget {k} exceeds the {avail} selectable vertices of a part"
            )
    return SdpProgram(
        n=g.n,
        level=level,
        edges=g.edges,
        parts=kernel.parts,
        budgets=kernel.budgets,
        forbidden=kernel.forbidden,
    )


class _Rows(NamedTuple):
    """A sparse matrix as triplets in row order: entry (rows[e], cols[e]) is
    vals[e], and no entry repeats."""

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple[int, int]

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out


def _budget_rows(program: SdpProgram, label, pos, S, width) -> _Rows:
    """The budget operator at the masks S, as row-ordered triplets with
    `width` columns: for a part with selectable vertices K and target
    t = 2k - |K|, row p |S| + j of part p is sum_{i in K} e_{S_j ^ {i}}
    - t e_{S_j}, its columns the positions `pos` gives."""
    rows, cols, vals = [], [], []
    for p, (part, k) in enumerate(zip(program.parts, program.budgets)):
        kept = [label[v] for v in part - program.forbidden]
        # one row per mask, the row's entries side by side
        rows.append(np.repeat(p * S.size + np.arange(S.size), len(kept) + 1))
        cols.append(np.column_stack([pos[S ^ (1 << i)] for i in kept] + [pos[S]]).ravel())
        vals.append(np.tile([1.0] * len(kept) + [len(kept) - 2.0 * k], S.size))
    shape = (len(program.parts) * S.size, width)
    return _Rows(np.concatenate(rows), np.concatenate(cols), np.concatenate(vals), shape)


def _affine_rows(program: SdpProgram, basis: SubsetBasis, label):
    """Sparse equality system B y = d over the selectable vertices, B as
    row-ordered triplets.

    `basis` spans the selectable vertices under the labels in `label`; the
    super vertices are substituted out, so only normalization and the
    per-part cardinality rows remain.  The row at depth S of a part reads
    sum_{i in K} y_{S ^ {i}} - t y_S = 0.  Every depth up to 2 level - 1
    is in: those rows are implied by the depth-0 and depth-1 rows and
    M >= 0 (entry U of M v_T is the row at U ^ T), and with them every
    point of the affine set has its moment matrix on the face.
    """
    pos = basis.pos
    S = basis.masks[: basis_dim(basis.n, 2 * program.level - 1)]  # masks sort by size
    budget = _budget_rows(program, label, pos, S, basis.masks.size)
    B = _Rows(
        np.concatenate([[0], budget.rows + 1]),
        np.concatenate([pos[:1], budget.cols]),
        np.concatenate([[1.0], budget.vals]),
        (1 + budget.shape[0], budget.shape[1]),
    )
    d = np.zeros(B.shape[0])
    d[0] = 1.0
    return B, d


def _objective_vector(program: SdpProgram, basis: SubsetBasis, label):
    """Linear part of the cut objective; value = const + c . y.

    With every super vertex s pinned to x_s = -1, an edge (u, s) is cut
    exactly when x_u = +1 and contributes w (1 + y_u) / 2; an edge between
    two supers is never cut.
    """
    c = np.zeros(basis.masks.size)
    const = 0.0
    for u, v, w in program.edges:
        ends = sorted(label[x] for x in (u, v) if x in label)
        if ends:
            const += w / 2.0
            c[basis.position(ends)] += (w if len(ends) == 1 else -w) / 2.0
    return c, const


def _lift(y_free, n: int, level: int, free) -> np.ndarray:
    """Moment vector over all n vertices from one over the selectable ones.

    For T among the selectable vertices and S a set of supers,
    y[T | S] = (-1)^|S| y_free[T], since each super is pinned to -1.
    """
    masks = subset_basis(n, 2 * level).masks
    sub = np.zeros_like(masks)
    parity = np.zeros_like(masks)
    for j, v in enumerate(free):
        sub |= ((masks >> v) & 1) << j
    for s in set(range(n)) - set(free):
        parity ^= (masks >> s) & 1
    y_sub = y_free[subset_basis(len(free), 2 * level).pos[sub]]
    return np.where(parity == 1, -y_sub, y_sub)


# ---------------------------------------------------------------------------
# solver


def _lapack(routine: str, *args, **kwargs):
    """Call `routine` of scipy's LAPACK wrappers and drop its `info`.

    A failing `info` raises ConvergenceError naming the routine.  dpstrf's
    info > 0 only reports a rank below n, which `_pivoted_cholesky` returns.
    """
    *out, info = getattr(_flapack, routine)(*args, **kwargs)
    if info < 0 or (info > 0 and routine != "dpstrf"):
        raise ConvergenceError(f"LAPACK {routine} failed with info {info}")
    return out


def _pivoted_cholesky(M, tol: float):
    """U1, U2 and the 0-based pivots p of dpstrf's M[p][:, p] = U'U, where
    U = [U1 U2] has as many rows as M's numerical rank: the factorisation
    stops at the first pivot at most `tol`.  M is overwritten when
    Fortran-ordered."""
    U, piv, rank = _lapack("dpstrf", M, tol=tol, overwrite_a=True)
    piv -= 1
    return U[:rank, :rank], U[:rank, rank:], piv


def _pivoted_solve(U1, piv, b) -> np.ndarray:
    """The solution x of M x = b that is 0 off the pivot columns, from
    `_pivoted_cholesky` of M; for b in M's range it solves M x = b.  It is
    0 when the rank is 0."""
    x = np.zeros(b.size)
    rank = U1.shape[0]
    if rank:
        (x[piv[:rank]],) = _lapack("dpotrs", U1, b[piv[:rank]], lower=False)
    return x


def _min_eigenvalue(A) -> float:
    """The smallest eigenvalue of the symmetric A, read from its lower
    triangle: dsyevr asked for the first eigenvalue by index alone."""
    w, *_ = _lapack("dsyevr", A, compute_v=0, range="I", il=1, iu=1)
    return w[0]


def _cholesky_and_inverse(A):
    """The lower Cholesky factor L of A = L L' and its inverse; a matrix
    that is not positive definite raises ConvergenceError."""
    (L,) = _lapack("dpotrf", A, lower=1)
    (L_inv,) = _lapack("dtrtri", L, lower=1)
    return L, L_inv


def _gram(A: _Rows) -> np.ndarray:
    """A'A as a dense Fortran-ordered array.

    Entry (i, j) sums A_ki A_kj over the rows k in ascending order, the
    order of scipy.sparse's product, so the result is the same bits.
    """
    n = A.shape[1]
    per_row = np.bincount(A.rows, minlength=A.shape[0])
    reps = per_row[A.rows]  # every entry pairs with each entry of its row
    left = np.repeat(np.arange(A.rows.size), reps)
    first = (np.cumsum(per_row) - per_row)[A.rows] - (np.cumsum(reps) - reps)
    right = first[left] + np.arange(left.size)
    G = np.bincount(
        A.cols[left] + n * A.cols[right],
        weights=A.vals[left] * A.vals[right],
        minlength=n * n,
    )
    return G.reshape(n, n, order="F")


def _null_basis(A: _Rows):
    """K, U1 and p: an orthonormal basis K of null(A), and the factor U1
    and 0-based pivots p of the pivoted Cholesky P' A'A P = U'U.

    U = [U1 U2] has as many rows as A's rank, read at the _RANK_TOL
    cut-off.  The null space P [-U1^-1 U2; I] is orthonormalised by two
    Cholesky solves (K'K >= I, so the Cholesky exists; twice for rounding).
    The Gram matrix squares the condition of A.
    """
    G = _gram(A)
    U1, U2, piv = _pivoted_cholesky(G, _RANK_TOL * G.diagonal().max(initial=0.0))
    rank = U1.shape[0]
    K = np.zeros((A.shape[1], A.shape[1] - rank))
    if U2.size:  # transposed, as scipy solves a block that is not Fortran-contiguous
        (X,) = _lapack("dtrtrs", U1.T, U2, lower=True, trans=1)
        K[piv[:rank]] = -X
    K[piv[rank:], np.arange(K.shape[1])] = 1.0
    for _ in range(2):
        K = np.linalg.solve(np.linalg.cholesky(K.T @ K), K.T).T
    return K, U1, piv


def _affine_chart(B: _Rows, d, weights):
    """q, K with {y : B y = d} = {q + K u : u in R^k}.

    K is a basis of null(B) orthonormal in the weighted inner product
    <a, b> = sum_s w_s a_s b_s, so K' W K = I, and q is the W-nearest
    solution to 0, so K' W q = 0.  With A = B W^-1/2, `_null_basis(A)`
    gives the null space, and its factor a solution on the pivot columns.
    Dependent rows (with c >= 2, P's row at depth {q}, q in Q, and Q's at
    depth {p}, p in P, both sum to the product of the two budget
    equations) need no special case.  On the benchmark programs the
    nonzero singular values of A lie in [0.048, 1.44] and the rest are
    rounding (1e-15), so the rank is clear, and q and K have the bits of
    scipy.linalg's dpstrf, solve_triangular and cho_solve.
    """
    root = np.sqrt(weights)
    A = B._replace(vals=B.vals * np.divide(1, root)[B.cols])  # B / root as scipy.sparse divides
    K, U1, piv = _null_basis(A)
    Ad = np.bincount(A.cols, weights=A.vals * d[A.rows], minlength=A.shape[1])
    q = _pivoted_solve(U1, piv, Ad)
    q -= K @ (K.T @ q)
    return q / root, K / root[:, None]


def _free_rows(program: SdpProgram):
    """Selectable vertices, their labels, the free moment structure, and
    the multiplicity m_T of each free row T.

    Row T of the free matrix stands for the m_T full rows T | S, S a set of
    supers.
    """
    free = [v for v in range(program.n) if v not in program.forbidden]
    label = {v: j for j, v in enumerate(free)}
    ms = moment_structure(len(free), program.level)
    supers = len(program.forbidden)
    mult = np.array(
        [basis_dim(supers, program.level - bin(int(t)).count("1")) for t in ms.row_masks],
        dtype=np.float64,
    )
    return free, label, ms, mult


def face_basis(program: SdpProgram) -> np.ndarray:
    """Orthonormal basis V (N x r) of the face the cardinality rows force.

    For a part with selectable vertices K and target t = 2k - |K|, and a
    free row T with |T| <= level - 1, let v_T = sum_{i in K} e_{T ^ {i}}
    - t e_T.  Then v_T' M v_T = sum_{i,j in K} y_{i ^ j} - 2t sum_i y_i + t^2,
    which the depth-0 and depth-1 cardinality rows set to 0, so M >= 0
    gives M v_T = 0 on every feasible point.  On the scaled free matrix
    D M D, D = diag(sqrt(m_T)), the null vector is D^-1 v_T.  V spans the
    complement of those vectors, so restricting the PSD cone to
    {V S V' : S >= 0} is exact and leaves the optimum unchanged.
    """
    _, label, ms, mult = _free_rows(program)
    T = ms.row_masks[: basis_dim(ms.n, program.level - 1)]  # masks sort by size
    null = _budget_rows(program, label, ms.basis.pos, T, ms.dim_mat)  # row p |T| + j is v_T[j]
    return _null_basis(null._replace(vals=null.vals / np.sqrt(mult)[null.cols]))[0]


def _face_operator(K, V, class_idx, scale):
    """The k x r x r array whose slice j is V' M(K e_j) V, built a few
    slices at a time so that no k x N x N array is ever held."""
    N, r = V.shape
    A = np.empty((K.shape[1], r, r))
    step = max(1, (1 << 14) // (N * N))
    for j in range(0, K.shape[1], step):
        Mj = K[:, j : j + step].T[:, class_idx] * scale
        A[j : j + step] = V.T @ Mj @ V
    return A


def _canonical(program: SdpProgram):
    """The edge-free program of `program`'s shape, and `program`'s free
    vertices in the order of its labels 0, 1, ...

    The free vertices are laid out part by part, the parts ordered by
    (kept size, budget) and each part's vertices ascending, then any free
    vertex outside every part; the supers take the labels after them.  Two
    programs of one level, super count and multiset of (kept size, budget)
    get the same canonical program.
    """
    kept = [sorted(part - program.forbidden) for part in program.parts]
    order = sorted(range(len(kept)), key=lambda p: (len(kept[p]), program.budgets[p]))
    free = [v for p in order for v in kept[p]]
    if len(set(free)) != len(free):
        raise InputError("parts repeat a vertex")
    free += sorted(set(range(program.n)) - program.forbidden - set(free))
    ends = list(accumulate((len(kept[p]) for p in order), initial=0))
    canonical = SdpProgram(
        n=program.n,
        level=program.level,
        edges=(),
        parts=tuple(frozenset(range(a, b)) for a, b in zip(ends, ends[1:])),
        budgets=tuple(program.budgets[p] for p in order),
        forbidden=frozenset(range(len(free), program.n)),
    )
    return canonical, free


class _Geometry(NamedTuple):
    """A program's constraint data: the chart y = q + K u of its affine set
    and the LMI Lq + mat(Lu u) = V' M(q + K u) V on its face.  A[j] is
    mat(Lu e_j), and Lu is a view of A; root[T] is sqrt(m_T) for each free
    row T (see `_free_rows`).  Every array is read-only."""

    q: np.ndarray
    K: np.ndarray
    Lq: np.ndarray
    Lu: np.ndarray
    A: np.ndarray
    root: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.q.nbytes + self.K.nbytes + self.Lq.nbytes + self.A.nbytes + self.root.nbytes


@bounded_cache(lambda: (_GEOMETRY_CACHE_ENTRIES, _GEOMETRY_CACHE_BYTES))
def _geometry(program: SdpProgram) -> _Geometry:
    """The chart, face and LMI operator of `program`, which reads its
    parts, budgets, supers and level, not its edges; see `solve`."""
    _, label, ms, mult = _free_rows(program)
    # Scaling entry (T, U) by sqrt(m_T m_U) gives the face block the
    # nonzero spectrum and the Frobenius norm of the full matrix, so the
    # residuals keep their meaning for the lifted answer.
    weight = np.outer(mult, mult)
    counts = np.bincount(ms.class_idx.ravel(), weights=weight.ravel(), minlength=ms.dim_y)
    q, K = _affine_chart(*_affine_rows(program, ms.basis, label), counts)
    V = face_basis(program)
    scale = np.sqrt(weight)
    # L(u) = V' M(q + K u) V = Lq + Lu u;
    # since K' W K = I, Lu' vec(L(u) - Lq) = u
    Lq = V.T @ (q[ms.class_idx] * scale) @ V
    A = _face_operator(K, V, ms.class_idx, scale)
    k, r, _ = A.shape
    root = np.sqrt(mult)
    for a in (q, K, Lq, A, root):
        a.flags.writeable = False
    return _Geometry(q, K, Lq, A.reshape(k, r * r).T, A, root)


def solve(program: SdpProgram) -> MomentVector:
    """Solve the relaxation to a feasible near-optimal moment vector.

    The unknowns span the selectable vertices only, at the program's level:
    super vertices are constant, so their moments are substituted out and
    restored by sign flips once the solve is done (the simplest form of
    facial reduction).  The moment vector runs over the affine set in
    coordinates, y = q + K u (see `_affine_chart`), and M(y) lies on the
    face V S V' (see `face_basis`) for every such y.  So the relaxation is
    the small LMI: maximise kc'u subject to Lq + mat(Lu u) >= 0, with
    Lq + mat(Lu u) = V' M(q + K u) V, which `_interior_point` solves to
    relative gap and residuals within SDP_TOL.  Raises ConvergenceError
    after SDP_MAX_ITER Newton steps, or when the lifted moment matrix is
    not PSD within PSD_TOL.  That gate reads the free block M = M(y) and
    no N x N lifted matrix: with the supers pinned to -1 the lifted matrix
    is E M E', where E'E = D^2 = diag(m_T), so its spectrum is that of
    D M D, plus zeros when there are supers (see `_lifted_min_eigenvalue`).

    q, K, Lq and Lu are the program's geometry.  They read the level, the
    number of supers, and each part's kept size and budget, but not the
    edges, which enter through the objective kc = K'c alone; and the
    kernel makes every program of one (c, eps) and budgets the same shape,
    with min(|V_i|, ceil(k_i / eps)) kept vertices per part.  So the solve
    labels the free vertices in a canonical order (see `_canonical`):
    part by part, the parts ordered by (kept size, budget), then any free
    vertex outside every part, the supers last.  It builds the geometry
    of that edge-free canonical program, or reuses it from a thread-safe
    LRU bounded by _GEOMETRY_CACHE_ENTRIES entries and
    _GEOMETRY_CACHE_BYTES bytes (a larger geometry is built and not kept),
    so a cached solve returns the same bytes as a cold one.

    The solve runs with OpenBLAS held to one thread (see `cutkit._blas`),
    and the caller's thread count is restored when it returns or raises.
    """
    with ONE_BLAS_THREAD:
        canonical, free = _canonical(program)
        q, K, Lq, Lu, _, root = _geometry(canonical)
        basis = subset_basis(len(free), 2 * program.level)
        cvec, _ = _objective_vector(program, basis, {v: j for j, v in enumerate(free)})
        try:
            with np.errstate(over="raise"):
                kc = K.T @ cvec
                u, steps, (_, prim, dual) = _interior_point(Lq, Lu, kc, SDP_TOL, SDP_MAX_ITER)
        except FloatingPointError as exc:
            # the Newton steps multiply quantities of the objective's size,
            # so weights far above 1e100 overflow
            raise ConvergenceError(f"the relaxation overflowed: {exc}") from exc

        y = q + K @ u
        y[0] = 1.0  # the normalization, exactly, so every super reads bias -1
        min_eig = _lifted_min_eigenvalue(y, len(free), program.level, root, bool(program.forbidden))
        if min_eig < -PSD_TOL:
            raise ConvergenceError(
                f"moment matrix not PSD within tolerance (min eigenvalue {min_eig:.2e})",
                primal=prim,
                dual=dual,
                iterations=steps,
            )
        return MomentVector(program.n, program.level, _lift(y, program.n, program.level, free))


def _lifted_min_eigenvalue(y_free, n_free: int, level: int, root, supers: bool) -> float:
    """The smallest eigenvalue of the lifted moment matrix, read from the
    free block M of `y_free` over n_free vertices, with root = sqrt(m_T)
    as in `_Geometry`.

    Each super is pinned to -1, so row T | S of the lifted matrix is
    (-1)^|S| times row T of M, and the lifted matrix is E M E' where row
    T | S of E is (-1)^|S| e_T.  Then E'E = D^2 with D = diag(root), and
    E M E' has the nonzero spectrum of D M D, plus zeros when E has more
    rows than columns, that is when there are supers.
    """
    ms = moment_structure(n_free, level)
    w = _min_eigenvalue(y_free[ms.class_idx] * np.outer(root, root))
    return float(min(w, 0.0) if supers else w)


def _interior_point(Lq, Lu, kc, tol, max_steps):
    """Primal-dual path following on the LMI pair

        primal: minimise <Lq, X>  subject to  Lu' vec X = -kc,  X >= 0,
        dual:   maximise kc'u     subject to  S = Lq + mat(Lu u) >= 0,

    where <Lq, X> - kc'u = <X, S> on feasible points.  Each Newton step is
    Mehrotra's predictor-corrector on the HKM direction (see
    `_newton_step`).  Each iterate moves to 0.98 of the way to the boundary
    of the cone, separately for X and for (u, S), a distance read from one
    smallest eigenvalue each.  The start is infeasible, u = 0,
    S = Lq + tI, X = sI, so Lq need not be definite.

    Returns u, the number of Newton steps, and (gap, primal, dual): the
    relative gap |<Lq, X> - kc'u| / max(1, |<Lq, X>|, |kc'u|) and the two
    relative residuals, all within `tol`.  The iterates approach the
    relative interior of the optimal face, so where the optimum is not
    unique the answer is its maximum-rank point.  A step that fails, as
    when X or S is not positive definite to rounding, raises
    ConvergenceError("Newton step N failed: ...").
    """
    r, k = Lq.shape[0], kc.size
    # A[j] = A_j, contiguous for matmul; no copy when Lu is a `_Geometry`'s
    A = np.ascontiguousarray(Lu.T).reshape(k, r, r)
    kc_scale = max(1.0, np.linalg.norm(kc))
    lq_scale = max(1.0, np.linalg.norm(Lq))
    eye = np.eye(r)
    u = np.zeros(k)
    S = Lq + (1.0 - min(0.0, _min_eigenvalue(Lq))) * eye
    X = max(1.0, np.abs(kc).max(initial=0.0)) * eye

    for step in range(max_steps + 1):
        Rp = -kc - Lu.T @ X.ravel()
        Rd = Lq + (Lu @ u).reshape(r, r) - S
        pobj, dobj = np.vdot(Lq, X), kc @ u
        gap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
        prim, dual = np.linalg.norm(Rp) / kc_scale, np.linalg.norm(Rd) / lq_scale
        if max(gap, prim, dual) <= tol:
            return u, step, (gap, prim, dual)
        if step == max_steps:
            raise ConvergenceError(
                f"no convergence after {max_steps} Newton steps "
                f"(gap {gap:.2e}, primal {prim:.2e}, dual {dual:.2e})",
                primal=prim,
                dual=dual,
                iterations=max_steps,
            )

        try:
            X, u, S = _newton_step(A, Lu, X, u, S, Rp, Rd)
        except ConvergenceError as exc:
            # X or S lost definiteness to rounding, as on a program whose
            # face has no interior
            raise ConvergenceError(
                f"Newton step {step} failed: {exc} "
                f"(gap {gap:.2e}, primal {prim:.2e}, dual {dual:.2e})",
                primal=prim,
                dual=dual,
                iterations=step,
            ) from exc


def _newton_step(A, Lu, X, u, S, Rp, Rd):
    """One predictor-corrector step of `_interior_point` from (X, u, S) with
    residuals Rp and Rd; returns the next (X, u, S).

    The Schur matrix M_ij = tr(A_i X A_j S^-1), A_j = mat(Lu e_j), is the
    Gram matrix of the blocks R' A_j P, where X = R R' and S^-1 = P P' come
    from LAPACK's Cholesky factors (dpotrf) and their inverses (dtrtri).
    The blocks are computed in slices of at most _SCHUR_SLICE entries,
    straight into one k x r x r array.
    Near the optimum M is singular to rounding, so it is solved by pivoted
    Cholesky, cut off at the first pivot up to 1e-14 times its largest
    diagonal entry; du is 0 off the pivots, and 0 at rank 0.  Each step
    length comes from one smallest eigenvalue (`_step_to_boundary`).
    LAPACK failures raise ConvergenceError.
    """
    r, k = X.shape[0], u.size
    RX, RX_inv = _cholesky_and_inverse(X)
    _, PT = _cholesky_and_inverse(S)  # S = L L', so S^-1 = P P' with P = L^-T
    P = PT.T
    S_inv = P @ PT
    G = np.empty((k, r, r))  # G[j] = R' A_j P
    rows = max(1, _SCHUR_SLICE // (r * r))
    AP = np.empty((min(rows, k), r, r))
    for j in range(0, k, rows):
        AP_j = AP[: min(rows, k - j)]
        np.matmul(A[j : j + rows], P, out=AP_j)
        np.matmul(RX.T, AP_j, out=G[j : j + rows])
    G = G.reshape(k, r * r)  # row j is vec(R' A_j P)
    # numpy sends a product with its own transpose to dsyrk; a copied G.T would not be
    M = G @ G.T
    U1, _, piv = _pivoted_cholesky(M, 1e-14 * M.diagonal().max(initial=0.0))
    XRd = X @ Rd

    def direction(target, corr):
        # X dS + dX S = target I - X S - corr, linearised, with the
        # residual equations substituted in
        base = target * S_inv - X
        rhs = Lu.T @ (base - (corr + XRd) @ S_inv).ravel() - Rp
        du = _pivoted_solve(U1, piv, rhs)
        dS = Rd + (Lu @ du).reshape(r, r)
        dX = base - (corr + X @ dS) @ S_inv
        return (dX + dX.T) / 2.0, du, dS

    mu = np.vdot(X, S) / r
    dX, du, dS = direction(0.0, 0.0)
    ap, ad = _step_to_boundary(RX_inv, dX), _step_to_boundary(PT, dS)
    mu_aff = np.vdot(X + ap * dX, S + ad * dS) / r
    sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
    dX, du, dS = direction(sigma * mu, dX @ dS)
    ap, ad = _step_to_boundary(RX_inv, dX), _step_to_boundary(PT, dS)
    return X + ap * dX, u + ad * du, S + ad * dS


def _step_to_boundary(L_inv, D):
    """min(1, 0.98 a) for the largest a with L L' + a D >= 0, from
    lambda_min(L^-1 D L^-T)."""
    lam = _min_eigenvalue(L_inv @ D @ L_inv.T)
    return min(1.0, -0.98 / lam) if lam < 0.0 else 1.0


def _psd_projection(A):
    """Nearest PSD matrix to A in Frobenius norm.

    The solver no longer calls it.  It stays because perfbench's tracer
    wraps it by name and refuses to run when the name is missing.
    """
    vals, vecs = np.linalg.eigh((A + A.T) / 2.0)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T
