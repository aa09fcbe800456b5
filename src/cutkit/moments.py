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
from itertools import combinations, product

import numpy as np
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse

from ._blas import ONE_BLAS_THREAD
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

RESTARTS = 64  # sampled paths the conditioning search tries


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
        mask = 0
        for v in subset:
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
    masks = []
    for size in range(max_size + 1):
        masks.extend(
            sorted(sum(1 << v for v in c) for c in combinations(range(n), size))
        )
    masks = np.asarray(masks, dtype=np.int64)
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
        return float(np.linalg.eigvalsh(self.moment_matrix())[0])

    def objective_value(self, edges) -> float:
        """Expected cut weight sum_e w_e * P(endpoints disagree)."""
        total = 0.0
        for u, v, w in edges:
            total += w * (1.0 - self.corr(u, v)) / 2.0
        return total

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
    bits = np.left_shift(1, np.arange(m.n, dtype=np.int64))
    rho = m.y[m.basis.pos[bits[:, None] | bits[None, :]]]
    b = np.diagonal(rho).copy()  # {i} | {i} is the singleton {i}
    np.fill_diagonal(rho, 1.0)
    return b, rho


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
    b, rho = pair_moments(m)
    s_i, s_j = _PAIR_SIGNS
    joint = 1 + s_i * b[:, None, None] + s_j * b[None, :, None] + s_i * s_j * rho[..., None]
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


def entropy_of_vertex(m: MomentVector, i: int) -> float:
    i = _vertex(m, i)
    return float(information_matrix(m)[i, i])


def _part_scores(info: np.ndarray, parts) -> list:
    """Average pairwise MI inside each sorted part, over its upper triangle
    (the pairs a < b, without the entropy diagonal); 0 below two vertices."""
    upper = np.triu(info, 1)
    return [
        float(upper[np.ix_(p, p)].sum() / (len(p) * (len(p) - 1) / 2)) if len(p) > 1 else 0.0
        for p in parts
    ]


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
    return _part_scores(info, parts), cross


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
    qualifier wins; exhausting all restarts raises SearchFailureError
    carrying the closest candidate.
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
    start_obj = m.objective_value(edges) if edges is not None else None

    def qualifies(mv: MomentVector, worst: float) -> bool:
        if worst > alpha:
            return False
        if start_obj is not None:
            if mv.objective_value(edges) < start_obj - alpha - 1e-9:
                return False
        return True

    def worst_part(mv: MomentVector) -> float:
        return max(_part_scores(information_matrix(mv), parts))

    if qualifies(m, worst_part(m)):
        return m

    best_candidate = None  # (max_part_score, restart, MomentVector)
    winners = []  # (negative objective or score, restart, MomentVector)
    for r in range(RESTARTS):
        rng = np.random.default_rng(np.random.SeedSequence((rng_seed, r)))
        cur = m
        for _ in range(budget_L):
            for _ in range(16):  # resample degenerate events
                block = parts[rng.integers(len(parts))]
                vertex = int(block[rng.integers(len(block))])
                value = sample_value(cur, vertex, rng)
                try:
                    nxt, _ = condition(cur, vertex, value)
                except DegenerateEventError:
                    continue
                break
            else:
                break
            cur = nxt
            worst = worst_part(cur)
            if best_candidate is None or worst < best_candidate[0]:
                best_candidate = (worst, r, cur)
            if qualifies(cur, worst):
                key = -cur.objective_value(edges) if edges is not None else worst
                winners.append((key, r, cur))
                break
    if winners:
        winners.sort(key=lambda t: (t[0], t[1]))
        return winners[0][2]
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


def _affine_rows(program: SdpProgram, basis: SubsetBasis, label):
    """Sparse equality system B y = d over the selectable vertices.

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
    rows, cols, vals = [np.zeros(1, dtype=np.int64)], [pos[:1]], [np.ones(1)]
    for p, (part, k) in enumerate(zip(program.parts, program.budgets)):
        kept = [label[v] for v in part - program.forbidden]
        at = 1 + p * S.size + np.arange(S.size)
        for i in kept:
            rows.append(at)
            cols.append(pos[S ^ (1 << i)])
            vals.append(np.ones(S.size))
        rows.append(at)
        cols.append(pos[S])
        vals.append(np.full(S.size, len(kept) - 2.0 * k))
    shape = (1 + len(program.parts) * S.size, basis.masks.size)
    B = scipy.sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=shape
    )
    d = np.zeros(shape[0])
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
    y[T | S] = (-1)^|S| y_free[T], since each super is pinned to -1.  The
    empty moment is set to exactly 1, its normalization, so that every
    super reads bias exactly -1.
    """
    y_free = y_free.copy()
    y_free[0] = 1.0
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


def _affine_chart(B, d, weights):
    """q, K with {y : B y = d} = {q + K u : u in R^k}.

    K is a basis of null(B) orthonormal in the weighted inner product
    <a, b> = sum_s w_s a_s b_s, so K' W K = I, and q is the W-nearest
    solution to 0, so K' W q = 0.  With A = B W^-1/2, one pivoted Cholesky
    of the sparse Gram matrix, P' A'A P = U'U with U = [U1 U2] of the rank
    of B, gives the null space P [-U1^-1 U2; I] and a solution on the
    pivot columns.  Dependent rows (with c >= 2, P's row at depth {q}, q
    in Q, and Q's at depth {p}, p in P, both sum to the product of the two
    budget equations) need no special case.  The Gram matrix squares the
    condition of A; on the benchmark programs the nonzero singular values
    of A lie in [0.048, 1.44] and the rest are rounding (1e-15), so the
    rank is clear.
    """
    root = np.sqrt(weights)
    A = scipy.sparse.csr_array(B / root[None, :])
    G = np.asfortranarray((A.T @ A).toarray())
    U, piv, rank, _ = scipy.linalg.lapack.dpstrf(G, overwrite_a=True)
    piv -= 1
    U1, U2 = U[:rank, :rank], U[:rank, rank:]  # the solvers read the upper triangle
    K = np.zeros((A.shape[1], A.shape[1] - rank))
    K[piv[:rank]] = -scipy.linalg.solve_triangular(U1, U2)
    K[piv[rank:], np.arange(K.shape[1])] = 1.0
    for _ in range(2):  # orthonormalise (K'K >= I, so the Cholesky exists); twice for rounding
        K = np.linalg.solve(np.linalg.cholesky(K.T @ K), K.T).T
    q = np.zeros(A.shape[1])
    q[piv[:rank]] = scipy.linalg.cho_solve((U1, False), (A.T @ d)[piv[:rank]])
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
    N = ms.dim_mat
    pos = ms.basis.pos
    T = ms.row_masks[: basis_dim(ms.n, program.level - 1)]  # masks sort by size
    cols = np.arange(T.size)
    null = []
    for part, k in zip(program.parts, program.budgets):
        kept = [label[v] for v in part - program.forbidden]
        v = np.zeros((N, T.size))  # column j is v_T for T = T[j]
        for i in kept:
            v[pos[T ^ (1 << i)], cols] += 1.0
        v[pos[T], cols] -= 2.0 * k - len(kept)
        null.append(v)
    W = np.hstack(null) / np.sqrt(mult)[:, None]
    return scipy.linalg.null_space(W.T)


def _face_operator(K, V, class_idx, scale):
    """The r^2 x k matrix whose column j is vec(V' M(K e_j) V), built a
    few columns at a time so that no k x N x N array is ever held."""
    N, r = V.shape
    L = np.empty((r * r, K.shape[1]))
    step = max(1, (1 << 14) // (N * N))
    for j in range(0, K.shape[1], step):
        Mj = K[:, j : j + step].T[:, class_idx] * scale
        L[:, j : j + step] = (V.T @ Mj @ V).reshape(-1, r * r).T
    return L


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
    not PSD within PSD_TOL.

    The solve runs with OpenBLAS held to one thread (see `cutkit._blas`),
    and the caller's thread count is restored when it returns or raises.
    """
    with ONE_BLAS_THREAD:
        free, label, ms, mult = _free_rows(program)
        basis = ms.basis
        # Scaling entry (T, U) by sqrt(m_T m_U) gives the face block the
        # nonzero spectrum and the Frobenius norm of the full matrix, so the
        # residuals keep their meaning for the lifted answer.
        weight = np.outer(mult, mult)
        counts = np.bincount(
            ms.class_idx.ravel(),
            weights=weight.ravel(),
            minlength=basis.masks.size,
        )
        cvec, _ = _objective_vector(program, basis, label)
        q, K = _affine_chart(*_affine_rows(program, basis, label), counts)
        V = face_basis(program)
        scale = np.sqrt(weight)
        # L(u) = V' M(q + K u) V = Lq + Lu u;
        # since K' W K = I, Lu' vec(L(u) - Lq) = u
        Lq = V.T @ (q[ms.class_idx] * scale) @ V
        Lu = _face_operator(K, V, ms.class_idx, scale)

        kc = K.T @ cvec
        u, steps, (_, prim, dual) = _interior_point(Lq, Lu, kc, SDP_TOL, SDP_MAX_ITER)

        y = q + K @ u
        mv = MomentVector(
            program.n, program.level, _lift(y, program.n, program.level, free)
        )
        min_eig = mv.min_eigenvalue()
        if min_eig < -PSD_TOL:
            raise ConvergenceError(
                f"moment matrix not PSD within tolerance (min eigenvalue {min_eig:.2e})",
                primal=prim,
                dual=dual,
                iterations=steps,
            )
        return mv


def _interior_point(Lq, Lu, kc, tol, max_steps):
    """Primal-dual path following on the LMI pair

        primal: minimise <Lq, X>  subject to  Lu' vec X = -kc,  X >= 0,
        dual:   maximise kc'u     subject to  S = Lq + mat(Lu u) >= 0,

    where <Lq, X> - kc'u = <X, S> on feasible points.  Each Newton step is
    Mehrotra's predictor-corrector on the HKM direction: the Schur matrix
    M_ij = tr(A_i X A_j S^-1), A_j = mat(Lu e_j), is the Gram matrix of
    the blocks R' A_j P, X = R R', S^-1 = P P'.  Each iterate moves to 0.98
    of the way to the boundary of the cone, separately for X and for
    (u, S).  The start is infeasible, u = 0, S = Lq + tI, X = sI, so Lq
    need not be definite.

    Returns u, the number of Newton steps, and (gap, primal, dual): the
    relative gap |<Lq, X> - kc'u| / max(1, |<Lq, X>|, |kc'u|) and the two
    relative residuals, all within `tol`.  The iterates approach the
    relative interior of the optimal face, so where the optimum is not
    unique the answer is its maximum-rank point.
    """
    r, k = Lq.shape[0], kc.size
    A = np.ascontiguousarray(Lu.T).reshape(k, r, r)  # A[j] = A_j, contiguous for matmul
    kc_scale = max(1.0, np.linalg.norm(kc))
    lq_scale = max(1.0, np.linalg.norm(Lq))
    eye = np.eye(r)
    u = np.zeros(k)
    S = Lq + (1.0 - min(0.0, np.linalg.eigvalsh(Lq)[0])) * eye
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
        except np.linalg.LinAlgError as exc:
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
    residuals Rp and Rd; returns the next (X, u, S)."""
    r, k = X.shape[0], u.size
    RX = np.linalg.cholesky(X)
    RX_inv = np.linalg.inv(RX)
    P = np.linalg.inv(np.linalg.cholesky(S)).T
    S_inv = P @ P.T
    G = (RX.T @ (A @ P)).reshape(k, r * r)  # row j is vec(R' A_j P)
    w, Q = np.linalg.eigh(G @ G.T)
    # M is singular to rounding near the optimum: solve on its range
    keep = w > 1e-14 * w.max(initial=0.0)
    w, Q = w[keep], Q[:, keep]

    def direction(target, corr):
        # X dS + dX S = target I - X S - corr, linearised, with the
        # residual equations substituted in
        base = target * S_inv - X
        rhs = Lu.T @ (base - (corr + X @ Rd) @ S_inv).ravel() - Rp
        du = Q @ ((Q.T @ rhs) / w)
        dS = Rd + (Lu @ du).reshape(r, r)
        dX = base - (corr + X @ dS) @ S_inv
        return (dX + dX.T) / 2.0, du, dS

    mu = np.vdot(X, S) / r
    dX, du, dS = direction(0.0, 0.0)
    ap, ad = _step_to_boundary(RX_inv, dX), _step_to_boundary(P.T, dS)
    mu_aff = np.vdot(X + ap * dX, S + ad * dS) / r
    sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
    dX, du, dS = direction(sigma * mu, dX @ dS)
    ap, ad = _step_to_boundary(RX_inv, dX), _step_to_boundary(P.T, dS)
    return X + ap * dX, u + ad * du, S + ad * dS


def _step_to_boundary(L_inv, D):
    """min(1, 0.98 a) for the largest a with L L' + a D >= 0, from
    lambda_min(L^-1 D L^-T)."""
    lam = np.linalg.eigvalsh(L_inv @ D @ L_inv.T)[0]
    return min(1.0, -0.98 / lam) if lam < 0.0 else 1.0


def _psd_projection(A):
    """Nearest PSD matrix to A in Frobenius norm.

    The solver no longer calls it.  It stays because perfbench's tracer
    wraps it by name and refuses to run when the name is missing.
    """
    vals, vecs = np.linalg.eigh((A + A.T) / 2.0)
    return (vecs * np.maximum(vals, 0.0)) @ vecs.T
