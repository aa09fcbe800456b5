"""cutkit: Max-Cut under cardinality, partition, and matroid constraints.

Solvers: a kernelize / relax / condition / round / correct pipeline for
partitioned cardinality constraints, an LP-plus-swap-rounding
half-approximation for arbitrary matroid bases, and exact enumeration
oracles that back every guarantee with ground truth at desk scale.
"""

from .config import Config, load_config
from .graph import (
    ConstrainedInstance,
    CutSolution,
    WeightedGraph,
    cut_between,
    cut_value,
    weighted_degree_order,
)
from .kernel import KernelResult, kernelize_multi, kernelize_single
from .moments import (
    MomentVector,
    block_independence_score,
    build_program,
    condition,
    make_block_independent,
    marginals,
    mutual_information,
)
from .moments import solve as solve_relaxation
from .matroid import (
    ExplicitMatroid,
    GraphicMatroid,
    PartitionMatroid,
    UniformMatroid,
    solve_matroid,
)
from .oracle import (
    OracleResult,
    oracle_all_cut_decision,
    oracle_constrained,
    oracle_maxcut_k,
    oracle_matroid,
)
from .rounding import (
    Relaxation,
    RoundingParams,
    relax_multi,
    relax_single,
    round_relaxation,
    solve_multi,
    solve_single,
)

__version__ = "0.1.0"

__all__ = [
    "Config",
    "ConstrainedInstance",
    "CutSolution",
    "ExplicitMatroid",
    "GraphicMatroid",
    "KernelResult",
    "MomentVector",
    "OracleResult",
    "PartitionMatroid",
    "Relaxation",
    "RoundingParams",
    "UniformMatroid",
    "WeightedGraph",
    "block_independence_score",
    "build_program",
    "condition",
    "cut_between",
    "cut_value",
    "kernelize_multi",
    "kernelize_single",
    "load_config",
    "make_block_independent",
    "marginals",
    "mutual_information",
    "oracle_all_cut_decision",
    "oracle_constrained",
    "oracle_maxcut_k",
    "oracle_matroid",
    "relax_multi",
    "relax_single",
    "round_relaxation",
    "solve_matroid",
    "solve_multi",
    "solve_relaxation",
    "solve_single",
    "weighted_degree_order",
]
