"""cutkit: Max-Cut under cardinality, partition, and matroid constraints.

Solvers: a kernelize / relax / condition / round / correct pipeline for
partitioned cardinality constraints, an LP-plus-swap-rounding
half-approximation for arbitrary matroid bases, and exact enumeration
oracles that back every guarantee with ground truth at desk scale.

`import cutkit` loads no submodule.  Each public name, and each
submodule, is imported on first access (PEP 562), so the exact oracles
never load the relaxation or LAPACK, and the SDP pipeline never loads
the matroid LP or HiGHS.
"""

import importlib

__version__ = "0.1.0"

# public name -> (submodule, attribute there)
_EXPORTS = {
    "Config": ("config", "Config"),
    "load_config": ("config", "load_config"),
    "ConstrainedInstance": ("graph", "ConstrainedInstance"),
    "CutSolution": ("graph", "CutSolution"),
    "WeightedGraph": ("graph", "WeightedGraph"),
    "cut_between": ("graph", "cut_between"),
    "cut_value": ("graph", "cut_value"),
    "weighted_degree_order": ("graph", "weighted_degree_order"),
    "KernelResult": ("kernel", "KernelResult"),
    "kernelize_multi": ("kernel", "kernelize_multi"),
    "kernelize_single": ("kernel", "kernelize_single"),
    "MomentVector": ("moments", "MomentVector"),
    "block_independence_score": ("moments", "block_independence_score"),
    "build_program": ("moments", "build_program"),
    "condition": ("moments", "condition"),
    "make_block_independent": ("moments", "make_block_independent"),
    "marginals": ("moments", "marginals"),
    "mutual_information": ("moments", "mutual_information"),
    "solve_relaxation": ("moments", "solve"),
    "ExplicitMatroid": ("matroid", "ExplicitMatroid"),
    "GraphicMatroid": ("matroid", "GraphicMatroid"),
    "PartitionMatroid": ("matroid", "PartitionMatroid"),
    "UniformMatroid": ("matroid", "UniformMatroid"),
    "solve_matroid": ("matroid", "solve_matroid"),
    "OracleResult": ("oracle", "OracleResult"),
    "oracle_all_cut_decision": ("oracle", "oracle_all_cut_decision"),
    "oracle_constrained": ("oracle", "oracle_constrained"),
    "oracle_maxcut_k": ("oracle", "oracle_maxcut_k"),
    "oracle_matroid": ("oracle", "oracle_matroid"),
    "Relaxation": ("rounding", "Relaxation"),
    "RoundingParams": ("rounding", "RoundingParams"),
    "relax_multi": ("rounding", "relax_multi"),
    "round_relaxation": ("rounding", "round_relaxation"),
    "solve_multi": ("rounding", "solve_multi"),
    "solve_single": ("rounding", "solve_single"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import the public name or submodule `name` and keep it here."""
    if name in _EXPORTS:
        module, attr = _EXPORTS[name]
        value = getattr(importlib.import_module(f".{module}", __name__), attr)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
