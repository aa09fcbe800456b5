"""What `import cutkit` and each public entry point load, each probed in a
fresh interpreter, and the lazily resolved package namespace."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cutkit import _highs

SRC = Path(__file__).resolve().parent.parent / "src"

# the public names of the package, which lazy resolution must keep
PUBLIC = {
    "Config", "ConstrainedInstance", "CutSolution", "ExplicitMatroid", "GraphicMatroid",
    "KernelResult", "MomentVector", "OracleResult", "PartitionMatroid", "Relaxation",
    "RoundingParams", "UniformMatroid", "WeightedGraph", "block_independence_score",
    "build_program", "condition", "cut_between", "cut_value", "kernelize_multi",
    "kernelize_single", "load_config", "make_block_independent", "marginals",
    "mutual_information", "oracle_all_cut_decision", "oracle_constrained", "oracle_maxcut_k",
    "oracle_matroid", "relax_multi", "round_relaxation", "solve_matroid",
    "solve_multi", "solve_relaxation", "solve_single", "weighted_degree_order",
}

WATCHED = (
    "cutkit.moments",
    "cutkit.matroid",
    "cutkit.oracle",
    "cutkit.rounding",
    "scipy",
    _highs.FLAPACK,
    _highs.HIGHS,
)


def fresh_python(probe):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(res.stdout)


@pytest.mark.parametrize(
    "statement, loaded, unloaded",
    [
        ("import cutkit", [], list(WATCHED)),
        ("from cutkit import oracle_constrained", ["cutkit.oracle"],
         ["cutkit.moments", "cutkit.matroid", _highs.FLAPACK]),
        ("from cutkit import solve_multi", ["cutkit.rounding", "cutkit.moments", _highs.FLAPACK],
         ["cutkit.matroid", _highs.HIGHS]),
    ],
)
def test_each_entry_point_loads_only_what_it_runs(statement, loaded, unloaded):
    probe = (
        f"{statement}; import json, sys; "
        f"print(json.dumps([[m in sys.modules for m in {loaded!r}], "
        f"[m for m in {unloaded!r} if m in sys.modules]]))"
    )
    assert fresh_python(probe) == [[True] * len(loaded), []]


def test_every_public_name_resolves_to_its_submodules_object():
    probe = (
        "import importlib, json, cutkit; "
        "names = cutkit.__all__; "
        "found = {n: getattr(cutkit, n) for n in names}; "
        "homes = {n: importlib.import_module(v.__module__) for n, v in found.items()}; "
        "print(json.dumps([names, sorted({m.__name__ for m in homes.values()}), "
        "[n for n, v in found.items() if getattr(homes[n], v.__name__) is not v], "
        "[n for n in names if n not in dir(cutkit)], "
        "[n for n in names if vars(cutkit).get(n) is not found[n]]]))"
    )
    names, homes, strangers, undirected, uncached = fresh_python(probe)
    assert set(names) == PUBLIC and len(names) == len(PUBLIC)
    assert homes == [
        "cutkit.config", "cutkit.graph", "cutkit.kernel", "cutkit.matroid",
        "cutkit.moments", "cutkit.oracle", "cutkit.rounding",
    ]
    assert strangers == [] and undirected == [] and uncached == []


def test_submodules_resolve_after_a_bare_import_and_unknown_names_do_not():
    probe = (
        "import json, sys, cutkit; "
        "moments = cutkit.moments; "
        "from cutkit import *; "
        "missing = [hasattr(cutkit, n) for n in ('no_such_name', 'no_such_module')]; "
        "print(json.dumps([moments is sys.modules['cutkit.moments'], "
        "solve_relaxation is moments.solve, missing, cutkit.__version__]))"
    )
    assert fresh_python(probe) == [True, True, [False, False], "0.1.0"]



def test_the_matroid_oracle_maps_no_extension_and_the_first_lp_maps_highs():
    probe = (
        "from cutkit import PartitionMatroid, oracle_matroid; "
        "import json, sys; from cutkit import WeightedGraph; "
        "g = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0), (0, 3, 1.0)]); "
        "m = PartitionMatroid(4, [[0, 1], [2, 3]], [1, 1]); "
        "best = oracle_matroid(g, m).opt_value; "
        f"mapped = [n for n in ({_highs.HIGHS!r}, {_highs.FLAPACK!r}) if n in sys.modules]; "
        "from cutkit.matroid import solve_lp; "
        "value = solve_lp(g, m).value; "
        f"print(json.dumps([best, mapped, value, {_highs.HIGHS!r} in sys.modules]))"
    )
    assert fresh_python(probe) == [5.0, [], 5.0, True]
