"""scipy extension modules, loaded without their parent packages.

cutkit calls two of scipy's compiled extensions: HiGHS's bindings
(`scipy.optimize._highspy._core`) for the matroid master LP, and the
LAPACK wrappers (`scipy.linalg._flapack`) for the relaxation's affine
chart, face basis and Newton steps.  Importing either the usual way first
runs its parent package's `__init__`: `scipy.optimize` loads linprog,
shgo, `scipy.fft` and about 175 other modules, and `scipy.linalg` loads
scipy's array-API layer, which clones numpy's namespace and with it
imports `numpy.testing` and `numpy.f2py`.  `load` runs the extension
file alone under its own name and registers it in `sys.modules`, so a
later import of the parent package finds it there and the process holds
one copy.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import scipy

HIGHS = "scipy.optimize._highspy._core"
FLAPACK = "scipy.linalg._flapack"


def load(name: str, folder: str | None = None):
    """The scipy extension module `name`, e.g. `HIGHS` or `FLAPACK`.

    Reuses the registered module when the caller imported its package
    first.  Otherwise loads the extension file from `folder` (by default
    the package's folder inside scipy) and raises `ImportError` naming
    the folder and the scipy version when it is not there.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    if folder is None:
        folder = os.path.join(os.path.dirname(scipy.__file__), *name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [folder])
    if spec is None:
        raise ImportError(
            f"no extension {name} in {folder} (scipy {scipy.__version__}); "
            "cutkit needs scipy >= 1.15",
            name=name,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module
