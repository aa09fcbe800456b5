"""scipy's HiGHS bindings, loaded without scipy.optimize.

The matroid master LP calls only `scipy.optimize._highspy._core`, the
extension scipy builds from highspy.  Importing it the usual way first
runs `scipy.optimize/__init__`, which loads linprog, shgo, `scipy.fft`,
`scipy.spatial.transform` and about 175 other modules cutkit never
calls.  `load_core` loads the extension file alone under its own name
and registers it in `sys.modules`, so a later `import scipy.optimize`
finds it there and the process holds one copy.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

import scipy

NAME = "scipy.optimize._highspy._core"


def load_core(folder: str | None = None):
    """The module `scipy.optimize._highspy._core`.

    Reuses the registered module when the caller imported scipy.optimize
    first.  Otherwise loads the extension from `folder` (by default
    scipy's `optimize/_highspy`) and raises `ImportError` naming the
    folder and the scipy version when it is not there.
    """
    module = sys.modules.get(NAME)
    if module is not None:
        return module
    if folder is None:
        folder = os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy")
    spec = PathFinder.find_spec(NAME, [folder])
    if spec is None:
        raise ImportError(
            f"no HiGHS extension {NAME} in {folder} (scipy {scipy.__version__}); "
            "cutkit needs scipy >= 1.15",
            name=NAME,
        )
    module = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[NAME]
        raise
    return module
