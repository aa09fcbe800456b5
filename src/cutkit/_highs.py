"""scipy extension modules, loaded without their parent packages.

cutkit calls two of scipy's compiled extensions: HiGHS's bindings
(`scipy.optimize._highspy._core`) for the matroid master LP, and the
LAPACK wrappers (`scipy.linalg._flapack`) for the relaxation's affine
chart, face basis and Newton steps.  `matroid` maps HiGHS on its first
master LP, not at import, so a process that builds matroids only for
the exact oracle never maps it; `moments` maps LAPACK at import.
Importing either the usual way first runs its parent package's
`__init__`: `scipy.optimize` loads linprog, shgo, `scipy.fft` and about
175 other modules, and `scipy.linalg` loads scipy's array-API layer,
which clones numpy's namespace and with it imports `numpy.testing` and
`numpy.f2py`.  `load` runs the extension file alone under its own name
and registers it in `sys.modules`, so a later import of the parent
package finds it there and the process holds one copy.  It finds
scipy's folder with `find_spec`, without running `scipy/__init__`
either.

Mapping `_flapack` starts scipy's OpenBLAS, whose idle worker threads by
default spin for about 2^28 cycles before they sleep, and cutkit never
hands them work (`_blas` holds the library to one thread around its
calls).  While `load` maps an extension it sets OpenBLAS's
`OPENBLAS_THREAD_TIMEOUT` to its floor, 4 (2^4 cycles), unless the caller
set that variable, and restores the environment right after.  OpenBLAS
reads the variable once, when the library starts, so its idle workers
sleep at once; the thread count stays the library's default, a threaded
call still wakes the workers, and a library that was mapped before is
left as it is.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import threading
from importlib.machinery import PathFinder

HIGHS = "scipy.optimize._highspy._core"
FLAPACK = "scipy.linalg._flapack"

_TIMEOUT = "OPENBLAS_THREAD_TIMEOUT"
# os.environ and sys.modules are shared by every thread; one load at a time
_LOADING = threading.Lock()


def _scipy_folder() -> str:
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ModuleNotFoundError("cutkit needs scipy >= 1.15", name="scipy")
    return spec.submodule_search_locations[0]


def load(name: str, folder: str | None = None):
    """The scipy extension module `name`, e.g. `HIGHS` or `FLAPACK`.

    Reuses the registered module when the caller imported its package
    first.  Otherwise loads the extension file from `folder` (by default
    the package's folder inside scipy) and raises `ImportError` naming
    the folder and the scipy version when it is not there.
    """
    with _LOADING:
        module = sys.modules.get(name)
        if module is not None:
            return module
        if folder is None:
            folder = os.path.join(_scipy_folder(), *name.split(".")[1:-1])
        spec = PathFinder.find_spec(name, [folder])
        if spec is None:
            import scipy

            raise ImportError(
                f"no extension {name} in {folder} (scipy {scipy.__version__}); "
                "cutkit needs scipy >= 1.15",
                name=name,
            )
        ours = _TIMEOUT not in os.environ
        if ours:  # OpenBLAS's floor: idle workers spin 2^4 cycles, not 2^28
            os.environ[_TIMEOUT] = "4"
        try:
            # the shared library is mapped, and OpenBLAS started, here
            module = importlib.util.module_from_spec(spec)
        finally:
            if ours:
                del os.environ[_TIMEOUT]
        sys.modules[name] = module
        try:
            spec.loader.exec_module(module)
        except BaseException:
            del sys.modules[name]
            raise
        return module
