"""Holding OpenBLAS to one thread around small matrix products.

The interior-point solve and the exact oracles make many BLAS calls,
most on matrices a few dozen wide (the relaxation's face side r is at
most 27 on the sdp-ladder workload), where waking OpenBLAS's other
threads costs more than the calls.  Both enter `ONE_BLAS_THREAD`, one
guard for the whole process.  The largest relaxations `auto_level`
admits reach r 220, where a second thread would pay on the Newton
step's products; they run on one thread too.
"""

from __future__ import annotations

import ctypes
import threading
from functools import lru_cache


@lru_cache(maxsize=1)
def _openblas_thread_setters() -> tuple:
    """openblas_set_num_threads_local of every OpenBLAS mapped into this
    process, as ctypes functions; numpy and scipy each bundle their own.

    The libraries are found by name in /proc/self/maps.  Opening one that
    is already mapped loads nothing new.  Where that file or the symbol is
    missing (not Linux, another BLAS, OpenBLAS before 0.3.27) the tuple is
    empty and the caller runs at its own thread count.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = dict.fromkeys(
                line.split(None, 5)[5].strip() for line in maps if "openblas" in line
            )
    except OSError:
        return ()
    setters = []
    for path in paths:
        try:
            set_local = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        set_local.argtypes = [ctypes.c_int]
        set_local.restype = ctypes.c_int
        setters.append(set_local)
    return tuple(setters)


class _OneBlasThread:
    """Holds OpenBLAS to one thread while any guarded call runs.

    openblas_set_num_threads_local sets the count for the whole process,
    despite its name, so concurrent calls share one cap: the first thread
    in saves each library's count and sets 1, and the last one out
    restores the saved counts.  The libraries are looked up at the first
    guarded call, not at import.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = ()

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = [(f, f(1)) for f in _openblas_thread_setters()]
            self._depth += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                for set_local, count in self._saved:
                    set_local(count)


ONE_BLAS_THREAD = _OneBlasThread()
