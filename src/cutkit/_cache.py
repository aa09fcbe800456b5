"""A thread-safe least-recently-used cache of built arrays, bounded by
entry count and by bytes.

The relaxation's geometry (`moments._geometry`) and the exact oracles'
enumeration plans (`oracle._plan`) each sit behind one.  Each cache reads
its bounds from a callable when it inserts an entry, so bounds held in
module constants can be changed while the program runs.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import update_wrapper
from typing import NamedTuple


class CacheInfo(NamedTuple):
    hits: int
    builds: int
    entries: int
    nbytes: int


class BoundedCache:
    """`build` behind a least-recently-used cache keyed by its one argument.
    `bounds()` gives (most entries, most bytes of their `nbytes`); a result
    larger than the byte bound is returned and not kept.  Like
    functools.lru_cache, it has cache_info() and cache_clear()."""

    def __init__(self, build, bounds):
        update_wrapper(self, build)
        self._build = build
        self._bounds = bounds
        self._lock = threading.Lock()
        self._kept = OrderedDict()
        self._hits = self._builds = self._nbytes = 0

    def __call__(self, key):
        with self._lock:
            found = self._kept.get(key)
            if found is not None:
                self._kept.move_to_end(key)
                self._hits += 1
                return found
        built = self._build(key)
        with self._lock:
            self._builds += 1
            entries, nbytes = self._bounds()
            if key not in self._kept and built.nbytes <= nbytes:
                self._kept[key] = built
                self._nbytes += built.nbytes
                while len(self._kept) > entries or self._nbytes > nbytes:
                    self._nbytes -= self._kept.popitem(last=False)[1].nbytes
        return built

    def cache_info(self) -> CacheInfo:
        with self._lock:
            return CacheInfo(self._hits, self._builds, len(self._kept), self._nbytes)

    def cache_clear(self):
        with self._lock:
            self._kept.clear()
            self._hits = self._builds = self._nbytes = 0


def bounded_cache(bounds):
    """Decorator: the one-argument function behind a BoundedCache whose
    bounds() gives (most entries, most bytes)."""
    return lambda build: BoundedCache(build, bounds)
