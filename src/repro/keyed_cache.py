"""The one bounded least-recently-used cache of the package.

The thermal model keeps its steady and transient LU factors, ILU
operators and AMG hierarchies in :class:`KeyedCache` instances, and
each dynamic two-phase cooling backend its evaporator marches.
"""

from __future__ import annotations

from collections import OrderedDict, namedtuple
from typing import Any, Callable, Hashable, Optional

from .obs.metrics import get_registry

CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "currsize", "maxsize"])
"""``functools.lru_cache``-style cache statistics."""


class KeyedCache:
    """Values built from their key, at most ``maxsize`` of them; an
    insert beyond that evicts the least recently used entry.

    ``hits`` and ``misses`` name registry counters that each lookup
    moves besides the cache's own counts.  ``gauges`` names the prefix
    of a ``.maxsize`` gauge, set once, and a ``.currsize`` gauge, set
    whenever the number of entries may have changed.
    """

    def __init__(
        self,
        maxsize: int,
        *,
        hits: Optional[str] = None,
        misses: Optional[str] = None,
        gauges: Optional[str] = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError("a cache must hold at least one entry")
        registry = get_registry()
        self.maxsize = maxsize
        self.entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self._hit = registry.counter(hits) if hits else None
        self._miss = registry.counter(misses) if misses else None
        self._currsize = None
        if gauges:
            registry.gauge(f"{gauges}.maxsize").set(maxsize)
            self._currsize = registry.gauge(f"{gauges}.currsize")
            self._currsize.set(0)

    def get(
        self,
        key: Hashable,
        build: Callable[[], Any],
        on_evict: Optional[Callable[[Hashable], object]] = None,
    ) -> Any:
        """The entry of ``key``; on a miss ``build()`` makes it, and
        ``on_evict`` is called with the key the insert pushed out."""
        entry = self.entries.get(key)
        if entry is not None:
            self.entries.move_to_end(key)
            self.hits += 1
            if self._hit is not None:
                self._hit.inc()
            return entry
        self.misses += 1
        if self._miss is not None:
            self._miss.inc()
        entry = self.entries[key] = build()
        if len(self.entries) > self.maxsize:
            evicted, _ = self.entries.popitem(last=False)
            if on_evict is not None:
                on_evict(evicted)
        self._resized()
        return entry

    def pop(self, key: Hashable) -> bool:
        """Drop the entry of ``key``; returns whether there was one."""
        if self.entries.pop(key, None) is None:
            return False
        self._resized()
        return True

    def clear(self) -> None:
        """Drop every entry and zero the cache's own counts."""
        self.entries.clear()
        self.hits = self.misses = 0
        self._resized()

    def info(self) -> CacheInfo:
        return CacheInfo(self.hits, self.misses, len(self.entries), self.maxsize)

    def _resized(self) -> None:
        if self._currsize is not None:
            self._currsize.set(len(self.entries))
