"""In-process LRU program cache (the hot tier).

A plain ``OrderedDict`` LRU with hit/miss/eviction counters.  The
:class:`~repro.service.service.CompileService` holds exactly one and
serialises access through its own lock, so the cache itself carries no
locking.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Generic, List, Optional, TypeVar

from repro.errors import ConfigurationError

V = TypeVar("V")


class LRUCache(Generic[V]):
    """Least-recently-used mapping with instrumentation counters."""

    def __init__(self, capacity: int = 64) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"LRU capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._entries: "OrderedDict[str, V]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Optional[V]:
        """Return the cached value (refreshing recency) or ``None``."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: str, value: V) -> None:
        """Insert, evicting the least recently used entry when full."""
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        while len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[key] = value

    def keys(self) -> List[str]:
        """Keys in LRU → MRU order (first key is the next eviction)."""
        return list(self._entries)

    def clear(self) -> int:
        removed = len(self._entries)
        self._entries.clear()
        return removed

    def stats(self) -> Dict[str, int]:
        return {
            "size": len(self._entries),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
