"""A concurrency-safe shared plan cache (the library cache).

Entries are keyed on normalized SQL text plus the optimizer-config
fingerprint, and record the catalog and statistics versions of every
base table the plan depends on.  Staleness is therefore an O(1) version
comparison performed lazily at lookup — DDL on table ``t`` or
``analyze('t')`` invalidates exactly the entries referencing ``t``, and
nothing else (fine-grained invalidation).

Capacity is bounded; the least recently used entry is evicted first,
as in Oracle's shared pool.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..database import OptimizedQuery
from ..resilience import faults
from .binds import BindPredicate
from .metrics import CacheMetrics

#: table -> (catalog_version, statistics_version) at optimize time
Dependencies = dict
#: table -> (catalog_version, statistics_version) now
VersionReader = Callable[[str], tuple]


@dataclass
class CacheEntry:
    """One cached cursor: the optimized plan plus everything needed to
    validate it and to detect bind-selectivity drift."""

    key: tuple
    sql: str
    optimized: OptimizedQuery
    dependencies: Dependencies
    bind_profile: list[BindPredicate] = field(default_factory=list)
    peeked_binds: dict = field(default_factory=dict)
    #: executions served by this entry (informational, guarded by cache lock)
    executions: int = 0
    #: degradation-ladder level this plan was produced at (None = full
    #: CBQT); a fallback plan is cached *as* a fallback plan, never
    #: silently promoted to first class
    degraded: Optional[str] = None
    #: quarantine epoch at optimize time; a quarantine reset bumps the
    #: epoch, making the service re-attempt degraded entries at full CBQT
    quarantine_epoch: int = 0


def normalize_sql(sql: str) -> str:
    """Whitespace-insensitive normalization of SQL text for cache keys."""
    return " ".join(sql.split())


class PlanCache:
    """LRU plan cache with version-based invalidation."""

    def __init__(self, capacity: int = 128,
                 metrics: Optional[CacheMetrics] = None):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self.metrics = metrics or CacheMetrics()
        self._lock = threading.RLock()
        self._entries: "OrderedDict[tuple, CacheEntry]" = OrderedDict()

    # -- core operations ---------------------------------------------------

    def lookup(self, key: tuple, versions: VersionReader) -> Optional[CacheEntry]:
        """The entry under *key*, if present and still valid against the
        current catalog/statistics *versions*; stale entries are removed
        (counted as an invalidation).  Hits and misses are the caller's
        to count: a lookup is not always the call's final disposition."""
        faults.check("plan_cache.lookup")
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            for table, recorded in entry.dependencies.items():
                if versions(table) != recorded:
                    del self._entries[key]
                    self.metrics.bump("invalidations")
                    return None
            self._entries.move_to_end(key)
            entry.executions += 1
            return entry

    def store(self, entry: CacheEntry) -> None:
        """Insert or replace *entry*, evicting LRU entries over capacity."""
        faults.check("plan_cache.store")
        with self._lock:
            self._entries[entry.key] = entry
            self._entries.move_to_end(entry.key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.metrics.bump("evictions")

    def invalidate(self, table: Optional[str] = None) -> int:
        """Eagerly drop entries depending on *table* (all entries when
        None); returns the number removed."""
        with self._lock:
            if table is None:
                removed = len(self._entries)
                self._entries.clear()
            else:
                name = table.lower()
                stale = [
                    key for key, entry in self._entries.items()
                    if name in entry.dependencies
                ]
                for key in stale:
                    del self._entries[key]
                removed = len(stale)
            self.metrics.bump("invalidations", removed)
            return removed

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> list[tuple]:
        """Cache keys in LRU -> MRU order."""
        with self._lock:
            return list(self._entries)

    def entries(self) -> list[CacheEntry]:
        """Entries in LRU -> MRU order (snapshot)."""
        with self._lock:
            return list(self._entries.values())
