"""Caching of expensive optimizer computations (§3.4.4).

Dynamic sampling — estimating single-table cardinalities for tables with
no collected statistics — is expensive and its result survives
transformations that do not alter the table's single-table predicates.
The cache memoises it per table across every optimizer invocation made
while costing transformation states.

Entries are keyed on the table's statistics version, so they follow the
registry's staleness rule (:mod:`repro.catalog.statistics`): inserts
below the threshold leave the version — and the cached sample — alone,
and the sample always covers the first ``basis`` rows, so it is the same
on a live instance, a recovered one, and under concurrent inserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..catalog.schema import Catalog
from ..catalog.statistics import (
    StatisticsRegistry,
    TableStats,
    sample_statistics,
)
from ..engine.tables import Storage


@dataclass
class SamplingCacheStats:
    hits: int = 0
    misses: int = 0


class DynamicSamplingCache:
    """Callable ``table_name -> TableStats`` backed by dynamic sampling
    over stored rows, memoised per table and statistics version."""

    def __init__(
        self,
        storage: Storage,
        catalog: Catalog,
        statistics: StatisticsRegistry,
        sample_fraction: float = 0.1,
        seed: int = 42,
    ):
        self._storage = storage
        self._catalog = catalog
        self._statistics = statistics
        self._fraction = sample_fraction
        self._seed = seed
        #: table -> (statistics version sampled at, statistics)
        self._cache: dict[str, tuple[int, TableStats]] = {}
        self.stats = SamplingCacheStats()

    def __call__(self, table_name: str) -> Optional[TableStats]:
        name = table_name.lower()
        version, basis = self._statistics.sampling_basis(name)
        cached = self._cache.get(name)
        if cached is not None and cached[0] == version:
            self.stats.hits += 1
            return cached[1]
        if not self._storage.has(name):
            return None
        self.stats.misses += 1
        rows = self._storage.get(name).rows
        stats = sample_statistics(
            rows,
            self._catalog.table(name).column_names,
            self._fraction,
            self._seed,
            row_count=len(rows) if basis is None else basis,
        )
        self._cache[name] = (version, stats)
        return stats

    def snapshot(self) -> dict:
        """Accounting export for the metrics registry (collector form:
        read at snapshot time only, zero cost on the sampling path)."""
        return {
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "entries": len(self._cache),
        }
