"""Optimizer statistics: table row counts, per-column NDV/min/max/null
counts, and equi-height histograms.

``collect_statistics`` plays the role of Oracle's ``ANALYZE`` / dynamic
sampling: it scans the stored rows and builds exact statistics.  The
cost-based transformation framework caches expensive statistic
computations across optimizer invocations (§3.4.4 of the paper); that
cache lives in :mod:`repro.cbqt.caching` and wraps the functions here.

Staleness follows Oracle's DML monitoring (``DBMS_STATS``
``STALE_PERCENT``): a table's statistics — gathered by ANALYZE or
produced by dynamic sampling — describe a *basis* row count, and stay in
force until the rows inserted since exceed :data:`STALE_PERCENT` of it.
:meth:`StatisticsRegistry.record_insert` is the one place that decision
is made; below the threshold an insert changes neither the statistics
nor any version counter, so dependent cursors survive.
"""

from __future__ import annotations

import bisect
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

#: Number of buckets used for equi-height histograms.
DEFAULT_HISTOGRAM_BUCKETS = 32

#: Default selectivities used when no statistics are available, following
#: the classic System-R constants.
DEFAULT_EQ_SELECTIVITY = 0.01
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.05

#: Statistics go stale once the rows inserted since they were gathered
#: exceed this percentage of the rows they describe (Oracle's default
#: ``STALE_PERCENT``).
STALE_PERCENT = 10


class Histogram:
    """Equi-height histogram over the non-null values of one column.

    Stores ``boundaries[0..b]`` where each bucket ``i`` covers
    ``(boundaries[i], boundaries[i+1]]`` and holds ~1/b of the rows.  Also
    keeps the exact count of the most common values when the column is
    low-cardinality ("frequency histogram" mode, as Oracle does for NDV
    below the bucket count).
    """

    def __init__(self, values: Sequence[object], buckets: int = DEFAULT_HISTOGRAM_BUCKETS):
        sorted_values = sorted(values)
        self.total = len(sorted_values)
        self.frequency: Optional[dict[object, int]] = None
        self.boundaries: list[object] = []
        if self.total == 0:
            return
        distinct = sorted(set(sorted_values))
        if len(distinct) <= buckets:
            counts: dict[object, int] = {}
            for value in sorted_values:
                counts[value] = counts.get(value, 0) + 1
            self.frequency = counts
            self.boundaries = [distinct[0], distinct[-1]]
            return
        self.boundaries = [sorted_values[0]]
        for i in range(1, buckets + 1):
            idx = min(self.total - 1, (i * self.total) // buckets - 1)
            self.boundaries.append(sorted_values[idx])

    @property
    def is_frequency(self) -> bool:
        return self.frequency is not None

    def selectivity_eq(self, value: object, ndv: int) -> float:
        """Fraction of non-null rows equal to *value*."""
        if self.total == 0:
            return 0.0
        if self.frequency is not None:
            return self.frequency.get(value, 0) / self.total
        lo, hi = self.boundaries[0], self.boundaries[-1]
        try:
            out_of_range = value < lo or value > hi  # type: ignore[operator]
        except TypeError:
            return 1.0 / max(ndv, 1)
        if out_of_range:
            return 0.0
        return 1.0 / max(ndv, 1)

    def selectivity_range(
        self,
        low: Optional[object],
        high: Optional[object],
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> float:
        """Fraction of non-null rows in the interval [low, high]."""
        if self.total == 0:
            return 0.0
        if self.frequency is not None:
            count = 0
            for value, n in self.frequency.items():
                if not _within(value, low, high, low_inclusive, high_inclusive):
                    continue
                count += n
            return count / self.total
        lo_frac = self._cumulative(low) if low is not None else 0.0
        hi_frac = self._cumulative(high) if high is not None else 1.0
        return max(0.0, min(1.0, hi_frac - lo_frac))

    def to_dict(self) -> dict:
        """JSON-able form.  Frequency counts are ``[value, count]`` pairs
        rather than an object — JSON object keys are always strings, and
        the histogram's keys are typed column values."""
        return {
            "total": self.total,
            "frequency": (
                None
                if self.frequency is None
                else [[value, count] for value, count in self.frequency.items()]
            ),
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        """Rebuild from :meth:`to_dict` output without re-deriving buckets
        — the serialized form *is* the histogram."""
        histogram = cls([])
        histogram.total = payload["total"]
        frequency = payload.get("frequency")
        histogram.frequency = (
            None
            if frequency is None
            else {value: count for value, count in frequency}
        )
        histogram.boundaries = list(payload.get("boundaries", []))
        return histogram

    def _cumulative(self, value: object) -> float:
        """Approximate fraction of rows with column value <= *value*.

        Duplicate boundary values (heavy skew: one value filling several
        buckets) are handled by locating the *last* boundary <= value, so
        the popular value's full bucket span counts."""
        bounds = self.boundaries
        if not bounds:
            return 0.0
        try:
            if value < bounds[0]:  # type: ignore[operator]
                return 0.0
            if value >= bounds[-1]:  # type: ignore[operator]
                return 1.0
        except TypeError:
            return 0.5
        idx = bisect.bisect_right(bounds, value) - 1
        idx = max(0, min(idx, len(bounds) - 2))
        lo, hi = bounds[idx], bounds[idx + 1]
        bucket_fraction = 1.0 / (len(bounds) - 1)
        base = idx * bucket_fraction
        if value == lo:
            within = 0.0
        elif isinstance(lo, (int, float)) and isinstance(hi, (int, float)) \
                and hi > lo:
            within = (float(value) - float(lo)) / (float(hi) - float(lo))
        else:
            within = 0.5
        return base + bucket_fraction * max(0.0, min(1.0, within))


def _within(value, low, high, low_inclusive, high_inclusive) -> bool:
    try:
        if low is not None:
            if low_inclusive and value < low:
                return False
            if not low_inclusive and value <= low:
                return False
        if high is not None:
            if high_inclusive and value > high:
                return False
            if not high_inclusive and value >= high:
                return False
    except TypeError:
        return False
    return True


@dataclass
class ColumnStats:
    """Statistics for one column."""

    num_distinct: int = 0
    num_nulls: int = 0
    min_value: Optional[object] = None
    max_value: Optional[object] = None
    histogram: Optional[Histogram] = None

    def null_fraction(self, row_count: int) -> float:
        if row_count <= 0:
            return 0.0
        return self.num_nulls / row_count


@dataclass
class TableStats:
    """Statistics for one table."""

    row_count: int = 0
    columns: dict[str, ColumnStats] = field(default_factory=dict)
    #: True when produced by dynamic sampling rather than ANALYZE; the
    #: CBQT caching layer keys on this (§3.4.4).
    sampled: bool = False

    def column(self, name: str) -> Optional[ColumnStats]:
        return self.columns.get(name.lower())


class StatisticsRegistry:
    """Holds per-table statistics; the optimizer reads through this.

    Like the catalog, the registry keeps monotonic version counters
    (global and per table) bumped on every statistics change, so cached
    plans and the dynamic-sampling cache detect staleness
    with an O(1) comparison.

    It also owns the staleness rule (see the module docstring).  Per
    table it keeps the *basis*: the row count the current statistics
    describe — ``stats.row_count`` after :meth:`set`, the table's row
    count at the moment of a :meth:`record_insert` version bump.  Dynamic
    sampling samples exactly the first ``basis`` rows, so a sampled
    table's statistics are also fixed until the next bump."""

    def __init__(self) -> None:
        self._stats: dict[str, TableStats] = {}
        #: guards version bumps and the staleness bookkeeping: ANALYZE
        #: and inserts run on server worker threads concurrently, and
        #: `+= 1` on a shared counter is not atomic — a lost bump is a
        #: stale cached plan
        self._lock = threading.Lock()
        self._version = 0
        self._table_versions: dict[str, int] = {}
        #: table -> row count the current statistics describe
        self._basis: dict[str, int] = {}
        #: table -> row count reported by the latest insert
        self._rows_seen: dict[str, int] = {}
        #: inserts that crossed the staleness threshold
        self._stale_drops = 0

    @property
    def version(self) -> int:
        """Monotonic counter bumped by every statistics change."""
        return self._version  # staticcheck: ignore[lock.discipline] GIL-atomic int/dict read; writers serialize under the lock

    def table_version(self, table: str) -> int:
        """Statistics version of one table (0 until first change)."""
        return self._table_versions.get(table.lower(), 0)  # staticcheck: ignore[lock.discipline] GIL-atomic int/dict read; writers serialize under the lock

    def sampling_basis(self, table: str) -> tuple[int, Optional[int]]:
        """``(table_version, basis)`` read together, for the sampling
        cache; the basis is None when no statistics change has recorded
        one (the table was populated outside :meth:`record_insert`)."""
        key = table.lower()
        with self._lock:
            return self._table_versions.get(key, 0), self._basis.get(key)

    def _bump(self, key: str) -> None:
        """Caller holds ``self._lock``."""
        self._version += 1
        self._table_versions[key] = self._table_versions.get(key, 0) + 1

    def set(self, table: str, stats: TableStats) -> None:
        key = table.lower()
        with self._lock:
            self._stats[key] = stats
            self._basis[key] = stats.row_count
            self._rows_seen[key] = stats.row_count
            self._bump(key)

    def get(self, table: str) -> Optional[TableStats]:
        return self._stats.get(table.lower())  # staticcheck: ignore[lock.discipline] GIL-atomic dict read on the optimizer's hot path; writers serialize under the lock

    def record_insert(self, table: str, rows_now: int) -> bool:
        """Account an insert that left *table* with *rows_now* rows.

        Returns True when the rows inserted since the statistics were
        gathered exceed :data:`STALE_PERCENT` of their basis (a basis of
        0 goes stale on the first row): the statistics are dropped, the
        version bumps and the basis becomes *rows_now*.  Otherwise
        nothing the optimizer reads changes."""
        key = table.lower()
        with self._lock:
            self._rows_seen[key] = rows_now
            basis = self._basis.get(key, 0)
            if (rows_now - basis) * 100 <= STALE_PERCENT * basis:
                return False
            self._stats.pop(key, None)
            self._basis[key] = rows_now
            self._stale_drops += 1
            self._bump(key)
        return True

    def clear(self) -> None:
        with self._lock:
            tables = list(self._stats)
            self._stats.clear()
            for key in tables:
                self._basis.pop(key, None)
                self._rows_seen.pop(key, None)
                self._bump(key)

    def items(self) -> list[tuple[str, TableStats]]:
        """Snapshot of every table's statistics (checkpoint path)."""
        with self._lock:
            return sorted(self._stats.items())

    def bases(self) -> dict[str, int]:
        """Every recorded basis (checkpoint path and state digest)."""
        with self._lock:
            return dict(sorted(self._basis.items()))

    def restore_basis(self, table: str, basis: int, rows_now: int) -> None:
        """Reinstate a checkpointed basis for a table now holding
        *rows_now* rows (recovery path): no version bump — the
        statistics it describes were restored with it."""
        key = table.lower()
        with self._lock:
            self._basis[key] = basis
            self._rows_seen[key] = rows_now

    def snapshot(self) -> dict:
        """DML-monitoring export for the metrics registry: per table the
        basis and the rows inserted since it was recorded, plus how many
        inserts crossed the staleness threshold."""
        with self._lock:
            return {
                "stale_drops": self._stale_drops,
                "tables": {
                    key: {
                        "basis_rows": basis,
                        "rows_since_gathered": max(
                            0, self._rows_seen.get(key, basis) - basis
                        ),
                    }
                    for key, basis in sorted(self._basis.items())
                },
            }


def stats_to_dict(stats: TableStats) -> dict:
    """JSON-able form of one table's statistics (checkpoint payload)."""
    return {
        "row_count": stats.row_count,
        "sampled": stats.sampled,
        "columns": {
            name: {
                "num_distinct": col.num_distinct,
                "num_nulls": col.num_nulls,
                "min_value": col.min_value,
                "max_value": col.max_value,
                "histogram": (
                    col.histogram.to_dict() if col.histogram else None
                ),
            }
            for name, col in stats.columns.items()
        },
    }


def stats_from_dict(payload: dict) -> TableStats:
    """Rebuild :class:`TableStats` from :func:`stats_to_dict` output."""
    stats = TableStats(
        row_count=payload["row_count"],
        sampled=bool(payload.get("sampled", False)),
    )
    for name, col in payload.get("columns", {}).items():
        histogram = col.get("histogram")
        stats.columns[name] = ColumnStats(
            num_distinct=col["num_distinct"],
            num_nulls=col["num_nulls"],
            min_value=col["min_value"],
            max_value=col["max_value"],
            histogram=(
                Histogram.from_dict(histogram) if histogram else None
            ),
        )
    return stats


def collect_statistics(
    rows: Iterable[dict],
    column_names: Sequence[str],
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    with_histograms: bool = True,
) -> TableStats:
    """Compute exact statistics from stored rows (the ANALYZE path).

    *rows* is an iterable of column-name -> value dicts.
    """
    materialised = list(rows)
    stats = TableStats(row_count=len(materialised))
    for name in column_names:
        values = [row[name] for row in materialised]
        non_null = [v for v in values if v is not None]
        col = ColumnStats(
            num_distinct=len(set(non_null)),
            num_nulls=len(values) - len(non_null),
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
        )
        if with_histograms and non_null:
            col.histogram = Histogram(non_null, histogram_buckets)
        stats.columns[name] = col
    return stats


def sample_statistics(
    rows: Sequence[dict],
    column_names: Sequence[str],
    sample_fraction: float = 0.1,
    seed: int = 42,
    row_count: Optional[int] = None,
) -> TableStats:
    """Dynamic sampling: statistics from a pseudo-random sample of rows.

    Used for tables with no collected statistics; this is the "expensive
    computation" the CBQT caching layer memoises (§3.4.4).  NDV is scaled
    up from the sample with a first-order estimator.  *row_count* limits
    the sample to the first that many rows (the statistics basis), which
    gives the same statistics as sampling ``rows[:row_count]``.
    """
    import random

    rng = random.Random(seed)
    n = len(rows) if row_count is None else row_count
    k = max(1, int(n * sample_fraction)) if n else 0
    # drawing indices selects exactly the rows sampling the list would
    sample = [rows[j] for j in rng.sample(range(n), k)] if n else []
    stats = collect_statistics(sample, column_names, with_histograms=True)
    scale = (n / k) if k else 0.0
    stats.row_count = n
    stats.sampled = True
    for col in stats.columns.values():
        col.num_nulls = int(col.num_nulls * scale)
        if scale > 1.0 and col.num_distinct:
            # Scale NDV, capped by the table cardinality.
            col.num_distinct = min(n, int(col.num_distinct * (scale ** 0.5)))
    return stats
