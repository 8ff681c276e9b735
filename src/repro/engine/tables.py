"""In-memory row storage with index maintenance and copy-on-write
versioning.

Rows are stored as plain dicts keyed by bare column name; scan operators
re-key them with the from-item alias (``"alias.column"``) when producing
execution rows.  Each catalog index gets a hash map for equality probes
and a sorted key list for range scans, mimicking a B-tree's two access
patterns.

Concurrency model (the server front end made cross-thread access the
norm): every table's rows + index structures live in an immutable
:class:`TableVersion`.  Writers (``insert``, ``attach_index``) build a
*new* version under the table's write lock — sharing unchanged index
buckets structurally — and publish it with one atomic reference swap, so

* a batch insert is all-or-nothing: readers see the table before the
  batch or after it, never a torn middle (and a mid-batch constraint
  violation leaves the table untouched);
* a reader that pins a :class:`TableSnapshot` (or a whole
  :class:`StorageSnapshot`) keeps one consistent version for as long as
  it holds the handle, regardless of concurrent DDL/DML — the snapshot
  semantics the query-serving front end (:mod:`repro.server`) relies on.
"""

from __future__ import annotations

import bisect
import itertools
import threading
from typing import Callable, Iterable, Optional, Sequence, Union

from ..catalog.schema import Index, TableDef
from ..errors import ExecutionError

#: commit hook signature: called with the fully validated new state and a
#: zero-argument *publish* closure; the hook decides when (or whether) the
#: new version becomes visible — the durability layer uses this to log a
#: WAL record *before* the atomic reference swap
CommitHook = Callable[[Callable[[], None]], None]


class IndexData:
    """Runtime structure backing one catalog index.

    Instances are owned by exactly one :class:`TableVersion` and never
    mutated after the version is published; ``copy()`` produces the next
    version's structure, sharing unmodified row-id buckets.
    """

    def __init__(self, index: Index):
        self.index = index
        self._hash: dict[tuple, list[int]] = {}
        self._sorted_keys: list[tuple] = []
        self._sorted_dirty = False
        #: while a ``copy()`` is being written: the key map of the
        #: version it was copied from.  A bucket that is still the very
        #: list found there is shared with a published version, so it is
        #: replaced (not appended to) on first touch.  None for a fresh
        #: build and after :meth:`seal`.
        self._shared: Optional[dict[tuple, list[int]]] = None

    def copy(self) -> "IndexData":
        """A shallow structural copy for the next copy-on-write version:
        the key map is new, the row-id buckets are shared until touched."""
        clone = IndexData(self.index)
        clone._hash = dict(self._hash)
        clone._sorted_keys = self._sorted_keys
        clone._sorted_dirty = self._sorted_dirty
        clone._shared = self._hash
        return clone

    def seal(self) -> None:
        """Drop the copy-on-write bookkeeping once the version is built;
        a published structure is never written again."""
        self._shared = None

    def insert(self, key: tuple, row_id: int) -> None:
        if any(part is None for part in key):
            return  # NULL keys are not indexed, as in Oracle B-trees.
        bucket = self._hash.get(key)
        if bucket is None:
            self._hash[key] = [row_id]
            self._sorted_dirty = True
        elif self.index.unique:
            raise ExecutionError(
                f"unique index {self.index.name!r} violated for key {key!r}"
            )
        elif self._shared is not None and self._shared.get(key) is bucket:
            self._hash[key] = bucket + [row_id]
        else:
            bucket.append(row_id)

    def _ensure_sorted(self) -> None:
        if self._sorted_dirty:
            self._sorted_keys = sorted(self._hash)
            self._sorted_dirty = False

    def scan(
        self,
        prefix: tuple,
        range_op: Optional[str] = None,
        range_value: Optional[object] = None,
    ) -> Iterable[int]:
        """Row ids for an equality *prefix* of the index columns,
        optionally bounded by ``range_op``/``range_value`` on the next
        column, in index-key order.

        This is the composite-index access the optimizer's IndexScan plans
        rely on: ``prefix`` may be shorter than the full key.  A full-key
        probe returns the (shared, never mutated) hash bucket; any other
        probe bisects both ends of its key span and walks only that span.
        """
        if range_op is None and len(prefix) == len(self.index.columns):
            return self._hash.get(prefix, _NO_ROWS)
        if any(part is None for part in prefix) or (
            range_op is not None and range_value is None
        ):
            return _NO_ROWS
        self._ensure_sorted()
        keys = self._sorted_keys
        # the span is [low, high): a key extended by _INFINITY sorts after
        # every key it prefixes
        at, past = prefix + (range_value,), prefix + (range_value, _INFINITY)
        end_of_prefix = prefix + (_INFINITY,)
        if range_op is None:
            low, high = prefix, end_of_prefix
        elif range_op == "=":
            low, high = at, past
        elif range_op == "<":
            low, high = prefix, at
        elif range_op == "<=":
            low, high = prefix, past
        elif range_op == ">":
            low, high = past, end_of_prefix
        elif range_op == ">=":
            low, high = at, end_of_prefix
        else:
            raise ExecutionError(f"unknown index range operator {range_op!r}")
        start = bisect.bisect_left(keys, low)
        end = bisect.bisect_left(keys, high, start)
        bucket = self._hash.__getitem__
        return itertools.chain.from_iterable(
            bucket(keys[k]) for k in range(start, end)
        )

    def __len__(self) -> int:
        return len(self._hash)


class _Infinity:
    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return True


_INFINITY = _Infinity()

_NO_ROWS: tuple = ()


class TableVersion:
    """One immutable committed state of a table: rows + index structures.

    Published versions are never mutated; the columnar cache is built
    lazily but idempotently (a benign race at worst builds it twice)."""

    __slots__ = ("rows", "indexes", "version", "_columnar", "__weakref__")

    def __init__(
        self,
        rows: list[dict],
        indexes: dict[str, IndexData],
        version: int,
    ):
        self.rows = rows
        self.indexes = indexes
        self.version = version
        self._columnar: Optional[dict[str, list]] = None

    def columnar(self, table: TableDef) -> dict[str, list]:
        """Column-major view (bare column names + ``rowid``) of this
        version, cached on the version — snapshots of the same committed
        state share one build."""
        cached = self._columnar
        if cached is None:
            rows = self.rows
            cached = {
                name: [row[name] for row in rows] for name in table.columns
            }
            cached["rowid"] = list(range(len(rows)))
            self._columnar = cached
        return cached


class TableSnapshot:
    """A pinned, read-only view of one table at one committed version.

    Exposes the same read surface as :class:`TableData` (``rows``,
    ``indexes``, ``index_named``, ``row_count``, ``columnar``) so
    executors run against either interchangeably."""

    __slots__ = ("table", "_version")

    def __init__(self, table: TableDef, version: TableVersion):
        self.table = table
        self._version = version

    @property
    def rows(self) -> list[dict]:
        return self._version.rows

    @property
    def indexes(self) -> dict[str, IndexData]:
        return self._version.indexes

    @property
    def version(self) -> int:
        return self._version.version

    @property
    def row_count(self) -> int:
        return len(self._version.rows)

    def index_named(self, name: str) -> IndexData:
        try:
            return self._version.indexes[name]
        except KeyError:
            raise ExecutionError(
                f"no index {name!r} on table {self.table.name!r}"
            ) from None

    def columnar(self) -> dict[str, list]:
        return self._version.columnar(self.table)


class TableData:
    """The mutable handle on one table: a reference to the current
    :class:`TableVersion` plus the write lock that serializes writers."""

    def __init__(self, table: TableDef):
        self.table = table
        self._lock = threading.Lock()
        self._current = TableVersion(
            [], {ix.name: IndexData(ix) for ix in table.indexes}, 0
        )

    # -- read surface (delegates to the current version) -------------------

    @property
    def rows(self) -> list[dict]:
        return self._current.rows  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference

    @property
    def indexes(self) -> dict[str, IndexData]:
        return self._current.indexes  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference

    @property
    def version(self) -> int:
        """Data version, bumped by every committed write."""
        return self._current.version  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference

    @property
    def row_count(self) -> int:
        return len(self._current.rows)  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference

    def index_named(self, name: str) -> IndexData:
        try:
            return self._current.indexes[name]  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference
        except KeyError:
            raise ExecutionError(
                f"no index {name!r} on table {self.table.name!r}"
            ) from None

    def columnar(self) -> dict[str, list]:
        """Columnar view of the current version (see
        :meth:`TableVersion.columnar`)."""
        return self._current.columnar(self.table)  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference

    def snapshot(self) -> TableSnapshot:
        """Pin the current committed version (one atomic read)."""
        return TableSnapshot(self.table, self._current)  # staticcheck: ignore[lock.discipline] atomic read of the copy-on-write version reference

    # -- writes (copy-on-write, all-or-nothing) -----------------------------

    def attach_index(
        self, index: Index, on_commit: Optional[CommitHook] = None
    ) -> None:
        with self._lock:
            current = self._current
            data = IndexData(index)
            for row_id, row in enumerate(current.rows):
                data.insert(tuple(row[c] for c in index.columns), row_id)
            indexes = dict(current.indexes)
            indexes[index.name] = data
            version = TableVersion(current.rows, indexes, current.version + 1)

            def publish() -> None:
                self._current = version  # staticcheck: ignore[lock.discipline] closure runs under self._lock (held by the enclosing with)

            if on_commit is None:
                publish()
            else:
                on_commit(publish)

    def insert(
        self,
        rows: Iterable[dict],
        on_commit: Optional[Callable[[list[dict], Callable[[], None]], None]] = None,
    ) -> int:
        """Insert dict rows (missing columns become NULL).

        The batch commits atomically: concurrent readers see the table
        before all of the rows or after all of them, and any constraint
        violation mid-batch leaves the table unchanged.

        When *on_commit* is given it is called — still under the table's
        write lock, after every row has been validated and indexed — with
        the normalised batch and a *publish* closure; the new version only
        becomes visible when the hook invokes the closure.  The durability
        layer uses this to make the write-ahead-log append and the version
        swap one atomic commit."""
        with self._lock:
            current = self._current
            new_rows = list(current.rows)
            new_indexes = {
                name: data.copy() for name, data in current.indexes.items()
            }
            batch = []
            for row in rows:
                normalised = self._normalise(row)
                row_id = len(new_rows)
                new_rows.append(normalised)
                for data in new_indexes.values():
                    key = tuple(normalised[c] for c in data.index.columns)
                    data.insert(key, row_id)
                batch.append(normalised)
            for data in new_indexes.values():
                data.seal()
            version = TableVersion(new_rows, new_indexes, current.version + 1)

            def publish() -> None:
                self._current = version  # staticcheck: ignore[lock.discipline] closure runs under self._lock (held by the enclosing with)

            if on_commit is None:
                publish()
            else:
                on_commit(batch, publish)
            return len(batch)

    def _normalise(self, row: dict) -> dict:
        normalised = {}
        for name, column in self.table.columns.items():
            value = row.get(name)
            if value is None and column.not_null:
                raise ExecutionError(
                    f"NULL in NOT NULL column {self.table.name}.{name}"
                )
            normalised[name] = value
        extra = set(row) - set(self.table.columns)
        if extra:
            raise ExecutionError(
                f"unknown columns {sorted(extra)} for table {self.table.name!r}"
            )
        return normalised


#: what plan operators actually require of "a table" — either the live
#: handle or a pinned snapshot
TableLike = Union[TableData, TableSnapshot]


class StorageSnapshot:
    """A pinned view of every table at one instant: the read half of the
    :class:`Storage` interface (``get`` / ``has`` / ``tables``) backed by
    per-table :class:`TableSnapshot` handles.

    Executors constructed over a snapshot see a stable world: concurrent
    inserts, index builds, and new tables do not appear, and each pinned
    table is internally consistent (rows and indexes from one committed
    version)."""

    def __init__(self, tables: dict[str, TableSnapshot]):
        self._tables = tables

    def get(self, name: str) -> TableSnapshot:
        try:
            return self._tables[name.lower()]
        except KeyError:
            raise ExecutionError(f"no data for table {name!r}") from None

    def has(self, name: str) -> bool:
        return name.lower() in self._tables

    def tables(self) -> Sequence[TableSnapshot]:
        return list(self._tables.values())

    def versions(self) -> dict[str, int]:
        """Pinned data version per table name."""
        return {name: snap.version for name, snap in self._tables.items()}


class Storage:
    """All table data for one database instance."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tables: dict[str, TableData] = {}

    def create(self, table: TableDef) -> TableData:
        data = TableData(table)
        with self._lock:
            self._tables[table.name] = data
        return data

    def drop(self, name: str) -> None:
        """Remove a table's data (DDL-rollback / recovery path only)."""
        with self._lock:
            self._tables.pop(name.lower(), None)

    def get(self, name: str) -> TableData:
        try:
            return self._tables[name.lower()]  # staticcheck: ignore[lock.discipline] tables are registered once at DDL time; dict read is atomic
        except KeyError:
            raise ExecutionError(f"no data for table {name!r}") from None

    def has(self, name: str) -> bool:
        return name.lower() in self._tables  # staticcheck: ignore[lock.discipline] tables are registered once at DDL time; dict read is atomic

    def tables(self) -> Sequence[TableData]:
        with self._lock:
            return list(self._tables.values())

    def snapshot(
        self, names: Optional[Iterable[str]] = None
    ) -> StorageSnapshot:
        """Pin the current version of every table (or just *names*).

        Each table is pinned with one atomic read of its published
        version; a concurrent batch insert is therefore visible either
        fully or not at all, never partially."""
        with self._lock:
            if names is None:
                selected = dict(self._tables)
            else:
                selected = {
                    key: self._tables[key]
                    for key in (name.lower() for name in names)
                    if key in self._tables
                }
        return StorageSnapshot(
            {name: data.snapshot() for name, data in selected.items()}
        )
