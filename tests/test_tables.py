"""Storage and index structure tests."""

import operator

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Catalog, Column, DataType, Index, TableDef
from repro.engine.tables import Storage
from repro.errors import ExecutionError


def make_storage():
    catalog = Catalog()
    table = catalog.add_table(TableDef(
        "t",
        [Column("id", DataType.INT, True), Column("a", DataType.INT),
         Column("b", DataType.INT)],
        primary_key=("id",),
    ))
    catalog.add_index(Index("t_ab", "t", ("a", "b")))
    storage = Storage()
    data = storage.create(table)
    return catalog, storage, data


class TestInsert:
    def test_basic_insert_and_count(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 1, "a": 10, "b": 1}, {"id": 2, "a": 20, "b": 2}])
        assert data.row_count == 2

    def test_missing_columns_become_null(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 1}])
        assert data.rows[0]["a"] is None

    def test_not_null_violation(self):
        _c, _s, data = make_storage()
        with pytest.raises(ExecutionError):
            data.insert([{"id": None, "a": 1}])

    def test_unknown_column_rejected(self):
        _c, _s, data = make_storage()
        with pytest.raises(ExecutionError):
            data.insert([{"id": 1, "zzz": 2}])

    def test_unique_index_violation(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 1, "a": 1, "b": 1}])
        with pytest.raises(ExecutionError):
            data.insert([{"id": 1, "a": 2, "b": 2}])


class TestCopyOnWriteIndex:
    @staticmethod
    def buckets(snapshot) -> dict:
        index = snapshot.index_named("t_ab")
        return {key: list(ids) for key, ids in index._hash.items()}

    def test_appends_to_a_shared_bucket_leave_pinned_versions_alone(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 1, "a": 1, "b": 1}])
        pinned = [data.snapshot()]
        # two appends to one non-unique bucket within one batch ...
        data.insert([{"id": 2, "a": 1, "b": 1}, {"id": 3, "a": 1, "b": 1}])
        pinned.append(data.snapshot())
        # ... and across versions, next to a bucket the batch creates
        data.insert([{"id": 4, "a": 1, "b": 1}])
        pinned.append(data.snapshot())
        data.insert([
            {"id": 5, "a": 1, "b": 1},
            {"id": 6, "a": 2, "b": 2},
            {"id": 7, "a": 2, "b": 2},
        ])
        pinned.append(data.snapshot())
        assert [self.buckets(snap) for snap in pinned] == [
            {(1, 1): [0]},
            {(1, 1): [0, 1, 2]},
            {(1, 1): [0, 1, 2, 3]},
            {(1, 1): [0, 1, 2, 3, 4], (2, 2): [5, 6]},
        ]
        for snap in pinned:
            for index in snap.indexes.values():
                assert index._shared is None  # published: no bookkeeping

    def test_failed_batch_leaves_the_published_bucket_alone(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 1, "a": 1, "b": 1}])
        pinned = data.snapshot()
        with pytest.raises(ExecutionError):
            data.insert([{"id": 2, "a": 1, "b": 1}, {"id": 1}])
        assert self.buckets(pinned) == {(1, 1): [0]}
        assert data.snapshot().indexes is pinned.indexes


class TestIndexScan:
    def test_eq_probe_full_key(self):
        _c, _s, data = make_storage()
        data.insert([{"id": i, "a": i % 3, "b": i % 2} for i in range(1, 13)])
        index = data.index_named("t_ab")
        hits = list(index.scan((1, 0)))
        assert all(data.rows[r]["a"] == 1 and data.rows[r]["b"] == 0 for r in hits)
        assert len(hits) == 2  # ids 4 and 10

    def test_prefix_probe(self):
        _c, _s, data = make_storage()
        data.insert([{"id": i, "a": i % 3, "b": i} for i in range(1, 10)])
        index = data.index_named("t_ab")
        hits = list(index.scan((2,)))
        assert sorted(data.rows[r]["a"] for r in hits) == [2, 2, 2]

    def test_prefix_plus_range(self):
        _c, _s, data = make_storage()
        data.insert([{"id": i, "a": 1, "b": i} for i in range(1, 8)])
        index = data.index_named("t_ab")
        hits = list(index.scan((1,), "<", 4))
        assert sorted(data.rows[r]["b"] for r in hits) == [1, 2, 3]
        hits = list(index.scan((1,), ">=", 6))
        assert sorted(data.rows[r]["b"] for r in hits) == [6, 7]

    def test_null_keys_not_indexed(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 1, "a": None, "b": 1}, {"id": 2, "a": 5, "b": 1}])
        index = data.index_named("t_ab")
        assert list(index.scan((5, 1))) == [1]
        assert list(index.scan((None, 1))) == []

    def test_attach_index_backfills(self):
        catalog, storage, data = make_storage()
        data.insert([{"id": i, "a": i, "b": 0} for i in range(1, 6)])
        catalog.add_index(Index("t_b", "t", ("b",)))
        data.attach_index(catalog.indexes["t_b"])
        assert len(list(data.index_named("t_b").scan((0,)))) == 5

    def test_pk_index_created_automatically(self):
        _c, _s, data = make_storage()
        data.insert([{"id": 7, "a": 0, "b": 0}])
        assert list(data.index_named("t_pk").scan((7,))) == [0]

    def test_range_probe_stops_at_the_bound(self):
        """A range probe bisects to its bound and stops past it: a 10-row
        probe at either end of a 20,000-key index compares a few dozen
        keys, not the whole index."""
        _c, _s, data = make_storage()
        data.insert([
            {"id": _CountingInt(i), "a": 0, "b": 0} for i in range(20_000)
        ])
        pk = data.index_named("t_pk")
        list(pk.scan((), "<", 0))  # sorts the key list once
        _CountingInt.comparisons = 0
        assert list(pk.scan((), ">=", 19_990)) == list(range(19_990, 20_000))
        assert list(pk.scan((), "<", 10)) == list(range(10))
        assert list(pk.scan((), ">", 19_990)) == list(range(19_991, 20_000))
        assert list(pk.scan((), "<=", 9)) == list(range(10))
        assert _CountingInt.comparisons < 500


class _CountingInt(int):
    """An int that counts the comparisons made against it."""

    comparisons = 0

    def _counted(method):  # noqa: N805 - decorator over int's methods
        def compare(self, other):
            _CountingInt.comparisons += 1
            return method(self, other)

        return compare

    __eq__ = _counted(int.__eq__)
    __ne__ = _counted(int.__ne__)
    __lt__ = _counted(int.__lt__)
    __le__ = _counted(int.__le__)
    __gt__ = _counted(int.__gt__)
    __ge__ = _counted(int.__ge__)
    __hash__ = int.__hash__


_RANGE_OPS = {
    "=": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_small = st.integers(min_value=0, max_value=4)


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(st.tuples(_small, _small), max_size=40),
    prefix=st.lists(_small, max_size=2),
    op=st.sampled_from([None, *_RANGE_OPS]),
    value=_small,
)
def test_scan_matches_brute_force(keys, prefix, op, value):
    """``IndexData.scan`` returns exactly the row ids a filter over every
    row selects, in index-key order (row-id order within one key), for
    composite and single-column indexes and every probe shape."""
    _c, _s, data = make_storage()
    data.insert([
        {"id": i, "a": a, "b": b} for i, (a, b) in enumerate(keys)
    ])
    for index_name, columns in (("t_ab", ("a", "b")), ("t_pk", ("id",))):
        index = data.index_named(index_name)
        depth = len(prefix)
        if depth > len(columns) or (op is not None and depth == len(columns)):
            continue
        probe = tuple(prefix)
        expected = []
        for row_id, row in enumerate(data.rows):
            key = tuple(row[c] for c in columns)
            if key[:depth] != probe:
                continue
            if op is not None and not _RANGE_OPS[op](key[depth], value):
                continue
            expected.append((key, row_id))
        expected.sort()
        got = list(index.scan(probe, op, value if op else None))
        assert got == [row_id for _key, row_id in expected], (
            index_name, probe, op, value,
        )


class TestStorage:
    def test_get_missing_raises(self):
        _c, storage, _d = make_storage()
        with pytest.raises(ExecutionError):
            storage.get("missing")

    def test_has(self):
        _c, storage, _d = make_storage()
        assert storage.has("t")
        assert not storage.has("u")
