"""The reference evaluator produces the rows of a LEFT / SEMI / ANTI /
ANTI_NA from-item that reads nothing of the prefix row once, and joins
every prefix row against them.  That must give the same multiset of rows
as producing them per prefix row, on small random tables with NULLs and
duplicate keys."""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro import Database
from repro.engine import reference
from repro.engine.reference import ReferenceEvaluator
from repro.transform.costbased import UnnestSubqueryToView

SCHEMA = (
    "CREATE TABLE a (id INT PRIMARY KEY, k INT, v INT)",
    "CREATE TABLE b (id INT PRIMARY KEY, k INT, w INT)",
)

#: name -> (SQL, join type of the item it must end up with, rewrite)
QUERIES = {
    "left": (
        "SELECT a.id, a.k, b.id, b.w FROM a LEFT OUTER JOIN b "
        "ON b.k = a.k AND b.w > a.v",
        "LEFT", None,
    ),
    "left-view": (
        "SELECT a.id, v.k FROM a LEFT OUTER JOIN "
        "(SELECT DISTINCT b.k FROM b WHERE b.w > 1) v ON v.k = a.k",
        "LEFT", None,
    ),
    "exists": (
        "SELECT a.id, a.v FROM a WHERE EXISTS "
        "(SELECT 1 FROM b WHERE b.k = a.k AND b.w > a.v)",
        "SEMI", None,
    ),
    "not-exists": (
        "SELECT a.id FROM a WHERE NOT EXISTS "
        "(SELECT 1 FROM b WHERE b.k = a.k)",
        "ANTI", None,
    ),
    "not-in": (
        "SELECT a.id FROM a WHERE a.k NOT IN "
        "(SELECT b.k FROM b WHERE b.w > 0)",
        "ANTI_NA", UnnestSubqueryToView,
    ),
}


def _database(a_rows: list[dict], b_rows: list[dict]) -> Database:
    db = Database()
    for ddl in SCHEMA:
        db.execute_ddl(ddl)
    db.insert("a", a_rows)
    db.insert("b", b_rows)
    return db


@lru_cache(maxsize=None)
def _tree(name: str):
    """The transformed tree of one query, built once on fixed data."""
    sql, join_type, rewrite = QUERIES[name]
    db = _database(
        [{"id": i, "k": i % 3, "v": i} for i in range(6)],
        [{"id": i, "k": i % 4, "w": i} for i in range(6)],
    )
    db.analyze()
    if rewrite is None:
        tree = db.optimize(sql).tree
    else:
        tree = db.parse(sql)
        transformation = rewrite(db.catalog)
        targets = transformation.find_targets(tree)
        while targets:
            tree = transformation.apply(tree, targets[0])
            targets = transformation.find_targets(tree)
    assert [item.join_type for item in tree.from_items][1:] == [join_type]
    return tree


def _rows(table: str):
    value = st.one_of(st.none(), st.integers(0, 3))
    return st.lists(st.tuples(value, value), max_size=6).map(
        lambda pairs: [
            {"id": i, "k": k, ("v" if table == "a" else "w"): x}
            for i, (k, x) in enumerate(pairs)
        ]
    )


@settings(max_examples=60, deadline=None)
@given(a_rows=_rows("a"), b_rows=_rows("b"), name=st.sampled_from(sorted(QUERIES)))
def test_shared_rows_equal_per_row_rows(a_rows, b_rows, name):
    tree = _tree(name)
    db = _database(a_rows, b_rows)
    shared = ReferenceEvaluator(db.storage, db.functions).evaluate(tree)
    with mock.patch.object(reference, "_reads_prefix", lambda item: True):
        per_row = ReferenceEvaluator(db.storage, db.functions).evaluate(tree)
    assert Counter(shared) == Counter(per_row)
    assert Counter(shared) == Counter(db.reference_execute(QUERIES[name][0]))
