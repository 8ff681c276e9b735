"""Late materialization: the batch engine's scans carry only the columns
a statement reads.

The column set of a plan covers every expression on every node and
every column reference inside every subquery's query tree; it is
computed on the plan's first execution and kept on the plan.  Each shape
below reads a column through one of the less obvious routes — a
correlated subquery's binding, a lateral view, ORDER BY / GROUP BY /
HAVING, ``rowid``, a NULL extension — and must give the same answer on
every engine as the reference evaluator.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro import Database, QueryService
from repro.engine.vector import executor as vector_executor
from repro.engine.vector.executor import _VectorRun
from repro.optimizer.plans import Plan, Project, TableScan
from repro.sql import ast

EXECUTORS = ("row", "vector")


def _build_db() -> Database:
    db = Database()
    db.execute_ddl(
        "CREATE TABLE o (id INT PRIMARY KEY, k INT, secret INT, flag INT, "
        "pad1 VARCHAR, pad2 INT, pad3 FLOAT)"
    )
    db.execute_ddl(
        "CREATE TABLE d (id INT PRIMARY KEY, k INT, v INT, w INT, "
        "note VARCHAR)"
    )
    db.execute_ddl("CREATE INDEX d_k ON d (k)")
    db.execute_ddl("CREATE TABLE h (k INT, x INT, y VARCHAR, z FLOAT)")
    db.insert("o", [
        {
            "id": i,
            "k": None if i % 31 == 0 else i % 500,
            "secret": i % 37,
            "flag": i % 50,
            "pad1": f"p{i}",
            "pad2": i % 9,
            "pad3": i / 7,
        }
        for i in range(2000)
    ])
    db.insert("d", [
        {"id": i, "k": i % 500, "v": i % 13, "w": i % 37, "note": f"n{i % 5}"}
        for i in range(20_000)
    ])
    db.insert("h", [
        {"k": i % 80, "x": i % 7, "y": f"y{i}", "z": i / 3} for i in range(300)
    ])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def db() -> Database:
    return _build_db()


#: name -> (sql, a fragment its plan must show)
SHAPES = {
    # o.secret is read only by the subquery, from the outer row binding
    "correlated-tis-subquery": (
        "SELECT o.id, (SELECT MAX(d.v) FROM d WHERE d.w = o.secret) "
        "FROM o WHERE o.flag = 1",
        "TABLE SCAN o o filter[o.flag = 1]",
    ),
    "tis-subquery-in-filter": (
        "SELECT o.id FROM o WHERE o.flag < 3 AND o.pad2 < "
        "(SELECT COUNT(*) FROM d WHERE d.w = o.secret AND d.v > 10)",
        "FILTER [",
    ),
    # JPPD pushed v.k = o.k into the view: o.k is read only inside it
    "lateral-view": (
        "SELECT o.id, v.note FROM o, (SELECT d.k AS k, d.note AS note "
        "FROM d UNION ALL SELECT d2.k AS k, d2.note AS note FROM d d2) v "
        "WHERE v.k = o.k AND o.flag = 1",
        "LATERAL VIEW v",
    ),
    "left-lateral-view": (
        "SELECT o.id, v.k FROM o LEFT JOIN "
        "(SELECT DISTINCT d.k AS k FROM d WHERE d.v > 2) v "
        "ON v.k = o.k WHERE o.flag = 1",
        "LATERAL VIEW v",
    ),
    "order-by-unselected": (
        "SELECT o.id FROM o WHERE o.flag < 5 ORDER BY o.pad2 DESC, o.pad3",
        "SORT [o.pad2 DESC, o.pad3]",
    ),
    "group-by-having-unselected": (
        "SELECT COUNT(*), MAX(h.z) FROM h GROUP BY h.k, h.x "
        "HAVING MIN(h.y) > 'y1'",
        "GROUP BY [h.k, h.x]",
    ),
    "rowid-select-and-filter": (
        "SELECT h.rowid, h.x FROM h WHERE h.rowid < 40 AND h.k > 3",
        "TABLE SCAN h h",
    ),
    # group-by view merging groups on o.rowid, which no select item reads
    "rowid-from-view-merging": (
        "SELECT o.id, v.total FROM o, (SELECT d.k AS k, SUM(d.v) AS total "
        "FROM d GROUP BY d.k) v WHERE v.k = o.k AND o.flag = 1",
        "o.rowid",
    ),
    "index-rowid": (
        "SELECT o.id, d.rowid FROM o, d WHERE d.k = o.k AND o.flag = 2",
        "via d_k[k=o.k]",
    ),
    "left-index-null-extension": (
        "SELECT o.id, d.v, d.rowid FROM o LEFT JOIN d "
        "ON d.k = o.k AND d.w = o.secret WHERE o.flag < 4",
        "NESTED LOOPS LEFT",
    ),
    "left-hash-null-extension": (
        "SELECT o.id, h.z, h.rowid FROM o LEFT JOIN h "
        "ON h.k = o.secret AND h.x > 4",
        "HASH JOIN LEFT",
    ),
}


def _consumed_keys(db: Database, optimized, monkeypatch) -> set[str]:
    """The keys of the batches the plan's top Project consumes."""
    project = optimized.plan
    assert isinstance(project, Project)
    keys: set[str] = set()
    original = _VectorRun.batches

    def spy(self, plan: Plan, binding):
        for batch in original(self, plan, binding):
            if plan is project.child:
                keys.update(batch.columns)
            yield batch

    with monkeypatch.context() as patch:
        patch.setattr(_VectorRun, "batches", spy)
        db.execute_plan(optimized, executor="vector")
    return keys


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_pruned_scans_give_identical_answers(db, shape):
    sql, fragment = SHAPES[shape]
    optimized = db.optimize(sql)
    assert fragment in optimized.plan.describe(), optimized.plan.describe()
    results = {
        mode: db.execute_plan(optimized, executor=mode) for mode in EXECUTORS
    }
    expected = Counter(db.reference_execute(sql))
    assert expected
    row = results["row"]
    assert Counter(row.rows) == expected
    got = results["vector"]
    assert got.rows == row.rows
    assert got.exec_stats.operator_rows == row.exec_stats.operator_rows
    assert math.isclose(
        got.exec_stats.work_units, row.exec_stats.work_units,
        rel_tol=1e-9,
    )


def test_scans_carry_only_referenced_columns(db, monkeypatch):
    optimized = db.optimize("SELECT o.id FROM o WHERE o.flag = 1")
    assert _consumed_keys(db, optimized, monkeypatch) == {"o.id", "o.flag"}

    optimized = db.optimize(
        "SELECT o.id, d.v FROM o, d WHERE d.k = o.k AND o.flag = 2"
    )
    assert "via d_k[k=o.k]" in optimized.plan.describe()
    assert _consumed_keys(db, optimized, monkeypatch) == {
        "o.id", "o.k", "o.flag", "d.v", "d.k"
    }


def test_subquery_columns_survive(db, monkeypatch):
    """A column only a correlated subquery reads stays in the scan."""
    sql, _ = SHAPES["correlated-tis-subquery"]
    optimized = db.optimize(sql)
    keys = _consumed_keys(db, optimized, monkeypatch)
    assert "o.secret" in keys
    assert "o.pad1" not in keys


def test_unprunable_statement_keeps_every_column(db, monkeypatch):
    """A subquery not built into a query tree hides what it reads, so
    the statement's scans keep every column (here the subquery sits in a
    CASE branch no row takes)."""
    sql = "SELECT h.x, CASE WHEN h.k > 1000 THEN 0 ELSE h.x END FROM h"
    optimized = db.optimize(sql)
    (item,) = [
        i for i in optimized.plan.select_items if isinstance(i.expr, ast.Case)
    ]
    item.expr.whens[0] = (
        item.expr.whens[0][0],
        ast.SubqueryExpr("SCALAR", "SELECT 1"),
    )
    keys = _consumed_keys(db, optimized, monkeypatch)
    assert keys == {"h.k", "h.x", "h.y", "h.z", "h.rowid"}
    expected = Counter(db.reference_execute(sql))
    for mode in EXECUTORS:
        assert Counter(db.execute_plan(optimized, executor=mode).rows) == (
            expected
        )


def test_column_set_falls_back_to_every_column():
    scan = TableScan("t", "t", [], 1.0, 1.0)
    assert vector_executor._referenced_columns(scan) == frozenset()
    unqualified = Project(
        scan, [ast.SelectItem(ast.ColumnRef(None, "a"))], 1.0, 1.0
    )
    assert vector_executor._referenced_columns(unqualified) is None

    class Unknown(Plan):
        pass

    assert vector_executor._referenced_columns(
        Unknown(1.0, 1.0, frozenset())
    ) is None


def test_cached_plan_computes_its_column_set_once(monkeypatch):
    db = _build_db()
    db.executor_mode = "vector"
    calls: list[Plan] = []
    original = vector_executor._referenced_columns

    def counting(plan):
        calls.append(plan)
        return original(plan)

    monkeypatch.setattr(vector_executor, "_referenced_columns", counting)
    service = QueryService(db)
    sql, _ = SHAPES["correlated-tis-subquery"]
    statement = service.prepare(sql.replace("o.flag = 1", "o.flag = :f"))
    expected = sorted(db.reference_execute(sql))
    for _ in range(4):
        result = statement.execute({"f": 1})
        assert sorted(result.rows) == expected
    assert result.cache_status == "hit"
    assert len(calls) == 1
