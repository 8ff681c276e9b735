"""Whole-column hash keys in the batch engine.

Hash-join build and probe and hash-aggregate grouping iterate whole key
columns instead of building a key tuple per row.  Every case below runs
on the row and vector engines and must agree with the
reference evaluator: the engines return the same rows in the same order
(float aggregates compared exactly), the same ``operator_rows``, and
work units equal up to float summation order.

Join plans are built by hand so that every join type runs as a hash
join whatever the optimizer would have chosen; the reference answer
comes from the equivalent SQL.
"""

from __future__ import annotations

import dataclasses
import math
import random
from collections import Counter

import pytest

from repro import Database
from repro.engine.vector import BATCH_SIZE
from repro.engine.vector.executor import _join_keys, _VectorRun
from repro.errors import StatementCancelled
from repro.optimizer.plans import HashJoin, Project, TableScan
from repro.resilience.cancel import CancelToken
from repro.sql import ast

EXECUTORS = ("row", "vector")

#: left rows: more than two batches
N_LEFT = 2500


def _mixed(value: int, i: int) -> object:
    """An int or an equal float: ``1`` and ``1.0`` are the same key."""
    return value if i % 2 else float(value)


def _build_db() -> Database:
    db = Database()
    db.execute_ddl(
        "CREATE TABLE l (id INT, k INT, k2 INT, kf FLOAT, g INT, f FLOAT)"
    )
    db.execute_ddl(
        "CREATE TABLE r (id INT, k INT, k2 INT, kf FLOAT, v INT, x FLOAT)"
    )
    #: a build side with no NULL keys, and an empty one
    db.execute_ddl("CREATE TABLE rn (id INT, k INT, v INT)")
    db.execute_ddl("CREATE TABLE e (id INT, k INT, v INT)")
    rng = random.Random(11)
    db.insert("l", [
        {
            "id": i,
            "k": None if i % 7 == 0 else i % 50,
            "k2": None if i % 11 == 0 else i % 3,
            "kf": None if i % 13 == 0 else _mixed(i % 40, i),
            "g": None if i % 5 == 0 else i % 6,
            "f": None if i % 17 == 0 else rng.random() * 1e3,
        }
        for i in range(N_LEFT)
    ])
    db.insert("r", [
        {
            "id": i,
            "k": None if i % 9 == 0 else i % 60,
            "k2": None if i % 8 == 0 else i % 3,
            "kf": None if i % 10 == 0 else _mixed(i % 45, i + 1),
            "v": i % 10,
            "x": rng.random(),
        }
        for i in range(400)
    ])
    db.insert("rn", [{"id": i, "k": i % 30, "v": i % 4} for i in range(90)])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def db() -> Database:
    return _build_db()


def _col(key: str) -> ast.ColumnRef:
    qualifier, name = key.split(".")
    return ast.ColumnRef(qualifier, name)


def _hash_plan(join_type: str, right: str, keys: list[tuple[str, str]],
               select: list[str], residual: list[ast.Expr] = ()) -> Project:
    """``l`` hash-joined to table *right* (aliased as itself) on the
    (left, right) key pairs *keys*."""
    join = HashJoin(
        TableScan("l", "l", [], 1.0, 1.0),
        TableScan(right, right, [], 1.0, 1.0),
        join_type,
        [_col(left) for left, _ in keys],
        [_col(right_key) for _, right_key in keys],
        list(residual),
        1.0,
        1.0,
    )
    return Project(join, [ast.SelectItem(_col(c)) for c in select], 1.0, 1.0)


#: ``r.v > l.g``: a residual reading both sides
_RESIDUAL = [ast.BinOp(">", _col("r.v"), _col("l.g"))]

#: name -> (hand-built hash plan, equivalent SQL)
JOINS = {
    "inner-null-keys": (
        _hash_plan("INNER", "r", [("l.k", "r.k")], ["l.id", "r.v"]),
        "SELECT l.id, r.v FROM l, r WHERE l.k = r.k",
    ),
    "left-null-keys": (
        _hash_plan("LEFT", "r", [("l.k", "r.k")], ["l.id", "r.v", "r.x"]),
        "SELECT l.id, r.v, r.x FROM l LEFT JOIN r ON l.k = r.k",
    ),
    "semi-null-keys": (
        _hash_plan("SEMI", "r", [("l.k", "r.k")], ["l.id"]),
        "SELECT l.id FROM l WHERE EXISTS (SELECT 1 FROM r WHERE r.k = l.k)",
    ),
    "anti-null-keys": (
        _hash_plan("ANTI", "r", [("l.k", "r.k")], ["l.id"]),
        "SELECT l.id FROM l WHERE NOT EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k)",
    ),
    "anti-na-null-build-key": (
        _hash_plan("ANTI_NA", "r", [("l.k", "r.k")], ["l.id"]),
        "SELECT l.id FROM l WHERE l.k NOT IN (SELECT r.k FROM r)",
    ),
    "anti-na-null-probe-key": (
        _hash_plan("ANTI_NA", "rn", [("l.k", "rn.k")], ["l.id"]),
        "SELECT l.id FROM l WHERE l.k NOT IN (SELECT rn.k FROM rn)",
    ),
    "anti-na-empty-build": (
        _hash_plan("ANTI_NA", "e", [("l.k", "e.k")], ["l.id"]),
        "SELECT l.id FROM l WHERE l.k NOT IN (SELECT e.k FROM e)",
    ),
    "inner-two-keys": (
        _hash_plan(
            "INNER", "r", [("l.k", "r.k"), ("l.k2", "r.k2")],
            ["l.id", "r.id"],
        ),
        "SELECT l.id, r.id FROM l, r WHERE l.k = r.k AND l.k2 = r.k2",
    ),
    "left-two-keys": (
        _hash_plan(
            "LEFT", "r", [("l.k2", "r.k2"), ("l.k", "r.k")],
            ["l.id", "r.id"],
        ),
        "SELECT l.id, r.id FROM l LEFT JOIN r "
        "ON l.k2 = r.k2 AND l.k = r.k",
    ),
    "semi-two-keys": (
        _hash_plan("SEMI", "r", [("l.k", "r.k"), ("l.k2", "r.k2")], ["l.id"]),
        "SELECT l.id FROM l WHERE EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k AND r.k2 = l.k2)",
    ),
    "anti-two-keys": (
        _hash_plan("ANTI", "r", [("l.k", "r.k"), ("l.k2", "r.k2")], ["l.id"]),
        "SELECT l.id FROM l WHERE NOT EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k AND r.k2 = l.k2)",
    ),
    "int-equals-float": (
        _hash_plan("INNER", "r", [("l.k", "r.kf")], ["l.id", "r.id"]),
        "SELECT l.id, r.id FROM l, r WHERE l.k = r.kf",
    ),
    "mixed-int-float-keys": (
        _hash_plan("LEFT", "r", [("l.kf", "r.kf")], ["l.id", "r.id"]),
        "SELECT l.id, r.id FROM l LEFT JOIN r ON l.kf = r.kf",
    ),
    "inner-residual": (
        _hash_plan("INNER", "r", [("l.k", "r.k")], ["l.id", "r.v"], _RESIDUAL),
        "SELECT l.id, r.v FROM l, r WHERE l.k = r.k AND r.v > l.g",
    ),
    "left-residual": (
        _hash_plan("LEFT", "r", [("l.k", "r.k")], ["l.id", "r.v"], _RESIDUAL),
        "SELECT l.id, r.v FROM l LEFT JOIN r ON l.k = r.k AND r.v > l.g",
    ),
    "semi-residual": (
        _hash_plan("SEMI", "r", [("l.k", "r.k")], ["l.id"], _RESIDUAL),
        "SELECT l.id FROM l WHERE EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k AND r.v > l.g)",
    ),
    "anti-residual": (
        _hash_plan("ANTI", "r", [("l.k", "r.k")], ["l.id"], _RESIDUAL),
        "SELECT l.id FROM l WHERE NOT EXISTS "
        "(SELECT 1 FROM r WHERE r.k = l.k AND r.v > l.g)",
    ),
}

GROUPINGS = {
    "null-group-key": (
        "SELECT l.g, COUNT(*), COUNT(l.k), COUNT(DISTINCT l.k2), SUM(l.f) "
        "FROM l GROUP BY l.g"
    ),
    "two-column-key": (
        "SELECT l.g, l.k2, COUNT(*), COUNT(DISTINCT l.k), SUM(l.f), "
        "AVG(l.f), MIN(l.f), MAX(l.k) FROM l GROUP BY l.g, l.k2"
    ),
    "mixed-int-float-key": (
        "SELECT COUNT(*), SUM(l.f), COUNT(DISTINCT l.kf) FROM l "
        "GROUP BY l.kf"
    ),
    "having-on-aggregate": (
        "SELECT l.k, SUM(l.f) FROM l GROUP BY l.k HAVING COUNT(*) > 40"
    ),
    "scalar": "SELECT COUNT(*), SUM(l.f), COUNT(DISTINCT l.g) FROM l",
    "scalar-over-empty-input": (
        "SELECT COUNT(*), SUM(e.v), MIN(e.k), COUNT(DISTINCT e.k) FROM e"
    ),
    "grouped-over-empty-input": "SELECT e.k, COUNT(*) FROM e GROUP BY e.k",
    "grouped-over-join": (
        "SELECT r.k2, COUNT(*), SUM(r.x), COUNT(DISTINCT l.k) FROM l, r "
        "WHERE l.k = r.k GROUP BY r.k2"
    ),
}


def _run_everywhere(db: Database, optimized) -> dict:
    """Run on every engine; the batch engines must match the row engine
    row for row, in order, with the same accounting."""
    results = {
        mode: db.execute_plan(optimized, executor=mode) for mode in EXECUTORS
    }
    row = results["row"]
    got = results["vector"]
    assert got.exec_stats.executor_mode == "vector"
    assert got.rows == row.rows, "rows or their order differ"
    assert got.exec_stats.operator_rows == row.exec_stats.operator_rows
    assert math.isclose(
        got.exec_stats.work_units, row.exec_stats.work_units,
        rel_tol=1e-9,
    ), (got.exec_stats.work_units, row.exec_stats.work_units)
    return results


@pytest.mark.parametrize("name", sorted(JOINS))
def test_hash_join_keys_match_every_engine(db, name):
    plan, sql = JOINS[name]
    optimized = dataclasses.replace(db.optimize(sql), plan=plan)
    results = _run_everywhere(db, optimized)
    assert Counter(results["row"].rows) == Counter(db.reference_execute(sql))
    assert results["row"].exec_stats.operator_rows.get("HashJoin", 0) == len(
        results["row"].rows
    )


def test_join_cases_are_not_vacuous(db):
    """The NULL-key cases really see NULL keys, matches and misses."""
    answers = {
        name: db.reference_execute(sql) for name, (_plan, sql) in JOINS.items()
    }
    assert answers["anti-na-null-build-key"] == []
    assert len(answers["anti-na-empty-build"]) == N_LEFT
    probe = {row[0] for row in answers["anti-na-null-probe-key"]}
    assert probe and all(i % 7 for i in probe)  # NULL probe keys dropped
    anti = {row[0] for row in answers["anti-null-keys"]}
    assert any(i % 7 == 0 for i in anti)  # NULL keys never match
    assert len(answers["inner-null-keys"]) > 3 * BATCH_SIZE  # fan-out
    assert answers["int-equals-float"]


@pytest.mark.parametrize("name", sorted(GROUPINGS))
def test_group_keys_match_every_engine(db, name):
    sql = GROUPINGS[name]
    optimized = db.optimize(sql)
    assert "GROUP BY" in optimized.plan.describe() or (
        "AGGREGATE" in optimized.plan.describe()
    )
    results = _run_everywhere(db, optimized)
    # float sums compared exactly: every group sums in row order
    assert Counter(results["row"].rows) == Counter(db.reference_execute(sql))


def test_scalar_aggregate_over_empty_input_emits_one_row(db):
    sql = GROUPINGS["scalar-over-empty-input"]
    for mode in EXECUTORS:
        assert db.execute(sql, executor=mode).rows == [(0, None, None, 0)]


def test_join_keys_replace_null_components():
    assert _join_keys([[1, None, 3]]) == [1, None, 3]
    assert _join_keys([[1, None, 3], [None, 2, 3]]) == [None, None, (3, 3)]
    # falsy values are keys, not NULLs
    assert _join_keys([[0, "", 1.0], [False, 0, 1]]) == [
        (0, False), ("", 0), (1.0, 1)
    ]


# -- chunked hash-join output -------------------------------------------------


#: every l row matches about a third of r: about 130 matches per row
FANOUT = _hash_plan("INNER", "r", [("l.k2", "r.k2")], ["l.id", "r.id"])
FANOUT_SQL = "SELECT l.id, r.id FROM l, r WHERE l.k2 = r.k2"


def test_fanout_hash_join_emits_bounded_batches(db, monkeypatch):
    sizes: list[int] = []
    original = _VectorRun._hashjoin_batches

    def spy(self, *args):
        for batch in original(self, *args):
            sizes.append(batch.length)
            yield batch

    monkeypatch.setattr(_VectorRun, "_hashjoin_batches", spy)
    optimized = dataclasses.replace(db.optimize(FANOUT_SQL), plan=FANOUT)
    rows = db.execute_plan(optimized, executor="vector").rows
    assert len(rows) > 100 * N_LEFT
    assert sum(sizes) == len(rows)
    assert max(sizes) <= BATCH_SIZE
    _run_everywhere(db, optimized)


def test_cancel_after_first_join_batch_stops_before_next_left_batch(
    db, monkeypatch
):
    token = CancelToken()
    left_batches: list[int] = []
    emitted: list[int] = []
    scan = _VectorRun._scan_batches
    join = _VectorRun._hashjoin_batches

    def scan_spy(self, plan, *args):
        for batch in scan(self, plan, *args):
            if plan.alias == "l":
                left_batches.append(batch.length)
            yield batch

    def join_spy(self, *args):
        for batch in join(self, *args):
            emitted.append(batch.length)
            token.cancel()
            yield batch

    monkeypatch.setattr(_VectorRun, "_scan_batches", scan_spy)
    monkeypatch.setattr(_VectorRun, "_hashjoin_batches", join_spy)
    optimized = dataclasses.replace(db.optimize(FANOUT_SQL), plan=FANOUT)
    with pytest.raises(StatementCancelled):
        db.execute_plan(optimized, executor="vector", token=token)
    # one batch of the first left batch's matches, then the poll
    assert emitted == [BATCH_SIZE]
    assert left_batches == [BATCH_SIZE]
