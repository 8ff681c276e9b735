"""Vectorized batch executor: batches, kernels, control-point parity.

The batch engine must be *observationally identical* to the row engine:
same rows, same chosen plans, same deterministic work units, same
EXPLAIN ANALYZE actuals, same typed failure behaviour under injected
faults and cancellation.  These tests pin each of those contracts
directly; `test_executor_equivalence` / `test_differential_random`
cover the broad query battery.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro import Database, OptimizerConfig, ResilienceConfig
from repro.engine.vector import BATCH_SIZE, Batch, VECTOR_OPERATORS
from repro.engine.vector.batch import chunk_rows, concat
from repro.errors import (
    ExecutionError,
    FaultInjected,
    StatementCancelled,
)
from repro.resilience import FaultSpec, inject
from repro.resilience.cancel import CancelToken
from repro.resilience.faults import BATCH_OPERATORS, injection_points

from .conftest import build_tiny_db

EXECUTORS = ("row", "vector")

RESILIENT = OptimizerConfig(resilience=ResilienceConfig(fallback=True))


# -- Batch layout ------------------------------------------------------------


class TestBatch:
    def test_row_batch_roundtrip(self):
        rows = [
            {"e.a": 1, "e.b": None, "#width": 2},
            {"e.a": None, "e.b": "x", "#width": 2},
            {"e.a": 3, "e.b": "y", "#width": 2},
        ]
        batch = Batch.from_rows(rows)
        assert batch.length == 3
        assert batch.width == 2
        assert list(batch.to_rows()) == rows

    def test_gather_and_concat(self):
        a = Batch.from_rows([{"k": i} for i in range(4)])
        b = Batch.from_rows([{"k": 10, "extra": 1}])
        picked = a.gather([3, 1])
        assert list(picked.to_rows()) == [{"k": 3}, {"k": 1}]
        merged = concat([a, b])
        # key union: missing columns are NULL-filled
        assert merged.length == 5
        assert merged.columns["extra"] == [None] * 4 + [1]

    def test_chunk_rows(self):
        rows = [{"k": i} for i in range(BATCH_SIZE + 5)]
        chunks = list(chunk_rows(rows, BATCH_SIZE))
        assert [c.length for c in chunks] == [BATCH_SIZE, 5]

    def test_output_tuples_requires_width(self):
        batch = Batch.from_rows([{"k": 1}])
        with pytest.raises(ExecutionError):
            batch.output_tuples()


# -- end-to-end equivalence on adversarial inputs ----------------------------


def _null_heavy_db() -> Database:
    db = Database()
    db.execute_ddl("CREATE TABLE n (a INT, b INT, c VARCHAR)")
    rows = []
    for i in range(60):
        rows.append(
            {
                "a": None if i % 3 == 0 else i,
                "b": None if i % 4 == 0 else i % 5,
                "c": None if i % 5 == 0 else f"s{i % 4}",
            }
        )
    db.insert("n", rows)
    db.execute_ddl("CREATE TABLE m (b INT, d INT)")
    db.insert(
        "m",
        [{"b": None if i % 6 == 0 else i % 5, "d": i} for i in range(30)],
    )
    db.analyze()
    return db


NULL_QUERIES = [
    # 3VL through compiled kernels: IN, NOT IN, BETWEEN, CASE, LIKE, NOT
    "SELECT a FROM n WHERE b IN (1, 2)",
    "SELECT a FROM n WHERE b NOT IN (1, 2)",
    "SELECT a FROM n WHERE a BETWEEN 10 AND 40",
    "SELECT a FROM n WHERE NOT (a BETWEEN 10 AND 40)",
    "SELECT a, CASE WHEN b IS NULL THEN -1 WHEN b > 2 THEN b ELSE 0 END "
    "FROM n",
    "SELECT a FROM n WHERE c LIKE 's1%'",
    "SELECT a FROM n WHERE b = 2 OR c = 's3'",
    "SELECT a, b + a, a * 2 FROM n WHERE a IS NOT NULL",
    # NULL join keys never match; NULL groups do group together
    "SELECT n.a, m.d FROM n, m WHERE n.b = m.b",
    "SELECT b, COUNT(*), COUNT(a), SUM(a), MIN(c) FROM n GROUP BY b",
    "SELECT DISTINCT b, c FROM n",
    # NULL-aware anti join through the hash ANTI_NA path
    "SELECT a FROM n WHERE b NOT IN (SELECT m.b FROM m WHERE m.d > 25)",
]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("sql", NULL_QUERIES, ids=range(len(NULL_QUERIES)))
def test_null_heavy_equivalence(sql, executor):
    db = _null_heavy_db()
    expected = Counter(db.reference_execute(sql))
    got = db.execute(sql, executor=executor)
    assert Counter(got.rows) == expected
    assert got.exec_stats.executor_mode == executor


def _sort_db() -> Database:
    """NULLs, ties, and an int/float mix in every sortable column."""
    db = Database()
    db.execute_ddl(
        "CREATE TABLE s (id INT PRIMARY KEY, k INT, f FLOAT, g VARCHAR(5))"
    )
    db.insert("s", [
        {
            "id": i,
            "k": None if i % 7 == 0 else i % 4,
            "f": None if i % 9 == 4 else (1, 1.0, 2.5, 2, -0.5)[i % 5],
            "g": None if i % 6 == 1 else "abc"[i % 3],
        }
        for i in range(60)
    ])
    db.analyze()
    return db


SORT_QUERIES = [
    "SELECT id, k FROM s ORDER BY k",  # NULLs last ascending
    "SELECT id, k FROM s ORDER BY k DESC",  # NULLs first descending
    "SELECT id FROM s ORDER BY id DESC",  # no NULL: the plain-value key
    "SELECT id, f FROM s ORDER BY f",  # 1 and 1.0 tie, in scan order
    "SELECT id, f, k FROM s ORDER BY f DESC, k",
    "SELECT id, g, f, k FROM s ORDER BY g, f DESC, k",
    "SELECT k, COUNT(*) FROM s GROUP BY k ORDER BY k DESC",
]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("sql", SORT_QUERIES, ids=range(len(SORT_QUERIES)))
def test_sort_order_matches_reference(sql, executor):
    """Batch sort keys order exactly as the reference's ``_SortKey``:
    NULLs last ascending and first descending, ties in input order."""
    db = _sort_db()
    got = db.execute(sql, executor=executor)
    assert got.exec_stats.executor_mode == executor
    assert got.rows == db.reference_execute(sql)
    assert "executor.vector_fallbacks" not in db.snapshot()["counters"]


@pytest.mark.parametrize("executor", EXECUTORS)
def test_empty_input_batches(executor):
    db = Database()
    db.execute_ddl("CREATE TABLE e (a INT, b INT)")
    db.analyze()
    for sql, expected in [
        ("SELECT a FROM e WHERE b > 1", []),
        ("SELECT b, COUNT(*) FROM e GROUP BY b", []),
        # scalar aggregate over zero rows still emits one row
        ("SELECT COUNT(*), SUM(a), MIN(a) FROM e", [(0, None, None)]),
        ("SELECT DISTINCT a FROM e", []),
    ]:
        got = db.execute(sql, executor=executor)
        assert got.rows == expected, sql


def test_work_unit_parity_null_heavy():
    db = _null_heavy_db()
    for sql in NULL_QUERIES:
        units = {
            mode: db.execute(sql, executor=mode).exec_stats.work_units
            for mode in EXECUTORS
        }
        assert math.isclose(units["row"], units["vector"], rel_tol=1e-9)


def test_work_unit_parity_early_stop_consumers(tiny_db):
    """Early-terminating row-engine consumers (COUNT STOPKEY, semi/anti
    nested-loop probes over lateral views) stop pulling mid-stream; the
    subtrees they consume must charge identical work units, not a whole
    eager batch (regression guard for the lateral semijoin drift)."""
    for sql in [
        # distinct-view semijoin: candidate for NLJ SEMI + lateral view
        "SELECT e.emp_id FROM employees e, (SELECT DISTINCT j.emp_id AS k "
        "FROM job_history j WHERE j.job_title > 5) v WHERE v.k = e.emp_id",
        "SELECT e.emp_id FROM employees e WHERE NOT EXISTS "
        "(SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id "
        "AND j.job_title = 2)",
        # ROWNUM view: COUNT STOPKEY over a sorted subtree
        "SELECT v.emp_id FROM (SELECT emp_id FROM employees "
        "ORDER BY salary DESC) v WHERE rownum <= 7",
    ]:
        units = {
            mode: tiny_db.execute(sql, executor=mode).exec_stats.work_units
            for mode in EXECUTORS
        }
        assert math.isclose(
            units["row"], units["vector"], rel_tol=1e-9
        ), (sql, units)


# -- beyond one batch ---------------------------------------------------------


def test_multi_batch_scan_join_aggregate():
    db = Database()
    db.execute_ddl("CREATE TABLE big (k INT, v INT)")
    db.insert(
        "big",
        [
            {"k": i % 97, "v": None if i % 11 == 0 else i % 13}
            for i in range(3 * BATCH_SIZE + 17)
        ],
    )
    db.execute_ddl("CREATE TABLE dim (k INT, name INT)")
    db.insert("dim", [{"k": i, "name": i * 10} for i in range(97)])
    db.analyze()
    for sql in [
        "SELECT k FROM big WHERE v > 7",
        "SELECT k, COUNT(*), SUM(v) FROM big GROUP BY k",
        "SELECT b.k, d.name FROM big b, dim d WHERE b.k = d.k AND b.v = 3",
    ]:
        row = db.execute(sql, executor="row")
        vec = db.execute(sql, executor="vector")
        assert vec.rows == row.rows, f"{sql}: rows or their order differ"
        assert Counter(vec.rows) == Counter(db.reference_execute(sql)), sql
        assert math.isclose(
            vec.exec_stats.work_units,
            row.exec_stats.work_units,
            rel_tol=1e-9,
        ), sql


# -- EXPLAIN ANALYZE golden parity (actual rows, not batch counts) -----------


#: plans as an index nested-loop join probing the employees PK
_INDEX_NL_SQL = (
    "SELECT j.emp_id, e.salary FROM job_history j, employees e "
    "WHERE e.emp_id = j.emp_id AND j.job_title = 3"
)


def test_explain_analyze_reports_rows_not_batches(tiny_db):
    sql = (
        "SELECT e.dept_id, COUNT(*) FROM employees e, departments d "
        "WHERE e.dept_id = d.dept_id AND e.salary > 30 GROUP BY e.dept_id"
    )
    # optimize once so generated view names match, then run the *same*
    # plan through each engine
    optimized = tiny_db.optimize(sql)
    renders = {}
    for mode in EXECUTORS:
        result = tiny_db.execute_plan(optimized, analyze=True, executor=mode)
        renders[mode] = result.explain_analyze(timing=False)
    # golden contract: deterministic EXPLAIN ANALYZE output (actual rows,
    # invocations, Q-error) is identical whichever engine ran the plan
    assert renders["vector"] == renders["row"]
    assert "actual" in renders["vector"]


def test_explain_analyze_actual_rows_match_row_engine(tiny_db):
    for sql in ("SELECT emp_id FROM employees WHERE salary > 50",
                _INDEX_NL_SQL):
        per_mode = {}
        for mode in EXECUTORS:
            result = tiny_db.execute(sql, analyze=True, executor=mode)
            stats = result.exec_stats
            per_mode[mode] = {
                "rows": dict(stats.node_rows),
                "invocations": dict(stats.node_invocations),
            }
        # node ids differ between runs, so compare the sorted profiles
        row = per_mode["row"]
        assert sorted(per_mode["vector"]["rows"].values()) == sorted(
            row["rows"].values()
        )
        assert sorted(per_mode["vector"]["invocations"].values()) == sorted(
            row["invocations"].values()
        )
    # the index probe ran once per outer row under every engine
    optimized = tiny_db.optimize(_INDEX_NL_SQL)
    renders = {
        mode: tiny_db.execute_plan(
            optimized, analyze=True, executor=mode
        ).explain_analyze(timing=False)
        for mode in EXECUTORS
    }
    assert renders["vector"] == renders["row"]
    assert "NESTED LOOPS INNER" in renders["row"]
    assert "INDEX SCAN employees e via employees_pk" in renders["row"]


# -- chaos: executor.batch.* fault points ------------------------------------


def test_batch_points_registered():
    points = injection_points()
    for name in BATCH_OPERATORS:
        assert f"executor.batch.{name}" in points
    assert set(BATCH_OPERATORS) == set(VECTOR_OPERATORS)


def _chaos_sql() -> str:
    return (
        "SELECT e.dept_id, COUNT(*) FROM employees e, departments d "
        "WHERE e.dept_id = d.dept_id AND e.salary > 20 "
        "GROUP BY e.dept_id"
    )


#: the HAVING query carries an explicit FILTER node above the GROUP BY
_HAVING_SQL = (
    "SELECT dept_id, SUM(salary) FROM employees GROUP BY dept_id "
    "HAVING SUM(salary) > 200"
)


@pytest.mark.parametrize(
    ("point", "sql"),
    [
        ("executor.batch.TableScan", _chaos_sql()),
        ("executor.batch.Filter", _HAVING_SQL),
        ("executor.batch.HashJoin", _chaos_sql()),
        ("executor.batch.GroupBy", _chaos_sql()),
        ("executor.batch.IndexScan", _INDEX_NL_SQL),
        ("executor.batch.NestedLoopJoin", _INDEX_NL_SQL),
    ],
)
def test_batch_fault_with_fallback_recovers(point, sql):
    """A fault mid-statement inside the batch engine degrades to the row
    engine and still produces exactly the right rows — never a partial
    batch."""
    db = build_tiny_db()
    expected = Counter(db.reference_execute(sql))
    with inject(FaultSpec(point, at=1, repeat=True)) as injector:
        result = db.execute(sql, RESILIENT, executor="vector")
    assert injector.fired, f"{point} never fired"
    assert Counter(result.rows) == expected
    assert result.exec_stats.executor_mode == "row"
    snap = db.metrics.snapshot()
    assert snap["counters"]["executor.vector_fallbacks"] >= 1


def test_batch_fault_without_fallback_is_typed(tiny_db):
    """Strict mode: the same fault surfaces as the typed error, not a
    partial result or an untyped crash."""
    sql = _chaos_sql()
    with inject(
        FaultSpec("executor.batch.HashJoin", at=1, repeat=True)
    ) as injector:
        with pytest.raises(FaultInjected):
            tiny_db.execute(sql, executor="vector")
    assert injector.fired


def test_mid_stream_batch_fault_no_partial_rows():
    """Arm the fault on the *second* batch of a multi-batch scan: the
    statement must still come back complete via fallback, not truncated."""
    db = Database()
    db.execute_ddl("CREATE TABLE big (k INT, v INT)")
    db.insert(
        "big", [{"k": i, "v": i % 7} for i in range(2 * BATCH_SIZE + 50)]
    )
    db.analyze()
    sql = "SELECT k FROM big WHERE v < 5"
    expected = Counter(db.reference_execute(sql))
    with inject(
        FaultSpec("executor.batch.TableScan", at=2, repeat=True)
    ) as injector:
        result = db.execute(sql, RESILIENT, executor="vector")
    assert injector.fired
    assert Counter(result.rows) == expected
    assert len(result.rows) == sum(expected.values())


def test_cancellation_checked_at_batch_boundaries(tiny_db):
    token = CancelToken()
    token.cancel()
    with pytest.raises(StatementCancelled):
        tiny_db.execute(_chaos_sql(), token=token, executor="vector")


# -- executor selection ------------------------------------------------------


def test_repro_exec_env_selects_mode(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC", "row")
    assert Database().executor_mode == "row"
    # the removed morsel-parallel mode is rejected with a typed error
    monkeypatch.setenv("REPRO_EXEC", "parallel")
    with pytest.raises(ExecutionError, match="row/vector"):
        Database()
    monkeypatch.delenv("REPRO_EXEC")
    assert Database().executor_mode == "vector"
    monkeypatch.setenv("REPRO_EXEC", "turbo")
    with pytest.raises(ExecutionError):
        Database()


def test_unknown_statement_executor_rejected(tiny_db):
    for executor in ("turbo", "parallel"):
        with pytest.raises(ExecutionError):
            tiny_db.execute("SELECT emp_id FROM employees", executor=executor)
