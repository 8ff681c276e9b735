"""A statement's memory is freed when it returns, and its kernels are
generated and compiled once per plan.

An executed statement's run state (row run, TIS subquery runner,
expression closures, vector run, bridge, kernels) must hold no
reference cycles: otherwise it outlives the statement until the cyclic
GC runs, and with it the pinned storage snapshot — every table version
the statement read, rows and index copies included.  The tests run with
the cyclic GC disabled, so anything left to it shows up in the count
``gc.collect()`` returns.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest

from repro import Database, QueryService
from repro.engine.vector import kernels

#: statement shapes that take different run-state paths
SHAPES = {
    # scan -> filter -> aggregate -> project, all vector-native kernels
    "scan": ("SELECT t.g, COUNT(*), SUM(t.v) FROM t WHERE t.v > :lo "
             "GROUP BY t.g", {"lo": 30}),
    # leaf index scan: one probe with a bind value
    "index": ("SELECT t.v FROM t WHERE t.id = :id", {"id": 17}),
    # index nested loops: each u row probes t's primary key
    "index_nl": ("SELECT u.w, t.v FROM u, t WHERE t.id = u.tid "
                 "AND u.w = :w", {"w": 3}),
    # correlated scalar subquery in the select list: TIS evaluation
    "tis": ("SELECT t.id, (SELECT MAX(u.w) FROM u WHERE u.tid = t.id) "
            "FROM t WHERE t.g = :g", {"g": 3}),
}


def _database() -> Database:
    db = Database()
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, g INT, v INT)")
    db.execute_ddl("CREATE TABLE u (id INT PRIMARY KEY, tid INT, w INT)")
    db.insert("t", [{"id": i, "g": i % 7, "v": i * 3} for i in range(120)])
    db.insert("u", [{"id": i, "tid": i % 120, "w": i % 11}
                    for i in range(240)])
    db.analyze()
    return db


@contextmanager
def _refcounting_only():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("executor", ["vector", "row"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_cached_executions_leave_no_cyclic_garbage(shape, executor):
    db = _database()
    db.executor_mode = executor
    service = QueryService(db)
    sql, binds = SHAPES[shape]
    expected = sorted(db.reference_execute(sql, binds))
    statement = service.prepare(sql)
    statement.execute(binds)  # the hard parse
    with _refcounting_only():
        for _ in range(5):
            result = statement.execute(binds)
            assert result.cache_status == "hit"
            assert result.exec_stats.executor_mode == executor
            assert sorted(result.rows) == expected
        del result
        assert gc.collect() == 0


def test_superseded_table_version_dies_with_its_last_reader():
    db = _database()
    service = QueryService(db)
    sql, binds = SHAPES["index"]
    service.execute(sql, binds)  # the hard parse
    with _refcounting_only():
        snapshot = db.read_snapshot()
        result = service.execute(sql, binds, snapshot=snapshot)
        assert result.cache_status == "hit"
        del result
        pinned = weakref.ref(db.storage.get("t")._current)
        db.insert("t", [{"id": 1000, "g": 0, "v": 0}])
        # the reader's snapshot still pins the superseded version ...
        assert pinned() is not None
        # ... and nothing else does once the reader lets go
        del snapshot
        assert pinned() is None


def test_rebinding_a_prepared_statement_reuses_compiled_kernels(monkeypatch):
    db = _database()
    db.executor_mode = "vector"
    service = QueryService(db)
    sql = "SELECT t.id, t.v * 2 FROM t WHERE t.g = :g AND t.v >= :lo"
    statement = service.prepare(sql)
    generated = []
    generate = kernels.KernelCompiler._generate

    def counting_generate(self, *args):
        generated.append(args)
        return generate(self, *args)

    monkeypatch.setattr(kernels.KernelCompiler, "_generate", counting_generate)
    statement.execute({"g": 0, "lo": 0})  # hard parse + first compile
    assert generated  # the first execution generates the kernels
    generated.clear()
    before = kernels._compile.cache_info()
    for g in range(1, 7):
        binds = {"g": g, "lo": 3 * g}
        result = statement.execute(binds)
        assert result.cache_status == "hit"
        assert sorted(result.rows) == sorted(db.reference_execute(sql, binds))
    # the kernel code is kept on the plan: a rebind only binds constants,
    # generating no source and compiling nothing
    assert generated == []
    assert kernels._compile.cache_info() == before
