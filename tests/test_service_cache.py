"""The query-serving layer: plan cache, invalidation, eviction,
adaptive cursor sharing, version counters, and concurrency."""

from __future__ import annotations

import threading

import pytest

from repro import Database, QueryService
from repro.service import normalize_binds, normalize_sql
from repro.errors import ExecutionError


def _skew_db() -> Database:
    """events.kind: value 0 covers 91% of rows, values 1..9 are rare —
    a frequency-histogram column where bind peeking matters."""
    db = Database()
    db.execute_ddl(
        "CREATE TABLE events (id INT PRIMARY KEY, kind INT, payload INT)"
    )
    db.execute_ddl("CREATE INDEX ev_kind ON events (kind)")
    db.insert("events", [
        {"id": i, "kind": 0 if i <= 910 else 1 + (i % 9), "payload": i * 3}
        for i in range(1, 1001)
    ])
    db.analyze()
    return db


def _two_table_db() -> Database:
    db = Database()
    db.execute_ddl("CREATE TABLE a (id INT PRIMARY KEY, x INT)")
    db.execute_ddl("CREATE TABLE b (id INT PRIMARY KEY, y INT)")
    db.insert("a", [{"id": i, "x": i % 7} for i in range(1, 101)])
    db.insert("b", [{"id": i, "y": i % 5} for i in range(1, 101)])
    db.analyze()
    return db


# -- bind normalization ----------------------------------------------------


def test_normalize_binds_forms():
    assert normalize_binds(None) == {}
    assert normalize_binds([10, 20]) == {"1": 10, "2": 20}
    assert normalize_binds({"Low": 1, 2: 5}) == {"low": 1, "2": 5}
    with pytest.raises(ExecutionError):
        normalize_binds(42)


def test_positional_sequence_binds_through_service():
    db = _two_table_db()
    service = QueryService(db)
    statement = service.prepare("SELECT a.x FROM a WHERE a.id = ?")
    assert statement.execute([7]).rows == [(7 % 7,)]


# -- hit / miss / invalidation ---------------------------------------------


def test_identical_sql_hits_cache():
    service = QueryService(_two_table_db())
    sql = "SELECT a.id FROM a WHERE a.x = :v"
    first = service.execute(sql, {"v": 3})
    second = service.execute(sql, {"v": 3})
    assert (first.cache_status, second.cache_status) == ("miss", "hit")
    # whitespace-insensitive key
    third = service.execute("SELECT   a.id\nFROM a WHERE a.x = :v", {"v": 3})
    assert third.cache_status == "hit"
    assert normalize_sql(" SELECT  x\n FROM t ") == "SELECT x FROM t"


def test_services_over_one_database_count_apart():
    db = _two_table_db()
    first, second = QueryService(db), QueryService(db)
    sql = "SELECT a.id FROM a WHERE a.x = :v"
    for _ in range(3):
        first.execute(sql, {"v": 3})
    second.execute(sql, {"v": 3})
    assert (first.cache_stats()["hits"], first.cache_stats()["misses"]) == (2, 1)
    assert (second.cache_stats()["hits"], second.cache_stats()["misses"]) == (0, 1)
    assert second.cache_stats()["executions"] == 1
    counters = db.snapshot()["counters"]
    assert (counters["plan_cache.1.hits"], counters["plan_cache.2.hits"]) == (2, 0)
    assert counters["plan_cache.2.misses"] == 1


def test_analyze_invalidates_dependent_entries_only():
    db = _two_table_db()
    service = QueryService(db)
    service.execute("SELECT a.id FROM a WHERE a.x = 1")
    service.execute("SELECT b.id FROM b WHERE b.y = 1")

    db.analyze("a")
    on_a = service.execute("SELECT a.id FROM a WHERE a.x = 1")
    on_b = service.execute("SELECT b.id FROM b WHERE b.y = 1")
    assert on_a.cache_status == "miss"  # stale: stats version bumped
    assert on_b.cache_status == "hit"   # untouched table stays cached
    assert service.cache_stats()["invalidations"] == 1


def test_ddl_invalidates_dependent_entries_only():
    db = _two_table_db()
    service = QueryService(db)
    service.execute("SELECT a.id FROM a WHERE a.x = 1")
    service.execute("SELECT b.id FROM b WHERE b.y = 1")

    db.execute_ddl("CREATE INDEX a_x_ix ON a (x)")
    assert service.execute("SELECT a.id FROM a WHERE a.x = 1").cache_status == "miss"
    assert service.execute("SELECT b.id FROM b WHERE b.y = 1").cache_status == "hit"


def test_insert_invalidates_only_past_stale_threshold():
    db = _two_table_db()
    service = QueryService(db)
    sql = "SELECT a.id FROM a WHERE a.x = 1"
    service.execute(sql)
    # 100 analyzed rows: 10 more keep the statistics and the cursor
    db.insert("a", [{"id": 1000 + i, "x": 1} for i in range(10)])
    result = service.execute(sql)
    assert result.cache_status == "hit"
    assert (1009,) in result.rows  # the cached plan reads the new rows
    # the 11th inserted row stales the statistics
    db.insert("a", [{"id": 2000, "x": 1}])
    result = service.execute(sql)
    assert result.cache_status == "miss"
    assert (2000,) in result.rows


def test_explicit_invalidate_by_table():
    db = _two_table_db()
    service = QueryService(db)
    service.execute("SELECT a.id FROM a WHERE a.x = 1")
    service.execute("SELECT b.id FROM b WHERE b.y = 1")
    assert service.invalidate("a") == 1
    assert len(service.cache) == 1
    assert service.invalidate() == 1
    assert len(service.cache) == 0


# -- eviction --------------------------------------------------------------


def test_lru_eviction_order_under_small_capacity():
    db = _two_table_db()
    service = QueryService(db, capacity=2)
    q_a = "SELECT a.id FROM a WHERE a.x = 0"
    q_b = "SELECT b.id FROM b WHERE b.y = 0"
    q_c = "SELECT a.x FROM a WHERE a.id = 5"

    service.execute(q_a)
    service.execute(q_b)
    service.execute(q_c)  # evicts q_a (LRU)
    cached_texts = [key[0] for key in service.cache.keys()]
    assert normalize_sql(q_a) not in cached_texts
    assert service.cache_stats()["evictions"] == 1

    service.execute(q_b)  # touch: q_b becomes MRU
    service.execute(q_a)  # re-parse; evicts q_c, not the just-touched q_b
    cached_texts = [key[0] for key in service.cache.keys()]
    assert cached_texts == [normalize_sql(q_b), normalize_sql(q_a)]
    assert service.cache_stats()["evictions"] == 2


# -- adaptive cursor sharing -----------------------------------------------


def test_bind_drift_triggers_reoptimization_and_stays_correct():
    db = _skew_db()
    service = QueryService(db, reoptimize_threshold=8.0)
    statement = service.prepare("SELECT ev.id FROM events ev WHERE ev.kind = :k")
    sql = statement.sql

    rare = statement.execute({"k": 5})
    assert rare.cache_status == "miss"
    rare_again = statement.execute({"k": 5})
    assert rare_again.cache_status == "hit"
    # cache hit with a *different* rare value: same selectivity class
    other_rare = statement.execute({"k": 7})
    assert other_rare.cache_status == "hit"
    assert sorted(other_rare.rows) == sorted(
        db.reference_execute(sql, binds={"k": 7})
    )

    # the popular value is ~91x more selective than peeked: re-optimize
    popular = statement.execute({"k": 0})
    assert popular.cache_status == "reoptimized"
    assert service.cache_stats()["reoptimizations"] == 1
    assert sorted(popular.rows) == sorted(
        db.reference_execute(sql, binds={"k": 0})
    )

    # the re-optimized plan reflects the new peek: its cardinality is the
    # popular value's 910 rows, not the rare value's 10
    assert popular.plan.cardinality > rare.plan.cardinality * 10
    popular_again = statement.execute({"k": 0})
    assert popular_again.cache_status == "hit"


def test_small_drift_shares_the_cached_plan():
    db = _skew_db()
    service = QueryService(db, reoptimize_threshold=8.0)
    sql = "SELECT ev.id FROM events ev WHERE ev.kind = :k"
    service.execute(sql, {"k": 3})
    # all rare kinds have identical frequency: no drift, plan shared
    for kind in (4, 5, 6):
        assert service.execute(sql, {"k": kind}).cache_status == "hit"
    assert service.cache_stats()["reoptimizations"] == 0


# -- version counters (satellite) ------------------------------------------


def test_catalog_and_statistics_version_counters():
    db = Database()
    assert db.catalog.version == 0
    db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    after_create = db.catalog.version
    assert after_create >= 1
    assert db.catalog.table_version("t") == after_create

    db.execute_ddl("CREATE INDEX t_v ON t (v)")
    assert db.catalog.version == after_create + 1
    assert db.catalog.table_version("t") == after_create + 1

    assert db.statistics.version == 0
    db.insert("t", [{"id": 1, "v": 2}])  # drop() bumps even with no stats
    assert db.statistics.version == 1
    db.analyze("t")
    assert db.statistics.version == 2
    assert db.statistics.table_version("t") == 2
    db.statistics.clear()
    assert db.statistics.version == 3


# -- concurrency -----------------------------------------------------------


def test_eight_threads_no_lost_counter_updates():
    db = _two_table_db()
    service = QueryService(db)
    statements = [
        "SELECT a.id FROM a WHERE a.x = 1",
        "SELECT b.id FROM b WHERE b.y = 2",
        "SELECT a.x FROM a WHERE a.id = :id",
        "SELECT b.y FROM b WHERE b.id = :id",
    ]
    per_thread = 50
    n_threads = 8
    errors: list[Exception] = []
    expected_rows = {
        sql: sorted(db.reference_execute(sql, binds={"id": 33}))
        for sql in statements
    }

    def worker(seed: int) -> None:
        try:
            for i in range(per_thread):
                sql = statements[(seed + i) % len(statements)]
                result = service.execute(sql, {"id": 33})
                assert sorted(result.rows) == expected_rows[sql]
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(n,)) for n in range(n_threads)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)

    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    total = n_threads * per_thread
    stats = service.cache_stats()
    assert stats["executions"] == total
    # every execution is counted once, as a hit or a miss — a single-
    # flight follower served the leader's cursor is a hit, not both
    assert stats["hits"] + stats["misses"] == stats["executions"]
    # and each statement is hard parsed exactly once, however the
    # threads interleave around the single-flight gate
    assert stats["misses"] == len(statements)


# -- explain surface -------------------------------------------------------


def test_service_explain_shows_cache_state_and_counters():
    service = QueryService(_two_table_db())
    sql = "SELECT a.id FROM a WHERE a.x = :v"
    first = service.explain(sql, {"v": 1})
    assert first.startswith("-- cache: miss")
    second = service.explain(sql, {"v": 1})
    assert second.startswith("-- cache: hit")
    assert "plan cache statistics" in second
    assert "hits" in second and "reoptimizations" in second
