"""Concurrency regression tests for the shared serving substrate:
registry thread-safety (metrics, quarantine), single-flight hard
parsing, invalidation racing lookup, and copy-on-write storage
atomicity — the invariants the multi-session server leans on.
"""

from __future__ import annotations

import sys
import threading
import time

from repro import Database, QueryService
from repro.obs import MetricsRegistry
from repro.resilience import QuarantineRegistry


def _run_threads(n: int, target, *args) -> list[threading.Thread]:
    barrier = threading.Barrier(n)

    def wrapped(*thread_args):
        barrier.wait()
        target(*thread_args)

    threads = [
        threading.Thread(target=wrapped, args=(i, *args)) for i in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return threads


# -- satellite: registry lock-contention smoke tests -------------------------


def test_metrics_registry_contention():
    """N threads hammering one counter/histogram must lose no updates
    (and concurrent snapshots must not crash or deadlock)."""
    registry = MetricsRegistry()
    threads, per_thread = 8, 2000
    errors: list[BaseException] = []

    def worker(i: int):
        try:
            for k in range(per_thread):
                registry.counter("hot").inc()
                registry.histogram("lat").record(float(k))
                if k % 500 == 0:
                    registry.snapshot()
        except BaseException as exc:  # noqa: B036 - surface to the assert
            errors.append(exc)

    _run_threads(threads, worker)
    assert not errors
    assert registry.counter("hot").value == threads * per_thread
    snap = registry.histogram("lat").snapshot()
    assert snap["count"] == threads * per_thread


def test_quarantine_registry_contention():
    """Concurrent failure recording loses no counts; concurrent resets
    interleaved with reads neither crash nor corrupt the ledger."""
    registry = QuarantineRegistry(statement_threshold=3, global_threshold=10 ** 9)
    threads, per_thread = 8, 500
    errors: list[BaseException] = []

    def record(i: int):
        try:
            for k in range(per_thread):
                registry.record_failure("jppd", f"stmt-{k % 7}")
                registry.is_quarantined("jppd", f"stmt-{k % 7}")
        except BaseException as exc:  # noqa: B036
            errors.append(exc)

    _run_threads(threads, record)
    assert not errors
    assert registry.failures("jppd") == threads * per_thread

    def churn(i: int):
        try:
            for k in range(200):
                if i % 2:
                    registry.record_failure("unnest_view", f"s{k}")
                    registry.snapshot()
                else:
                    registry.reset("unnest_view")
        except BaseException as exc:  # noqa: B036
            errors.append(exc)

    epoch_before = registry.epoch
    _run_threads(4, churn)
    assert not errors
    assert registry.epoch == epoch_before + 2 * 200
    registry.snapshot()  # still consistent


# -- satellite: plan-cache races ---------------------------------------------


def _served_db() -> tuple[Database, QueryService]:
    db = Database()
    db.execute_ddl("CREATE TABLE r (id INT PRIMARY KEY, grp INT)")
    db.insert("r", [{"id": i, "grp": i % 4} for i in range(120)])
    db.analyze()
    return db, QueryService(db)


def test_concurrent_hard_parse_single_flight():
    """N threads missing on the same statement elect one leader: the
    statement is optimized exactly once and everyone shares the stored
    entry (no thundering herd)."""
    db, service = _served_db()
    sql = "SELECT grp, COUNT(*) FROM r GROUP BY grp ORDER BY grp"
    expected = db.reference_execute(sql)
    threads = 8
    results: list = [None] * threads

    def worker(i: int):
        results[i] = service.execute(sql)

    # frequent thread switches make the races around the gate likely:
    # a lookup preempted until after the leader has stored and released
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        started = _run_threads(threads, worker)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in started)
    assert all(list(r.rows) == expected for r in results)
    # exactly one optimization ran across all 8 concurrent callers, in
    # every interleaving: a caller that missed before the leader stored
    # either waits on the leader's gate or, arriving after the leader
    # released it, re-checks the cache before parsing
    assert db.metrics.counter("optimizer.statements").value == 1
    assert len(service.cache) == 1
    snap = service.metrics.snapshot()
    assert snap["executions"] == threads
    assert snap["misses"] == 1
    assert snap["hits"] == threads - 1
    assert [r.cache_status for r in results].count("miss") == 1
    assert snap["single_flight_waits"] <= threads - 1


def test_single_flight_distinct_statements_do_not_serialize():
    """The gate is per cache key: different statements parsed
    concurrently each hard parse once, independently."""
    db, service = _served_db()
    statements = [
        f"SELECT COUNT(*) FROM r WHERE grp = {g}" for g in range(4)
    ]

    def worker(i: int):
        service.execute(statements[i % len(statements)])

    _run_threads(8, worker)
    assert db.metrics.counter("optimizer.statements").value == len(statements)
    assert len(service.cache) == len(statements)


def test_invalidation_racing_lookup_stays_correct():
    """Readers soft/hard parsing while ANALYZE and inserts bump the
    dependency versions: every result stays correct, no lookup crashes,
    and the cache converges to a valid entry afterwards."""
    db, service = _served_db()
    sql = "SELECT COUNT(*) FROM r WHERE grp = 1"
    errors: list[BaseException] = []
    stop = threading.Event()

    def reader(i: int):
        try:
            while not stop.is_set():
                result = service.execute(sql)
                count = result.rows[0][0]
                # rows only grow, in batches of 4 with one grp=1 each
                if count < 30 or count != int(count):
                    errors.append(AssertionError(f"bad count {count}"))
                    return
        except BaseException as exc:  # noqa: B036
            errors.append(exc)

    def mutator():
        try:
            for n in range(15):
                base = 120 + n * 4
                db.insert("r", [
                    {"id": base + j, "grp": j} for j in range(4)
                ])
                db.analyze("r")
                time.sleep(0.005)
        except BaseException as exc:  # noqa: B036
            errors.append(exc)
        finally:
            stop.set()

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    writer = threading.Thread(target=mutator)
    for thread in threads:
        thread.start()
    writer.start()
    writer.join(timeout=60)
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[0]
    # versions settled: one more execute must land a hit on a valid entry
    assert service.execute(sql).rows[0][0] == 30 + 15
    assert service.execute(sql).cache_status == "hit"
    assert service.metrics.snapshot()["invalidations"] >= 1


# -- copy-on-write storage atomicity -----------------------------------------


def test_cow_storage_batch_is_all_or_nothing_under_readers():
    """Direct storage-level check beneath the server tests: snapshots
    pinned during a batched insert see only whole batches."""
    db = Database()
    db.execute_ddl("CREATE TABLE w (id INT PRIMARY KEY, b INT)")
    batch, rounds = 5, 50
    errors: list[str] = []
    done = threading.Event()

    def writer():
        for n in range(rounds):
            db.insert("w", [
                {"id": n * batch + j, "b": n} for j in range(batch)
            ])
        done.set()

    def reader():
        while not done.is_set():
            snap = db.read_snapshot()
            count = snap.storage.get("w").row_count
            if count % batch != 0:
                errors.append(f"torn snapshot: {count} rows")
                return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread = threading.Thread(target=writer)
    for thread in threads:
        thread.start()
    writer_thread.start()
    writer_thread.join(timeout=60)
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors[0]
    assert db.storage.get("w").row_count == batch * rounds
