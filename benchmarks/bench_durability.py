"""Durability-layer cost: free when off, bounded when on, fast to recover.

Three contracts:

* *structurally*: a full in-memory DML+query workload (no ``data_dir``)
  appends **zero** WAL records and issues zero WAL fsyncs — the durable
  path is guarded construction, not pervasive machinery;
* *empirically*: the in-memory mutation path — which since this layer
  landed carries a ``durability is None`` test per mutation — is within
  2% of the same workload driven through the pre-durability path
  (storage + statistics calls inlined), median of paired interleaved
  sweeps;
* *recovery throughput*: replaying a WAL and loading a checkpoint are
  fast enough to make crash recovery routine; both rates go to the
  regression gate with conservative committed baselines (wall-clock —
  the gate catches collapses, not machine noise).
"""

from __future__ import annotations

import statistics
import time

from repro import Database, DurabilityConfig
from repro.durability import WriteAheadLog

from conftest import QUICK, record_report

ROWS_PER_BATCH = 20
BATCHES = 12 if QUICK else 25
REPEATS = 9
TOLERANCE_PERCENT = 2.0

RECOVERY_ROWS = 4_000 if QUICK else 12_000
RECOVERY_BATCH = 50


def _fresh_db() -> Database:
    db = Database()
    db.execute_ddl(
        "CREATE TABLE items (id INT PRIMARY KEY, grp INT, val INT)"
    )
    return db


def _batch(base: int) -> list[dict]:
    return [
        {"id": base + i, "grp": i % 7, "val": (i * 37) % 500}
        for i in range(ROWS_PER_BATCH)
    ]


def _sweep_current(db: Database, offset: int) -> float:
    """The public mutation path, durability idle (``durability is None``
    tested once per mutation)."""
    started = time.perf_counter()
    for b in range(BATCHES):
        db.insert("items", _batch(offset + b * ROWS_PER_BATCH))
    db.analyze("items")
    return time.perf_counter() - started


def _sweep_stripped(db: Database, offset: int) -> float:
    """The pre-durability mutation path, inlined: storage insert +
    statistics staleness accounting with no durability dispatch at all."""
    started = time.perf_counter()
    for b in range(BATCHES):
        data = db.storage.get("items")
        data.insert(_batch(offset + b * ROWS_PER_BATCH))
        db.statistics.record_insert("items", data.row_count)
    db.analyze("items")
    return time.perf_counter() - started


def _measure_overhead(repeats: int) -> tuple[float, float, float]:
    """Median of paired, interleaved relative deltas on twin databases;
    each stripped sweep is immediately followed by a current sweep so
    clock drift and allocator state hit both variants equally."""
    stripped_db, current_db = _fresh_db(), _fresh_db()
    deltas, off_times, on_times = [], [], []
    for r in range(repeats):
        offset = r * BATCHES * ROWS_PER_BATCH
        off = _sweep_stripped(stripped_db, offset)
        on = _sweep_current(current_db, offset)
        off_times.append(off)
        on_times.append(on)
        deltas.append((on - off) / off * 100)
    return (
        statistics.median(deltas),
        statistics.median(off_times),
        statistics.median(on_times),
    )


def test_idle_durability_costs_nothing():
    records_before = WriteAheadLog.records_appended_total
    fsyncs_before = WriteAheadLog.fsyncs_total

    overhead, elapsed_off, elapsed_on = _measure_overhead(REPEATS)
    if overhead >= TOLERANCE_PERCENT:
        # confirmation pass before failing a perf gate on one noisy sample
        overhead, elapsed_off, elapsed_on = _measure_overhead(REPEATS * 2)

    # the structural contract: no WAL machinery ran at all
    assert WriteAheadLog.records_appended_total == records_before, (
        "in-memory workload appended WAL records"
    )
    assert WriteAheadLog.fsyncs_total == fsyncs_before, (
        "in-memory workload issued WAL fsyncs"
    )

    mutations = BATCHES + 1  # inserts + the analyze
    record_report(
        "durability idle overhead",
        "\n".join([
            f"{mutations} mutations x {ROWS_PER_BATCH} rows per sweep, "
            f"median of >= {REPEATS} interleaved sweep pairs",
            f"{'variant':>18} {'seconds':>9}",
            f"{'pre-durability':>18} {elapsed_off:9.3f}",
            f"{'durability idle':>18} {elapsed_on:9.3f}",
            f"idle cost: {overhead:+.1f}% "
            f"(tolerance {TOLERANCE_PERCENT:.0f}%; the durable path is "
            "one `is None` test per mutation)",
            "WAL records appended: "
            f"{WriteAheadLog.records_appended_total - records_before}, "
            f"fsyncs: {WriteAheadLog.fsyncs_total - fsyncs_before}",
        ]),
    )

    assert overhead < TOLERANCE_PERCENT, (
        f"idle durability overhead {overhead:.2f}% exceeds "
        f"{TOLERANCE_PERCENT}%"
    )


def _build_data_dir(tmp_path, checkpointed: bool) -> str:
    data_dir = str(tmp_path / ("ckpt" if checkpointed else "wal"))
    db = Database(
        data_dir=data_dir, durability=DurabilityConfig(fsync="off")
    )
    db.execute_ddl(
        "CREATE TABLE items (id INT PRIMARY KEY, grp INT, val INT)"
    )
    for base in range(0, RECOVERY_ROWS, RECOVERY_BATCH):
        db.insert("items", [
            {"id": base + i, "grp": i % 7, "val": (i * 37) % 500}
            for i in range(RECOVERY_BATCH)
        ])
    if checkpointed:
        db.checkpoint()
    db.close()
    return data_dir


def _time_open(data_dir: str) -> tuple[float, Database]:
    started = time.perf_counter()
    db = Database(
        data_dir=data_dir, durability=DurabilityConfig(fsync="off")
    )
    return time.perf_counter() - started, db


def test_recovery_throughput(tmp_path):
    wal_dir = _build_data_dir(tmp_path, checkpointed=False)
    ckpt_dir = _build_data_dir(tmp_path, checkpointed=True)

    replay_seconds, db = _time_open(wal_dir)
    report = db.recovery
    assert report.wal_records_applied == RECOVERY_ROWS // RECOVERY_BATCH + 1
    assert db.storage.get("items").row_count == RECOVERY_ROWS
    db.close()

    load_seconds, db = _time_open(ckpt_dir)
    assert db.recovery.checkpoint_rows == RECOVERY_ROWS
    assert db.recovery.wal_records_total == 0
    assert db.storage.get("items").row_count == RECOVERY_ROWS
    db.close()

    replay_rows_per_sec = RECOVERY_ROWS / replay_seconds
    replay_records_per_sec = report.wal_records_applied / replay_seconds
    load_rows_per_sec = RECOVERY_ROWS / load_seconds

    record_report(
        "durability recovery throughput",
        "\n".join([
            f"{RECOVERY_ROWS} rows in {RECOVERY_ROWS // RECOVERY_BATCH} "
            "committed batches",
            f"{'path':>22} {'seconds':>9} {'rows/s':>10}",
            f"{'WAL replay':>22} {replay_seconds:9.3f} "
            f"{replay_rows_per_sec:10.0f}",
            f"{'checkpoint load':>22} {load_seconds:9.3f} "
            f"{load_rows_per_sec:10.0f}",
            f"WAL records replayed: {report.wal_records_applied} "
            f"({replay_records_per_sec:.0f} records/s)",
        ]),
        metrics={
            "durability_replay_rows_per_sec": replay_rows_per_sec,
            "durability_replay_records_per_sec": replay_records_per_sec,
            "durability_checkpoint_load_rows_per_sec": load_rows_per_sec,
        },
    )
