"""Recovery-path tests: checkpoint + WAL replay must reproduce exactly
the state the live database held.

The centerpiece is a differential property test: a randomized DML/DDL
workload runs simultaneously against a durable database and an
in-memory oracle; after every reopen (with and without interleaved
checkpoints) the two must ``state_digest``-compare equal.  The
edge-case classes cover empty/missing files, checkpoint-skip records,
and the refusal paths (unknown ops, damaged checkpoints, LSN holes).
"""

from __future__ import annotations

import json
import os
import random

import pytest

from repro import Database, DurabilityConfig
from repro.durability import (
    CHECKPOINT_FILENAME,
    WAL_FILENAME,
    read_wal,
    state_digest,
    verify_recovery,
)
from repro.durability.wal import encode_record
from repro.errors import RecoveryError


def _open(tmp_path, **kwargs) -> Database:
    return Database(
        data_dir=str(tmp_path / "data"),
        durability=DurabilityConfig(fsync="off", **kwargs),
    )


def _paths(tmp_path) -> tuple[str, str]:
    data = str(tmp_path / "data")
    return (
        os.path.join(data, WAL_FILENAME),
        os.path.join(data, CHECKPOINT_FILENAME),
    )


class TestEmptyAndMissing:
    def test_fresh_directory(self, tmp_path):
        db = _open(tmp_path)
        report = db.recovery
        assert report is not None
        assert report.checkpoint_lsn == 0
        assert report.wal_records_total == 0
        assert report.last_lsn == 0
        db.close()

    def test_empty_wal_file(self, tmp_path):
        wal_path, _ = _paths(tmp_path)
        os.makedirs(os.path.dirname(wal_path))
        open(wal_path, "wb").close()
        db = _open(tmp_path)
        assert db.recovery.wal_records_total == 0
        db.close()

    def test_reopen_of_untouched_database(self, tmp_path):
        _open(tmp_path).close()
        db = _open(tmp_path)
        assert db.recovery.wal_records_total == 0
        assert sorted(db.catalog.tables) == []
        db.close()


class TestReplay:
    def test_ddl_insert_analyze_roundtrip(self, tmp_path):
        db = _open(tmp_path)
        db.execute_ddl(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT, w INT)"
        )
        db.execute_ddl("CREATE INDEX t_v ON t (v)")
        db.insert("t", [{"id": i, "v": i % 5, "w": i * 2} for i in range(40)])
        db.analyze("t")
        db.register_function("costly", lambda x: x, expensive_cost=123.0)
        before = state_digest(db)
        db.close()

        db2 = _open(tmp_path)
        assert db2.recovery.wal_records_applied == 5
        assert state_digest(db2) == before
        # the recovered database stays queryable
        result = db2.execute("SELECT COUNT(*) FROM t WHERE v = 1")
        assert result.rows == [(8,)]
        db2.close()

    def test_checkpoint_truncates_and_reopen_skips_wal(self, tmp_path):
        wal_path, checkpoint_path = _paths(tmp_path)
        db = _open(tmp_path)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY)")
        db.insert("t", [{"id": i} for i in range(10)])
        lsn = db.checkpoint()
        assert lsn == 2
        assert os.path.getsize(wal_path) == 0
        db.insert("t", [{"id": 100}])
        before = state_digest(db)
        db.close()

        db2 = _open(tmp_path)
        report = db2.recovery
        assert report.checkpoint_lsn == 2
        assert report.checkpoint_rows == 10
        assert report.wal_records_applied == 1  # just the tail insert
        assert state_digest(db2) == before
        db2.close()
        assert os.path.exists(checkpoint_path)

    def test_stale_wal_records_below_checkpoint_are_skipped(self, tmp_path):
        """A crash between the checkpoint rename and the WAL truncate
        leaves already-checkpointed records in the log; replay must skip
        them instead of double-applying."""
        wal_path, _ = _paths(tmp_path)
        db = _open(tmp_path)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY)")
        db.insert("t", [{"id": 1}])
        wal_bytes = open(wal_path, "rb").read()
        db.checkpoint()  # truncates the WAL
        before = state_digest(db)
        db.close()
        # simulate the crash window: put the pre-checkpoint records back
        with open(wal_path, "wb") as handle:
            handle.write(wal_bytes)

        db2 = _open(tmp_path)
        assert db2.recovery.wal_records_skipped == 2
        assert db2.recovery.wal_records_applied == 0
        assert state_digest(db2) == before
        db2.close()

    def test_auto_checkpoint_every(self, tmp_path):
        wal_path, checkpoint_path = _paths(tmp_path)
        db = _open(tmp_path, checkpoint_every=3)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY)")
        db.insert("t", [{"id": 1}])
        assert not os.path.exists(checkpoint_path)
        db.insert("t", [{"id": 2}])  # record 3 -> auto checkpoint
        assert os.path.exists(checkpoint_path)
        assert os.path.getsize(wal_path) == 0
        db.close()


class TestStatisticsBasis:
    def test_recovered_instance_goes_stale_at_the_same_insert(self, tmp_path):
        """A checkpoint carries each table's staleness basis: after a
        reopen the recovered instance drops its sampled statistics at
        the same insert as a live twin, and samples the same rows."""
        from repro.catalog.statistics import stats_to_dict

        twin = Database()
        db = _open(tmp_path)
        rows = [{"id": i, "v": (i * 7) % 31} for i in range(200)]
        for target in (twin, db):
            target.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
            target.insert("t", rows)  # basis 200
            target.insert("t", [{"id": 200 + i} for i in range(15)])
        db.checkpoint()
        db.close()
        db = _open(tmp_path)
        assert db.recovery.wal_records_applied == 0
        drops = []
        for batch in range(4):
            first = 300 + batch * 3
            for target in (twin, db):
                before = target.statistics.table_version("t")
                target.insert("t", [{"id": first + i} for i in range(3)])
                drops.append(
                    (target is db, target.statistics.table_version("t") > before)
                )
            assert stats_to_dict(db._sampling_cache("t")) == stats_to_dict(
                twin._sampling_cache("t")
            )
        # 215 -> 227 rows: only the insert reaching 221 crosses 10% of 200
        assert drops == [
            (is_db, batch == 1) for batch in range(4) for is_db in (False, True)
        ]
        assert db.snapshot()["statistics"]["tables"] == (
            twin.snapshot()["statistics"]["tables"]
        )
        db.close()

    def test_checkpoint_without_basis_falls_back(self, tmp_path):
        """An older checkpoint has no basis field: analyzed statistics
        describe their own row count, a sampled table its current rows."""
        _, checkpoint_path = _paths(tmp_path)
        db = _open(tmp_path)
        db.execute_ddl("CREATE TABLE a (id INT PRIMARY KEY)")
        db.execute_ddl("CREATE TABLE s (id INT PRIMARY KEY)")
        db.insert("a", [{"id": i} for i in range(50)])
        db.analyze("a")
        db.insert("a", [{"id": 50}])
        db.insert("s", [{"id": i} for i in range(40)])
        db.insert("s", [{"id": 40}, {"id": 41}])
        db.checkpoint()
        db.close()
        with open(checkpoint_path) as handle:
            state = json.load(handle)
        assert state.pop("statistics_basis") == {"a": 50, "s": 40}
        with open(checkpoint_path, "w") as handle:
            json.dump(state, handle)
        db = _open(tmp_path)
        assert db.statistics.bases() == {"a": 50, "s": 42}
        db.close()


class TestRefusals:
    def test_unknown_op_refused(self, tmp_path):
        wal_path, _ = _paths(tmp_path)
        os.makedirs(os.path.dirname(wal_path))
        with open(wal_path, "wb") as handle:
            handle.write(encode_record({"lsn": 1, "op": "teleport"}))
        with pytest.raises(RecoveryError, match="unknown WAL op"):
            _open(tmp_path)

    def test_lsn_gap_after_checkpoint_refused(self, tmp_path):
        wal_path, _ = _paths(tmp_path)
        os.makedirs(os.path.dirname(wal_path))
        with open(wal_path, "wb") as handle:
            handle.write(encode_record({
                "lsn": 5, "op": "create_table",
                "table": {"name": "t", "columns": [
                    {"name": "id", "type": "INT", "not_null": True}
                ], "primary_key": ["id"], "unique_keys": [],
                    "foreign_keys": []},
            }))
        with pytest.raises(RecoveryError, match="records are missing"):
            _open(tmp_path)

    def test_damaged_checkpoint_refused(self, tmp_path):
        _, checkpoint_path = _paths(tmp_path)
        os.makedirs(os.path.dirname(checkpoint_path))
        with open(checkpoint_path, "w") as handle:
            handle.write('{"format": 99, "lsn": 1}')
        with pytest.raises(RecoveryError, match="unsupported format"):
            _open(tmp_path)
        with open(checkpoint_path, "w") as handle:
            handle.write("not json at all")
        with pytest.raises(RecoveryError, match="unreadable checkpoint"):
            _open(tmp_path)


class TestVerifyRecovery:
    def test_healthy_directory_verifies(self, tmp_path):
        db = _open(tmp_path)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.insert("t", [{"id": i, "v": None if i % 3 else i} for i in range(9)])
        db.analyze()
        db.close()
        report = verify_recovery(str(tmp_path / "data"), *_paths(tmp_path))
        assert report.wal_records_applied == 3

    def test_verify_is_read_only_on_torn_tail(self, tmp_path):
        wal_path, checkpoint_path = _paths(tmp_path)
        db = _open(tmp_path)
        db.execute_ddl("CREATE TABLE t (id INT PRIMARY KEY)")
        db.insert("t", [{"id": 1}])
        db.close()
        with open(wal_path, "ab") as handle:
            handle.write(b"0000002a 00000000 {\"half")  # torn tail
        size = os.path.getsize(wal_path)
        verify_recovery(str(tmp_path / "data"), wal_path, checkpoint_path)
        assert os.path.getsize(wal_path) == size  # file untouched


#: workload steps the property test draws from (weights approximate a
#: write-heavy OLTP mix with occasional DDL)
_OPS = ["insert"] * 6 + ["analyze", "create_index", "create_table"]


def _random_step(rng: random.Random, db: Database, n_tables: list[int]) -> None:
    tables = sorted(db.catalog.tables)  # staticcheck: ignore[lock.discipline] single-threaded test driver
    op = rng.choice(_OPS) if tables else "create_table"
    if op == "create_table":
        name = f"t{n_tables[0]}"
        n_tables[0] += 1
        db.execute_ddl(
            f"CREATE TABLE {name} (id INT PRIMARY KEY, a INT, b INT)"
        )
    elif op == "create_index":
        table = rng.choice(tables)
        name = f"{table}_ix{rng.randrange(10_000)}"
        if name not in db.catalog.indexes:
            db.execute_ddl(f"CREATE INDEX {name} ON {table} (a)")
    elif op == "analyze":
        db.analyze(rng.choice(tables))
    else:
        table = rng.choice(tables)
        base = db.storage.get(table).row_count
        db.insert(table, [
            {"id": base * 100 + i, "a": rng.randrange(7) or None,
             "b": rng.randrange(1000)}
            for i in range(rng.randrange(1, 9))
        ])


@pytest.mark.parametrize("seed", [101, 211, 307])
@pytest.mark.parametrize("checkpoints", [False, True])
def test_randomized_workload_recovers_identically(tmp_path, seed, checkpoints):
    """Differential oracle: durable database vs. in-memory twin running
    the identical operation stream, compared digest-for-digest across
    several close/reopen cycles."""
    rng = random.Random(seed)
    oracle_rng = random.Random(seed)
    durable = _open(tmp_path)
    oracle = Database()
    n_tables = [0]
    oracle_tables = [0]
    for cycle in range(3):
        for _ in range(12):
            _random_step(rng, durable, n_tables)
            _random_step(oracle_rng, oracle, oracle_tables)
        if checkpoints:
            durable.checkpoint()
        assert state_digest(durable) == state_digest(oracle), (
            f"digest diverged live in cycle {cycle}"
        )
        before = state_digest(durable)
        durable.close()
        durable = _open(tmp_path)
        assert state_digest(durable) == before, (
            f"recovery diverged in cycle {cycle}"
        )
    wal_path, checkpoint_path = _paths(tmp_path)
    durable.close()
    verify_recovery(str(tmp_path / "data"), wal_path, checkpoint_path)
    # the WAL on disk is exactly what read_wal reports — no tearing
    assert read_wal(wal_path).torn_bytes == 0
