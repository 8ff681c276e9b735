"""Recovery: rebuild a database from ``checkpoint.json`` + the WAL tail.

The protocol, in order:

1. load the checkpoint (if any) verbatim — table definitions with their
   exact index set via :meth:`Catalog.load_table`, rows re-inserted (which
   rebuilds every index structure), statistics and their staleness
   basis, expensive-function costs;
2. scan the WAL, truncating a torn final record (the signature of a
   crash mid-append) and refusing mid-file corruption;
3. replay every record with ``lsn > checkpoint.lsn`` through the
   database's *public* mutation API — the manager is not yet attached,
   so replay does not re-log — and require the first replayed LSN to be
   exactly ``checkpoint.lsn + 1`` (anything else means records are
   missing).

Replay is deterministic: ``insert`` records carry the normalised rows
the original commit published, ``analyze`` records re-run the exact
statistics collection over identical rows, and DDL records re-derive
the same auto-indexes — so a recovered database is byte-for-byte
``state_digest``-equal to the pre-crash one, which is what
:func:`verify_recovery` (``python -m repro recover --verify``) and the
crash-chaos suite check.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..catalog.schema import index_from_dict, table_from_dict
from ..catalog.statistics import stats_from_dict, stats_to_dict
from ..errors import RecoveryError, ReproError
from .checkpoint import read_checkpoint
from .wal import read_wal, repair_wal

if TYPE_CHECKING:  # deferred: the database layer imports this package
    from ..database import Database


@dataclass
class RecoveryReport:
    """What recovery found and did; exposed as ``Database.recovery``."""

    #: LSN the loaded checkpoint was taken at (0 = no checkpoint)
    checkpoint_lsn: int = 0
    #: tables restored from the checkpoint
    checkpoint_tables: int = 0
    #: rows restored from the checkpoint
    checkpoint_rows: int = 0
    #: valid records found in the WAL
    wal_records_total: int = 0
    #: records replayed (lsn > checkpoint_lsn)
    wal_records_applied: int = 0
    #: records already covered by the checkpoint (a crash between the
    #: checkpoint rename and the WAL truncate leaves these behind)
    wal_records_skipped: int = 0
    #: bytes of torn final record dropped from the WAL
    torn_bytes_dropped: int = 0
    #: highest LSN in the recovered state
    last_lsn: int = 0

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def apply_record(db: "Database", record: dict) -> None:
    """Replay one WAL record through the public mutation API."""
    op = record.get("op")
    if op == "insert":
        db.insert(record["table"], record["rows"])
    elif op == "create_table":
        table, _ = table_from_dict(record["table"])
        db.create_table(table)
    elif op == "create_index":
        db.create_index(index_from_dict(record["index"]))
    elif op == "analyze":
        db.analyze(record.get("table"))
    elif op == "expensive_function":
        db.catalog.register_expensive_function(record["name"], record["cost"])
    else:
        raise RecoveryError(
            f"unknown WAL op {op!r} at lsn {record.get('lsn')}"
        )


def _load_checkpoint_state(
    db: "Database", state: dict, report: RecoveryReport
) -> None:
    report.checkpoint_lsn = state["lsn"]
    for entry in state.get("tables", []):
        table, indexes = table_from_dict(entry["def"])
        db.catalog.load_table(table, indexes)
        data = db.storage.create(table)
        rows = entry.get("rows", [])
        if rows:
            # re-inserting rebuilds every index structure from scratch
            data.insert(rows)
        report.checkpoint_tables += 1
        report.checkpoint_rows += len(rows)
    for name, payload in state.get("statistics", {}).items():
        db.statistics.set(name, stats_from_dict(payload))
    bases = state.get("statistics_basis")
    if bases is None:
        # a checkpoint written before the basis was persisted: analyzed
        # statistics describe their own row count, a sampled table the
        # rows it holds
        bases = {}
        for name in db.catalog.tables:  # staticcheck: ignore[lock.discipline] recovery runs before the instance is shared
            stats = db.statistics.get(name)
            bases[name] = (
                stats.row_count if stats is not None
                else db.storage.get(name).row_count
            )
    for name, basis in bases.items():
        db.statistics.restore_basis(
            name, basis, db.storage.get(name).row_count
        )
    for name, cost in state.get("expensive_functions", {}).items():
        db.catalog.register_expensive_function(name, cost)


def recover(
    db: "Database",
    wal_path: str,
    checkpoint_path: str,
    repair: bool = True,
) -> RecoveryReport:
    """Rebuild *db* (which must be empty) from the data directory.

    With ``repair=True`` (the normal open path) a torn WAL tail is
    truncated on disk; ``repair=False`` (the read-only ``--verify``
    path) leaves the files untouched."""
    report = RecoveryReport()
    state = read_checkpoint(checkpoint_path)
    try:
        if state is not None:
            _load_checkpoint_state(db, state, report)
        wal = repair_wal(wal_path) if repair else read_wal(wal_path)
        report.wal_records_total = len(wal.records)
        report.torn_bytes_dropped = wal.torn_bytes
        report.last_lsn = report.checkpoint_lsn
        for record in wal.records:
            lsn = record["lsn"]
            if lsn <= report.checkpoint_lsn:
                report.wal_records_skipped += 1
                continue
            if lsn != report.last_lsn + 1:
                raise RecoveryError(
                    f"WAL {wal_path}: expected lsn {report.last_lsn + 1} "
                    f"next but found {lsn} — records are missing"
                )
            apply_record(db, record)
            report.wal_records_applied += 1
            report.last_lsn = lsn
    except RecoveryError:
        raise
    except ReproError as exc:
        raise RecoveryError(
            f"replay failed against {wal_path}: {exc}"
        ) from exc
    return report


# -- verification ----------------------------------------------------------


def state_digest(db: "Database") -> dict:
    """A canonical, JSON-able digest of one database's committed state.

    Two databases that executed the same committed operations — live,
    recovered, or oracle-replayed — digest identically; row order is
    preserved deliberately (replay keeps insertion order, so a
    difference there is a real divergence)."""
    tables = {}
    for name in sorted(db.catalog.tables):  # staticcheck: ignore[lock.discipline] GIL-atomic dict read; digests run on quiesced instances
        table = db.catalog.tables[name]  # staticcheck: ignore[lock.discipline] GIL-atomic dict read; digests run on quiesced instances
        definition = table.to_dict(include_indexes=True)
        definition["indexes"] = sorted(
            definition.get("indexes", []), key=lambda ix: ix["name"]
        )
        rows = db.storage.get(name).rows if db.storage.has(name) else []
        tables[name] = {
            "def": definition,
            "rows": [
                json.dumps(row, sort_keys=True, default=str) for row in rows
            ],
        }
    return {
        "tables": tables,
        "statistics": {
            name: stats_to_dict(stats) for name, stats in db.statistics.items()
        },
        "statistics_basis": db.statistics.bases(),
        "expensive_functions": dict(db.catalog.expensive_functions),
    }


def _check_indexes(db: "Database") -> None:
    """Every index structure must cover exactly the rows whose key has
    no NULL part — the invariant insert-time maintenance guarantees and
    recovery's rebuild must reproduce."""
    for name in db.catalog.tables:  # staticcheck: ignore[lock.discipline] GIL-atomic dict read; verification runs on a private replica
        if not db.storage.has(name):
            raise RecoveryError(
                f"catalog table {name!r} has no storage after recovery"
            )
        data = db.storage.get(name)
        for index in db.catalog.tables[name].indexes:  # staticcheck: ignore[lock.discipline] GIL-atomic dict read; verification runs on a private replica
            index_data = data.index_named(index.name)
            expected = sum(
                1
                for row in data.rows
                if all(row[c] is not None for c in index.columns)
            )
            # intra-package reach into the hash map: entry count has no
            # public accessor and this is the recovery validator
            actual = sum(len(ids) for ids in index_data._hash.values())
            if actual != expected:
                raise RecoveryError(
                    f"index {index.name!r} on {name!r} covers {actual} "
                    f"rows after recovery, expected {expected}"
                )


def verify_recovery(
    data_dir: str,
    wal_path: str,
    checkpoint_path: str,
) -> RecoveryReport:
    """Read-only recovery verification (``recover --verify``).

    Replays the directory into two independent fresh databases and
    requires (a) replay to succeed, (b) both replicas to digest
    identically (replay determinism), and (c) every index to cover
    exactly its non-NULL-keyed rows.  Files are not modified."""
    from ..database import Database

    replicas = []
    reports = []
    for _ in range(2):
        db = Database()
        reports.append(recover(db, wal_path, checkpoint_path, repair=False))
        replicas.append(db)
    first, second = (state_digest(db) for db in replicas)
    if first != second:
        raise RecoveryError(
            f"replay of {data_dir} is not deterministic: two recoveries "
            "produced different states"
        )
    for db in replicas:
        _check_indexes(db)
    return reports[0]
