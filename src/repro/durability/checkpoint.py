"""Checkpointing: one JSON snapshot of the full database state.

A checkpoint captures the catalog (tables, indexes, expensive-function
costs), every table's committed rows, and collected statistics with each
table's staleness basis (the row count they describe), stamped
with the LSN of the last WAL record it reflects.  It is written
atomically — temp file in the same directory, flush + fsync,
``os.replace`` over the live name, directory fsync — so a crash during
checkpointing leaves either the old checkpoint or the new one, never a
torn hybrid.  Only after the rename lands is the WAL truncated; a crash
between the two is benign because recovery skips WAL records with
``lsn <= checkpoint.lsn``.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Optional

from ..catalog.statistics import stats_to_dict
from ..errors import RecoveryError
from ..resilience import faults

if TYPE_CHECKING:  # deferred: durability is imported by the database layer
    from ..catalog.schema import Catalog
    from ..catalog.statistics import StatisticsRegistry
    from ..engine.tables import Storage

#: bumped when the snapshot layout changes incompatibly
CHECKPOINT_FORMAT = 1


def build_checkpoint(
    lsn: int,
    catalog: "Catalog",
    storage: "Storage",
    statistics: "StatisticsRegistry",
) -> dict:
    """The JSON-able snapshot of the current committed state.

    The caller must hold the durability manager's lock so no commit can
    publish between reading *lsn* and reading the table versions."""
    tables = []
    for name in sorted(catalog.tables):  # staticcheck: ignore[lock.discipline] caller holds the durability manager lock, which serializes all DDL
        table = catalog.tables[name]  # staticcheck: ignore[lock.discipline] caller holds the durability manager lock, which serializes all DDL
        rows = storage.get(name).rows if storage.has(name) else []
        tables.append({
            "def": table.to_dict(include_indexes=True),
            "rows": rows,
        })
    return {
        "format": CHECKPOINT_FORMAT,
        "lsn": lsn,
        "tables": tables,
        "statistics": {
            name: stats_to_dict(stats) for name, stats in statistics.items()
        },
        "statistics_basis": statistics.bases(),
        "expensive_functions": dict(catalog.expensive_functions),
    }


def write_checkpoint(path: str, state: dict) -> None:
    """Atomically publish *state* at *path* (see the module docstring
    for the temp-file + rename + directory-fsync protocol)."""
    faults.check("checkpoint.write")
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="ascii") as handle:
        json.dump(state, handle, sort_keys=True, separators=(",", ":"),
                  ensure_ascii=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def read_checkpoint(path: str) -> Optional[dict]:
    """Load the checkpoint at *path*; ``None`` when none was ever
    written.  An unreadable or wrong-format file raises
    :class:`~repro.errors.RecoveryError` — a checkpoint is only ever
    published whole, so damage here is not a crash artefact."""
    try:
        with open(path, encoding="ascii") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        return None
    except (OSError, ValueError) as exc:
        raise RecoveryError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict) or state.get("format") != CHECKPOINT_FORMAT:
        raise RecoveryError(
            f"checkpoint {path} has unsupported format "
            f"{state.get('format') if isinstance(state, dict) else '?'!r} "
            f"(this build reads format {CHECKPOINT_FORMAT})"
        )
    if not isinstance(state.get("lsn"), int):
        raise RecoveryError(f"checkpoint {path} carries no integer lsn")
    return state
