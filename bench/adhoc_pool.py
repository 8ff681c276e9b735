"""The committed statement pool behind ``adhoc_mixed``.

``bench/expected/adhoc_mixed.pool.json`` lists, for a fixed
``QueryGenerator`` stream over a fixed applications schema, every
statement the workload may run together with its correct answer
(row count + order-insensitive checksum from the independent
``Database.reference_execute`` evaluator) and its cost class.  The
reference evaluator is ~20x slower than ``execute`` on this schema, so
the answers are computed offline (``run.py --write-expected``) and every
``--seed`` samples from the pool: each seed has an exact oracle and no
run pays for one.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

from repro import Database
from repro.errors import StatementTimeout
from repro.workload.querygen import QueryGenerator
from repro.workload.runner import register_workload_functions
from repro.workload.schemas import AppsSchema, apps_database

from stats import checksum

POOL_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "expected", "adhoc_mixed.pool.json",
)

SCHEMA_SEED = 7
GENERATOR_SEED = 2006
GENERATED = 1800
#: statements whose correct answer is larger are excluded: the paper mix
#: holds fan-out joins returning 10^5..10^6 rows, and one of them would
#: carry the whole pass
MAX_ROWS = 20_000
#: statements that ran longer than this when the pool was built are
#: excluded as well (six subquery statements of 0.2-4 s each; sampled in
#: or out they would decide a pass's throughput on their own)
MAX_BUILD_MS = 150.0


def adhoc_database() -> tuple[Database, AppsSchema]:
    """The applications schema, loaded and analyzed."""
    db, schema = apps_database(seed=SCHEMA_SEED)
    register_workload_functions(db)
    return db, schema


def pool_statements(schema: AppsSchema) -> list[str]:
    """The generator stream the pool indexes into (duplicates kept, so
    positions are stable)."""
    generator = QueryGenerator(schema, seed=GENERATOR_SEED)
    return [query.sql for query in generator.generate(GENERATED)]


def _digest(statements: list[str]) -> str:
    return hashlib.sha256("\n".join(statements).encode()).hexdigest()


def load_pool(schema: AppsSchema) -> tuple[list[str], list[list]]:
    """``(sql, [position, rows, checksum, build_ms])`` per pool entry.

    Fails when the generator no longer produces the text the answers
    were computed for - the pool must then be rebuilt."""
    with open(POOL_PATH) as handle:
        pool = json.load(handle)
    statements = pool_statements(schema)
    if _digest(statements) != pool["sql_digest"]:
        raise SystemExit(
            "bench: QueryGenerator output no longer matches "
            f"{POOL_PATH}; rebuild it with run.py --write-expected"
        )
    entries = pool["statements"]
    return [statements[entry[0]] for entry in entries], entries


def build_pool() -> dict:
    """Compute the pool from scratch (minutes: one reference evaluation
    per kept statement)."""
    db, schema = adhoc_database()
    statements = pool_statements(schema)
    entries = []
    excluded = {"duplicate": 0, "rows": 0, "slow": 0}
    seen = set()
    for position, sql in enumerate(statements):
        if sql in seen:
            excluded["duplicate"] += 1
            continue
        seen.add(sql)
        try:
            db.execute(sql, timeout=2.0)  # warm, and stops the runaways
            started = time.perf_counter()
            result = db.execute(sql, timeout=2.0)
            build_ms = (time.perf_counter() - started) * 1000.0
        except StatementTimeout:
            excluded["slow"] += 1
            continue
        if build_ms > MAX_BUILD_MS:
            excluded["slow"] += 1
            continue
        if len(result.rows) > MAX_ROWS:
            # the executor's count only spares the reference evaluator
            # the largest joins; kept statements are checked below
            excluded["rows"] += 1
            continue
        rows, total = checksum(db.reference_execute(sql))
        if (rows, total) != checksum(result.rows):
            raise SystemExit(f"bench: execute disagrees with reference: {sql}")
        entries.append([position, rows, total, round(build_ms, 3)])
    return {
        "about": "adhoc_mixed statement pool; see bench/adhoc_pool.py",
        "schema_seed": SCHEMA_SEED,
        "generator_seed": GENERATOR_SEED,
        "generated": GENERATED,
        "max_rows": MAX_ROWS,
        "max_build_ms": MAX_BUILD_MS,
        "excluded": excluded,
        "sql_digest": _digest(statements),
        "columns": ["position", "rows", "checksum", "build_ms"],
        "statements": entries,
    }


def write_pool() -> None:
    pool = build_pool()
    os.makedirs(os.path.dirname(POOL_PATH), exist_ok=True)
    with open(POOL_PATH, "w") as handle:
        # one statement per line keeps the file diffable
        head = {k: v for k, v in pool.items() if k != "statements"}
        text = json.dumps(head, indent=1)[:-2]
        rows = ",\n  ".join(json.dumps(entry) for entry in pool["statements"])
        handle.write(f'{text},\n "statements": [\n  {rows}\n ]\n}}\n')
    print(f"wrote {POOL_PATH}: {len(pool['statements'])} statements, "
          f"excluded {pool['excluded']}")
