"""Row vs vectorized executor: microbench + paper-figure queries.

The vectorized engine must pay for itself: this bench runs the same
optimized plans through the row-at-a-time and batch engines (identical
plans, identical work units — only the interpretation loop differs) and
reports wall-clock speedups as ``executor_speedup_*`` metrics.

Speedups are *ratios of paired runs on the same machine*, so they are
stable enough to gate: the committed baselines fail the build when a
speedup drops by more than the regression tolerance (direction:
higher is better).

Targets (asserted here, gated in CI):

* >= 3x median speedup across the wide-table scan/filter/aggregate
  microbench;
* >= 1.5x on at least one paper-figure query.

``executor_speedup_index_nl`` (an index nested-loop join: the wide
table probing a primary key) and ``executor_speedup_hash_join`` (a
selective hash join: the wide table probing a small filtered dimension
on a unique key) are reported and gated beside them.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import Counter
from pathlib import Path

from repro import Database

from conftest import QUICK, record_report

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
import paper_queries  # noqa: E402

WIDE_ROWS = 12_000 if QUICK else 40_000
REPEATS = 3 if QUICK else 5

#: wide-table microbench: selective conjunctive filter, grouped
#: aggregation, and expression-heavy projection — the shapes the
#: compiled kernels target
MICRO_QUERIES = {
    "scan_filter": (
        "SELECT a, b FROM wide WHERE c > 3 AND e < 20 AND d IS NOT NULL"
    ),
    "aggregate": "SELECT b, COUNT(*), SUM(a), MIN(e) FROM wide GROUP BY b",
    "projection": (
        "SELECT a + b, c * 2, CASE WHEN d IS NULL THEN 0 ELSE d END "
        "FROM wide"
    ),
}

#: index nested loops: the wide table's foreign key probes the lookup
#: table's primary key once per qualifying wide row
INDEX_NL_QUERY = (
    "SELECT w.a, w.b, l.v FROM wide w, lookup l WHERE l.id = w.a AND w.c > 3"
)

#: hash join without fan-out: every wide row probes a hash table of
#: about 90 dimension rows (unique ids) and about one in eleven matches
#: (the alias ``x`` sorts after ``w``, which makes the wide side probe)
HASH_JOIN_QUERY = (
    "SELECT w.a, w.b, x.v FROM wide w, dim x WHERE x.id = w.a AND x.w = 3"
)

#: paper worked examples (see tests/paper_queries.py); Q4/Q5 are the
#: join-elimination candidates whose post-transformation plans are pure
#: scan/filter/join pipelines — exactly the batch engine's native path
PAPER_QUERIES = {
    "paper_q2": paper_queries.Q2,
    "paper_q4": paper_queries.Q4,
}


def _wide_db() -> Database:
    db = Database()
    db.execute_ddl(
        "CREATE TABLE wide (a INT, b INT, c INT, d INT, e INT, f INT)"
    )
    db.insert(
        "wide",
        [
            {
                "a": i % 1000,
                "b": i % 97,
                "c": i % 13,
                "d": i % 7 if i % 10 else None,
                "e": i % 29,
                "f": i % 5,
            }
            for i in range(WIDE_ROWS)
        ],
    )
    db.execute_ddl("CREATE TABLE lookup (id INT PRIMARY KEY, v INT, w INT)")
    db.insert(
        "lookup", [{"id": i, "v": i % 37, "w": i % 11} for i in range(20_000)]
    )
    db.execute_ddl("CREATE TABLE dim (id INT, v INT, w INT)")
    db.insert(
        "dim", [{"id": i, "v": i % 37, "w": i % 11} for i in range(1000)]
    )
    db.analyze()
    return db


def _paired_speedup(db: Database, sql: str) -> tuple[float, float, float]:
    """Median wall seconds for the row and vector engines over the *same*
    optimized plan, interleaved so cache warmth hits both equally."""
    optimized = db.optimize(sql)
    row_times, vector_times = [], []
    expected = Counter(db.execute_plan(optimized, executor="row").rows)
    for _ in range(REPEATS):
        started = time.perf_counter()
        db.execute_plan(optimized, executor="row")
        row_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        got = db.execute_plan(optimized, executor="vector")
        vector_times.append(time.perf_counter() - started)
        assert Counter(got.rows) == expected, "engines disagree on rows"
    row_s = statistics.median(row_times)
    vector_s = statistics.median(vector_times)
    return row_s, vector_s, row_s / vector_s


def test_vector_executor_speedup(hr_db):
    wide = _wide_db()
    lines = [
        "row vs vectorized executor (same plans, paired runs)",
        f"{'query':>14} {'row ms':>9} {'vector ms':>10} {'speedup':>8}",
    ]
    metrics: dict[str, float] = {}
    micro_speedups = []

    for name, sql in MICRO_QUERIES.items():
        row_s, vector_s, speedup = _paired_speedup(wide, sql)
        micro_speedups.append(speedup)
        metrics[f"executor_speedup_{name}"] = round(speedup, 2)
        lines.append(
            f"{name:>14} {row_s * 1e3:9.1f} {vector_s * 1e3:10.1f} "
            f"{speedup:7.2f}x"
        )

    paper_speedups = {}
    for name, sql in PAPER_QUERIES.items():
        row_s, vector_s, speedup = _paired_speedup(hr_db, sql)
        paper_speedups[name] = speedup
        # only q4 is gated: q2's sub-millisecond runtime makes its ratio
        # too noisy to commit as a baseline
        if name == "paper_q4":
            metrics[f"executor_speedup_{name}"] = round(speedup, 2)
        lines.append(
            f"{name:>14} {row_s * 1e3:9.1f} {vector_s * 1e3:10.1f} "
            f"{speedup:7.2f}x"
        )

    micro_median = statistics.median(micro_speedups)
    metrics["executor_speedup_micro_median"] = round(micro_median, 2)

    plan = wide.optimize(INDEX_NL_QUERY).plan.describe()
    assert "NESTED LOOPS INNER" in plan and "via lookup_pk" in plan, plan
    plan = wide.optimize(HASH_JOIN_QUERY).plan.describe()
    assert "HASH JOIN INNER on[w.a=x.id]" in plan, plan
    for name, sql in (
        ("index_nl", INDEX_NL_QUERY), ("hash_join", HASH_JOIN_QUERY)
    ):
        row_s, vector_s, speedup = _paired_speedup(wide, sql)
        metrics[f"executor_speedup_{name}"] = round(speedup, 2)
        lines.append(
            f"{name:>14} {row_s * 1e3:9.1f} {vector_s * 1e3:10.1f} "
            f"{speedup:7.2f}x"
        )
    lines.append(f"microbench median speedup: {micro_median:.2f}x")
    record_report("vectorized executor speedup", "\n".join(lines), metrics)

    assert micro_median >= 3.0, (
        f"microbench median speedup {micro_median:.2f}x below 3x target"
    )
    assert max(paper_speedups.values()) >= 1.5, (
        f"no paper query reached 1.5x: {paper_speedups}"
    )
