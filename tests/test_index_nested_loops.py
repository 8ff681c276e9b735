"""Index nested-loop joins and index scans in the batch engine.

The vector engine runs INNER/LEFT nested loops over a parameterised
index scan natively: a whole left batch probes the index, candidates are
fetched by row id, and the scan's post-filter and the join conjuncts run
as fused kernels.  Every shape below must agree with the row engine and
the reference evaluator on rows (in order),
work units (up to float summation order), ``operator_rows`` and EXPLAIN
ANALYZE actuals.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro import Database
from repro.engine.vector import BATCH_SIZE
from repro.engine.vector.executor import _VectorRun
from repro.errors import StatementCancelled
from repro.optimizer.plans import IndexScan, NestedLoopJoin
from repro.resilience import inject
from repro.resilience.cancel import CancelToken

EXECUTORS = ("row", "vector")

#: left rows: more than one batch, so probes span batches
N_OUTER = 1400
#: inner rows: 3 per key of the composite (k, seq) index
N_INNER = 12_000
N_KEYS = 4000


def _build_db() -> Database:
    db = Database()
    db.execute_ddl(
        "CREATE TABLE outer_t (id INT PRIMARY KEY, k INT, lo INT, tag INT, "
        "ref INT)"
    )
    db.execute_ddl(
        "CREATE TABLE inner_t (id INT PRIMARY KEY, k INT, seq INT, val INT, "
        "note VARCHAR)"
    )
    db.execute_ddl("CREATE INDEX inner_k_seq ON inner_t (k, seq)")
    rng = random.Random(5)
    # NULL probe keys on every bind column: k, lo and ref
    db.insert("outer_t", [
        {
            "id": i,
            "k": None if i % 17 == 0 else rng.randrange(N_KEYS + 40),
            "lo": None if i % 23 == 0 else rng.randint(0, 3),
            "tag": i % 10,
            "ref": None if i % 13 == 0 else rng.randrange(N_INNER + 50),
        }
        for i in range(N_OUTER)
    ])
    db.insert("inner_t", [
        {
            "id": i,
            "k": None if i % 29 == 0 else i % N_KEYS,
            "seq": i // N_KEYS,
            "val": rng.randint(0, 9),
            "note": f"n{i % 7}",
        }
        for i in range(N_INNER)
    ])
    db.analyze()
    return db


@pytest.fixture(scope="module")
def db() -> Database:
    return _build_db()


#: (sql, fragments its plan must show) — each is an index NLJ shape
SHAPES = {
    "full-key": (
        "SELECT o.id, i.val FROM outer_t o, inner_t i WHERE i.id = o.ref",
        ["NESTED LOOPS INNER", "via inner_t_pk[id=o.ref]"],
    ),
    "composite-prefix-fanout": (
        "SELECT o.id, i.val, i.seq FROM outer_t o, inner_t i "
        "WHERE i.k = o.k",
        ["NESTED LOOPS INNER", "via inner_k_seq[k=o.k]"],
    ),
    "range-bound": (
        "SELECT o.id, i.seq FROM outer_t o, inner_t i "
        "WHERE i.k = o.k AND i.seq < o.lo",
        ["NESTED LOOPS INNER", "[k=o.k, seq<o.lo]"],
    ),
    "composite-full-key": (
        "SELECT o.id, i.seq FROM outer_t o, inner_t i "
        "WHERE i.k = o.k AND i.seq = o.lo",
        ["NESTED LOOPS INNER", "[k=o.k, seq=o.lo]"],
    ),
    "inner-post-filter": (
        "SELECT o.id, i.val FROM outer_t o, inner_t i "
        "WHERE i.k = o.k AND i.note = 'n3'",
        ["NESTED LOOPS INNER", "filter[i.note = 'n3']"],
    ),
    "inner-join-conjunct": (
        "SELECT o.id, i.val FROM outer_t o, inner_t i "
        "WHERE i.k = o.k AND i.val > o.tag",
        ["NESTED LOOPS INNER on[i.val > o.tag]"],
    ),
    "left-post-filter": (
        "SELECT o.id, i.val FROM outer_t o LEFT JOIN inner_t i "
        "ON i.k = o.k AND i.val > 6",
        ["NESTED LOOPS LEFT", "filter[i.val > 6]"],
    ),
    "left-join-conjunct": (
        "SELECT o.id, i.val, i.rowid FROM outer_t o LEFT JOIN inner_t i "
        "ON i.id = o.ref AND i.val > o.tag",
        ["NESTED LOOPS LEFT on[i.val > o.tag]"],
    ),
    "three-table-chain": (
        "SELECT o.id, i.val, p.val FROM outer_t o, inner_t i, inner_t p "
        "WHERE i.id = o.ref AND p.id = i.k",
        ["via inner_t_pk[id=o.ref]", "via inner_t_pk[id=i.k]"],
    ),
}


def _assert_engines_agree(db: Database, optimized, expected: Counter):
    results = {
        mode: db.execute_plan(optimized, executor=mode) for mode in EXECUTORS
    }
    row = results["row"]
    assert Counter(row.rows) == expected
    got = results["vector"]
    assert got.exec_stats.executor_mode == "vector"
    assert got.rows == row.rows, "rows or their order differ"
    assert got.exec_stats.rows_out == row.exec_stats.rows_out
    assert got.exec_stats.operator_rows == row.exec_stats.operator_rows
    assert math.isclose(
        got.exec_stats.work_units, row.exec_stats.work_units,
        rel_tol=1e-9,
    ), (got.exec_stats.work_units, row.exec_stats.work_units)
    return results


def _native_join_batches(db: Database, optimized) -> int:
    """Batches the vector engine's native nested-loop join emitted (its
    per-batch fault point fires once per batch, plus once at the end)."""
    with inject() as probe:
        db.execute_plan(optimized, executor="vector")
    return probe.counts.get("executor.batch.NestedLoopJoin", 0)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_index_nested_loops_match_every_engine(db, shape):
    sql, fragments = SHAPES[shape]
    optimized = db.optimize(sql)
    described = optimized.plan.describe()
    for fragment in fragments:
        assert fragment in described, described
    _assert_engines_agree(db, optimized, Counter(db.reference_execute(sql)))
    assert _native_join_batches(db, optimized) > 1


def test_post_conjuncts_reading_left_columns():
    """An index scan's post-filter may read the probing row's columns
    (they are bound while it runs); the batch engine resolves them from
    the left batch."""
    db = _build_db()  # the plan is edited in place: keep it private
    sql, _ = SHAPES["inner-join-conjunct"]
    optimized = db.optimize(sql)
    (nlj,) = [
        node for node in optimized.plan.walk()
        if isinstance(node, NestedLoopJoin)
    ]
    assert isinstance(nlj.right, IndexScan)
    nlj.right.post_conjuncts = nlj.right.post_conjuncts + nlj.conjuncts
    nlj.conjuncts = []
    assert "filter[i.val > o.tag]" in optimized.plan.describe()
    _assert_engines_agree(db, optimized, Counter(db.reference_execute(sql)))


def test_tis_subquery_with_index_probe(db):
    """A correlated subquery left under a filter runs per outer row
    (tuple iteration semantics); its plan probes the index with the
    outer row as binding."""
    sql = (
        "SELECT o.id FROM outer_t o WHERE o.tag < "
        "(SELECT COUNT(*) FROM inner_t i WHERE i.k = o.k AND i.val > 3)"
    )
    optimized = db.optimize(sql)
    assert "FILTER [o.tag < (SELECT" in optimized.plan.describe()
    results = _assert_engines_agree(
        db, optimized, Counter(db.reference_execute(sql))
    )
    for result in results.values():
        assert result.exec_stats.operator_rows.get("IndexScan", 0) > 0
        assert result.exec_stats.subquery_invocations > 1


def test_fanout_emits_bounded_batches(db, monkeypatch):
    """A left input above BATCH_SIZE whose probes fan out still emits
    batches of at most BATCH_SIZE rows."""
    sizes: list[int] = []
    original = _VectorRun._nlj_batches

    def spy(self, *args):
        for batch in original(self, *args):
            sizes.append(batch.length)
            yield batch

    monkeypatch.setattr(_VectorRun, "_nlj_batches", spy)
    sql, _ = SHAPES["composite-prefix-fanout"]
    result = db.execute(sql, executor="vector")
    assert len(result.rows) > 2 * BATCH_SIZE > N_OUTER
    assert sum(sizes) == len(result.rows)
    assert max(sizes) <= BATCH_SIZE
    assert len(sizes) >= 3


def test_explain_analyze_identical_across_engines(db):
    """The inner index scan reports the same actual rows and one
    invocation per probe, whichever engine ran the plan."""
    sql, _ = SHAPES["left-post-filter"]
    optimized = db.optimize(sql)
    renders = {
        mode: db.execute_plan(
            optimized, analyze=True, executor=mode
        ).explain_analyze(timing=False)
        for mode in EXECUTORS
    }
    assert renders["vector"] == renders["row"]
    assert f"invocations={N_OUTER})" in renders["row"]


class _TripwireToken(CancelToken):
    """Cancels itself after a fixed number of ``check()`` polls."""

    def __init__(self, trip_after: int):
        super().__init__()
        self.trip_after = trip_after

    def check(self) -> None:
        if self.checks + 1 >= self.trip_after:
            self.cancel()
        super().check()


def test_cancellation_lands_mid_stream(db):
    sql, _ = SHAPES["composite-prefix-fanout"]
    baseline = CancelToken()
    db.execute(sql, token=baseline, executor="vector")
    assert baseline.checks >= 6  # polled between the join's batches
    token = _TripwireToken(trip_after=baseline.checks // 2)
    with pytest.raises(StatementCancelled):
        db.execute(sql, token=token, executor="vector")
    assert token.checks < baseline.checks


def test_semi_join_probe_still_bridges(db):
    """SEMI/ANTI index probes stop at the first match per outer row, so
    they stay on the row engine — with identical accounting."""
    sql = (
        "SELECT o.id FROM outer_t o WHERE EXISTS "
        "(SELECT 1 FROM inner_t i WHERE i.k = o.k AND i.val = 9)"
    )
    optimized = db.optimize(sql)
    assert "NESTED LOOPS SEMI" in optimized.plan.describe()
    _assert_engines_agree(db, optimized, Counter(db.reference_execute(sql)))
    assert _native_join_batches(db, optimized) == 0
