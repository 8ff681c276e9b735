"""The cross-statement subplan memo (:mod:`repro.optimizer.memo`).

Contract under test: the memo is a pure optimization-time win.  Plans
chosen with the memo on must be structurally identical to plans chosen
with it off (over a randomized workload, not just the paper corpus);
any catalog / statistics / costing-config change must invalidate every
entry before the next statement; an injected ``memo.lookup`` fault must
degrade the statement to memo-off — fresh work, never a wrong plan;
statements with peeked binds must skip the memo entirely.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import OptimizerConfig
from repro.optimizer.memo import PlanMemo
from repro.resilience import FaultSpec, inject
from repro.workload import (
    QueryGenerator,
    apps_database,
    register_workload_functions,
    structural_digest,
)

from .conftest import build_tiny_db

MEMO_ON = OptimizerConfig(plan_memo=True)
MEMO_OFF = OptimizerConfig(plan_memo=False)

# joins + an unnestable aggregate subquery: crosses both memo tiers
SQL = (
    "SELECT e.emp_id, d.department_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id AND e.salary > "
    "(SELECT AVG(j.start_date) FROM job_history j "
    "WHERE j.emp_id = e.emp_id)"
)


class _StubPlan:
    """Just enough Plan surface for PlanMemo unit tests."""

    def total_operator_count(self):
        return 3


class TestPlanMemoUnit:
    def test_same_fingerprint_keeps_entries_across_statements(self):
        memo = PlanMemo()
        session = memo.begin_statement(("v1",))
        session.put("sig", _StubPlan())
        assert len(memo) == 1
        again = memo.begin_statement(("v1",))
        assert again.get("sig") is not None
        assert memo.stats.invalidations == 0

    def test_fingerprint_mismatch_clears_and_counts_invalidation(self):
        memo = PlanMemo()
        memo.begin_statement(("v1",)).put("sig", _StubPlan())
        session = memo.begin_statement(("v2",))
        assert len(memo) == 0
        assert memo.stats.invalidations == 1
        assert session.get("sig") is None

    def test_disabled_or_peeked_statements_get_no_session(self):
        memo = PlanMemo(enabled=False)
        assert memo.begin_statement(("v1",)) is None
        peeking = PlanMemo()
        assert peeking.begin_statement(("v1",), peeked=True) is None
        assert memo.stats.disabled_statements == 1
        assert peeking.stats.disabled_statements == 1

    def test_join_tier_is_separate_from_node_tier(self):
        memo = PlanMemo()
        session = memo.begin_statement(("v1",))
        session.put("key", _StubPlan())
        assert session.join_get("key") is None
        session.join_put("key", _StubPlan())
        assert len(memo) == 2

    def test_snapshot_accounts_hits_and_share_depth(self):
        memo = PlanMemo()
        session = memo.begin_statement(("v1",))
        session.put("sig", _StubPlan())
        assert session.get("sig") is not None
        assert session.get("other") is None
        snap = memo.snapshot()
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["stores"] == 1
        assert snap["hit_rate"] == pytest.approx(0.5)
        assert snap["shared_operators"] == 3
        assert snap["max_share_depth"] == 3

    def test_explicit_invalidate_drops_everything(self):
        memo = PlanMemo()
        memo.begin_statement(("v1",)).put("sig", _StubPlan())
        memo.invalidate()
        assert len(memo) == 0
        assert memo.stats.invalidations == 1

    def test_env_knob_disables_by_default_config(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEMO", "0")
        assert OptimizerConfig().plan_memo is False
        monkeypatch.setenv("REPRO_MEMO", "1")
        assert OptimizerConfig().plan_memo is True


class TestMemoReuse:
    def test_second_parse_hits_and_skips_enumerations(self, tiny_db):
        first = tiny_db.optimize(SQL, MEMO_ON)
        second = tiny_db.optimize(SQL, MEMO_ON)
        assert second.report.memo_hits + second.report.memo_join_hits > 0
        assert second.report.join_enumerations < first.report.join_enumerations

    def test_memo_off_reports_no_hits(self, tiny_db):
        tiny_db.optimize(SQL, MEMO_OFF)
        report = tiny_db.optimize(SQL, MEMO_OFF).report
        assert report.memo_hits == 0
        assert report.memo_join_hits == 0

    def test_metrics_expose_hit_rate_and_counter(self, tiny_db):
        tiny_db.optimize(SQL, MEMO_ON)
        tiny_db.optimize(SQL, MEMO_ON)
        snap = tiny_db.metrics.snapshot()
        assert snap["plan_memo"]["hit_rate"] > 0.0
        assert snap["counters"]["optimizer.memo_hits"] > 0

    def test_peeked_binds_skip_the_memo(self):
        db = build_tiny_db()
        before = db.plan_memo.stats.disabled_statements
        db.optimize(
            "SELECT e.emp_id FROM employees e WHERE e.salary > :floor",
            MEMO_ON,
            binds={"floor": 40},
        )
        assert db.plan_memo.stats.disabled_statements == before + 1
        assert len(db.plan_memo) == 0

    def test_unpeeked_binds_still_use_the_memo(self):
        db = build_tiny_db()
        db.optimize(
            "SELECT e.emp_id FROM employees e WHERE e.salary > :floor",
            MEMO_ON,
        )
        assert len(db.plan_memo) > 0


class TestInvalidation:
    def warm(self, db):
        """Optimize twice; the second run must prove cross-statement
        reuse (fewer fresh enumerations).  Returns (warm enumeration
        count, invalidations so far)."""
        cold = db.optimize(SQL, MEMO_ON).report.join_enumerations
        warm = db.optimize(SQL, MEMO_ON).report.join_enumerations
        assert warm < cold
        assert len(db.plan_memo) > 0
        return warm, db.plan_memo.stats.invalidations

    def assert_cold(self, db, warm_enums, invalidations_before):
        """The next statement must have lost the cross-statement savings
        (the memo was cleared; intra-statement sharing may remain)."""
        report = db.optimize(SQL, MEMO_ON).report
        assert db.plan_memo.stats.invalidations == invalidations_before + 1
        assert report.join_enumerations > warm_enums

    def test_analyze_invalidates(self):
        db = build_tiny_db()
        warm_enums, before = self.warm(db)
        db.analyze()
        self.assert_cold(db, warm_enums, before)

    def test_ddl_invalidates(self):
        db = build_tiny_db()
        warm_enums, before = self.warm(db)
        db.execute_ddl("CREATE INDEX memo_inv_ix ON employees (salary)")
        self.assert_cold(db, warm_enums, before)

    def test_only_a_stale_insert_invalidates(self):
        db = build_tiny_db()
        warm_enums, before = self.warm(db)
        analyzed = db.statistics.get("employees").row_count

        def insert(count: int, first_id: int) -> None:
            db.insert("employees", [{
                "emp_id": first_id + i, "dept_id": 1, "salary": 50,
                "employee_name": first_id + i, "mgr_id": None,
            } for i in range(count)])

        # up to 10% more rows: statistics and the warm memo survive
        insert(analyzed // 10, 9001)
        report = db.optimize(SQL, MEMO_ON).report
        assert db.plan_memo.stats.invalidations == before
        assert report.join_enumerations == warm_enums
        # one more row crosses the threshold: the changed statistics may
        # change the chosen plan shape, so enumeration counts are not
        # comparable — but the populated memo must have been cleared
        # (that is what bumps the counter)
        insert(1, 9901)
        db.optimize(SQL, MEMO_ON)
        assert db.plan_memo.stats.invalidations == before + 1

    def test_costing_config_change_invalidates(self):
        db = build_tiny_db()
        _warm_enums, before = self.warm(db)
        db.optimize(SQL, OptimizerConfig(dp_threshold=2))
        assert db.plan_memo.stats.invalidations == before + 1


class TestMemoChaos:
    def test_lookup_fault_degrades_to_fresh_work_not_wrong_plan(self):
        clean = build_tiny_db()
        expected_rows = Counter(clean.reference_execute(SQL))
        expected_digest = structural_digest(clean.optimize(SQL, MEMO_OFF).plan)

        db = build_tiny_db()
        with inject(FaultSpec("memo.lookup", at=1, repeat=True)):
            result = db.execute(SQL, MEMO_ON)
        assert Counter(result.rows) == expected_rows
        assert structural_digest(result.plan) == expected_digest
        assert db.plan_memo.stats.faults >= 1

    def test_degradation_is_per_statement(self):
        db = build_tiny_db()
        with inject(FaultSpec("memo.lookup", at=1)):
            db.optimize(SQL, MEMO_ON)
        faults_after = db.plan_memo.stats.faults
        assert faults_after == 1
        # the next statements open a fresh session: memo works again
        db.optimize(SQL, MEMO_ON)
        report = db.optimize(SQL, MEMO_ON).report
        assert report.memo_hits + report.memo_join_hits > 0
        assert db.plan_memo.stats.faults == faults_after


class TestMemoDifferential:
    @pytest.fixture(scope="class")
    def workload(self):
        db, schema = apps_database(
            seed=11,
            modules=("hr", "fin"),
            masters_per_module=1,
            details_per_module=2,
            histories_per_module=1,
            detail_rows=200,
            history_rows=400,
        )
        register_workload_functions(db)
        queries = QueryGenerator(schema, seed=77).generate(24)
        return db, queries

    def test_randomized_suite_chooses_identical_plans(self, workload):
        db, queries = workload
        for query in queries:
            off = structural_digest(db.optimize(query.sql, MEMO_OFF).plan)
            cold = structural_digest(db.optimize(query.sql, MEMO_ON).plan)
            warm = structural_digest(db.optimize(query.sql, MEMO_ON).plan)
            assert off == cold, query.name
            assert off == warm, query.name

    def test_randomized_suite_returns_identical_rows(self, workload):
        db, queries = workload
        for query in queries[:6]:
            off = Counter(db.execute(query.sql, MEMO_OFF).rows)
            on = Counter(db.execute(query.sql, MEMO_ON).rows)
            assert off == on, query.name

    def test_shared_suite_run_populates_memo(self, workload):
        db, _queries = workload
        snap = db.plan_memo.snapshot()
        assert snap["hits"] + snap["join_hits"] > 0
        assert snap["entries"] > 0
