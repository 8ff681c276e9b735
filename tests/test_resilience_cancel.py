"""Statement timeouts and cooperative cancellation.

Covers the token itself, timeout expiry inside optimization and inside
executor row loops, cross-thread ``Cursor.cancel()`` against a wedged
(injected-stall) operator, and the cache-hygiene guarantee: a cancelled
execution never poisons the shared plan cache.
"""

from __future__ import annotations

import threading
import time
from collections import Counter

import pytest

from repro import Database, OptimizerConfig, QueryService, ResilienceConfig
from repro.errors import StatementCancelled, StatementTimeout
from repro.resilience import CancelToken, FaultSpec, activate, current_token, inject

from .conftest import build_tiny_db

SQL = (
    "SELECT e.emp_id, d.department_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id AND e.salary > 5"
)

RESILIENT = OptimizerConfig(resilience=ResilienceConfig(fallback=True))


def _scan_stalls() -> list[FaultSpec]:
    """Stall whichever access path the plan picked for its first input."""
    return [
        FaultSpec(f"executor.{op}", kind="stall")
        for op in ("TableScan", "IndexScan", "ViewScan")
    ]


class TestCancelToken:
    def test_cancel_then_check_raises(self):
        token = CancelToken()
        token.check()  # idle token is silent
        token.cancel()
        assert token.cancelled
        with pytest.raises(StatementCancelled):
            token.check()

    def test_deadline_expiry_raises_timeout(self):
        token = CancelToken(timeout=0.01)
        token.check()
        time.sleep(0.02)
        assert token.expired()
        with pytest.raises(StatementTimeout):
            token.check()

    def test_rearming_extends_the_deadline(self):
        token = CancelToken(timeout=0.0)
        token.set_deadline(60.0)
        token.check()

    def test_checks_are_counted(self):
        token = CancelToken()
        for _ in range(3):
            token.check()
        assert token.checks == 3

    def test_activate_publishes_and_restores(self):
        outer, inner = CancelToken(), CancelToken()
        assert current_token() is None
        with activate(outer):
            assert current_token() is outer
            with activate(inner):
                assert current_token() is inner
            assert current_token() is outer
        assert current_token() is None

    def test_activate_none_is_noop(self):
        with activate(None):
            assert current_token() is None


class TestStatementTimeout:
    @pytest.fixture()
    def db(self) -> Database:
        return build_tiny_db()

    def test_expired_timeout_aborts_before_work(self, db):
        with pytest.raises(StatementTimeout):
            db.execute(SQL, timeout=0.0)

    def test_generous_timeout_returns_rows(self, db):
        expected = Counter(db.reference_execute(SQL))
        result = db.execute(SQL, timeout=30.0)
        assert Counter(result.rows) == expected

    def test_timeout_interrupts_stalled_operator(self, db):
        # wedge the scan mid-execution (whichever access path the plan
        # picked); the operator's token poll must fire the deadline long
        # before the stall gives up on its own
        specs = _scan_stalls()
        started = time.perf_counter()
        with inject(*specs, stall_limit=30.0), pytest.raises(StatementTimeout):
            db.execute(SQL, timeout=0.3)
        assert time.perf_counter() - started < 5.0

    def test_session_timeout_bumps_metric(self, db):
        service = QueryService(db)
        session = service.session()
        with pytest.raises(StatementTimeout):
            session.execute(SQL, timeout=0.0)
        assert service.cache_stats()["timeouts"] == 1


class TestCursorCancel:
    @pytest.fixture()
    def db(self) -> Database:
        return build_tiny_db()

    def test_cross_thread_cancel_interrupts_stall(self, db):
        service = QueryService(db)
        cursor = service.session().cursor(SQL)
        canceller = threading.Timer(0.2, cursor.cancel)
        specs = _scan_stalls()
        started = time.perf_counter()
        canceller.start()
        try:
            with inject(*specs, stall_limit=30.0), \
                    pytest.raises(StatementCancelled):
                cursor.execute()
        finally:
            canceller.cancel()
        assert time.perf_counter() - started < 5.0
        assert cursor.cancelled
        assert service.cache_stats()["cancellations"] == 1

    def test_pre_cancelled_cursor_refuses_to_run(self, db):
        service = QueryService(db)
        cursor = service.session().cursor(SQL)
        cursor.cancel()
        with pytest.raises(StatementCancelled):
            cursor.execute()

    def test_cancelled_execution_does_not_poison_cache(self, db):
        service = QueryService(db)
        expected = Counter(db.reference_execute(SQL))

        # warm the cache with a clean execution
        warm = service.execute(SQL)
        assert Counter(warm.rows) == expected

        # cancel mid-execution on the cached plan
        cursor = service.session().cursor(SQL)
        cursor.cancel()
        with pytest.raises(StatementCancelled):
            cursor.execute()

        # the cached plan still serves everyone else, unharmed
        after = service.execute(SQL)
        assert after.cache_status == "hit"
        assert Counter(after.rows) == expected

    def test_cancel_during_hard_parse_leaves_no_entry(self, db):
        service = QueryService(db)
        with pytest.raises(StatementCancelled):
            cursor = service.session().cursor(SQL)
            cursor.cancel()
            cursor.execute()
        assert len(service.cache) == 0
        # a later untroubled call hard-parses and caches normally
        result = service.execute(SQL)
        assert result.cache_status == "miss"
        assert len(service.cache) == 1

    def test_stall_gives_up_with_typed_error_when_never_cancelled(self, db):
        # the harness's own backstop: a stall nobody cancels raises
        # FaultInjected at stall_limit instead of hanging the suite
        from repro.errors import FaultInjected

        with inject(*_scan_stalls(), stall_limit=0.1), \
                pytest.raises(FaultInjected):
            db.execute(SQL)
