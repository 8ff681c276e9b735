"""The fault-injection harness, the degradation ladder, and the
transformation quarantine.

Mechanics first (deterministic firing, seed-planned specs, nesting),
then the ladder: an injected transformation failure must degrade to a
correct plan with the failure attributed, quarantine the repeat
offender, and never swallow KeyboardInterrupt / SystemExit /
VerificationError in strict mode.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import Database, OptimizerConfig, ResilienceConfig
from repro.errors import FaultInjected, VerificationError
from repro.resilience import FaultInjector, FaultSpec, faults, inject
from repro.resilience.faults import injection_points

from .conftest import build_tiny_db

# crosses heuristic points (subquery_merge via EXISTS rewrite elsewhere)
# and the cost-based search: unnest/merge/jppd alternatives plus costing
SQL = (
    "SELECT e.emp_id FROM employees e "
    "WHERE e.salary > (SELECT AVG(j.start_date) FROM job_history j "
    "WHERE j.emp_id = e.emp_id)"
)

STRICT = OptimizerConfig(resilience=ResilienceConfig(fallback=False))
RESILIENT = OptimizerConfig(resilience=ResilienceConfig(fallback=True))


def transform_specs(**kwargs) -> list[FaultSpec]:
    """One spec per transformation injection point."""
    return [
        FaultSpec(point, **kwargs)
        for point in injection_points()
        if point.startswith("transform.")
    ]


def probe_points(db: Database, sql: str, config: OptimizerConfig) -> list[str]:
    """The injection points one execution actually crosses."""
    with inject() as probe:
        db.execute(sql, config)
    return sorted(probe.counts)


class TestHarnessMechanics:
    def test_disarmed_check_is_noop(self):
        assert faults.active() is None
        faults.check("transform.unnest_view")  # must not raise

    def test_fires_on_kth_invocation_only(self):
        with inject(FaultSpec("p", at=3)) as injector:
            faults.check("p")
            faults.check("p")
            with pytest.raises(FaultInjected):
                faults.check("p")
            faults.check("p")  # at=3 without repeat: fires exactly once
        assert injector.counts["p"] == 4
        assert injector.fired == [("p", 3, "raise")]

    def test_repeat_fires_on_every_invocation_past_at(self):
        with inject(FaultSpec("p", at=2, repeat=True)):
            faults.check("p")
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    faults.check("p")

    def test_custom_error_type_and_message(self):
        spec = FaultSpec("p", error=VerificationError, message="boom")
        with inject(spec), pytest.raises(VerificationError, match="boom"):
            faults.check("p")

    def test_nesting_restores_previous_injector(self):
        with inject(FaultSpec("outer")) as outer:
            with inject(FaultSpec("inner")) as inner:
                assert faults.active() is inner
            assert faults.active() is outer
        assert faults.active() is None

    def test_plan_is_seed_deterministic(self):
        a = FaultInjector.plan(seed=7)
        b = FaultInjector.plan(seed=7)
        assert (a.specs[0].point, a.specs[0].at) == (
            b.specs[0].point, b.specs[0].at,
        )
        assert a.specs[0].point in injection_points()

    def test_injection_points_cover_every_layer(self):
        points = injection_points()
        assert any(p.startswith("transform.") for p in points)
        assert any(p.startswith("executor.") for p in points)
        assert "cbqt.costing" in points
        assert "plan_cache.lookup" in points
        assert "plan_cache.store" in points


class TestDegradationLadder:
    @pytest.fixture()
    def db(self) -> Database:
        return build_tiny_db()

    def test_strict_mode_propagates_with_blame(self, db):
        with inject(*transform_specs(repeat=True)):
            with pytest.raises(FaultInjected) as excinfo:
                db.execute(SQL, STRICT)
        assert getattr(excinfo.value, "transformation", None)

    def test_fallback_rescues_with_correct_rows(self, db):
        expected = Counter(db.reference_execute(SQL))
        with inject(*transform_specs(repeat=True)):
            result = db.execute(SQL, RESILIENT)
        assert Counter(result.rows) == expected
        degradation = result.report.degradation
        assert degradation is not None
        assert degradation.level in ("cbqt-discard", "heuristic", "untransformed")
        assert degradation.attempts >= 2
        assert degradation.blamed
        assert degradation.errors

    def test_single_fault_discards_only_the_culprit(self, db):
        expected = Counter(db.reference_execute(SQL))
        assert "transform.unnest_view" in probe_points(db, SQL, RESILIENT)
        with inject(FaultSpec("transform.unnest_view", repeat=True)):
            result = db.execute(SQL, RESILIENT)
        assert Counter(result.rows) == expected
        assert result.report.degradation is not None
        assert result.report.degradation.blamed == ["unnest_view"]
        # full CBQT minus the culprit, not a deeper fall
        assert result.report.degradation.level == "cbqt-discard"

    def test_degradation_surfaces_in_explain(self, db):
        with inject(*transform_specs(repeat=True)):
            text = db.optimize(SQL, RESILIENT).explain()
        assert "-- degraded:" in text

    def test_costing_fault_degrades_to_heuristic(self, db):
        expected = Counter(db.reference_execute(SQL))
        with inject(FaultSpec("cbqt.costing", repeat=True)):
            result = db.execute(SQL, RESILIENT)
        assert Counter(result.rows) == expected

    def test_timeout_never_degrades(self, db):
        # a user limit must abort, not walk the ladder
        from repro.errors import StatementTimeout

        with pytest.raises(StatementTimeout):
            db.execute(SQL, RESILIENT, timeout=0.0)


class TestNoSwallowedInterrupts:
    """No handler in transform/ or cbqt/ may eat control-flow exceptions
    or sanitizer verdicts — proven by injecting them at live points."""

    @pytest.fixture()
    def db(self) -> Database:
        return build_tiny_db()

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupts_escape_the_ladder(self, db, interrupt):
        points = probe_points(db, SQL, RESILIENT)
        for point in points:
            with inject(FaultSpec(point, error=interrupt)):
                with pytest.raises(interrupt):
                    db.execute(SQL, RESILIENT)

    def test_verification_error_escapes_in_strict_mode(self, db):
        points = [
            p for p in probe_points(db, SQL, STRICT)
            if p.startswith("transform.")
        ]
        for point in points:
            with inject(FaultSpec(point, error=VerificationError)):
                with pytest.raises(VerificationError):
                    db.execute(SQL, STRICT)


class TestQuarantine:
    def _db(self) -> Database:
        db = build_tiny_db()
        db.config = OptimizerConfig(
            resilience=ResilienceConfig(
                fallback=True, quarantine_statement_threshold=2
            )
        )
        # thresholds are read at Database construction; rebuild the ledger
        db.quarantine.statement_threshold = 2
        return db

    def test_repeat_offender_is_quarantined_then_skipped(self):
        db = self._db()
        point, name = "transform.unnest_view", "unnest_view"
        assert point in probe_points(db, SQL, db.config)
        for _ in range(2):
            with inject(FaultSpec(point, repeat=True)):
                db.execute(SQL)
        assert db.quarantine.failures(name) == 2
        assert db.quarantine.is_quarantined(name, " ".join(SQL.split()))

        # quarantined: the transformation is skipped up front, so the
        # armed fault never fires and no degradation is needed
        with inject(FaultSpec(point, repeat=True)) as injector:
            result = db.execute(SQL)
        assert name in result.report.quarantined
        assert result.report.degradation is None
        assert injector.fired == []

    def test_reset_lifts_quarantine_and_bumps_epoch(self):
        db = self._db()
        db.quarantine.record_failure("unnest_view", "sig")
        db.quarantine.record_failure("unnest_view", "sig")
        assert db.quarantine.is_quarantined("unnest_view", "sig")
        epoch = db.quarantine.epoch
        db.quarantine.reset("unnest_view")
        assert not db.quarantine.is_quarantined("unnest_view", "sig")
        assert db.quarantine.epoch == epoch + 1

    def test_global_threshold_spans_statements(self):
        db = self._db()
        db.quarantine.global_threshold = 3
        for i in range(3):
            db.quarantine.record_failure("jppd", f"sig-{i}")
        assert db.quarantine.is_quarantined("jppd", "never-seen")

    def test_format_table_lists_offenders(self):
        db = self._db()
        db.quarantine.record_failure("jppd", "sig")
        text = db.quarantine.format_table()
        assert "jppd" in text
        assert "epoch" in text
