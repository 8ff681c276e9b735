"""Chaos suite: sweep faults over every live injection point.

For each generated workload query, a probe run records exactly which
injection points the statement crosses (transformations applied, the
operators of its plan, costing); each of those points is then re-run
with an armed fault.  The contract under test is the resilience layer's
whole reason to exist: **every** injected fault must yield either the
correct result (rescued by the degradation ladder) or a clean typed
error — never a wrong answer, never a hang, never a non-Repro crash.

``REPRO_CHAOS_SEED`` selects the seed for the planned-fault matrix so CI
can sweep several seeds without editing the suite.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import Database, OptimizerConfig, QueryService, ResilienceConfig
from repro.errors import FaultInjected, ReproError
from repro.resilience import FaultInjector, FaultSpec, inject
from repro.resilience.faults import injection_points
from repro.workload import apps_database
from repro.workload.querygen import MixWeights, QueryGenerator
from repro.workload.runner import register_workload_functions

#: the transformation-heavy generator mix of test_differential_random,
#: trimmed to the classes that stress distinct injection points
CHAOS_WEIGHTS = MixWeights(
    spj=0.22,
    exists=0.10, not_exists=0.10, in_multi=0.10, not_in=0.08,
    agg_subquery=0.10, groupby_view=0.10, distinct_view=0.06,
    gbp=0.08, union_all=0.06,
)

N_QUERIES = 6

RESILIENT = OptimizerConfig(resilience=ResilienceConfig(fallback=True))

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "101"))


@pytest.fixture(scope="module")
def apps():
    db, schema = apps_database(
        seed=11,
        modules=("hr",),
        master_rows=20,
        detail_rows=120,
        history_rows=200,
    )
    register_workload_functions(db, cost=50.0)
    db.analyze()
    return db, schema


@pytest.fixture(scope="module")
def generated(apps):
    _db, schema = apps
    generator = QueryGenerator(schema, seed=523, weights=CHAOS_WEIGHTS)
    return generator.generate(N_QUERIES)


def run_with_fault(db: Database, sql: str, spec: FaultSpec,
                   expected: Counter) -> str:
    """One chaos probe: returns the outcome class, failing the test on
    anything other than a correct result or a clean typed error."""
    db.quarantine.reset()
    with inject(spec) as injector:
        try:
            rows = Counter(db.execute(sql, RESILIENT).rows)
        except ReproError:
            # clean typed failure (e.g. an executor operator fault, which
            # is past the optimizer and cannot be replanned away)
            return "typed-error"
        except BaseException as exc:  # noqa: BLE001 - chaos verdict
            pytest.fail(f"{spec.point}: untyped escape {type(exc).__name__}: {exc}")
    assert rows == expected, f"{spec.point}: wrong rows via fallback"
    assert injector.fired, f"{spec.point}: armed fault never fired"
    return "fallback"


class TestChaosSweep:
    def test_every_live_point_fails_safe(self, apps, generated):
        db, _schema = apps
        outcomes: Counter = Counter()
        for query in generated:
            expected = Counter(db.reference_execute(query.sql))
            db.quarantine.reset()
            with inject() as probe:
                baseline = Counter(db.execute(query.sql, RESILIENT).rows)
            assert baseline == expected, f"{query.name}: fault-free mismatch"
            assert probe.counts, f"{query.name}: no injection points crossed"
            for point in sorted(probe.counts):
                spec = FaultSpec(point, at=1, repeat=True)
                outcomes[run_with_fault(db, query.sql, spec, expected)] += 1
        # the sweep must exercise both outcome classes: optimizer-side
        # faults get rescued, executor-side faults fail typed
        assert outcomes["fallback"] > 0
        assert outcomes["typed-error"] > 0

    def test_late_faults_also_fail_safe(self, apps, generated):
        # fire on a later invocation: mid-search / mid-scan failures
        db, _schema = apps
        query = generated[0]
        expected = Counter(db.reference_execute(query.sql))
        db.quarantine.reset()
        with inject() as probe:
            db.execute(query.sql, RESILIENT)
        for point, count in sorted(probe.counts.items()):
            if count < 2:
                continue
            run_with_fault(
                db, query.sql, FaultSpec(point, at=count, repeat=True), expected
            )

    def test_seed_planned_fault_matrix(self, apps, generated):
        db, _schema = apps
        query = generated[0]
        expected = Counter(db.reference_execute(query.sql))
        for offset in range(8):
            injector = FaultInjector.plan(
                seed=CHAOS_SEED + offset, points=injection_points()
            )
            db.quarantine.reset()
            with inject(injector=injector):
                try:
                    rows = Counter(db.execute(query.sql, RESILIENT).rows)
                except ReproError:
                    continue
            assert rows == expected, (
                f"seed {CHAOS_SEED + offset} ({injector.specs[0].point}): "
                "wrong rows via fallback"
            )


class TestServiceChaos:
    """Plan-cache faults degrade to uncached execution, never failure."""

    def test_cache_lookup_fault_bypasses_cache(self, apps):
        db, _schema = apps
        service = QueryService(db)
        sql = "SELECT id FROM hr_master0 WHERE amount > 50"
        expected = Counter(db.reference_execute(sql))
        with inject(FaultSpec("plan_cache.lookup", repeat=True)):
            result = service.execute(sql, config=RESILIENT)
        assert Counter(result.rows) == expected
        assert result.cache_status == "uncached"
        assert service.cache_stats()["cache_errors"] >= 1

    def test_cache_store_fault_still_serves(self, apps):
        db, _schema = apps
        service = QueryService(db)
        sql = "SELECT id FROM hr_master0 WHERE amount > 60"
        expected = Counter(db.reference_execute(sql))
        with inject(FaultSpec("plan_cache.store", repeat=True)):
            result = service.execute(sql, config=RESILIENT)
        assert Counter(result.rows) == expected
        assert service.cache_stats()["cache_errors"] >= 1
        # nothing poisoned: the next fault-free call parses and caches
        again = service.execute(sql, config=RESILIENT)
        assert Counter(again.rows) == expected

    def test_degraded_plan_is_cached_as_degraded_and_retried(self, apps):
        db, _schema = apps
        service = QueryService(db)
        sql = (
            "SELECT d.id FROM hr_detail0 d WHERE EXISTS "
            "(SELECT 1 FROM hr_master0 m WHERE m.id = d.m0_id "
            "AND m.status = 1)"
        )
        expected = Counter(db.reference_execute(sql))
        db.quarantine.reset()
        with inject() as probe:
            db.execute(sql, RESILIENT)
        point = next(
            p for p in sorted(probe.counts) if p.startswith("transform.")
        )
        with inject(FaultSpec(point, repeat=True)):
            first = service.execute(sql, config=RESILIENT)
        assert Counter(first.rows) == expected
        assert first.report.degradation is not None
        entry = next(e for e in service.cache.entries() if e.sql == sql)
        assert entry.degraded == first.report.degradation.level

        # served degraded from cache while the quarantine stands
        second = service.execute(sql, config=RESILIENT)
        assert second.cache_status == "hit"
        assert service.cache_stats()["degraded_executions"] >= 2

        # a quarantine reset re-attempts the statement at full CBQT
        db.quarantine.reset()
        third = service.execute(sql, config=RESILIENT)
        assert third.cache_status == "retry"
        assert Counter(third.rows) == expected
        assert third.report.degradation is None
        assert service.cache_stats()["degraded_retries"] == 1
        entry = next(e for e in service.cache.entries() if e.sql == sql)
        assert entry.degraded is None
