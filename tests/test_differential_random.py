"""Randomized differential testing under paranoid mode.

Generates small random queries (the workload generator's class mix,
biased hard toward the constructs the transformations rewrite), runs
each with all transformations enabled and with all of them disabled —
both under ``debug_checks`` so every intermediate tree and every CBQT
search state passes the sanitizer — and compares both result multisets
against the naive reference evaluator (``engine/reference.py``).

Any miscompare is a transformation changing query semantics; any
VerificationError is a transformation corrupting the IR; both surface
here with the transformation name attached.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import OptimizerConfig
from repro.transform.pipeline import COST_BASED_ORDER, HEURISTIC_ORDER
from repro.workload import apps_database
from repro.workload.querygen import MixWeights, QueryGenerator
from repro.workload.runner import register_workload_functions

ALL_TRANSFORMATIONS = tuple(
    cls.name for cls in HEURISTIC_ORDER + COST_BASED_ORDER
)

#: every class the generator knows, weighted toward transformation food
STRESS_WEIGHTS = MixWeights(
    spj=0.25,
    exists=0.08, not_exists=0.08, in_multi=0.08, not_in=0.08,
    agg_subquery=0.09, groupby_view=0.08, distinct_view=0.06,
    gbp=0.08, union_all=0.05, setop=0.03, or_pred=0.02,
    rownum_pullup=0.02,
)

N_QUERIES = 24


@pytest.fixture(scope="module")
def apps():
    db, schema = apps_database(
        seed=11,
        modules=("hr", "fin"),
        master_rows=30,
        detail_rows=220,
        history_rows=400,
    )
    register_workload_functions(db, cost=50.0)
    db.analyze()
    return db, schema


@pytest.fixture(scope="module")
def generated(apps):
    _db, schema = apps
    generator = QueryGenerator(schema, seed=523, weights=STRESS_WEIGHTS)
    return generator.generate(N_QUERIES)


def _configs() -> dict[str, OptimizerConfig]:
    return {
        "transforms-on": OptimizerConfig(),
        "transforms-off": OptimizerConfig().without(*ALL_TRANSFORMATIONS),
        "heuristic-mode": OptimizerConfig.heuristic_mode(),
    }


class TestDifferential:
    def test_paranoid_default_active(self, apps):
        # conftest exports REPRO_DEBUG_CHECKS=1; every optimization in
        # this module must actually run under the sanitizer
        assert OptimizerConfig().cbqt.debug_checks is True

    @pytest.mark.parametrize("config_name", list(_configs()))
    def test_random_queries_match_reference(
        self, apps, generated, config_name
    ):
        db, _schema = apps
        config = _configs()[config_name]
        mismatches = []
        for query in generated:
            expected = Counter(db.reference_execute(query.sql))
            # VerificationError propagates with the transformation blamed
            actual = Counter(db.execute(query.sql, config).rows)
            if actual != expected:
                mismatches.append(
                    f"{query.name} [{query.query_class}]: "
                    f"{sum(actual.values())} rows vs reference "
                    f"{sum(expected.values())}"
                )
        assert not mismatches, "\n".join(mismatches)

    def test_rowcounts_agree_between_modes(self, apps, generated):
        # transforms on vs off must agree with each other too (they both
        # matched the reference above; this pins the multisets directly)
        db, _schema = apps
        on, off = _configs()["transforms-on"], _configs()["transforms-off"]
        for query in generated[: N_QUERIES // 2]:
            rows_on = Counter(db.execute(query.sql, on).rows)
            rows_off = Counter(db.execute(query.sql, off).rows)
            assert rows_on == rows_off, query.name

    @pytest.mark.parametrize("executor", ["row", "vector"])
    def test_random_queries_match_reference_per_executor(
        self, apps, generated, executor
    ):
        # the same random battery through each execution engine; any
        # miscompare is the batch engine changing semantics relative to the reference evaluator
        db, _schema = apps
        mismatches = []
        for query in generated:
            expected = Counter(db.reference_execute(query.sql))
            actual = Counter(db.execute(query.sql, executor=executor).rows)
            if actual != expected:
                mismatches.append(
                    f"{query.name} [{query.query_class}] via {executor}: "
                    f"{sum(actual.values())} rows vs reference "
                    f"{sum(expected.values())}"
                )
        assert not mismatches, "\n".join(mismatches)
