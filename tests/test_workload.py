"""Workload substrate tests: schema generation, query generation,
runner, and top-N aggregation."""

import pytest

from repro import OptimizerConfig
from repro.workload import (
    AppsSchemaBuilder,
    MixWeights,
    QueryGenerator,
    apps_database,
    degradation_stats,
    optimization_time_increase_percent,
    register_workload_functions,
    run_workload,
    top_n_curve,
)
from repro.workload.runner import ConfigMeasurement, QueryOutcome
from repro.workload.querygen import GeneratedQuery


@pytest.fixture(scope="module")
def small_apps():
    db, schema = apps_database(
        seed=5,
        modules=("hr", "fin"),
        masters_per_module=1,
        details_per_module=2,
        histories_per_module=1,
        detail_rows=300,
        history_rows=600,
    )
    register_workload_functions(db)
    return db, schema


class TestSchemaGeneration:
    def test_deterministic(self):
        db1, s1 = apps_database(seed=9, modules=("hr",), detail_rows=100,
                                history_rows=100)
        db2, s2 = apps_database(seed=9, modules=("hr",), detail_rows=100,
                                history_rows=100)
        assert sorted(s1.tables) == sorted(s2.tables)
        table = next(iter(s1.tables))
        assert db1.storage.get(table).rows == db2.storage.get(table).rows

    def test_fk_edges_reference_existing_tables(self, small_apps):
        _db, schema = small_apps
        for info in schema.tables.values():
            for _col, parent, _pk in info.fk_edges:
                assert parent in schema.tables

    def test_sizes_follow_kind_ordering(self, small_apps):
        db, schema = small_apps
        masters = [db.storage.get(t.name).row_count
                   for t in schema.tables_of_kind("master")]
        histories = [db.storage.get(t.name).row_count
                     for t in schema.tables_of_kind("history")]
        assert max(masters) < min(histories)

    def test_statistics_collected(self, small_apps):
        db, schema = small_apps
        for name in schema.tables:
            assert db.statistics.get(name) is not None


class TestQueryGeneration:
    def test_mix_ratio_roughly_respected(self, small_apps):
        _db, schema = small_apps
        generator = QueryGenerator(schema, seed=1)
        queries = generator.generate(400)
        simple = sum(1 for q in queries if q.query_class == "spj")
        assert 0.85 <= simple / len(queries) <= 0.97

    def test_deterministic_generation(self, small_apps):
        _db, schema = small_apps
        a = QueryGenerator(schema, seed=4).generate(30)
        b = QueryGenerator(schema, seed=4).generate(30)
        assert [q.sql for q in a] == [q.sql for q in b]

    def test_all_classes_produce_runnable_sql(self, small_apps):
        db, schema = small_apps
        generator = QueryGenerator(schema, seed=2)
        for name, _weight in MixWeights().items():
            query = generator.generate_class(name)
            result = db.execute(query.sql)  # must not raise
            assert result.rows is not None

    def test_relevance_tags(self, small_apps):
        _db, schema = small_apps
        generator = QueryGenerator(schema, seed=3)
        agg = generator.generate_class("agg_subquery")
        assert "unnest_view" in agg.relevant
        spj = generator.generate_class("spj")
        assert not spj.relevant


class TestRunner:
    def test_runner_produces_outcomes(self, small_apps):
        db, schema = small_apps
        queries = QueryGenerator(schema, seed=6).generate(12)
        result = run_workload(
            db, queries, OptimizerConfig.heuristic_mode(), OptimizerConfig()
        )
        assert not result.errors
        assert len(result.outcomes) == 12

    def test_relevant_to_filter(self, small_apps):
        db, schema = small_apps
        generator = QueryGenerator(schema, seed=8)
        queries = [
            generator.generate_class("agg_subquery"),
            generator.generate_class("spj"),
        ]
        result = run_workload(db, queries, OptimizerConfig(), OptimizerConfig())
        assert len(result.relevant_to("unnest_view")) == 1


def make_outcome(name, base_time, treated_time, base_states=1,
                 treated_states=1):
    query = GeneratedQuery(name, "SELECT 1", "spj")

    def measurement(t, states):
        return ConfigMeasurement(
            exec_work=t, opt_states=states, opt_enumerations=states,
            opt_seconds=0.0, exec_seconds=0.0, plan_text=name + str(t),
            rows=0,
        )

    return QueryOutcome(
        query, measurement(base_time, base_states),
        measurement(treated_time, treated_states),
    )


class TestTopNAggregation:
    def test_curve_ranks_by_baseline(self):
        outcomes = [
            make_outcome("slow", 1000.0, 100.0),   # 10x better
            make_outcome("fast", 10.0, 10.0),      # unchanged
        ]
        curve = top_n_curve(outcomes, fractions=(0.5, 1.0))
        # top 50% = the slow query only: +900%
        assert curve[0].n_queries == 1
        assert curve[0].improvement_percent == pytest.approx(642.9, abs=5)
        assert curve[1].improvement_percent < curve[0].improvement_percent

    def test_degradation_stats(self):
        outcomes = [
            make_outcome("better", 100.0, 50.0),
            make_outcome("worse", 100.0, 150.0),
            make_outcome("same", 100.0, 100.0),
        ]
        stats = degradation_stats(outcomes)
        assert stats.n_degraded == 1
        assert stats.degraded_percent_of_queries == pytest.approx(100 / 3)
        assert stats.average_degradation_percent == pytest.approx(35.7, abs=1)

    def test_optimization_time_increase(self):
        outcomes = [
            make_outcome("a", 1.0, 1.0, base_states=2, treated_states=3),
            make_outcome("b", 1.0, 1.0, base_states=2, treated_states=3),
        ]
        assert optimization_time_increase_percent(outcomes) == pytest.approx(50.0)

    def test_memo_served_treated_shows_as_decrease(self):
        # a treated run that paid fewer join-order enumerations than its
        # baseline (zero here) shows as a negative increase
        outcomes = [
            make_outcome("a", 1.0, 1.0, base_states=2, treated_states=0),
        ]
        assert optimization_time_increase_percent(outcomes) == pytest.approx(
            -100.0
        )

    def test_improvement_ratio(self):
        outcome = make_outcome("x", 200.0, 100.0)
        assert outcome.improvement_ratio == pytest.approx(
            (200.0 + 40.0) / (100.0 + 40.0)
        )
