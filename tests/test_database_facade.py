"""Database facade tests: DDL, inserts, analyze, explain, reports."""

import pytest

from repro import Database, OptimizerConfig
from repro.errors import CatalogError, ExecutionError, ResolutionError


@pytest.fixture()
def db():
    database = Database()
    database.execute_ddl(
        "CREATE TABLE items (id INT PRIMARY KEY, price INT, kind INT)"
    )
    database.insert("items", [
        {"id": i, "price": i * 10, "kind": i % 3} for i in range(1, 21)
    ])
    database.analyze()
    return database


class TestDdlAndData:
    def test_create_and_insert(self, db):
        assert db.storage.get("items").row_count == 20

    def test_insert_drops_statistics_only_past_stale_threshold(self, db):
        stats = db.statistics.get("items")
        version = db.statistics.table_version("items")
        # 20 analyzed rows: up to 2 more (10%) leave the statistics alone
        db.insert("items", [{"id": 99, "price": 1, "kind": 0}])
        db.insert("items", [{"id": 98, "price": 1, "kind": 0}])
        assert db.statistics.get("items") is stats
        assert db.statistics.table_version("items") == version
        # the third inserted row crosses the threshold
        db.insert("items", [{"id": 97, "price": 1, "kind": 0}])
        assert db.statistics.get("items") is None
        assert db.statistics.table_version("items") == version + 1
        # the new basis is the row count at the drop: 23 -> 25 stays
        db.insert("items", [{"id": 96}, {"id": 95}])
        assert db.statistics.table_version("items") == version + 1

    def test_table_analyzed_empty_goes_stale_on_first_insert(self, db):
        db.execute_ddl("CREATE TABLE empty_t (id INT PRIMARY KEY)")
        db.analyze("empty_t")
        assert db.statistics.get("empty_t").row_count == 0
        db.insert("empty_t", [{"id": 1}])
        assert db.statistics.get("empty_t") is None

    def test_never_analyzed_table_samples_once_per_basis(self):
        from repro.catalog.statistics import sample_statistics, stats_to_dict

        db = Database()
        db.execute_ddl("CREATE TABLE s (id INT PRIMARY KEY, v INT)")
        db.insert("s", [{"id": i, "v": i % 13} for i in range(100)])
        sql = "SELECT s.id FROM s WHERE s.v = 3"
        db.optimize(sql)
        sampler = db._sampling_cache
        assert sampler.stats.misses == 1
        # three inserts up to 110 rows: none crosses the threshold
        for first, past in ((100, 103), (103, 106), (106, 110)):
            db.insert("s", [{"id": i, "v": 0} for i in range(first, past)])
            db.optimize(sql)
        assert sampler.stats.misses == 1
        rows = db.storage.get("s").rows
        assert len(rows) == 110
        expected = sample_statistics(rows[:100], ["id", "v"])
        assert stats_to_dict(sampler("s")) == stats_to_dict(expected)
        db.insert("s", [{"id": 110, "v": 0}])  # 111 rows: stale
        db.optimize(sql)
        assert sampler.stats.misses == 2
        assert sampler("s").row_count == 111

    def test_create_index_backfills(self, db):
        db.execute_ddl("CREATE INDEX items_kind ON items (kind)")
        data = db.storage.get("items")
        assert len(list(data.index_named("items_kind").scan((1,)))) > 0

    def test_ddl_rejects_select(self, db):
        with pytest.raises(CatalogError):
            db.execute_ddl("SELECT id FROM items")

    def test_pk_violation_surfaces(self, db):
        with pytest.raises(ExecutionError):
            db.insert("items", [{"id": 1, "price": 5, "kind": 0}])


class TestQueries:
    def test_execute_returns_columns(self, db):
        result = db.execute("SELECT id, price FROM items WHERE kind = 0")
        assert result.columns == ["id", "price"]
        assert all(len(row) == 2 for row in result.rows)

    def test_result_iterable_and_sized(self, db):
        result = db.execute("SELECT id FROM items")
        assert len(result) == 20
        assert len(list(result)) == 20

    def test_explain_contains_plan_and_sql(self, db):
        text = db.explain("SELECT id FROM items WHERE id = 3")
        assert "-- transformed:" in text
        assert "INDEX SCAN" in text or "TABLE SCAN" in text

    def test_optimize_exposes_report(self, db):
        optimized = db.optimize("SELECT id FROM items WHERE price > 50")
        assert optimized.estimated_cost > 0
        assert optimized.report.elapsed_seconds >= 0

    def test_unknown_table_raises(self, db):
        with pytest.raises(CatalogError):
            db.execute("SELECT x FROM missing")

    def test_unknown_column_raises(self, db):
        with pytest.raises(ResolutionError):
            db.execute("SELECT nope FROM items")

    def test_reference_execute_agrees(self, db):
        sql = "SELECT kind, COUNT(*) FROM items GROUP BY kind"
        assert sorted(db.execute(sql).rows) == sorted(db.reference_execute(sql))


class TestConfigPlumbing:
    def test_without_creates_disabled_copy(self):
        config = OptimizerConfig().without("jppd", "unnest_view")
        assert "jppd" in config.cbqt.disabled_transformations
        assert "unnest_view" in config.cbqt.disabled_transformations
        # original untouched
        assert not OptimizerConfig().cbqt.disabled_transformations

    def test_heuristic_mode_disables_cbqt(self):
        assert not OptimizerConfig.heuristic_mode().cbqt.enabled

    def test_with_strategy(self):
        config = OptimizerConfig().with_strategy("two_pass")
        assert config.cbqt.search_strategy == "two_pass"

    def test_per_call_config_override(self, db):
        default = db.execute("SELECT id FROM items")
        overridden = db.execute(
            "SELECT id FROM items", OptimizerConfig.heuristic_mode()
        )
        assert sorted(default.rows) == sorted(overridden.rows)

    def test_register_function_plumbs_through(self, db):
        db.register_function("DOUBLE_IT", lambda x: None if x is None else 2 * x)
        result = db.execute("SELECT DOUBLE_IT(price) FROM items WHERE id = 1")
        assert result.rows == [(20,)]

    def test_expensive_function_marked(self, db):
        db.register_function("COSTLY", lambda x: x, expensive_cost=500.0)
        assert db.catalog.is_expensive_function("costly")


class TestTotalTimeAccounting:
    def test_total_time_includes_states(self, db):
        result = db.execute("SELECT id FROM items WHERE price > 10")
        assert result.total_time_units >= result.work_units
        assert result.optimize_seconds >= 0.0
        assert result.execute_seconds >= 0.0
