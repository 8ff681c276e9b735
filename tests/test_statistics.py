"""Statistics and histogram tests."""

import sys
import threading

import pytest

from repro.catalog.statistics import (
    Histogram,
    StatisticsRegistry,
    TableStats,
    collect_statistics,
    sample_statistics,
    stats_to_dict,
)


def rows_of(values, column="x"):
    return [{column: v} for v in values]


class TestCollectStatistics:
    def test_basic_counts(self):
        stats = collect_statistics(rows_of([1, 2, 2, None, 5]), ["x"])
        assert stats.row_count == 5
        col = stats.column("x")
        assert col.num_distinct == 3
        assert col.num_nulls == 1
        assert col.min_value == 1
        assert col.max_value == 5

    def test_empty_table(self):
        stats = collect_statistics([], ["x"])
        assert stats.row_count == 0
        assert stats.column("x").num_distinct == 0
        assert stats.column("x").min_value is None

    def test_all_null_column(self):
        stats = collect_statistics(rows_of([None, None]), ["x"])
        col = stats.column("x")
        assert col.num_nulls == 2
        assert col.histogram is None

    def test_null_fraction(self):
        stats = collect_statistics(rows_of([1, None, None, None]), ["x"])
        assert stats.column("x").null_fraction(4) == pytest.approx(0.75)


class TestHistogram:
    def test_frequency_mode_for_low_ndv(self):
        hist = Histogram([1, 1, 1, 2, 2, 3], buckets=8)
        assert hist.is_frequency
        assert hist.selectivity_eq(1, ndv=3) == pytest.approx(0.5)
        assert hist.selectivity_eq(99, ndv=3) == 0.0

    def test_equi_height_mode(self):
        values = list(range(1000))
        hist = Histogram(values, buckets=10)
        assert not hist.is_frequency
        # uniform data: selectivity of x <= 500 is about half
        sel = hist.selectivity_range(None, 500)
        assert 0.4 < sel < 0.6

    def test_range_out_of_bounds(self):
        hist = Histogram(list(range(100)), buckets=4)
        assert hist.selectivity_range(200, None) == pytest.approx(0.0)
        assert hist.selectivity_range(None, -5) == pytest.approx(0.0)
        assert hist.selectivity_range(None, None) == pytest.approx(1.0)

    def test_eq_out_of_range_is_zero(self):
        hist = Histogram(list(range(100)), buckets=4)
        assert hist.selectivity_eq(5000, ndv=100) == 0.0

    def test_frequency_range(self):
        hist = Histogram([1, 2, 2, 3, 3, 3], buckets=8)
        assert hist.selectivity_range(2, 3) == pytest.approx(5 / 6)
        assert hist.selectivity_range(2, 3, low_inclusive=False) == pytest.approx(0.5)

    def test_skewed_data_equi_height(self):
        values = [1] * 900 + list(range(2, 102))
        hist = Histogram(values, buckets=10)
        sel = hist.selectivity_range(None, 1)
        assert sel > 0.7  # most mass at 1


class TestSampling:
    def test_sample_scales_row_count(self):
        rows = rows_of(list(range(1000)))
        stats = sample_statistics(rows, ["x"], sample_fraction=0.1, seed=1)
        assert stats.row_count == 1000
        assert stats.sampled
        # NDV scaled up, bounded by row count
        assert 100 <= stats.column("x").num_distinct <= 1000

    def test_sample_deterministic(self):
        rows = rows_of(list(range(500)))
        a = sample_statistics(rows, ["x"], seed=9)
        b = sample_statistics(rows, ["x"], seed=9)
        assert a.column("x").num_distinct == b.column("x").num_distinct

    def test_sample_empty(self):
        stats = sample_statistics([], ["x"])
        assert stats.row_count == 0

    def test_sampling_a_prefix_matches_sampling_its_copy(self):
        rows = rows_of([i % 37 for i in range(1000)])
        prefix = sample_statistics(rows, ["x"], seed=5, row_count=600)
        copied = sample_statistics(rows[:600], ["x"], seed=5)
        assert stats_to_dict(prefix) == stats_to_dict(copied)
        assert prefix.row_count == 600


class TestRegistry:
    def test_set_get_drop(self):
        registry = StatisticsRegistry()
        registry.set("T", TableStats(row_count=7))
        assert registry.get("t").row_count == 7
        assert registry.record_insert("T", 8)  # 1 row is over 10% of 7
        assert registry.get("t") is None

    def test_clear(self):
        registry = StatisticsRegistry()
        registry.set("a", TableStats(row_count=1))
        registry.clear()
        assert registry.get("a") is None

    def test_record_insert_threshold(self):
        registry = StatisticsRegistry()
        registry.set("t", TableStats(row_count=50))
        version = registry.version
        assert not registry.record_insert("t", 55)  # exactly 10%
        assert registry.get("t") is not None
        assert registry.version == version
        assert registry.record_insert("t", 56)
        assert registry.get("t") is None
        assert registry.version == version + 1
        assert registry.bases() == {"t": 56}
        # a table nobody recorded has a basis of 0: stale on first rows
        assert registry.record_insert("u", 1)
        assert not registry.record_insert("u", 1)

    def test_concurrent_inserts_lose_no_version_bump(self):
        """Threads racing inserts across the threshold: every stale drop
        bumps the version exactly once and no basis outruns the rows."""
        from repro import Database

        db = Database()
        db.execute_ddl("CREATE TABLE c (id INT PRIMARY KEY)")
        db.insert("c", [{"id": i} for i in range(10)])
        db.analyze("c")
        version = db.statistics.version
        drops = db.statistics.snapshot()["stale_drops"]
        next_id = iter(range(10, 10_000))
        id_lock = threading.Lock()

        def worker():
            for _ in range(40):
                with id_lock:
                    ids = [next(next_id) for _ in range(3)]
                db.insert("c", [{"id": i} for i in ids])

        threads = [threading.Thread(target=worker) for _ in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = db.statistics.snapshot()
        assert snap["stale_drops"] > drops
        assert db.statistics.version == version + snap["stale_drops"] - drops
        assert db.statistics.bases()["c"] <= db.storage.get("c").row_count
