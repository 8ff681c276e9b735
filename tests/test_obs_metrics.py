"""The unified metrics registry (repro.obs.metrics) and its surfaces:
``Database.snapshot()``, the ``.metrics`` shell command, the ``metrics``
CLI subcommand, and the unified explain-annotation helper (the
``-- governor:`` / ``-- degraded:`` lines now assembled in one place).
"""

from __future__ import annotations

import io
import json

import pytest

from repro import OptimizerConfig, QueryService, ResilienceConfig
from repro.cli import Shell, main
from repro.obs import Counter, Histogram, MetricsRegistry, annotation_lines

# crosses transform.unnest_view (the fault point the degradation tests
# inject into); same shape as the resilience suite's running example
DEGRADED_SQL = (
    "SELECT e.emp_id FROM employees e "
    "WHERE e.salary > (SELECT AVG(j.start_date) FROM job_history j "
    "WHERE j.emp_id = e.emp_id)"
)


class TestCounter:
    def test_inc_and_reset(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        counter.reset()
        assert counter.value == 0


class TestHistogram:
    def test_snapshot_aggregates(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.record(value)
        snap = histogram.snapshot()
        assert snap["count"] == 4
        assert snap["total"] == 10.0
        assert snap["mean"] == 2.5
        assert snap["min"] == 1.0
        assert snap["max"] == 4.0
        assert snap["p50"] == 2.0

    def test_percentiles_over_reservoir(self):
        histogram = Histogram("h", reservoir=100)
        for value in range(1, 101):
            histogram.record(float(value))
        assert histogram.percentile(0.50) == 50.0
        assert histogram.percentile(0.90) == 90.0
        assert histogram.percentile(0.99) == 99.0

    def test_reservoir_bounds_memory(self):
        histogram = Histogram("h", reservoir=8)
        for value in range(1000):
            histogram.record(float(value))
        snap = histogram.snapshot()
        assert snap["count"] == 1000  # aggregates see everything
        assert snap["p50"] >= 992.0  # percentiles see the recent window

    def test_empty_snapshot(self):
        snap = Histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["mean"] == 0.0
        assert snap["p99"] == 0.0


class TestMetricsRegistry:
    def test_counter_create_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc(3)
        registry.histogram("lat").record(0.5)
        registry.register_collector("sub", lambda: {"x": 1})
        snap = registry.snapshot()
        assert snap["counters"] == {"hits": 3}
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["sub"] == {"x": 1}

    def test_broken_collector_is_contained(self):
        registry = MetricsRegistry()

        def boom() -> dict:
            raise RuntimeError("nope")

        registry.register_collector("bad", boom)
        snap = registry.snapshot()
        assert "RuntimeError" in snap["bad"]["error"]

    def test_to_json_round_trips(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        assert json.loads(registry.to_json())["counters"]["n"] == 1

    def test_format_table(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.histogram("h").record(1.0)
        text = registry.format_table()
        assert "counters" in text
        assert "histograms" in text

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.histogram("h").record(1.0)
        registry.reset()
        snap = registry.snapshot()
        assert snap["counters"]["n"] == 0
        assert snap["histograms"]["h"]["count"] == 0


class TestDatabaseSnapshot:
    def test_optimizer_and_executor_metrics_recorded(self, tiny_db):
        tiny_db.execute("SELECT e.emp_id FROM employees e")
        snap = tiny_db.snapshot()
        assert snap["counters"]["optimizer.statements"] >= 1
        assert snap["counters"]["executor.statements"] >= 1
        assert snap["histograms"]["optimizer.states"]["count"] >= 1
        assert snap["histograms"]["executor.work_units"]["total"] > 0

    def test_absorbs_quarantine_and_sampling(self, tiny_db):
        snap = tiny_db.snapshot()
        assert "quarantined_global" in snap["quarantine"]
        assert set(snap["dynamic_sampling"]) == {"hits", "misses", "entries"}

    def test_statistics_collector_reports_staleness(self, tiny_db):
        analyzed = tiny_db.statistics.get("employees").row_count  # 80

        def insert(first_id: int, count: int) -> None:
            tiny_db.insert("employees", [
                {"emp_id": first_id + i} for i in range(count)
            ])

        insert(1000, 8)  # exactly 10%: still fresh
        snap = tiny_db.snapshot()["statistics"]
        assert snap["tables"]["employees"] == {
            "basis_rows": analyzed, "rows_since_gathered": 8,
        }
        drops = snap["stale_drops"]
        insert(2000, 1)
        snap = tiny_db.snapshot()["statistics"]
        assert snap["stale_drops"] == drops + 1
        assert snap["tables"]["employees"] == {
            "basis_rows": analyzed + 9, "rows_since_gathered": 0,
        }

    def test_absorbs_plan_cache_via_service(self, tiny_db):
        service = QueryService(tiny_db)
        service.execute("SELECT e.emp_id FROM employees e")
        service.execute("SELECT e.emp_id FROM employees e")
        snap = tiny_db.snapshot()
        assert snap["plan_cache"]["hits"] == 1
        assert snap["plan_cache"]["misses"] == 1
        assert snap["plan_cache"]["capacity"] == service.cache.capacity

    def test_degradation_counted(self, tiny_db):
        from repro.resilience import FaultSpec, inject

        config = OptimizerConfig(resilience=ResilienceConfig(fallback=True))
        with inject(FaultSpec("transform.unnest_view", repeat=True)):
            tiny_db.execute(DEGRADED_SQL, config)
        counters = tiny_db.snapshot()["counters"]
        assert counters["optimizer.degradations"] >= 1
        assert any(
            name.startswith("optimizer.degraded.") for name in counters
        )

    def test_detached_metrics_cost_nothing(self, tiny_db):
        tiny_db.metrics = None
        tiny_db.execute("SELECT e.emp_id FROM employees e")
        assert tiny_db.snapshot() == {}


class TestAnnotationLines:
    def test_explain_and_shell_share_one_assembler(self, tiny_db):
        optimized = tiny_db.optimize(
            "SELECT e.emp_id FROM employees e WHERE e.salary > 10"
        )
        lines = annotation_lines(optimized.report)
        assert lines[0].startswith("-- transformed:")
        assert optimized.explain().splitlines()[: len(lines)] == lines

    def test_cache_line_comes_first(self, tiny_db):
        optimized = tiny_db.optimize("SELECT e.emp_id FROM employees e")
        lines = annotation_lines(optimized.report, cache_status="hit")
        assert lines[0] == "-- cache: hit"
        assert lines[1].startswith("-- transformed:")

    def test_degraded_line_rendered(self, tiny_db):
        from repro.resilience import FaultSpec, inject

        config = OptimizerConfig(resilience=ResilienceConfig(fallback=True))
        with inject(FaultSpec("transform.unnest_view", repeat=True)):
            optimized = tiny_db.optimize(DEGRADED_SQL, config)
        lines = annotation_lines(optimized.report)
        assert any(line.startswith("-- degraded:") for line in lines)


@pytest.fixture()
def shell():
    out = io.StringIO()
    return Shell(out=out)


def feed(shell, text: str) -> str:
    shell.run_script(text)
    return shell.out.getvalue()


SETUP = "CREATE TABLE t (id INT PRIMARY KEY, v INT);\n"


class TestCliSurfaces:
    def test_metrics_meta_command(self, shell):
        feed(shell, SETUP)
        feed(shell, "SELECT id FROM t;")
        text = feed(shell, ".metrics")
        assert "optimizer.statements" in text
        assert "plan_cache" in text

    def test_metrics_meta_json(self, shell):
        feed(shell, SETUP + "SELECT id FROM t;\n")
        shell.out.truncate(0)
        shell.out.seek(0)
        text = feed(shell, ".metrics json")
        snap = json.loads(text)
        assert snap["counters"]["executor.statements"] == 1

    def test_explain_analyze_verb(self, shell):
        feed(shell, SETUP)
        shell.db.insert("t", [{"id": i, "v": i % 3} for i in range(12)])
        feed(shell, ".analyze")
        text = feed(shell, "EXPLAIN ANALYZE SELECT id FROM t WHERE v = 1;")
        assert "actual=" in text
        assert "q=" in text
        assert "-- max q-error:" in text

    def test_explain_verb_does_not_execute(self, shell):
        feed(shell, SETUP)
        text = feed(shell, "EXPLAIN SELECT id FROM t;")
        assert "-- transformed:" in text
        assert "actual=" not in text

    def test_trace_meta_arm_and_show(self, shell):
        feed(shell, SETUP)
        shell.db.insert("t", [{"id": i, "v": i % 3} for i in range(12)])
        feed(shell, ".analyze")
        feed(shell, ".trace on")
        feed(
            shell,
            "SELECT a.id FROM t a WHERE a.v > "
            "(SELECT AVG(b.v) FROM t b WHERE b.id = a.id);",
        )
        text = feed(shell, ".trace show")
        assert "optimizer trace" in text
        feed(shell, ".trace off")
        assert shell.db.tracer is None

    def test_metrics_subcommand_json(self, tmp_path, capsys, monkeypatch):
        import sys

        script = tmp_path / "setup.sql"
        script.write_text(SETUP + "SELECT id FROM t;")
        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["metrics", "--json", str(script)]) == 0
        out = capsys.readouterr().out
        # the setup script's own output precedes the snapshot
        snap = json.loads(out[out.index("{"):])
        assert snap["counters"]["executor.statements"] == 1

    def test_explain_analyze_subcommand(self, tmp_path, capsys, monkeypatch):
        import sys

        script = tmp_path / "setup.sql"
        script.write_text(SETUP)
        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(
            ["explain-analyze", "SELECT id FROM t", str(script)]
        ) == 0
        out = capsys.readouterr().out
        assert "-- max q-error:" in out

    def test_trace_subcommand(self, tmp_path, capsys, monkeypatch):
        import sys

        script = tmp_path / "setup.sql"
        script.write_text(SETUP)
        monkeypatch.setattr(sys.stdin, "isatty", lambda: True, raising=False)
        assert main(["trace", "SELECT id FROM t", str(script)]) == 0
        assert "optimizer trace" in capsys.readouterr().out
