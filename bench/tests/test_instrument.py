"""Tests of the measuring instrument itself, not of the program."""

import itertools

import pytest

import spans
import workgen
from spans import Span, Tracer
from stats import checksum, percentile, spread


# -- percentile ---------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 0.95) == 190.0  # ten samples lie beyond
    assert percentile(values, 0.5) == 100.0
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(values[:199], 0.95)
    with pytest.raises(ValueError, match="10 samples beyond"):
        percentile(values, 0.99)


@pytest.mark.parametrize("q", [0.0, 1.0, -0.1, 95])
def test_percentile_rejects_bad_quantile(q):
    with pytest.raises(ValueError, match="outside"):
        percentile([1.0] * 500, q)


def test_spread_is_interquartile_share_of_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([float(i) for i in range(1, 12)]) == pytest.approx(6 / 6)


def test_checksum_ignores_order_and_float_noise_only():
    rows = [(1, 880407.66, "a"), (2, None, "b")]
    noisy = [(2, None, "b"), (1, 880407.6600000001, "a")]
    assert checksum(rows) == checksum(noisy)
    assert checksum(rows) != checksum([(1, 880407.67, "a"), (2, None, "b")])
    assert checksum(rows) != checksum(rows[:1])


# -- spans --------------------------------------------------------------------


def test_self_time_of_nested_and_overlapping_spans():
    recorded = [
        Span("root", 0.0, 10.0, None, 0),
        Span("child", 1.0, 4.0, 0, 0),
        Span("overlap", 3.0, 6.0, 0, 0),      # overlaps its sibling
        Span("grandchild", 1.5, 2.5, 1, 0),
        Span("late", 9.0, 12.0, 0, 0),        # other thread, outlives root
    ]
    own = spans.self_times(recorded)
    assert own[0] == pytest.approx(10.0 - 5.0 - 1.0)  # [1,6] and [9,10]
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[3] == pytest.approx(1.0)
    by_name = spans.self_time_by_name(recorded)
    assert sum(spans.layer_shares({"sql.parse": 1.0, "engine.execute": 3.0}
                                  ).values()) == pytest.approx(100.0)
    assert by_name["grandchild"] == pytest.approx(1.0)


def test_tracer_links_parents_and_statements():
    tracer = Tracer()
    with tracer.span("ignored"):
        pass
    assert tracer.spans == []  # disabled outside the timed region
    tracer.enabled = True
    with tracer.span("root", statement=7) as root:
        with tracer.span("inner") as inner:
            pass
        with tracer.adopt(root):
            with tracer.span("adopted"):
                pass
    names = {s.name: s for s in tracer.spans}
    assert names["inner"].parent == root and names["inner"].statement == 7
    assert names["adopted"].parent == root
    assert names["root"].parent is None
    assert names["root"].end >= names["inner"].end >= names["inner"].start
    assert inner == 1


def test_installer_wraps_and_restores_every_binding():
    def bindings():
        return [
            (namespace, name, vars(namespace)[name])
            for _span, module, cls, attribute, _p, _c in spans.TARGETS
            for namespace, name in spans._bindings(module, cls, attribute)
        ]

    import repro.database
    import repro.server.app as app

    before = bindings()
    work_item = app.WorkItem
    # callers import the functions by name: each such global is a binding
    assert any(ns is repro.database and name == "parse_query"
               for ns, name, _ in before)
    spans.assert_unwrapped()
    with spans.installed(Tracer()):
        assert all(getattr(vars(ns)[name], "bench_wrapper", False)
                   for ns, name, _ in before)
        assert app.WorkItem is not work_item
        with pytest.raises(AssertionError, match="wrappers present"):
            spans.assert_unwrapped()
    assert all(vars(ns)[name] is original for ns, name, original in before)
    assert app.WorkItem is work_item
    spans.assert_unwrapped()


def test_installer_restores_after_an_error():
    import repro.database

    original = vars(repro.database.Database)["execute_plan"]
    with pytest.raises(RuntimeError):
        with spans.installed(Tracer()):
            raise RuntimeError("boom")
    assert vars(repro.database.Database)["execute_plan"] is original


def test_wrapped_calls_become_spans_with_counts():
    from repro import Database

    tracer = Tracer()
    with spans.installed(tracer):
        db = Database()
        db.execute_ddl("CREATE TABLE t (a INT PRIMARY KEY, b INT)")
        db.insert("t", [{"a": i, "b": i % 3} for i in range(30)])
        tracer.enabled = True
        with tracer.span("database.facade", statement=0):
            rows = db.execute("SELECT b, COUNT(*) FROM t GROUP BY b").rows
        tracer.enabled = False
    assert len(rows) == 3
    names = [s.name for s in tracer.spans]
    for expected in ("sql.parse", "qtree.build", "transform.heuristic",
                     "cbqt.search", "optimizer.physical", "engine.execute"):
        assert expected in names
    assert "engine.insert" not in names  # the load ran with tracing off
    assert all(s.statement == 0 for s in tracer.spans)
    assert tracer.counts["engine.rows_out"] == 3
    assert tracer.counts["engine.work_units"] > 0


# -- generators ---------------------------------------------------------------

PAPER = ["SELECT 1 FROM employees e"]


def _ops(seed, client, write_mix, n=60):
    return list(itertools.islice(workgen.serve_ops(seed, client, write_mix), n))


def test_generators_repeat_for_a_seed_and_differ_between_seeds():
    deep = workgen.optimize_deep_statements
    assert "\n".join(deep(11, PAPER)) == "\n".join(deep(11, PAPER))
    assert deep(11, PAPER) != deep(12, PAPER)
    assert workgen.optimize_deep_warmup(11) == workgen.optimize_deep_warmup(11)
    assert not set(workgen.optimize_deep_warmup(11)) & set(deep(11, PAPER))
    for write_mix in (False, True):
        assert repr(_ops(11, 0, write_mix)) == repr(_ops(11, 0, write_mix))
        assert _ops(11, 0, write_mix) != _ops(12, 0, write_mix)
        assert _ops(11, 0, write_mix) != _ops(11, 1, write_mix)
    costs = [float(i % 97) for i in range(1473)]
    assert workgen.adhoc_sample(11, costs, 17) == workgen.adhoc_sample(11, costs, 17)
    assert workgen.adhoc_sample(11, costs, 17) != workgen.adhoc_sample(12, costs, 17)


def test_optimize_deep_list_is_distinct_and_keeps_its_mix():
    statements = workgen.optimize_deep_statements(11, PAPER)
    assert len(set(statements)) == len(statements)
    assert len(statements) == 1 + sum(n for _k, n in workgen.OPTIMIZE_DEEP_MIX)
    # the same shapes for every seed: only literals and order change
    def shape(sql):
        return "".join(ch for ch in sql if not ch.isdigit())
    other = workgen.optimize_deep_statements(12, PAPER)
    assert sorted(map(shape, statements)) == sorted(map(shape, other))


def test_adhoc_sample_is_stratified_without_replacement():
    costs = [float(i) for i in range(1473)]
    chosen = workgen.adhoc_sample(5, costs, 17)
    assert len(chosen) == len(set(chosen)) == 17 * workgen.ADHOC_STRATA
    size = len(costs) // workgen.ADHOC_STRATA
    per_stratum = [0] * workgen.ADHOC_STRATA
    for position in chosen:
        per_stratum[int(costs[position]) // size] += 1
    assert per_stratum == [17] * workgen.ADHOC_STRATA


def test_write_mix_shares_and_insert_ids():
    ops = _ops(3, 1, True, 200)
    kinds = [op.kind for op in ops]
    assert kinds.count("read") == 140
    assert kinds.count("hard_parse") == 20
    assert kinds.count("insert") == 40
    ids = [row["id"] for op in ops if op.kind == "insert" for row in op.rows]
    assert len(set(ids)) == len(ids) == 40 * workgen.INSERT_BATCH
    assert min(ids) >= workgen.FIRST_INSERT_ID
    # another client's ids never collide, and no read can see any of them
    other = [row["id"] for op in _ops(3, 0, True, 200)
             if op.kind == "insert" for row in op.rows]
    assert not set(ids) & set(other)
    assert all(row["bucket"] >= workgen.BUCKETS
               for op in ops if op.kind == "insert" for row in op.rows)
    texts = [op.sql for op in ops if op.kind == "hard_parse"]
    assert len(set(texts)) == len(texts)
    assert all(op.kind == "read" for op in _ops(3, 1, False, 50))


def test_table_model_agrees_with_the_reference_evaluator():
    """The serve_* oracle is a plain-Python model; check the model
    itself against the program's independent evaluator once."""
    from repro import Database

    db = Database()
    for ddl in workgen.SERVE_DDL:
        db.execute_ddl(ddl)
    db.insert("items", workgen.item_rows())
    db.insert("groups", workgen.group_rows())
    for op in _ops(17, 0, True, 40):
        if op.kind == "read":
            sql = workgen.READS[op.read][0]
            got = db.reference_execute(sql, op.binds)
        elif op.kind == "hard_parse":
            got = db.reference_execute(op.sql)
        else:
            continue
        if "ORDER BY" not in (sql if op.kind == "read" else ""):
            got = sorted(got)
            assert got == sorted(map(tuple, op.expected))
        else:
            assert got == list(map(tuple, op.expected))
