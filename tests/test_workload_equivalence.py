"""End-to-end equivalence over generated workload queries: every query
class, under several optimizer configurations, must match the reference
evaluator — the strongest whole-stack invariant we can check."""

import zlib
from collections import Counter

import pytest

from repro import OptimizerConfig
from repro.optimizer.plans import IndexScan, Limit, NestedLoopJoin, ViewScan
from repro.workload import (
    MixWeights,
    QueryGenerator,
    apps_database,
    register_workload_functions,
)


def _small_apps():
    db, schema = apps_database(
        seed=13,
        modules=("hr", "oe"),
        masters_per_module=2,
        details_per_module=2,
        histories_per_module=1,
        master_rows=30,
        detail_rows=250,
        history_rows=500,
    )
    register_workload_functions(db)
    return db, schema


@pytest.fixture(scope="module")
def small_apps():
    return _small_apps()


CONFIGS = {
    "cbqt": OptimizerConfig(),
    "heuristic": OptimizerConfig.heuristic_mode(),
    "no_unnest": OptimizerConfig().without("unnest_view", "subquery_merge"),
    "two_pass": OptimizerConfig().with_strategy("two_pass"),
}

ALL_CLASSES = [name for name, _w in MixWeights().items()]


def normalized(rows):
    return Counter(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )


@pytest.mark.parametrize("query_class", ALL_CLASSES)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_class_matches_reference(small_apps, query_class, config_name):
    db, schema = small_apps
    # crc32, not hash(): str hashes are salted per process
    generator = QueryGenerator(
        schema, seed=zlib.crc32(query_class.encode()) % 1000
    )
    config = CONFIGS[config_name]
    for _ in range(3):
        query = generator.generate_class(query_class)
        expected = normalized(db.reference_execute(query.sql))
        got = normalized(db.execute(query.sql, config).rows)
        assert got == expected, query.sql


def test_iterative_strategy_on_many_objects(small_apps):
    """A query with enough subqueries to trigger the iterative strategy
    under automatic selection."""
    db, schema = small_apps
    pairs = schema.joinable_pairs()
    child, parent, fk, pk = pairs[0]
    subqueries = []
    for i in range(6):
        c2, p2, fk2, pk2 = pairs[i % len(pairs)]
        subqueries.append(
            f"p.{pk} IN (SELECT c{i}.{fk2} FROM {c2.name} c{i}, "
            f"{p2.name} q{i} WHERE c{i}.{fk2} = q{i}.{pk2} "
            f"AND q{i}.{p2.numeric_columns[0]} > {i})"
        )
    sql = (
        f"SELECT p.{pk} FROM {parent.name} p WHERE "
        + " AND ".join(subqueries)
    )
    optimized = db.optimize(sql)
    decision = optimized.report.decision_for("unnest_view")
    assert decision is not None
    assert decision.strategy == "iterative"
    assert decision.n_objects == 6
    expected = normalized(db.reference_execute(sql))
    assert normalized(db.execute(sql).rows) == expected


def _per_probe(plan):
    """True when *plan* reads aliases bound outside it: a parameterised
    nested-loop inner, whose cost the join charges once per outer row."""
    return any(
        (isinstance(node, IndexScan) and node.outer_aliases() - plan.aliases)
        or (isinstance(node, ViewScan) and node.is_lateral)
        for node in plan.walk()
    )


def _charged_children(plan):
    """The children whose whole cost the cost model adds into *plan*'s.
    COUNT STOPKEY charges only the consumed fraction of its input, and a
    parameterised inner is charged per probe (times an estimated outer
    cardinality that may be below one)."""
    if isinstance(plan, Limit):
        return []
    if isinstance(plan, NestedLoopJoin) and _per_probe(plan.right):
        return [plan.left]
    return plan.children()


def test_plan_cost_monotone_over_children():
    """A plan's cumulative cost is at least each charged child's cost.

    Exact comparison: a parent's cost is its child's cost plus
    non-negative terms, and IEEE addition of a non-negative term never
    lowers a float."""
    db, schema = _small_apps()
    generator = QueryGenerator(schema, seed=77)

    def check(plan):
        for child in _charged_children(plan):
            assert plan.cost >= child.cost, plan.describe()
        for child in plan.children():
            check(child)

    for query in generator.generate(25):
        check(db.optimize(query.sql).plan)


def test_cardinalities_are_finite_and_nonnegative(small_apps):
    db, schema = small_apps
    generator = QueryGenerator(schema, seed=78)

    def check(plan):
        assert plan.cardinality >= 0.0
        assert plan.cardinality < float("inf")
        assert plan.cost >= 0.0
        for child in plan.children():
            check(child)

    for query in generator.generate(25):
        check(db.optimize(query.sql).plan)
