"""Physical optimizer tests: selectivity, access paths, join ordering,
plan shapes, cost cut-off, annotation reuse."""

import pytest

from repro import OptimizerConfig
from repro.optimizer.physical import CostBudgetExceeded, PhysicalOptimizer
from repro.optimizer.annotations import AnnotationStore
from repro.optimizer.plans import (
    Filter,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Plan,
    Sort,
    TableScan,
)


def plan_for(db, sql, **kwargs):
    optimizer = PhysicalOptimizer(db.catalog, db.statistics, **kwargs)
    return optimizer.optimize(db.parse(sql)), optimizer


def find_nodes(plan: Plan, node_type) -> list[Plan]:
    found = []

    def walk(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(plan)
    return found


class TestAccessPathChoice:
    def test_selective_equality_uses_index(self, tiny_db):
        plan, _ = plan_for(
            tiny_db, "SELECT emp_id FROM employees WHERE emp_id = 7"
        )
        assert find_nodes(plan, IndexScan)

    def test_unselective_filter_uses_scan(self, tiny_db):
        plan, _ = plan_for(
            tiny_db, "SELECT emp_id FROM employees WHERE salary > 1"
        )
        assert find_nodes(plan, TableScan)
        assert not find_nodes(plan, IndexScan)

    def test_index_nl_join_on_fk(self, tiny_db):
        # departments (10 rows) driving an indexed probe into employees.
        plan, _ = plan_for(tiny_db, (
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id AND d.loc_id = 9"
        ))
        index_scans = find_nodes(plan, IndexScan)
        nl_joins = find_nodes(plan, NestedLoopJoin)
        # with the d filter being empty-selective, NL + index probe wins
        assert index_scans or find_nodes(plan, HashJoin)
        assert nl_joins or find_nodes(plan, HashJoin)


class TestJoinOrdering:
    def test_three_way_join_produces_valid_left_deep(self, tiny_db):
        plan, _ = plan_for(tiny_db, (
            "SELECT e.emp_id FROM employees e, departments d, locations l "
            "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id"
        ))
        joins = find_nodes(plan, (NestedLoopJoin, HashJoin, MergeJoin))
        assert len(joins) == 2

    def test_semijoin_partial_order_respected(self, tiny_db):
        # semijoin right side must not lead
        tree = tiny_db.parse(
            "SELECT d.dept_id FROM departments d WHERE EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)"
        )
        from repro.transform import apply_heuristic_phase

        tree = apply_heuristic_phase(tree, tiny_db.catalog)
        optimizer = PhysicalOptimizer(tiny_db.catalog, tiny_db.statistics)
        plan = optimizer.optimize(tree)
        joins = find_nodes(plan, (NestedLoopJoin, HashJoin, MergeJoin))
        assert joins
        assert joins[0].join_type == "SEMI"
        # left side of the semijoin contains departments
        assert "d" in joins[0].left.aliases

    def test_greedy_handles_many_tables(self, tiny_db):
        sql = (
            "SELECT a.emp_id FROM employees a, employees b, employees c, "
            "employees d2, departments d, locations l "
            "WHERE a.mgr_id = b.emp_id AND b.mgr_id = c.emp_id "
            "AND c.mgr_id = d2.emp_id AND a.dept_id = d.dept_id "
            "AND d.loc_id = l.loc_id"
        )
        plan, _ = plan_for(tiny_db, sql, dp_threshold=3)  # force greedy
        joins = find_nodes(plan, (NestedLoopJoin, HashJoin, MergeJoin))
        assert len(joins) == 5


class TestPlanShapes:
    def test_rownum_limit_node(self, tiny_db):
        plan, _ = plan_for(
            tiny_db, "SELECT emp_id FROM employees WHERE rownum <= 5"
        )
        limits = find_nodes(plan, Limit)
        assert limits and limits[0].count == 5

    def test_order_by_adds_sort(self, tiny_db):
        plan, _ = plan_for(
            tiny_db, "SELECT emp_id FROM employees ORDER BY salary"
        )
        assert find_nodes(plan, Sort)

    def test_stopkey_cost_includes_blocking_sort(self, tiny_db):
        cheap, _ = plan_for(
            tiny_db, "SELECT v.emp_id FROM (SELECT emp_id FROM employees) v "
            "WHERE rownum <= 3"
        )
        sorted_plan, _ = plan_for(
            tiny_db, "SELECT v.emp_id FROM (SELECT emp_id FROM employees "
            "ORDER BY salary) v WHERE rownum <= 3"
        )
        assert sorted_plan.cost > cheap.cost

    def test_tis_filter_for_unmergeable_subquery(self, tiny_db):
        plan, _ = plan_for(tiny_db, (
            "SELECT e.emp_id FROM employees e WHERE e.salary > "
            "(SELECT AVG(e2.salary) FROM employees e2 "
            "WHERE e2.dept_id = e.dept_id)"
        ))
        filters = find_nodes(plan, Filter)
        assert filters  # subquery evaluated as a TIS filter


class TestCostBudget:
    def test_budget_exceeded_raises(self, tiny_db):
        optimizer = PhysicalOptimizer(tiny_db.catalog, tiny_db.statistics)
        tree = tiny_db.parse(
            "SELECT e.emp_id FROM employees e, job_history j "
            "WHERE e.emp_id = j.emp_id"
        )
        with pytest.raises(CostBudgetExceeded):
            optimizer.optimize(tree, budget=1.0)

    def test_generous_budget_succeeds(self, tiny_db):
        optimizer = PhysicalOptimizer(tiny_db.catalog, tiny_db.statistics)
        tree = tiny_db.parse("SELECT emp_id FROM employees")
        plan = optimizer.optimize(tree, budget=1e9)
        assert plan.cost < 1e9


class TestAnnotationReuse:
    def test_identical_subtree_reuses_plan(self, tiny_db):
        store = AnnotationStore()
        optimizer = PhysicalOptimizer(
            tiny_db.catalog, tiny_db.statistics, annotations=store
        )
        tree = tiny_db.parse(
            "SELECT e.emp_id FROM employees e WHERE e.dept_id IN "
            "(SELECT d.dept_id FROM departments d WHERE d.loc_id = 1)"
        )
        optimizer.optimize(tree)
        first = optimizer.counters.blocks_optimized
        optimizer.optimize(tree.clone())
        # the second optimization is answered from the annotation store
        assert optimizer.counters.blocks_optimized == first
        assert store.stats.hits >= 1

    def test_disabled_store_always_misses(self, tiny_db):
        store = AnnotationStore(enabled=False)
        optimizer = PhysicalOptimizer(
            tiny_db.catalog, tiny_db.statistics, annotations=store
        )
        tree = tiny_db.parse("SELECT emp_id FROM employees")
        optimizer.optimize(tree)
        optimizer.optimize(tree.clone())
        assert optimizer.counters.blocks_optimized == 2
        assert store.stats.hits == 0


class TestCardinalityEstimates:
    def test_equality_on_key_estimates_one_row(self, tiny_db):
        plan, _ = plan_for(
            tiny_db, "SELECT emp_id FROM employees WHERE emp_id = 3"
        )
        assert plan.cardinality == pytest.approx(1.0, abs=0.8)

    def test_join_cardinality_reasonable(self, tiny_db):
        # FK join: |employees ⋈ departments| <= |employees|
        plan, _ = plan_for(tiny_db, (
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id"
        ))
        n_employees = tiny_db.storage.get("employees").row_count
        assert 0.3 * n_employees <= plan.cardinality <= 1.5 * n_employees

    def test_group_by_cardinality_bounded_by_ndv(self, tiny_db):
        plan, _ = plan_for(tiny_db, (
            "SELECT dept_id, COUNT(*) FROM employees GROUP BY dept_id"
        ))
        assert plan.cardinality <= 11  # 10 departments + NULL group


class TestDynamicSampling:
    def test_sampler_used_when_no_statistics(self, tiny_db):
        from repro.cbqt.caching import DynamicSamplingCache

        tiny_db.statistics.clear()
        cache = DynamicSamplingCache(
            tiny_db.storage, tiny_db.catalog, tiny_db.statistics
        )
        optimizer = PhysicalOptimizer(
            tiny_db.catalog, tiny_db.statistics, stats_sampler=cache
        )
        optimizer.optimize(tiny_db.parse(
            "SELECT emp_id FROM employees WHERE salary > 50"
        ))
        assert cache.stats.misses >= 1
        optimizer.annotations.clear()
        optimizer.optimize(tiny_db.parse(
            "SELECT emp_id FROM employees WHERE salary > 60"
        ))
        assert cache.stats.hits >= 1
