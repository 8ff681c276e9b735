"""End-to-end tests of the paper's worked examples (Q1-Q17) on the HR
demo schema: transformation shapes match the paper's rewritten queries,
and every variant returns the same rows."""

from collections import Counter

import pytest

from repro import OptimizerConfig
from repro.qtree.blocks import QueryBlock, SetOpBlock
from repro.transform.base import apply_everywhere
from repro.transform.costbased import (
    GroupByViewMerging,
    JoinFactorization,
    JoinPredicatePushdown,
    SetOpIntoJoin,
    UnnestSubqueryToView,
)
from repro.transform.heuristic import JoinElimination, SubqueryMergeUnnesting

from tests import paper_queries as pq


def normalized(rows):
    """Round floats so aggregation-order differences (eager aggregation
    legitimately re-associates floating-point sums) do not fail equality."""
    return Counter(
        tuple(round(v, 6) if isinstance(v, float) else v for v in row)
        for row in rows
    )


def reference(db, sql):
    return normalized(db.reference_execute(sql))


def evaluate_tree(db, tree):
    from repro.engine.reference import ReferenceEvaluator

    return normalized(
        ReferenceEvaluator(db.storage, db.functions).evaluate(tree)
    )


class TestQ1Family:
    """Q1 -> Q10 (unnest to group-by view) -> Q11 (merge the view)."""

    def test_q10_shape(self, hr_db):
        tree = hr_db.parse(pq.Q1)
        unnest = UnnestSubqueryToView(hr_db.catalog)
        targets = unnest.find_targets(tree)
        assert len(targets) == 2  # both subqueries are unnestable
        expected = reference(hr_db, pq.Q1)
        # unnest only the aggregate subquery (the paper's Q10)
        for target in targets:
            block = tree  # single outer block
            conjunct = block.where_conjuncts[int(target.key)]
            from repro.sql import ast

            if isinstance(conjunct, ast.BinOp):  # the salary > (...) one
                tree = unnest.apply(tree, target)
                break
        views = [i for i in tree.from_items if i.is_derived]
        assert len(views) == 1
        view = views[0].subquery
        assert view.group_by and view.has_aggregates
        assert evaluate_tree(hr_db, tree) == expected

    def test_q11_shape(self, hr_db):
        tree = hr_db.parse(pq.Q1)
        expected = reference(hr_db, pq.Q1)
        tree, _ = apply_everywhere(UnnestSubqueryToView(hr_db.catalog), tree)
        tree, _ = apply_everywhere(GroupByViewMerging(hr_db.catalog), tree)
        # Q11: no derived group-by view left; outer block groups on
        # rowids and the correlation column, aggregate moved to HAVING.
        assert tree.group_by
        assert tree.having_conjuncts
        assert evaluate_tree(hr_db, tree) == expected

    def test_q1_execution_all_modes(self, hr_db):
        expected = reference(hr_db, pq.Q1)
        for config in (
            OptimizerConfig(),
            OptimizerConfig.heuristic_mode(),
            OptimizerConfig().without("unnest_view", "subquery_merge"),
            OptimizerConfig().with_strategy("linear"),
        ):
            assert normalized(hr_db.execute(pq.Q1, config).rows) == expected

    def test_cbqt_not_worse_than_heuristic_on_q1(self, hr_db):
        cbqt = hr_db.execute(pq.Q1, OptimizerConfig())
        heuristic = hr_db.execute(pq.Q1, OptimizerConfig.heuristic_mode())
        assert cbqt.work_units <= heuristic.work_units * 1.05


class TestQ2Q3:
    def test_exists_merges_to_semijoin(self, hr_db):
        tree = hr_db.parse(pq.Q2)
        expected = reference(hr_db, pq.Q2)
        tree, _ = apply_everywhere(SubqueryMergeUnnesting(hr_db.catalog), tree)
        semis = [i for i in tree.from_items if i.join_type == "SEMI"]
        assert len(semis) == 1
        # semijoin imposes the partial order: departments precede employees
        assert semis[0].required_predecessors() == {"d"}
        assert evaluate_tree(hr_db, tree) == expected


class TestQ4Q5Q6:
    def test_q4_to_q6(self, hr_db):
        tree = hr_db.parse(pq.Q4)
        expected = reference(hr_db, pq.Q4)
        tree, _ = apply_everywhere(JoinElimination(hr_db.catalog), tree)
        assert len(tree.from_items) == 1
        assert tree.from_items[0].table_name == "employees"
        assert evaluate_tree(hr_db, tree) == expected

    def test_q5_to_q6(self, hr_db):
        tree = hr_db.parse(pq.Q5)
        expected = reference(hr_db, pq.Q5)
        tree, _ = apply_everywhere(JoinElimination(hr_db.catalog), tree)
        assert len(tree.from_items) == 1
        assert evaluate_tree(hr_db, tree) == expected

    def test_q4_q5_same_rows(self, hr_db):
        # Q4 keeps only employees with a (non-null) department; Q5 keeps
        # all employees.  With nullable dept_id they differ.
        q4 = reference(hr_db, pq.Q4)
        q5 = reference(hr_db, pq.Q5)
        assert sum(q4.values()) <= sum(q5.values())


class TestQ7Q8:
    def test_partition_by_predicate_pushed(self, hr_db):
        result = hr_db.execute(pq.Q7)
        expected = reference(hr_db, pq.Q7)
        assert normalized(result.rows) == expected
        # the acct_id predicate reached the accounts scan: way fewer rows
        # processed than the full accounts table
        accounts_rows = hr_db.storage.get("accounts").row_count
        scanned = result.exec_stats.operator_rows.get("IndexScan", 0) + \
            result.exec_stats.operator_rows.get("TableScan", 0)
        assert scanned < accounts_rows


class TestQ12Family:
    """Q12 -> Q13 (JPPD, distinct removed, semijoin) vs Q18 (merge)."""

    def test_q13_shape(self, hr_db):
        tree = hr_db.parse(pq.Q12)
        expected = reference(hr_db, pq.Q12)
        jppd = JoinPredicatePushdown(hr_db.catalog)
        targets = jppd.find_targets(tree)
        assert len(targets) == 1
        tree = jppd.apply(tree, targets[0])
        item = next(i for i in tree.from_items if i.is_derived)
        assert item.join_type == "SEMI"       # paper: internally a semijoin
        assert not item.subquery.distinct     # distinct operator removed
        assert evaluate_tree(hr_db, tree) == expected

    def test_q18_shape(self, hr_db):
        tree = hr_db.parse(pq.Q12)
        expected = reference(hr_db, pq.Q12)
        merger = GroupByViewMerging(hr_db.catalog)
        targets = merger.find_targets(tree)
        assert len(targets) == 1
        tree = merger.apply(tree, targets[0])
        # distinct pulled up: outer block now groups (rowid-keyed)
        assert tree.group_by
        assert evaluate_tree(hr_db, tree) == expected

    def test_juxtaposition_explores_all_three(self, hr_db):
        optimized = hr_db.optimize(pq.Q12)
        decision = optimized.report.decision_for("groupby_merge")
        assert decision is not None
        assert decision.states_evaluated == 3  # Q12 vs Q13 vs Q18

    def test_q12_execution_matches(self, hr_db):
        expected = reference(hr_db, pq.Q12)
        assert normalized(hr_db.execute(pq.Q12).rows) == expected


class TestQ14Q15:
    def test_factorization_shape(self, hr_db):
        tree = hr_db.parse(pq.Q14)
        expected = reference(hr_db, pq.Q14)
        factorizer = JoinFactorization(hr_db.catalog)
        targets = factorizer.find_targets(tree)
        assert targets
        tree = factorizer.apply(tree, targets[0])
        assert isinstance(tree, QueryBlock)
        view = next(i for i in tree.from_items if i.is_derived)
        assert isinstance(view.subquery, SetOpBlock)
        assert evaluate_tree(hr_db, tree) == expected

    def test_q14_execution_matches(self, hr_db):
        expected = reference(hr_db, pq.Q14)
        assert normalized(hr_db.execute(pq.Q14).rows) == expected


class TestQ16Q17:
    @pytest.fixture()
    def db(self, hr_db):
        if "SLOW_CHECK" not in hr_db.functions:
            hr_db.register_function(
                "SLOW_CHECK", lambda x: None if x is None else int(x) % 2,
                expensive_cost=300.0,
            )
            hr_db.register_function(
                "SLOW_MATCH", lambda x: None if x is None else x % 3,
                expensive_cost=300.0,
            )
        return hr_db

    def test_pullup_decision_is_cost_based(self, db):
        optimized = db.optimize(pq.Q16)
        decision = optimized.report.decision_for("predicate_pullup")
        assert decision is not None
        assert decision.n_objects == 2  # two expensive predicates
        # 2 binary objects -> 4 states (paper: "three ways" + original)
        assert decision.states_evaluated == 4

    def test_q16_execution_matches(self, db):
        expected = reference(db, pq.Q16)
        assert normalized(db.execute(pq.Q16).rows) == expected


class TestSetOpAndOr:
    @pytest.mark.parametrize("sql_name", ["Q_MINUS", "Q_INTERSECT", "Q_OR"])
    def test_execution_matches(self, hr_db, sql_name):
        sql = getattr(pq, sql_name)
        expected = reference(hr_db, sql)
        assert normalized(hr_db.execute(sql).rows) == expected

    def test_minus_conversion_considered(self, hr_db):
        optimized = hr_db.optimize(pq.Q_MINUS)
        assert optimized.report.decision_for("setop_to_join") is not None

    def test_or_expansion_considered(self, hr_db):
        optimized = hr_db.optimize(pq.Q_OR)
        assert optimized.report.decision_for("or_expansion") is not None


class TestNullAwareAntijoin:
    def test_not_in_nullable_correct(self, hr_db):
        expected = reference(hr_db, pq.Q_NOT_IN_NULLABLE)
        got = Counter(hr_db.execute(pq.Q_NOT_IN_NULLABLE).rows)
        assert got == expected


class TestGroupByPlacement:
    def test_gbp_decision_exists(self, hr_db):
        optimized = hr_db.optimize(pq.Q_GBP)
        assert optimized.report.decision_for("groupby_placement") is not None

    def test_gbp_execution_matches(self, hr_db):
        expected = reference(hr_db, pq.Q_GBP)
        assert normalized(hr_db.execute(pq.Q_GBP).rows) == expected

    def test_gbp_never_applied_in_heuristic_mode(self, hr_db):
        result = hr_db.optimize(pq.Q_GBP, OptimizerConfig.heuristic_mode())
        assert result.report.decision_for("groupby_placement") is None


@pytest.mark.parametrize("name", sorted(pq.ALL_RUNNABLE))
def test_every_paper_query_correct_under_default_config(hr_db, name):
    sql = pq.ALL_RUNNABLE[name]
    if "SLOW_" in sql:
        pytest.skip("needs UDF registration (covered elsewhere)")
    expected = reference(hr_db, sql)
    assert normalized(hr_db.execute(sql).rows) == expected
