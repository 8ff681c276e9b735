"""Heuristic transformation tests: SPJ view merging, subquery merge
unnesting, join elimination, predicate move-around.

Each test checks both the *shape* of the transformed tree and (where
data-dependent) semantic equivalence against the reference evaluator.
"""

from collections import Counter

import pytest

from repro.errors import TransformError
from repro.qtree.blocks import QueryBlock
from repro.transform.base import apply_everywhere
from repro.transform.heuristic import (
    JoinElimination,
    PredicateMoveAround,
    SpjViewMerging,
    SubqueryMergeUnnesting,
)


def transformed(db, sql, transformation_cls):
    tree = db.parse(sql)
    transformation = transformation_cls(db.catalog)
    return apply_everywhere(transformation, tree)[0], transformation


def assert_equivalent(db, sql, tree):
    expected = Counter(db.reference_execute(sql))
    from repro.engine.reference import ReferenceEvaluator

    evaluator = ReferenceEvaluator(db.storage, db.functions)
    assert Counter(evaluator.evaluate(tree)) == expected


class TestSpjViewMerging:
    SQL = (
        "SELECT v.emp_id, d.department_name FROM "
        "(SELECT e.emp_id, e.dept_id FROM employees e, job_history j "
        "WHERE e.emp_id = j.emp_id AND j.start_date > 50) v, departments d "
        "WHERE v.dept_id = d.dept_id"
    )

    def test_view_disappears(self, tiny_db):
        tree, _t = transformed(tiny_db, self.SQL, SpjViewMerging)
        assert all(item.is_base_table for item in tree.from_items)
        assert len(tree.from_items) == 3

    def test_semantics_preserved(self, tiny_db):
        tree, _t = transformed(tiny_db, self.SQL, SpjViewMerging)
        assert_equivalent(tiny_db, self.SQL, tree)

    def test_nested_views_merge_to_fixpoint(self, tiny_db):
        sql = (
            "SELECT v2.emp_id FROM (SELECT v1.emp_id FROM "
            "(SELECT e.emp_id FROM employees e WHERE e.salary > 10) v1) v2"
        )
        tree, _t = transformed(tiny_db, sql, SpjViewMerging)
        assert all(item.is_base_table for item in tree.from_items)

    def test_groupby_view_not_merged(self, tiny_db):
        sql = (
            "SELECT v.d FROM (SELECT dept_id AS d, COUNT(*) AS c "
            "FROM employees GROUP BY dept_id) v"
        )
        tree, transformation = transformed(tiny_db, sql, SpjViewMerging)
        assert tree.from_items[0].is_derived
        assert not transformation.find_targets(tree)

    def test_alias_collision_resolved(self, tiny_db):
        sql = (
            "SELECT e.emp_id, v.x FROM employees e, "
            "(SELECT e.salary AS x FROM employees e WHERE e.salary > 80) v "
            "WHERE e.emp_id = v.x"
        )
        tree, _t = transformed(tiny_db, sql, SpjViewMerging)
        aliases = [item.alias for item in tree.from_items]
        assert len(aliases) == len(set(aliases)) == 2
        assert_equivalent(tiny_db, sql, tree)

    def test_ordered_view_under_rownum_not_merged(self, tiny_db):
        sql = (
            "SELECT v.emp_id FROM (SELECT emp_id FROM employees "
            "ORDER BY salary DESC) v WHERE rownum <= 3"
        )
        tree, _t = transformed(tiny_db, sql, SpjViewMerging)
        assert tree.from_items[0].is_derived


class TestSubqueryMergeUnnesting:
    def test_exists_becomes_semijoin(self, tiny_db):
        sql = (
            "SELECT d.dept_id FROM departments d WHERE EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id "
            "AND e.salary > 50)"
        )
        tree, _t = transformed(tiny_db, sql, SubqueryMergeUnnesting)
        assert not tree.subquery_exprs()
        semi = [i for i in tree.from_items if i.join_type == "SEMI"]
        assert len(semi) == 1
        assert semi[0].required_predecessors() == {"d"}
        assert_equivalent(tiny_db, sql, tree)

    def test_not_exists_becomes_antijoin(self, tiny_db):
        sql = (
            "SELECT d.dept_id FROM departments d WHERE NOT EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)"
        )
        tree, _t = transformed(tiny_db, sql, SubqueryMergeUnnesting)
        assert [i.join_type for i in tree.from_items] == ["INNER", "ANTI"]
        assert_equivalent(tiny_db, sql, tree)

    def test_in_on_nonnull_pk_becomes_semijoin(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.dept_id IN "
            "(SELECT d.dept_id FROM departments d WHERE d.loc_id = 2)"
        )
        tree, _t = transformed(tiny_db, sql, SubqueryMergeUnnesting)
        assert any(i.join_type == "SEMI" for i in tree.from_items)
        assert_equivalent(tiny_db, sql, tree)

    def test_not_in_on_pk_becomes_plain_antijoin(self, tiny_db):
        # both sides non-null (e.emp_id is PK, d.dept_id is PK): ANTI
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.emp_id NOT IN "
            "(SELECT d.dept_id FROM departments d)"
        )
        tree, _t = transformed(tiny_db, sql, SubqueryMergeUnnesting)
        assert any(i.join_type == "ANTI" for i in tree.from_items)
        assert_equivalent(tiny_db, sql, tree)

    def test_not_in_nullable_is_not_flat_merged(self, tiny_db):
        # e.dept_id is nullable: needs the null-aware view path instead
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.dept_id NOT IN "
            "(SELECT j.dept_id FROM job_history j)"
        )
        tree, transformation = transformed(
            tiny_db, sql, SubqueryMergeUnnesting
        )
        assert tree.subquery_exprs()  # untouched

    def test_multi_table_subquery_not_flat_merged(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.dept_id IN "
            "(SELECT d.dept_id FROM departments d, locations l "
            "WHERE d.loc_id = l.loc_id)"
        )
        tree, _t = transformed(tiny_db, sql, SubqueryMergeUnnesting)
        assert tree.subquery_exprs()

    def test_quantified_any_becomes_semijoin(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.salary < ANY "
            "(SELECT j.start_date FROM job_history j WHERE j.emp_id = e.emp_id)"
        )
        tree, _t = transformed(tiny_db, sql, SubqueryMergeUnnesting)
        assert any(i.join_type == "SEMI" for i in tree.from_items)
        assert_equivalent(tiny_db, sql, tree)

    def test_or_wrapped_subquery_not_unnested(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.salary > 80 OR EXISTS "
            "(SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)"
        )
        tree, transformation = transformed(
            tiny_db, sql, SubqueryMergeUnnesting
        )
        assert not transformation.find_targets(tree)

    def test_apply_on_bad_target_raises(self, tiny_db):
        from repro.transform.base import TargetRef

        tree = tiny_db.parse("SELECT emp_id FROM employees WHERE salary > 1")
        transformation = SubqueryMergeUnnesting(tiny_db.catalog)
        with pytest.raises(TransformError):
            transformation.apply(
                tree, TargetRef(tree.name, "conjunct", 0)
            )


class TestJoinElimination:
    def test_pkfk_join_removed(self, hr_db):
        sql = (
            "SELECT e.employee_name, e.salary FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id"
        )
        tree, _t = transformed(hr_db, sql, JoinElimination)
        assert [i.alias for i in tree.from_items] == ["e"]
        # nullable FK: IS NOT NULL compensation added
        assert any(
            "IS NOT NULL" in c.__class__.__name__ or
            getattr(c, "negated", False) for c in tree.where_conjuncts
        )
        assert_equivalent(hr_db, sql, tree)

    def test_outer_join_on_unique_key_removed(self, hr_db):
        sql = (
            "SELECT e.employee_name FROM employees e LEFT OUTER JOIN "
            "departments d ON e.dept_id = d.dept_id"
        )
        tree, _t = transformed(hr_db, sql, JoinElimination)
        assert [i.alias for i in tree.from_items] == ["e"]
        assert not tree.where_conjuncts  # no compensation for outer join
        assert_equivalent(hr_db, sql, tree)

    def test_referenced_table_not_eliminated(self, hr_db):
        sql = (
            "SELECT e.employee_name, d.department_name FROM employees e, "
            "departments d WHERE e.dept_id = d.dept_id"
        )
        transformation = JoinElimination(hr_db.catalog)
        assert not transformation.find_targets(hr_db.parse(sql))

    def test_no_fk_no_elimination(self, tiny_db):
        # tiny_db declares no FK employees->departments
        sql = (
            "SELECT e.employee_name FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id"
        )
        transformation = JoinElimination(tiny_db.catalog)
        assert not transformation.find_targets(tiny_db.parse(sql))

    def test_outer_join_on_nonunique_not_eliminated(self, hr_db):
        sql = (
            "SELECT e.employee_name FROM employees e LEFT OUTER JOIN "
            "job_history j ON e.emp_id = j.emp_id"
        )
        transformation = JoinElimination(hr_db.catalog)
        assert not transformation.find_targets(hr_db.parse(sql))


class TestPredicateMoveAround:
    def test_transitive_filter_generated(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id AND d.dept_id = 3"
        )
        tree, _t = transformed(tiny_db, sql, PredicateMoveAround)
        rendered = tree.to_sql()
        assert "e.dept_id = 3" in rendered
        assert_equivalent(tiny_db, sql, tree)

    def test_filter_pushed_into_view(self, tiny_db):
        sql = (
            "SELECT v.d FROM (SELECT dept_id AS d, COUNT(*) AS c "
            "FROM employees GROUP BY dept_id) v WHERE v.d = 2"
        )
        tree, _t = transformed(tiny_db, sql, PredicateMoveAround)
        assert not tree.where_conjuncts
        view = tree.from_items[0].subquery
        assert len(view.where_conjuncts) == 1
        assert_equivalent(tiny_db, sql, tree)

    def test_filter_pushed_into_union_all_branches(self, tiny_db):
        sql = (
            "SELECT v.k FROM (SELECT dept_id AS k FROM employees UNION ALL "
            "SELECT dept_id AS k FROM job_history) v WHERE v.k = 4"
        )
        tree, _t = transformed(tiny_db, sql, PredicateMoveAround)
        view = tree.from_items[0].subquery
        assert all(len(b.where_conjuncts) == 1 for b in view.branches)
        assert_equivalent(tiny_db, sql, tree)

    def test_aggregate_output_not_pushed(self, tiny_db):
        sql = (
            "SELECT v.c FROM (SELECT dept_id AS d, COUNT(*) AS c "
            "FROM employees GROUP BY dept_id) v WHERE v.c > 3"
        )
        tree, _t = transformed(tiny_db, sql, PredicateMoveAround)
        assert len(tree.where_conjuncts) == 1  # stayed outside

    def test_window_pby_pushdown(self, hr_db):
        sql = (
            "SELECT v.acct_id, v.ravg FROM "
            "(SELECT a.acct_id, a.time, AVG(a.balance) OVER "
            "(PARTITION BY a.acct_id ORDER BY a.time) AS ravg "
            "FROM accounts a) v WHERE v.acct_id = 7 AND v.time <= 12"
        )
        tree, _t = transformed(hr_db, sql, PredicateMoveAround)
        view = tree.from_items[0].subquery
        pushed = [c.to_sql() if hasattr(c, "to_sql") else str(c)
                  for c in view.where_conjuncts]
        # acct_id (PBY column) pushed; time (OBY column) stays outside
        assert len(view.where_conjuncts) == 1
        assert len(tree.where_conjuncts) == 1
        assert_equivalent(hr_db, sql, tree)
