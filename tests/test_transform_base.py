"""Transformation framework plumbing: target stability across deep
copies, fixpoint application, alias uniquification, node replacers."""

import pytest

from repro.errors import TransformError
from repro.qtree.blocks import QueryBlock, SetOpBlock
from repro.transform.base import (
    TargetRef,
    apply_everywhere,
    ensure_unique_aliases,
    find_block,
    find_setop,
    iter_nodes_with_replacers,
)
from repro.transform.costbased import SetOpIntoJoin, UnnestSubqueryToView
from repro.transform.heuristic import SpjViewMerging


class TestTargetStability:
    def test_targets_resolve_on_clones(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e WHERE e.salary > "
            "(SELECT AVG(e2.salary) FROM employees e2 "
            "WHERE e2.dept_id = e.dept_id)"
        )
        tree = tiny_db.parse(sql)
        transformation = UnnestSubqueryToView(tiny_db.catalog)
        targets = transformation.find_targets(tree)
        assert targets
        # the same TargetRef applies to a deep copy
        copy = tree.clone()
        transformed = transformation.apply(copy, targets[0])
        assert any(i.is_derived for i in transformed.from_items)
        # and the original is untouched
        assert not any(i.is_derived for i in tree.from_items)

    def test_find_block_by_name(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT e.emp_id FROM employees e WHERE EXISTS "
            "(SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)"
        )
        inner = tree.subquery_exprs()[0].query
        assert find_block(tree, inner.name) is inner
        assert find_block(tree, "no_such_block") is None

    def test_find_setop(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT v.dept_id FROM (SELECT dept_id FROM employees MINUS "
            "SELECT dept_id FROM departments) v"
        )
        setop = tree.from_items[0].subquery
        assert find_setop(tree, setop.name) is setop


class TestIterNodesWithReplacers:
    def test_replacer_swaps_subquery_source(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT v.dept_id FROM (SELECT dept_id FROM employees MINUS "
            "SELECT dept_id FROM departments) v"
        )
        transformation = SetOpIntoJoin(tiny_db.catalog)
        targets = transformation.find_targets(tree)
        assert len(targets) == 1
        tree = transformation.apply(tree, targets[0])
        assert isinstance(tree.from_items[0].subquery, QueryBlock)

    def test_root_replacement_returns_new_root(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT dept_id FROM employees MINUS "
            "SELECT dept_id FROM departments"
        )
        transformation = SetOpIntoJoin(tiny_db.catalog)
        new_root = transformation.apply(
            tree, transformation.find_targets(tree)[0]
        )
        assert isinstance(new_root, QueryBlock)

    def test_every_node_visited(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT v.k FROM (SELECT dept_id AS k FROM employees UNION ALL "
            "SELECT dept_id AS k FROM departments) v WHERE EXISTS "
            "(SELECT 1 FROM locations l WHERE l.loc_id = v.k)"
        )
        nodes = [node for node, _r in iter_nodes_with_replacers(tree)]
        kinds = [type(n).__name__ for n in nodes]
        assert kinds.count("SetOpBlock") == 1
        assert kinds.count("QueryBlock") >= 4


class TestApplyEverywhere:
    def test_reaches_fixpoint(self, tiny_db):
        sql = (
            "SELECT v2.emp_id FROM (SELECT v1.emp_id FROM "
            "(SELECT e.emp_id FROM employees e) v1) v2"
        )
        tree, _ = apply_everywhere(
            SpjViewMerging(tiny_db.catalog), tiny_db.parse(sql)
        )
        assert all(i.is_base_table for i in tree.from_items)

    def test_no_targets_is_identity(self, tiny_db):
        tree = tiny_db.parse("SELECT emp_id FROM employees")
        before = tree.to_sql()
        tree, applied = apply_everywhere(SpjViewMerging(tiny_db.catalog), tree)
        assert applied == []
        assert tree.to_sql() == before


class TestEnsureUniqueAliases:
    def test_colliding_alias_renamed(self, tiny_db):
        outer = tiny_db.parse(
            "SELECT e.emp_id FROM employees e, "
            "(SELECT e.salary AS s FROM employees e) v "
            "WHERE e.salary = v.s"
        )
        view_item = outer.from_item("v")
        view = view_item.subquery
        outer.from_items.remove(view_item)
        renames = ensure_unique_aliases(outer, view)
        assert "e" in renames
        assert view.from_items[0].alias != "e"
        # references inside the view follow the rename
        sel = view.select_items[0].expr
        assert sel.qualifier == view.from_items[0].alias

    def test_no_collision_no_rename(self, tiny_db):
        outer = tiny_db.parse(
            "SELECT e.emp_id FROM employees e, "
            "(SELECT d.dept_id AS k FROM departments d) v "
            "WHERE e.dept_id = v.k"
        )
        view_item = outer.from_item("v")
        view = view_item.subquery
        outer.from_items.remove(view_item)
        assert ensure_unique_aliases(outer, view) == {}


class TestTargetRefDescribe:
    def test_describe_format(self):
        ref = TargetRef("qb$1", "view", "v")
        assert ref.describe() == "view[v]@qb$1"
