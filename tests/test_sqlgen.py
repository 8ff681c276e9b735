"""Query-tree SQL generation and structural signatures."""

import pytest

from repro.qtree import signature, sqlgen
from repro.qtree.sqlgen import rendered_once
from repro.transform.base import apply_everywhere
from repro.transform.heuristic import SubqueryMergeUnnesting


class TestDisplayNotation:
    def test_semijoin_uses_paper_notation(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT d.dept_id FROM departments d WHERE EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)"
        )
        tree, _ = apply_everywhere(SubqueryMergeUnnesting(tiny_db.catalog), tree)
        text = tree.to_sql()
        # the paper's non-standard semijoin marker: T1.c S= T2.c
        assert "S=" in text

    def test_antijoin_marker(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT d.dept_id FROM departments d WHERE NOT EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)"
        )
        tree, _ = apply_everywhere(SubqueryMergeUnnesting(tiny_db.catalog), tree)
        assert "A=" in tree.to_sql()

    def test_left_join_marker(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT e.emp_id FROM employees e LEFT OUTER JOIN departments d "
            "ON e.dept_id = d.dept_id"
        )
        assert "(+d)" in tree.to_sql()

    def test_rownum_rendered(self, tiny_db):
        tree = tiny_db.parse("SELECT emp_id FROM employees WHERE rownum <= 4")
        assert "ROWNUM <= 4" in tree.to_sql()

    def test_grouping_sets_rendered(self, tiny_db):
        tree = tiny_db.parse(
            "SELECT dept_id, COUNT(*) FROM employees GROUP BY ROLLUP (dept_id)"
        )
        assert "GROUPING SETS" in tree.to_sql()


class TestSignatureProperties:
    def test_transformation_changes_signature(self, tiny_db):
        sql = (
            "SELECT d.dept_id FROM departments d WHERE EXISTS "
            "(SELECT 1 FROM employees e WHERE e.dept_id = d.dept_id)"
        )
        before = tiny_db.parse(sql)
        after, _ = apply_everywhere(
            SubqueryMergeUnnesting(tiny_db.catalog), before.clone()
        )
        assert signature(before) != signature(after)

    def test_alias_matters(self, tiny_db):
        a = tiny_db.parse("SELECT e.emp_id FROM employees e")
        b = tiny_db.parse("SELECT f.emp_id FROM employees f")
        assert signature(a) != signature(b)

    def test_signature_deterministic(self, tiny_db):
        sql = (
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id AND d.loc_id IN (1, 2)"
        )
        assert signature(tiny_db.parse(sql)) == signature(tiny_db.parse(sql))


class TestRenderedOnce:
    NESTED = (
        "SELECT d.dept_id FROM departments d, "
        "(SELECT e.dept_id FROM employees e WHERE e.salary > 10) v "
        "WHERE v.dept_id = d.dept_id AND EXISTS "
        "(SELECT 1 FROM job_history j WHERE j.dept_id = d.dept_id AND "
        "j.emp_id IN (SELECT e2.emp_id FROM employees e2))"
    )

    def test_same_text_inside_and_outside_the_scope(self, tiny_db):
        tree = tiny_db.parse(self.NESTED)
        plain = {b.name: signature(b) for b in tree.iter_blocks()}
        with rendered_once():
            scoped = {b.name: signature(b) for b in tree.iter_blocks()}
        assert scoped == plain and len(plain) == 4

    def test_each_node_rendered_once_per_scope(self, tiny_db, monkeypatch):
        tree = tiny_db.parse(self.NESTED)
        rendered = []
        real = sqlgen._block_to_sql
        monkeypatch.setattr(
            sqlgen, "_block_to_sql",
            lambda block: rendered.append(block.name) or real(block),
        )
        with rendered_once():
            for block in tree.iter_blocks():  # root first, as the optimizer
                signature(block)
                signature(block)
        assert sorted(rendered) == sorted(b.name for b in tree.iter_blocks())
        # nothing is remembered once the scope has closed
        rendered.clear()
        signature(tree)
        signature(tree)
        assert rendered.count(tree.name) == 2

    def test_scope_is_per_thread(self, tiny_db):
        import threading

        tree = tiny_db.parse("SELECT e.emp_id FROM employees e")
        seen = []
        with rendered_once():
            signature(tree)
            tree.select_items.pop()  # stale on purpose: this thread keeps
            assert "emp_id" in signature(tree)  # its remembered text ...
            thread = threading.Thread(
                target=lambda: seen.append("emp_id" in signature(tree))
            )
            thread.start()
            thread.join(timeout=10)
        assert seen == [False]  # ... another thread renders for itself
