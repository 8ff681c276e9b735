"""Query-tree builder, clone, and SQL-generation tests."""

import pytest

from repro.errors import ResolutionError, UnsupportedError
from repro.qtree import build_query_tree, signature
from repro.qtree.blocks import QueryBlock, SetOpBlock
from repro.sql import ast, parse_query


def build(db, sql):
    return db.parse(sql)


class TestResolution:
    def test_unqualified_columns_get_qualifier(self, tiny_db):
        tree = build(tiny_db, "SELECT salary FROM employees")
        expr = tree.select_items[0].expr
        assert expr.qualifier == "employees"

    def test_ambiguous_column_raises(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, "SELECT dept_id FROM employees e, departments d")

    def test_unknown_column_raises(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, "SELECT nope FROM employees")

    def test_unknown_alias_raises(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, "SELECT zz.salary FROM employees e")

    def test_duplicate_alias_raises(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, "SELECT 1 FROM employees e, departments e")

    def test_correlation_resolves_to_outer(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e WHERE EXISTS "
            "(SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)"
        ))
        sub = tree.subquery_exprs()[0]
        assert sub.query.is_correlated
        refs = sub.query.correlation_refs()
        assert refs[0].qualifier == "e"

    def test_correlation_refs_order_and_scoping(self, tiny_db):
        # one traversal must report what the two-pass definition does:
        # refs of every block in iter_blocks order (select list, then
        # conjuncts, group by, order by) minus those bound in the subtree
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e, departments d WHERE "
            "e.salary > (SELECT AVG(e2.salary) + d.loc_id FROM employees e2, "
            "  (SELECT j.emp_id FROM job_history j "
            "   WHERE j.dept_id = d.dept_id) v "
            "  WHERE e2.dept_id = e.dept_id AND v.emp_id = e2.emp_id "
            "  AND EXISTS (SELECT 1 FROM locations l "
            "              WHERE l.loc_id = d.loc_id AND l.city = e2.salary) "
            "  GROUP BY e2.mgr_id ORDER BY e2.mgr_id)"
        ))
        inner = tree.subquery_exprs()[0].query

        def two_pass(node):
            bound = node.bound_aliases_recursive()
            refs = []
            for block in node.iter_blocks():
                exprs = [item.expr for item in block.select_items]
                exprs += block.all_conjuncts() + block.group_by
                exprs += [o.expr for o in block.order_by]
                refs += [
                    ref for expr in exprs for ref in ast.column_refs_in(expr)
                    if ref.qualifier and ref.qualifier not in bound
                ]
            return refs

        refs = inner.correlation_refs()
        assert [(r.qualifier, r.name) for r in refs] == [
            ("d", "loc_id"), ("e", "dept_id"), ("d", "dept_id"), ("d", "loc_id"),
        ]
        assert [id(r) for r in refs] == [id(r) for r in two_pass(inner)]
        assert tree.correlation_refs() == []

    def test_select_alias_usable_in_order_by(self, tiny_db):
        tree = build(tiny_db, "SELECT salary * 2 AS ss FROM employees ORDER BY ss")
        assert isinstance(tree.order_by[0].expr, ast.BinOp)

    def test_order_by_position(self, tiny_db):
        tree = build(tiny_db, "SELECT emp_id, salary FROM employees ORDER BY 2")
        assert tree.order_by[0].expr.name == "salary"

    def test_order_by_position_out_of_range(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, "SELECT emp_id FROM employees ORDER BY 4")

    def test_star_expansion(self, tiny_db):
        tree = build(tiny_db, "SELECT * FROM departments")
        assert tree.output_columns() == ["dept_id", "loc_id", "department_name"]

    def test_star_does_not_expose_rowid(self, tiny_db):
        tree = build(tiny_db, "SELECT * FROM departments")
        assert "rowid" not in tree.output_columns()

    def test_explicit_rowid_resolves(self, tiny_db):
        tree = build(tiny_db, "SELECT d.rowid FROM departments d")
        assert tree.select_items[0].expr.name == "rowid"

    def test_duplicate_output_names_uniquified(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.dept_id, d.dept_id FROM employees e, departments d"
        ))
        columns = tree.output_columns()
        assert len(columns) == len(set(columns))

    def test_subquery_arity_mismatch(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, (
                "SELECT 1 FROM employees e WHERE e.emp_id IN "
                "(SELECT j.emp_id, j.dept_id FROM job_history j)"
            ))

    def test_scalar_subquery_arity(self, tiny_db):
        with pytest.raises(ResolutionError):
            build(tiny_db, (
                "SELECT 1 FROM employees e WHERE e.salary > "
                "(SELECT j.emp_id, j.dept_id FROM job_history j)"
            ))


class TestJoins:
    def test_inner_join_condition_becomes_where_conjunct(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e JOIN departments d "
            "ON e.dept_id = d.dept_id"
        ))
        assert len(tree.where_conjuncts) == 1
        assert all(item.is_inner for item in tree.from_items)

    def test_left_join_annotates_right_item(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e LEFT OUTER JOIN departments d "
            "ON e.dept_id = d.dept_id"
        ))
        d = tree.from_item("d")
        assert d.join_type == "LEFT"
        assert d.required_predecessors() == {"e"}

    def test_right_join_mirrors_to_left(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM departments d RIGHT JOIN employees e "
            "ON e.dept_id = d.dept_id"
        ))
        assert tree.from_item("d").join_type == "LEFT"
        assert tree.from_item("e").join_type == "INNER"

    def test_full_join_unsupported(self, tiny_db):
        with pytest.raises(UnsupportedError):
            build(tiny_db, (
                "SELECT 1 FROM employees e FULL OUTER JOIN departments d "
                "ON e.dept_id = d.dept_id"
            ))


class TestRownum:
    def test_rownum_less_than(self, tiny_db):
        tree = build(tiny_db, "SELECT emp_id FROM employees WHERE rownum < 20")
        assert tree.rownum_limit == 19

    def test_rownum_lte(self, tiny_db):
        tree = build(tiny_db, "SELECT emp_id FROM employees WHERE rownum <= 20")
        assert tree.rownum_limit == 20

    def test_rownum_reversed_literal(self, tiny_db):
        tree = build(tiny_db, "SELECT emp_id FROM employees WHERE 10 > rownum")
        assert tree.rownum_limit == 9

    def test_multiple_rownum_takes_min(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT emp_id FROM employees WHERE rownum < 20 AND rownum <= 5"
        ))
        assert tree.rownum_limit == 5

    def test_rownum_in_select_unsupported(self, tiny_db):
        with pytest.raises(UnsupportedError):
            build(tiny_db, "SELECT emp_id FROM employees WHERE rownum > 3")


class TestCloneAndSignature:
    def test_clone_is_deep(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e WHERE e.salary > "
            "(SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)"
        ))
        copy = tree.clone()
        copy.where_conjuncts.clear()
        assert len(tree.where_conjuncts) == 1

    def test_clone_preserves_signature(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id AND d.loc_id = 2"
        ))
        assert signature(tree) == signature(tree.clone())

    def test_different_queries_different_signatures(self, tiny_db):
        a = build(tiny_db, "SELECT emp_id FROM employees WHERE salary > 1")
        b = build(tiny_db, "SELECT emp_id FROM employees WHERE salary > 2")
        assert signature(a) != signature(b)

    def test_setop_clone(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT dept_id FROM departments UNION ALL "
            "SELECT dept_id FROM job_history"
        ))
        assert isinstance(tree, SetOpBlock)
        copy = tree.clone()
        assert signature(copy) == signature(tree)
        assert copy.branches[0] is not tree.branches[0]


class TestStructure:
    def test_union_all_flattens(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT dept_id FROM departments UNION ALL "
            "SELECT dept_id FROM job_history UNION ALL "
            "SELECT emp_id FROM employees"
        ))
        assert isinstance(tree, SetOpBlock)
        assert len(tree.branches) == 3

    def test_mixed_setops_stay_binary(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT dept_id FROM departments MINUS "
            "SELECT dept_id FROM job_history"
        ))
        assert len(tree.branches) == 2

    def test_iter_blocks_covers_subqueries(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e, "
            "(SELECT j.emp_id AS x FROM job_history j) v "
            "WHERE e.emp_id = v.x AND EXISTS "
            "(SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)"
        ))
        blocks = list(tree.iter_blocks())
        assert len(blocks) == 3

    def test_is_spj(self, tiny_db):
        spj = build(tiny_db, "SELECT emp_id FROM employees WHERE salary > 1")
        grouped = build(tiny_db, (
            "SELECT dept_id, COUNT(emp_id) FROM employees GROUP BY dept_id"
        ))
        distinct = build(tiny_db, "SELECT DISTINCT dept_id FROM employees")
        assert spj.is_spj
        assert not grouped.is_spj
        assert not distinct.is_spj

    def test_quantifier_normalisation(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT emp_id FROM employees e WHERE e.dept_id = ANY "
            "(SELECT d.dept_id FROM departments d)"
        ))
        sub = tree.subquery_exprs()[0]
        assert sub.kind == "IN"

    def test_neq_all_normalises_to_not_in(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT emp_id FROM employees e WHERE e.dept_id <> ALL "
            "(SELECT d.dept_id FROM departments d)"
        ))
        sub = tree.subquery_exprs()[0]
        assert sub.kind == "IN" and sub.negated

    def test_not_exists_normalises(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT emp_id FROM employees e WHERE NOT EXISTS "
            "(SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)"
        ))
        sub = tree.subquery_exprs()[0]
        assert sub.kind == "EXISTS" and sub.negated

    def test_to_sql_reparses_for_plain_blocks(self, tiny_db):
        tree = build(tiny_db, (
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id AND d.loc_id > 2 "
            "GROUP BY e.emp_id ORDER BY e.emp_id"
        ))
        reparsed = build(tiny_db, tree.to_sql())
        assert signature(reparsed) == signature(tree)
