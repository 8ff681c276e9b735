"""Expression-rewriting utility tests."""

import pytest

from repro.qtree import exprutil
from repro.sql import ast
from repro.sql.parser import parse_expression
from repro.sql.render import render_expr


def qualified(text):
    """Parse and qualify bare columns with alias 't'."""
    expr = parse_expression(text)

    def fix(node):
        if isinstance(node, ast.ColumnRef) and node.qualifier is None:
            return ast.ColumnRef("t", node.name)
        return None

    return exprutil.map_expr(expr, fix)


class TestMapExpr:
    def test_identity_rebuild_shares_immutable_subtrees(self):
        # expressions are immutable: an unchanged subtree is the same object
        expr = qualified("a + b * 2")
        assert exprutil.map_expr(expr, lambda _n: None) is expr

        # one replaced leaf rebuilds only its root path; siblings are shared
        expr = qualified("(a + b) * (c - 2)")

        def replace_b(node):
            if isinstance(node, ast.ColumnRef) and node.name == "b":
                return ast.ColumnRef("t", "z")
            return None

        rebuilt = exprutil.map_expr(expr, replace_b)
        assert render_expr(rebuilt) == "(t.a + t.z) * (t.c - 2)"
        assert render_expr(expr) == "(t.a + t.b) * (t.c - 2)"
        assert rebuilt is not expr and rebuilt.left is not expr.left
        assert rebuilt.left.left is expr.left.left
        assert rebuilt.right is expr.right

        # a subtree holding a mutable node comes back as distinct objects
        expr = qualified("a + b * :k")
        copy = exprutil.map_expr(expr, lambda _n: None)
        assert render_expr(copy) == render_expr(expr)
        assert copy is not expr and copy.right is not expr.right
        assert copy.right.right is not expr.right.right
        assert copy.left is expr.left
        sub = ast.SubqueryExpr("IN", query=None, left=qualified("a"))
        wrapped = ast.And([qualified("c = 1"), sub])
        copy = exprutil.map_expr(wrapped, lambda _n: None)
        assert copy is not wrapped and copy.operands[1] is not sub
        assert copy.operands[0] is wrapped.operands[0]

    def test_replacement_applies_bottom_up(self):
        expr = qualified("a + a")

        def double(node):
            if isinstance(node, ast.ColumnRef):
                return ast.Literal(5)
            return None

        replaced = exprutil.map_expr(expr, double)
        assert render_expr(replaced) == "5 + 5"

    def test_subquery_left_side_rewritten(self):
        sub = ast.SubqueryExpr(
            "IN", query=None, left=qualified("a"), negated=False
        )

        def rename(node):
            if isinstance(node, ast.ColumnRef):
                return ast.ColumnRef("x", node.name)
            return None

        rewritten = exprutil.map_expr(sub, rename)
        assert rewritten.left.qualifier == "x"


class TestSubstituteColumns:
    def test_simple_substitution(self):
        expr = qualified("a + b")
        mapping = {("t", "a"): ast.Literal(9)}
        result = exprutil.substitute_columns(expr, mapping)
        assert render_expr(result) == "9 + t.b"

    def test_substitution_clones_replacement(self):
        # an immutable replacement is shared; one holding a bind (whose
        # peek is per tree) is copied
        replacement = qualified("c * 2")
        mapping = {("t", "a"): replacement}
        one = exprutil.substitute_columns(qualified("a"), mapping)
        two = exprutil.substitute_columns(qualified("a"), mapping)
        assert one is two is replacement
        with_bind = qualified("c * :k")
        mapping = {("t", "a"): with_bind}
        one = exprutil.substitute_columns(qualified("a"), mapping)
        two = exprutil.substitute_columns(qualified("a"), mapping)
        assert one is not two and one is not with_bind
        assert one.left is with_bind.left
        assert render_expr(one) == render_expr(two) == "t.c * :k"

    def test_unmapped_columns_untouched(self):
        result = exprutil.substitute_columns(
            qualified("a"), {("u", "a"): ast.Literal(1)}
        )
        assert render_expr(result) == "t.a"


class TestRenameQualifiers:
    def test_rename(self):
        expr = qualified("a = b")
        renamed = exprutil.rename_qualifiers(expr, {"t": "u"})
        assert render_expr(renamed) == "u.a = u.b"

    def test_partial_rename(self):
        expr = ast.BinOp("=", ast.ColumnRef("t", "a"), ast.ColumnRef("s", "b"))
        renamed = exprutil.rename_qualifiers(expr, {"s": "z"})
        assert render_expr(renamed) == "t.a = z.b"


class TestAliasesReferenced:
    def test_plain(self):
        expr = ast.BinOp("=", ast.ColumnRef("a", "x"), ast.ColumnRef("b", "y"))
        assert exprutil.aliases_referenced(expr) == {"a", "b"}

    def test_literals_have_no_refs(self):
        assert exprutil.aliases_referenced(ast.Literal(3)) == set()

    def test_equality_columns_matcher(self):
        expr = ast.BinOp("=", ast.ColumnRef("a", "x"), ast.ColumnRef("b", "y"))
        pair = exprutil.equality_columns(expr)
        assert pair is not None
        assert pair[0].qualifier == "a"

    def test_equality_columns_rejects_same_alias(self):
        expr = ast.BinOp("=", ast.ColumnRef("a", "x"), ast.ColumnRef("a", "y"))
        assert exprutil.equality_columns(expr) is None

    def test_equality_columns_rejects_non_eq(self):
        expr = ast.BinOp("<", ast.ColumnRef("a", "x"), ast.ColumnRef("b", "y"))
        assert exprutil.equality_columns(expr) is None


class TestNormalizePredicate:
    def check(self, before, after):
        normalized = exprutil.normalize_predicate(qualified(before))
        assert render_expr(normalized) == after

    def test_not_comparison(self):
        self.check("NOT (a = 1)", "t.a <> 1")
        self.check("NOT (a < 1)", "t.a >= 1")

    def test_double_negation(self):
        self.check("NOT (NOT (a = 1))", "t.a = 1")

    def test_de_morgan(self):
        self.check("NOT (a = 1 AND b = 2)", "t.a <> 1 OR t.b <> 2")
        self.check("NOT (a = 1 OR b = 2)", "t.a <> 1 AND t.b <> 2")

    def test_not_in_list(self):
        normalized = exprutil.normalize_predicate(qualified("NOT (a IN (1, 2))"))
        assert isinstance(normalized, ast.InList)
        assert normalized.negated

    def test_not_is_null(self):
        normalized = exprutil.normalize_predicate(qualified("NOT (a IS NULL)"))
        assert isinstance(normalized, ast.IsNull)
        assert normalized.negated

    def test_nested_and_flattened(self):
        expr = ast.And([
            ast.And([qualified("a = 1"), qualified("b = 2")]),
            qualified("c = 3"),
        ])
        normalized = exprutil.normalize_predicate(expr)
        assert isinstance(normalized, ast.And)
        assert len(normalized.operands) == 3

    def test_quantified_normalisation(self):
        sub = ast.SubqueryExpr(
            "QUANTIFIED", query=None, left=qualified("a"),
            op="=", quantifier="ANY",
        )
        normalized = exprutil.normalize_predicate(sub)
        assert normalized.kind == "IN"
        assert not normalized.negated

    def test_not_any_becomes_all(self):
        sub = ast.Not(ast.SubqueryExpr(
            "QUANTIFIED", query=None, left=qualified("a"),
            op="<", quantifier="ANY",
        ))
        normalized = exprutil.normalize_predicate(sub)
        assert normalized.kind == "QUANTIFIED"
        assert normalized.op == ">="
        assert normalized.quantifier == "ALL"


class TestConjunctHelpers:
    def test_conjuncts_of_none(self):
        assert ast.conjuncts_of(None) == []

    def test_conjuncts_of_flattens(self):
        expr = ast.And([
            qualified("a = 1"),
            ast.And([qualified("b = 2"), qualified("c = 3")]),
        ])
        assert len(ast.conjuncts_of(expr)) == 3

    def test_make_conjunction_roundtrip(self):
        conjuncts = [qualified("a = 1"), qualified("b = 2")]
        combined = ast.make_conjunction(conjuncts)
        assert ast.conjuncts_of(combined) == conjuncts

    def test_make_conjunction_single(self):
        single = [qualified("a = 1")]
        assert ast.make_conjunction(single) is single[0]

    def test_make_conjunction_empty(self):
        assert ast.make_conjunction([]) is None

    def test_disjuncts_of(self):
        expr = ast.Or([qualified("a = 1"), qualified("b = 2")])
        assert len(ast.disjuncts_of(expr)) == 2
