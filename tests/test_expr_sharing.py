"""The immutable-expression contract of :mod:`repro.sql.ast`.

Expressions are never changed after they are built, so a copy of a query
tree shares every expression subtree that holds no mutable node (a
``BindParam`` or a ``SubqueryExpr``), and each node keeps the facts and
SQL text it derived once.  These tests pin what is shared, what is always
copied, that the kept facts and text never go stale while the optimizer
rewrites trees, and that paranoid mode catches a transformation that
breaks the contract.
"""

from __future__ import annotations

import itertools

import pytest

from repro import Database, OptimizerConfig
from repro.analysis import TransformationAuditor
from repro.analysis.qtree_verifier import QTreeVerifier, verify_expr_caches
from repro.cbqt import CbqtConfig, framework
from repro.errors import VerificationError
from repro.optimizer.physical import PhysicalOptimizer
from repro.qtree import builder, exprutil
from repro.qtree.binds import apply_peeks, bind_params
from repro.qtree.blocks import QueryBlock, SetOpBlock
from repro.resilience import ResilienceConfig
from repro.service.binds import extract_bind_profile
from repro.sql import ast
from repro.sql.parser import parse_query
from repro.sql.render import render_statement
from repro.transform.base import TargetRef, Transformation, find_block
from repro.transform.costbased.or_expansion import OrExpansion
from repro.workload import (
    MixWeights,
    QueryGenerator,
    apps_database,
    register_workload_functions,
)

from .paper_queries import ALL_RUNNABLE, TABLE2


class TestContainerClones:
    SQL = (
        "SELECT e.emp_id, e.salary * 2 AS double_pay, d.department_name "
        "FROM employees e LEFT JOIN departments d "
        "ON d.dept_id = e.dept_id AND d.loc_id > 3 "
        "WHERE e.salary > 1000 AND e.mgr_id IS NOT NULL "
        "ORDER BY e.salary * 2 DESC"
    )

    def test_share_subquery_free_bind_free_subtrees(self, hr_db):
        root = hr_db.parse(self.SQL)
        copy = root.clone()
        assert copy is not root
        assert copy.where_conjuncts is not root.where_conjuncts
        for new, old in zip(copy.where_conjuncts, root.where_conjuncts):
            assert new is old
        for new, old in zip(copy.select_items, root.select_items):
            assert new is not old and new.expr is old.expr
        for new, old in zip(copy.order_by, root.order_by):
            assert new is not old and new.expr is old.expr
        for new, old in zip(copy.from_items, root.from_items):
            assert new is not old
            assert new.join_conjuncts is not old.join_conjuncts
            for c_new, c_old in zip(new.join_conjuncts, old.join_conjuncts):
                assert c_new is c_old
        assert copy.to_sql() == root.to_sql()

    def test_grouped_block_shares_group_by_and_having(self, hr_db):
        root = hr_db.parse(
            "SELECT e.dept_id, COUNT(*) FROM employees e "
            "GROUP BY e.dept_id HAVING COUNT(*) > 2"
        )
        copy = root.clone()
        assert copy.group_by[0] is root.group_by[0]
        assert copy.having_conjuncts[0] is root.having_conjuncts[0]

    def test_subquery_expr_and_its_block_are_always_copied(self, hr_db):
        root = hr_db.parse(
            "SELECT e.emp_id FROM employees e WHERE e.salary > 10 AND "
            "e.dept_id IN (SELECT d.dept_id FROM departments d "
            "WHERE d.loc_id = 2)"
        )
        copy = root.clone()
        (sub,) = root.subquery_exprs()
        (sub_copy,) = copy.subquery_exprs()
        assert sub_copy is not sub
        assert sub_copy.query is not sub.query
        assert sub_copy.query.where_conjuncts[0] is sub.query.where_conjuncts[0]
        plain = [c for c in root.where_conjuncts if not ast.contains_subquery(c)]
        assert plain and all(
            any(c is other for other in copy.where_conjuncts) for c in plain
        )
        holder = next(c for c in root.where_conjuncts if ast.contains_subquery(c))
        assert all(c is not holder for c in copy.where_conjuncts)
        assert copy.to_sql() == root.to_sql()


class TestCopiesWithinOneTree:
    """OR-expansion puts k copies of a block into one tree.  A conjunct is
    named by its place in its block, so the copies share their immutable
    conjuncts."""

    SQL = (
        "SELECT e.emp_id FROM employees e, departments d "
        "WHERE e.dept_id = d.dept_id AND e.salary > 1000 "
        "AND (d.loc_id = 3 OR e.job_id = 5)"
    )

    def test_or_expansion_branches_share_no_expression(self, hr_db):
        root = hr_db.parse(self.SQL)
        transformation = OrExpansion(hr_db.catalog)
        (target,) = transformation.find_targets(root)
        expanded = transformation.apply(root.clone(), target)
        first, second = expanded.branches
        join, salary, disjunction = root.where_conjuncts
        loc, job = disjunction.operands
        # these compare by identity: the branches hold the same objects
        assert first.where_conjuncts == [join, salary, loc]
        assert second.where_conjuncts[:3] == [join, salary, job]
        (lnnvl,) = second.where_conjuncts[3:]
        assert lnnvl.name == "LNNVL" and lnnvl.args == [loc]
        assert QTreeVerifier(hr_db.catalog).verify(expanded) == []

    def test_or_expansion_state_is_costed_without_a_diagnostic(self, hr_db):
        optimized = hr_db.optimize(self.SQL, PARANOID)
        decision = optimized.report.decision_for("or_expansion")
        assert decision is not None
        assert decision.state_costs[(1,)] < float("inf")
        assert not optimized.report.diagnostics


class TestBinds:
    SQL = (
        "SELECT e.emp_id FROM employees e "
        "WHERE e.salary > :lo AND e.dept_id = :dept AND e.emp_id > 3"
    )

    def test_peeking_a_clone_leaves_the_original(self, hr_db):
        root = hr_db.parse(self.SQL)
        copy = root.clone()
        apply_peeks(copy, {"lo": 5000, "dept": 7})
        assert all(p.has_peek for p in bind_params(copy))
        assert not any(p.has_peek for p in bind_params(root))
        originals = {id(p) for p in bind_params(root)}
        assert not originals & {id(p) for p in bind_params(copy)}
        # the bind-free conjunct is still shared
        assert copy.where_conjuncts[2] is root.where_conjuncts[2]

    def test_bind_predicate_probe_leaves_the_tree(self, hr_db):
        root = hr_db.parse(self.SQL)
        apply_peeks(root, {"lo": 5000, "dept": 7})
        profile = extract_bind_profile(root, hr_db.statistics)
        assert len(profile) == 2
        for predicate in profile:
            assert predicate.selectivity_for(
                {"lo": 1, "dept": 2}, hr_db.statistics
            ) is not None
            assert not any(
                n.has_peek for n in predicate.conjunct.walk()
                if isinstance(n, ast.BindParam)
            )
        assert sorted(p.peeked for p in bind_params(root)) == [7, 5000]


class TestParserStatementsAreNotCopied:
    """The builder never changes a parser statement, so statements have no
    clone(): a SubqueryExpr copied while its body is still a statement
    (the builder resolves expressions bottom-up) shares the body."""

    SQL = (
        "SELECT e.emp_id FROM employees e WHERE e.dept_id IN "
        "(SELECT d.dept_id FROM departments d WHERE d.loc_id IN "
        "(SELECT l.loc_id FROM locations l WHERE l.country_id = 1))"
    )

    def test_a_statement_body_is_shared(self):
        assert not hasattr(ast.SelectStmt, "clone")
        assert not hasattr(ast.SetOpStmt, "clone")
        sub = parse_query(self.SQL).where
        assert isinstance(sub, ast.SubqueryExpr)
        assert sub.clone().query is sub.query
        assert exprutil.map_expr(sub, lambda _n: None).query is sub.query

    def test_building_leaves_the_statement_unchanged(self, hr_db):
        for sql in [self.SQL, *ALL_RUNNABLE.values(), TABLE2]:
            stmt = parse_query(sql)
            text = render_statement(stmt)
            first = builder.build_query_tree(stmt, hr_db.catalog).to_sql()
            assert render_statement(stmt) == text
            assert builder.build_query_tree(stmt, hr_db.catalog).to_sql() == first


# ---------------------------------------------------------------------------
# kept facts and text stay fresh through the whole optimizer
# ---------------------------------------------------------------------------


@pytest.fixture
def cache_checked(monkeypatch):
    """Check every expression's kept facts and text against a fresh walk
    and render after each transformation step (heuristic or cost-based)
    and after each costed tree.  Returns the list of checked trees."""
    checked = []

    def check(root, where):
        diagnostics = verify_expr_caches(root)
        assert not diagnostics, f"{where}: {diagnostics[0].format()}"
        checked.append(where)

    audit_tree = TransformationAuditor.audit_tree
    optimize = PhysicalOptimizer.optimize

    def audited(self, root, transformation=None, state=None):
        result = audit_tree(self, root, transformation, state)
        check(root, f"after {transformation} state={state}")
        return result

    def costed(self, root, *args, **kwargs):
        plan = optimize(self, root, *args, **kwargs)
        check(root, "after costing")
        return plan

    monkeypatch.setattr(TransformationAuditor, "audit_tree", audited)
    monkeypatch.setattr(PhysicalOptimizer, "optimize", costed)
    return checked


#: paranoid mode, strict: a verifier finding raises instead of degrading
PARANOID = OptimizerConfig(
    cbqt=CbqtConfig(debug_checks=True),
    resilience=ResilienceConfig(fallback=False),
)


def test_kept_facts_and_text_stay_fresh_on_paper_queries(hr_db, cache_checked):
    for sql in list(ALL_RUNNABLE.values()) + [TABLE2]:
        hr_db.optimize(sql, PARANOID)
    assert any(w.startswith("after costing") for w in cache_checked)
    assert any("state=(" in w for w in cache_checked)


def _generated_queries(count: int):
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
    generator = QueryGenerator(schema, seed=34)
    classes = itertools.cycle(name for name, _w in MixWeights().items())
    return db, [generator.generate_class(next(classes)) for _ in range(count)]


def test_kept_facts_and_text_stay_fresh_on_generated_queries(cache_checked):
    db, queries = _generated_queries(100)
    for query in queries:
        db.optimize(query.sql, PARANOID)
    assert len(cache_checked) > len(queries)


# ---------------------------------------------------------------------------
# the paranoid guard
# ---------------------------------------------------------------------------


class _MutateSharedConjunct(Transformation):
    """Breaks the contract: rewrites a conjunct of the tree it is given
    in place, which the search's base tree shares."""

    name = "mutate_shared"
    cost_based = True

    def find_targets(self, root):
        if isinstance(root, QueryBlock) and root.where_conjuncts:
            return [TargetRef(root.name, "predicate", 0)]
        return []

    def apply(self, root, target):
        conjunct = find_block(root, target.block).where_conjuncts[0]
        conjunct.op = "<"
        return root


def test_guard_catches_in_place_change_of_a_shared_conjunct(monkeypatch):
    db = Database()
    db.execute_ddl("CREATE TABLE t (a INT, b INT)")
    db.insert("t", [{"a": i, "b": i % 3} for i in range(20)])
    db.analyze()
    monkeypatch.setattr(
        framework, "build_cost_based_transformations",
        lambda catalog: [_MutateSharedConjunct(catalog)],
    )
    with pytest.raises(VerificationError) as caught:
        db.optimize("SELECT t.a FROM t WHERE t.b > 1", PARANOID)
    (diagnostic,) = caught.value.diagnostics
    assert diagnostic.rule == "qtree.shared-mutated"
    assert diagnostic.transformation == "mutate_shared"
    assert diagnostic.state == (1,)
    assert "t.b > 1" in diagnostic.message and "t.b < 1" in diagnostic.message


class _PlaceConjunctTwice(Transformation):
    """Breaks the contract: appends a block's first conjunct to the same
    block again, so one object sits at two places of one block."""

    name = "place_twice"
    cost_based = True

    def find_targets(self, root):
        if isinstance(root, QueryBlock) and root.where_conjuncts:
            return [TargetRef(root.name, "block", 0)]
        return []

    def apply(self, root, target):
        root.where_conjuncts.append(root.where_conjuncts[0])
        return root


class _ShareSubqueryExpr(Transformation):
    """Breaks the contract: unions the block with a copy that holds the
    block's own subquery expression, which two blocks must never share."""

    name = "share_subquery"
    cost_based = True

    def find_targets(self, root):
        if isinstance(root, QueryBlock) and root.subquery_exprs():
            return [TargetRef(root.name, "block", 0)]
        return []

    def apply(self, root, target):
        copy = root.clone()
        copy.name = f"{root.name}$copy"
        copy.where_conjuncts = list(root.where_conjuncts)
        return SetOpBlock("UNION ALL", [root, copy])


def test_verifier_catches_a_conjunct_placed_twice(monkeypatch):
    db = Database()
    db.execute_ddl("CREATE TABLE t (a INT, b INT)")
    db.insert("t", [{"a": i, "b": i % 3} for i in range(20)])
    db.analyze()
    cases = [
        (_PlaceConjunctTwice, "SELECT t.a FROM t WHERE t.b > 1",
         "'t.b > 1' is one object placed at two places of the block"),
        (_ShareSubqueryExpr,
         "SELECT t.a FROM t WHERE t.b > (SELECT AVG(u.b) FROM t u)",
         "'(SELECT AVG(u.b) AS col_1 FROM t u)' is one object placed at "
         "two places of the tree"),
    ]
    for transformation, sql, message in cases:
        monkeypatch.setattr(
            framework, "build_cost_based_transformations",
            lambda catalog: [transformation(catalog)],
        )
        with pytest.raises(VerificationError) as caught:
            db.optimize(sql, PARANOID)
        (diagnostic,) = [
            d for d in caught.value.diagnostics
            if d.rule == "qtree.expr-placed-twice"
        ]
        assert diagnostic.transformation.startswith(f"{transformation.name}(")
        assert diagnostic.state == (1,)
        assert diagnostic.message == message

