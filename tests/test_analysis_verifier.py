"""The optimizer sanitizer (repro.analysis).

Three layers of coverage:

* clean artifacts verify clean — representative queries across every
  construct pass both verifiers before and after optimization;
* every invariant class actually fires — each test corrupts a real tree
  or plan in one specific way and asserts the matching rule reports it;
* the auditor attributes violations to the transformation (and CBQT
  state bitvector) that produced the corrupted artifact, raising
  VerificationError in paranoid mode and only reporting via
  ``Database.check`` / the ``check`` CLI subcommand.
"""

from __future__ import annotations

import pytest

from repro import (
    Database,
    OptimizerConfig,
    PlanVerifier,
    QTreeVerifier,
    TransformationAuditor,
    VerificationError,
)
from repro.analysis.diagnostics import Diagnostic, DiagnosticReport, attributed
from repro.optimizer.plans import (
    Filter,
    HashJoin,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Project,
    SetOp,
    TableScan,
)
from repro.qtree.blocks import FromItem
from repro.sql import ast
from repro.transform import pipeline
from repro.transform.base import Transformation

from tests.conftest import build_tiny_db

JOIN_SQL = (
    "SELECT e.employee_name, d.department_name FROM employees e, "
    "departments d WHERE e.dept_id = d.dept_id AND e.salary > 10"
)
AGG_SQL = (
    "SELECT d.department_name, COUNT(*) FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id GROUP BY d.department_name "
    "HAVING COUNT(*) > 1"
)
SUBQ_SQL = (
    "SELECT e.employee_name FROM employees e WHERE e.salary > "
    "(SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)"
)


@pytest.fixture(scope="module")
def db():
    return build_tiny_db()


def tree_of(db, sql):
    return db.parse(sql)


def errors_of(diagnostics, rule=None):
    return [
        d for d in diagnostics
        if d.is_error and (rule is None or d.rule == rule)
    ]


class TestCleanArtifacts:
    CLEAN_QUERIES = [
        JOIN_SQL,
        AGG_SQL,
        SUBQ_SQL,
        "SELECT e.employee_name FROM employees e WHERE e.dept_id IN "
        "(SELECT d.dept_id FROM departments d WHERE d.loc_id = 1)",
        "SELECT e.employee_name FROM employees e WHERE e.dept_id NOT IN "
        "(SELECT d.dept_id FROM departments d)",
        "SELECT * FROM employees e WHERE NOT EXISTS "
        "(SELECT 1 FROM departments d WHERE d.dept_id = e.dept_id)",
        "SELECT e.employee_name FROM employees e UNION "
        "SELECT d.department_name FROM departments d",
        "SELECT e.employee_name FROM employees e WHERE ROWNUM <= 5",
        "SELECT l.city, COUNT(*) FROM employees e, departments d, "
        "locations l WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id "
        "GROUP BY ROLLUP(l.city)",
    ]

    @pytest.mark.parametrize("sql", CLEAN_QUERIES)
    def test_tree_verifies_before_and_after_optimization(self, db, sql):
        verifier = QTreeVerifier(db.catalog)
        assert errors_of(verifier.verify(tree_of(db, sql))) == []
        optimized = db.optimize_tree(tree_of(db, sql))
        assert errors_of(verifier.verify(optimized.tree)) == []

    @pytest.mark.parametrize("sql", CLEAN_QUERIES)
    def test_plan_verifies(self, db, sql):
        optimized = db.optimize_tree(tree_of(db, sql))
        assert errors_of(PlanVerifier().verify(optimized.plan)) == []


class TestQTreeInvariants:
    def check(self, tree, rule, catalog=None):
        diagnostics = QTreeVerifier(catalog).verify(tree)
        found = errors_of(diagnostics, rule)
        assert found, (
            f"expected {rule} to fire, got "
            f"{[d.format() for d in diagnostics]}"
        )
        return found

    def test_unresolvable_qualifier(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.where_conjuncts.append(
            ast.BinOp("=", ast.ColumnRef("ghost", "x"), ast.Literal(1))
        )
        self.check(tree, "qtree.column-resolution")

    def test_unknown_column_on_resolved_alias(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.select_items[0].expr = ast.ColumnRef("e", "no_such_column")
        self.check(tree, "qtree.column-resolution")

    def test_unqualified_reference(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.where_conjuncts.append(
            ast.BinOp(">", ast.ColumnRef(None, "mystery"), ast.Literal(1))
        )
        self.check(tree, "qtree.column-resolution")

    def test_broken_correlation_after_fake_merge(self, db):
        # simulates a bad view merge: the subquery's correlation names an
        # alias that no enclosing block provides any more
        tree = tree_of(db, SUBQ_SQL)
        tree.from_items[0].alias = "renamed"
        self.check(tree, "qtree.column-resolution")

    def test_base_table_without_definition(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.from_items[0].table = None
        self.check(tree, "qtree.from-item")

    def test_dangling_parser_statement_in_from(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.from_items[1] = FromItem("d", "departments")
        tree.from_items[1].source = object()  # not str, not QueryNode
        self.check(tree, "qtree.from-item")

    def test_duplicate_aliases(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.from_items[1].alias = "e"
        self.check(tree, "qtree.alias-unique")

    def test_duplicate_block_names(self, db):
        tree = tree_of(db, SUBQ_SQL)
        inner = next(s.query for s in tree.subquery_exprs())
        inner.name = tree.name
        self.check(tree, "qtree.block-names")

    def test_unknown_join_type(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.from_items[1].join_type = "FULL"  # bypasses the constructor
        self.check(tree, "qtree.join-type")

    def test_inner_item_with_on_conjuncts(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.from_items[1].join_conjuncts.append(
            ast.BinOp("=", ast.ColumnRef("e", "dept_id"),
                      ast.ColumnRef("d", "dept_id"))
        )
        self.check(tree, "qtree.join-type")

    def test_join_endpoint_missing(self, db):
        tree = tree_of(db, JOIN_SQL)
        item = tree.from_items[1]
        item.join_type = "SEMI"
        item.join_conjuncts = [
            ast.BinOp("=", ast.ColumnRef("d", "dept_id"),
                      ast.ColumnRef("gone", "dept_id"))
        ]
        self.check(tree, "qtree.join-endpoints")

    def test_disconnected_join_graph_warns(self, db):
        tree = tree_of(
            db, "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.salary > 5"
        )
        diagnostics = QTreeVerifier().verify(tree)
        assert any(
            d.rule == "qtree.join-connected" and d.severity == "warning"
            for d in diagnostics
        )
        assert errors_of(diagnostics) == []  # cross joins stay legal

    def test_ungrouped_select_column(self, db):
        tree = tree_of(db, AGG_SQL)
        tree.select_items[0].expr = ast.ColumnRef("e", "salary")
        self.check(tree, "qtree.group-consistency")

    def test_ungrouped_having_column(self, db):
        tree = tree_of(db, AGG_SQL)
        tree.having_conjuncts.append(
            ast.BinOp(">", ast.ColumnRef("e", "salary"), ast.Literal(1))
        )
        self.check(tree, "qtree.group-consistency")

    def test_rowid_grouping_determines_columns(self, db):
        # Oracle's rowid group-by unnesting: grouping e.rowid lets the
        # select list use any e column — must NOT fire
        tree = tree_of(db, AGG_SQL)
        tree.group_by.append(ast.ColumnRef("e", "rowid"))
        tree.select_items[0].expr = ast.ColumnRef("e", "salary")
        diagnostics = QTreeVerifier().verify(tree)
        assert errors_of(diagnostics, "qtree.group-consistency") == []

    def test_grouping_set_index_out_of_range(self, db):
        tree = tree_of(db, AGG_SQL)
        tree.grouping_sets = [[0], [7]]
        self.check(tree, "qtree.grouping-sets")

    def test_dangling_subquery_statement(self, db):
        tree = tree_of(db, SUBQ_SQL)
        subquery = next(iter(tree.subquery_exprs()))
        subquery.query = object()  # parser statement left unbuilt
        self.check(tree, "qtree.dangling-subquery")

    def test_setop_branch_arity_mismatch(self, db):
        tree = tree_of(
            db, "SELECT e.emp_id FROM employees e UNION ALL "
            "SELECT d.dept_id FROM departments d"
        )
        tree.branches[1].select_items.append(
            ast.SelectItem(ast.ColumnRef("d", "loc_id"), "extra")
        )
        self.check(tree, "qtree.setop-shape")

    def test_setop_unknown_operator(self, db):
        tree = tree_of(
            db, "SELECT e.emp_id FROM employees e UNION "
            "SELECT d.dept_id FROM departments d"
        )
        tree.op = "EXCEPT ALL"
        self.check(tree, "qtree.setop-shape")

    def test_empty_select_list(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.select_items = []
        self.check(tree, "qtree.select-shape")

    def test_negative_rownum_limit(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.rownum_limit = -3
        self.check(tree, "qtree.select-shape")


class TestPlanInvariants:
    def plan_of(self, db, sql):
        return db.optimize_tree(tree_of(db, sql)).plan

    def check(self, plan, rule):
        diagnostics = PlanVerifier().verify(plan)
        found = errors_of(diagnostics, rule)
        assert found, (
            f"expected {rule} to fire, got "
            f"{[d.format() for d in diagnostics]}"
        )
        return found

    def find(self, plan, cls):
        if isinstance(plan, cls):
            return plan
        for child in plan.children():
            found = self.find(child, cls)
            if found is not None:
                return found
        return None

    def test_alias_set_lies(self, db):
        plan = self.plan_of(db, JOIN_SQL)
        scan = self.find(plan, TableScan)
        scan.aliases = frozenset(["impostor"])
        self.check(plan, "plan.alias-consistency")

    def test_unknown_join_type(self, db):
        plan = self.plan_of(db, JOIN_SQL)
        join = self.find(plan, HashJoin) or self.find(plan, NestedLoopJoin) \
            or self.find(plan, MergeJoin)
        assert join is not None
        join.join_type = "FULL"
        self.check(plan, "plan.shape")

    def test_merge_join_cannot_do_anti_na(self, db):
        left = TableScan("a", "employees", [], 10.0, 10.0)
        right = TableScan("b", "departments", [], 10.0, 10.0)
        plan = MergeJoin(
            left, right, "ANTI_NA",
            [ast.ColumnRef("a", "dept_id")], [ast.ColumnRef("b", "dept_id")],
            [], 30.0, 5.0,
        )
        self.check(plan, "plan.join-method")

    def test_hash_anti_na_with_residual(self, db):
        left = TableScan("a", "employees", [], 10.0, 10.0)
        right = TableScan("b", "departments", [], 10.0, 10.0)
        plan = HashJoin(
            left, right, "ANTI_NA",
            [ast.ColumnRef("a", "dept_id")], [ast.ColumnRef("b", "dept_id")],
            [ast.BinOp(">", ast.ColumnRef("a", "salary"), ast.Literal(1))],
            30.0, 5.0,
        )
        self.check(plan, "plan.join-method")

    def test_hash_join_key_side_swapped(self, db):
        left = TableScan("a", "employees", [], 10.0, 10.0)
        right = TableScan("b", "departments", [], 10.0, 10.0)
        plan = HashJoin(
            left, right, "INNER",
            [ast.ColumnRef("b", "dept_id")],  # right-side column as left key
            [ast.ColumnRef("a", "dept_id")],
            [], 30.0, 5.0,
        )
        self.check(plan, "plan.join-keys")

    def test_hash_join_key_count_mismatch(self, db):
        left = TableScan("a", "employees", [], 10.0, 10.0)
        right = TableScan("b", "departments", [], 10.0, 10.0)
        plan = HashJoin(
            left, right, "INNER",
            [ast.ColumnRef("a", "dept_id"), ast.ColumnRef("a", "emp_id")],
            [ast.ColumnRef("b", "dept_id")],
            [], 30.0, 5.0,
        )
        self.check(plan, "plan.join-keys")

    def test_hash_right_side_parameterised_on_left(self, db):
        left = TableScan("a", "employees", [], 10.0, 10.0)
        right = TableScan(
            "b", "departments",
            [ast.BinOp("=", ast.ColumnRef("b", "dept_id"),
                       ast.ColumnRef("a", "dept_id"))],
            10.0, 10.0,
        )
        plan = HashJoin(
            left, right, "INNER",
            [ast.ColumnRef("a", "dept_id")], [ast.ColumnRef("b", "dept_id")],
            [], 30.0, 5.0,
        )
        self.check(plan, "plan.join-method")

    def test_sibling_branch_reference(self, db):
        left = TableScan("a", "employees", [], 10.0, 10.0)
        # b's scan filter references sibling a: only legal via nested-loop
        # binds or declared lateral correlation, neither of which holds
        right = TableScan(
            "b", "departments",
            [ast.BinOp("=", ast.ColumnRef("b", "dept_id"),
                       ast.ColumnRef("a", "dept_id"))],
            10.0, 10.0,
        )
        plan = HashJoin(
            left, right, "INNER",
            [ast.ColumnRef("a", "dept_id")], [ast.ColumnRef("b", "dept_id")],
            [], 30.0, 5.0,
        )
        self.check(plan, "plan.cross-branch")

    def test_conjunct_applied_twice(self, db):
        conjunct = ast.BinOp(">", ast.ColumnRef("a", "salary"), ast.Literal(1))
        scan = TableScan("a", "employees", [conjunct], 10.0, 10.0)
        plan = Filter(scan, [conjunct], 12.0, 5.0)
        self.check(plan, "plan.conjunct-placement")

    def test_covered_conjunct_reapplied_as_post_filter(self, db):
        plan = self.plan_of(
            db, "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id"
        )
        from repro.optimizer.plans import IndexScan

        scan = self.find(plan, IndexScan)
        if scan is None or not scan.covered_conjuncts:
            pytest.skip("plan has no covered index probe")
        scan.post_conjuncts = scan.post_conjuncts + [
            scan.covered_conjuncts[0]
        ]
        self.check(plan, "plan.conjunct-placement")

    def test_setop_width_mismatch(self, db):
        one = Project(
            TableScan("a", "employees", [], 10.0, 10.0),
            [ast.SelectItem(ast.ColumnRef("a", "emp_id"), "c1")],
            11.0, 10.0,
        )
        two = Project(
            TableScan("b", "departments", [], 10.0, 10.0),
            [ast.SelectItem(ast.ColumnRef("b", "dept_id"), "c1"),
             ast.SelectItem(ast.ColumnRef("b", "loc_id"), "c2")],
            11.0, 10.0,
        )
        plan = SetOp("UNION ALL", [one, two], 25.0, 20.0)
        self.check(plan, "plan.arity")

    def test_view_width_mismatch(self, db):
        from repro.optimizer.plans import ViewScan

        body = Project(
            TableScan("a", "employees", [], 10.0, 10.0),
            [ast.SelectItem(ast.ColumnRef("a", "emp_id"), "c")],
            11.0, 10.0,
        )
        view = ViewScan("v", body, ["c", "phantom"], set(), [], 12.0, 10.0)
        self.check(view, "plan.arity")

    def test_index_eq_binds_must_prefix_index(self, db):
        plan = self.plan_of(
            db, "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.dept_id = d.dept_id"
        )
        from repro.optimizer.plans import IndexScan

        scan = self.find(plan, IndexScan)
        if scan is None or not scan.eq_binds:
            pytest.skip("plan has no index probe")
        scan.eq_binds = [("salary", scan.eq_binds[0][1])]
        self.check(plan, "plan.shape")

    def test_negative_stopkey(self, db):
        scan = TableScan("a", "employees", [], 10.0, 10.0)
        plan = Limit(scan, -1, 10.0, 0.0)
        self.check(plan, "plan.shape")

    def test_non_finite_cost(self, db):
        plan = self.plan_of(db, JOIN_SQL)
        plan.cost = float("inf")
        self.check(plan, "plan.cost-sanity")

    def test_negative_cardinality(self, db):
        plan = self.plan_of(db, JOIN_SQL)
        plan.cardinality = -4.0
        self.check(plan, "plan.cost-sanity")

    def test_limit_may_cost_less_than_child(self, db):
        scan = TableScan("a", "employees", [], 100.0, 1000.0)
        plan = Limit(scan, 10, 5.0, 10.0)  # stopkey scales the cost down
        assert errors_of(PlanVerifier().verify(plan)) == []


class _CorruptingTransformation(Transformation):
    """A fake heuristic rule that breaks every tree it touches."""

    name = "evil_rewrite"
    cost_based = False

    def __init__(self, catalog=None):
        pass

    def find_targets(self, root):
        from repro.transform.base import TargetRef

        poisoned = any(
            ref.qualifier == "ghost"
            for conjunct in root.where_conjuncts
            for ref in ast.column_refs_in(conjunct)
        )
        return [] if poisoned else [TargetRef(root.name, "block", 0)]

    def apply(self, root, target):
        root = root.clone()
        root.where_conjuncts.append(
            ast.BinOp("=", ast.ColumnRef("ghost", "x"), ast.Literal(1))
        )
        return root


class TestAuditor:
    def test_attribution_stamps_transformation_and_state(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.select_items[0].expr = ast.ColumnRef("e", "bogus")
        auditor = TransformationAuditor(db.catalog, raise_on_error=False)
        found = auditor.audit_tree(tree, "jppd(v@qb$1)", (0, 1, 0))
        assert found and found[0].transformation == "jppd(v@qb$1)"
        assert found[0].state == (0, 1, 0)
        assert "jppd" in found[0].format() and "010" in found[0].format()

    def test_paranoid_mode_raises(self, db):
        tree = tree_of(db, JOIN_SQL)
        tree.select_items[0].expr = ast.ColumnRef("e", "bogus")
        auditor = TransformationAuditor(db.catalog)
        with pytest.raises(VerificationError) as excinfo:
            auditor.audit_tree(tree, "spj_merge")
        assert excinfo.value.diagnostics
        assert excinfo.value.diagnostics[0].transformation == "spj_merge"

    def test_report_mode_accumulates(self, db):
        auditor = TransformationAuditor(db.catalog, raise_on_error=False)
        good = tree_of(db, JOIN_SQL)
        bad = tree_of(db, JOIN_SQL)
        bad.select_items[0].expr = ast.ColumnRef("e", "bogus")
        auditor.audit_tree(good, "step1")
        auditor.audit_tree(bad, "step2")
        assert not auditor.report.ok
        assert all(d.transformation == "step2"
                   for d in auditor.report.errors)

    def test_heuristic_pipeline_blames_the_rewrite(self, db, monkeypatch):
        monkeypatch.setattr(
            pipeline, "build_heuristic_transformations",
            lambda catalog: [_CorruptingTransformation()],
        )
        auditor = TransformationAuditor(db.catalog)
        tree = tree_of(db, JOIN_SQL)
        with pytest.raises(VerificationError) as excinfo:
            pipeline.apply_heuristic_phase(
                tree, db.catalog, auditor=auditor
            )
        assert excinfo.value.diagnostics[0].transformation == "evil_rewrite"

    def test_cbqt_search_blames_alternative_and_state(self, monkeypatch):
        from repro.transform.costbased import UnnestSubqueryToView

        db = build_tiny_db()
        original = UnnestSubqueryToView.apply

        def corrupting(self, root, target):
            root = original(self, root, target)
            for block in root.iter_blocks():
                for item in block.from_items:
                    if item.is_derived:
                        block.where_conjuncts.append(ast.BinOp(
                            "=", ast.ColumnRef("ghost", "x"), ast.Literal(1)
                        ))
                        return root
            return root

        monkeypatch.setattr(UnnestSubqueryToView, "apply", corrupting)
        config = OptimizerConfig()
        from dataclasses import replace

        config = replace(
            config, cbqt=replace(config.cbqt, debug_checks=True)
        )
        with pytest.raises(VerificationError) as excinfo:
            db.optimize_tree(db.parse(SUBQ_SQL), config=config)
        blamed = excinfo.value.diagnostics[0]
        assert blamed.transformation and "unnest_view" in blamed.transformation
        assert blamed.state is not None and any(blamed.state)


class TestCheckApi:
    def test_clean_query_reports_ok(self, db):
        report = db.check(JOIN_SQL)
        assert report.ok
        assert "ok" in report.format()

    def test_check_collects_instead_of_raising(self, monkeypatch):
        from repro.transform.costbased import UnnestSubqueryToView

        db = build_tiny_db()
        original = UnnestSubqueryToView.apply

        def corrupting(self, root, target):
            root = original(self, root, target)
            next(root.iter_blocks()).where_conjuncts.append(ast.BinOp(
                "=", ast.ColumnRef("ghost", "x"), ast.Literal(1)
            ))
            return root

        monkeypatch.setattr(UnnestSubqueryToView, "apply", corrupting)
        report = db.check(SUBQ_SQL)
        assert not report.ok
        assert any("ghost" in d.message for d in report.errors)
        assert any(d.transformation for d in report.errors)

    def test_explain_surfaces_warnings(self, db):
        # cross-join query: the connectivity warning must reach explain
        text = db.explain(
            "SELECT e.emp_id FROM employees e, departments d "
            "WHERE e.salary > 1000"
        )
        assert "qtree.join-connected" in text


class TestDiagnosticPlumbing:
    def test_report_format_counts(self):
        report = DiagnosticReport(context="unit")
        report.extend([
            Diagnostic("r.a", "error", "broken"),
            Diagnostic("r.b", "warning", "odd"),
        ])
        text = report.format()
        assert "1 error(s)" in text and "1 warning(s)" in text
        assert not report.ok

    def test_attributed_preserves_existing_blame(self):
        already = Diagnostic("r", "error", "m", transformation="first")
        fresh = Diagnostic("r", "error", "m")
        out = attributed([already, fresh], "second", (1,))
        assert out[0].transformation == "first"
        assert out[1].transformation == "second" and out[1].state == (1,)


class TestCliCheck:
    def make_shell(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(out=out)
        return shell, out

    def seed(self, shell):
        shell.db.execute_ddl(
            "CREATE TABLE t (id INT PRIMARY KEY, v INT)"
        )
        shell.db.insert("t", [{"id": i, "v": i % 3} for i in range(20)])
        shell.db.analyze()

    def test_check_subcommand_ok(self):
        from repro.cli import _cmd_check

        shell, out = self.make_shell()
        self.seed(shell)
        status = _cmd_check(["SELECT t.id FROM t WHERE t.v = 1"], shell)
        assert status == 0
        assert "ok" in out.getvalue()

    def test_check_subcommand_usage(self):
        from repro.cli import _cmd_check

        shell, out = self.make_shell()
        assert _cmd_check([], shell) == 2

    def test_checks_meta_toggle(self):
        shell, out = self.make_shell()
        shell.run_line(".checks on")
        assert shell.db.config.cbqt.debug_checks is True
        shell.run_line(".checks off")
        assert shell.db.config.cbqt.debug_checks is False
        assert "debug checks" in out.getvalue()
