"""Unit tests for the join-order enumerator (DP + greedy, partial orders,
join-method selection, pending filters) and the predicate analysis it
enumerates over."""

import pytest

from repro.catalog import Index
from repro.catalog.statistics import ColumnStats, TableStats
from repro.errors import OptimizerError
from repro.optimizer.costmodel import DEFAULT_COST_MODEL
from repro.optimizer.join_order import (
    JoinOrderEnumerator,
    PendingFilter,
    Relation,
    _equi_split,
)
from repro.optimizer.physical import CostBudgetExceeded
from repro.optimizer.plans import (
    Filter,
    HashJoin,
    IndexScan,
    MergeJoin,
    NestedLoopJoin,
    TableScan,
    ViewScan,
)
from repro.optimizer.predicates import PredicateAnalysis
from repro.qtree.blocks import FromItem, QueryBlock
from repro.sql import ast


class FakeStats:
    """Minimal StatsContext: every column has NDV 10, tables 100 rows."""

    def column_stats(self, alias, column):
        return ColumnStats(num_distinct=10)

    def table_stats(self, alias):
        return TableStats(row_count=100)


def scan(alias, rows=100.0):
    return TableScan(alias, alias, [], cost=rows, cardinality=rows)


def eq(a, acol, b, bcol):
    return ast.BinOp("=", ast.ColumnRef(a, acol), ast.ColumnRef(b, bcol))


def enumerate_plan(relations, conjuncts=(), filters=(), dp_threshold=8,
                   budget=None):
    enumerator = JoinOrderEnumerator(
        relations, list(conjuncts), list(filters), FakeStats(),
        DEFAULT_COST_MODEL, dp_threshold, budget,
    )
    return enumerator.best_plan()


def join_sequence(plan):
    """Aliases in join order (left-deep walk)."""
    order = []

    def walk(node):
        if isinstance(node, (NestedLoopJoin, HashJoin, MergeJoin)):
            walk(node.left)
            walk(node.right)
        elif isinstance(node, Filter):
            walk(node.child)
        elif isinstance(node, TableScan):
            order.append(node.alias)

    walk(plan)
    return order


class TestBasics:
    def test_single_relation(self):
        plan = enumerate_plan([Relation("a", [scan("a")])])
        assert isinstance(plan, TableScan)

    def test_two_way_join_covers_both(self):
        plan = enumerate_plan(
            [Relation("a", [scan("a")]), Relation("b", [scan("b")])],
            [eq("a", "x", "b", "y")],
        )
        assert plan.aliases == {"a", "b"}

    def test_equi_join_prefers_hash_over_nl(self):
        # two 100-row tables: hash join beats nested loops
        plan = enumerate_plan(
            [Relation("a", [scan("a")]), Relation("b", [scan("b")])],
            [eq("a", "x", "b", "y")],
        )
        assert isinstance(plan, (HashJoin, MergeJoin))

    def test_small_inner_may_use_nl(self):
        plan = enumerate_plan(
            [Relation("a", [scan("a", 3.0)]), Relation("b", [scan("b", 4.0)])],
            [eq("a", "x", "b", "y")],
        )
        assert plan.aliases == {"a", "b"}  # whatever method, must be valid

    def test_cross_product_when_no_conjuncts(self):
        plan = enumerate_plan(
            [Relation("a", [scan("a")]), Relation("b", [scan("b")])],
        )
        assert plan.aliases == {"a", "b"}


class TestPartialOrders:
    def test_semijoin_cannot_lead(self):
        semi = Relation(
            "s", [scan("s")], join_type="SEMI",
            join_conjuncts=[eq("a", "x", "s", "y")],
            required_predecessors={"a"},
        )
        plan = enumerate_plan([Relation("a", [scan("a")]), semi])
        assert join_sequence(plan) == ["a", "s"]
        assert plan.join_type == "SEMI"

    def test_left_join_order_respected(self):
        left_item = Relation(
            "l", [scan("l")], join_type="LEFT",
            join_conjuncts=[eq("a", "x", "l", "y")],
            required_predecessors={"a"},
        )
        plan = enumerate_plan(
            [Relation("a", [scan("a")]), left_item,
             Relation("b", [scan("b")])],
            [eq("a", "x", "b", "y")],
        )
        sequence = join_sequence(plan)
        assert sequence.index("a") < sequence.index("l")

    def test_unsatisfiable_order_raises(self):
        # two semijoins requiring each other
        s1 = Relation("s1", [scan("s1")], join_type="SEMI",
                      required_predecessors={"s2"})
        s2 = Relation("s2", [scan("s2")], join_type="SEMI",
                      required_predecessors={"s1"})
        with pytest.raises(OptimizerError):
            enumerate_plan([s1, s2])

    def test_anti_na_never_merge_joined(self):
        anti = Relation(
            "n", [scan("n")], join_type="ANTI_NA",
            join_conjuncts=[eq("a", "x", "n", "y")],
            required_predecessors={"a"},
        )
        plan = enumerate_plan([Relation("a", [scan("a")]), anti])
        assert not isinstance(plan, MergeJoin)


class TestPendingFilters:
    def test_filter_applied_at_covering_state(self):
        conjunct = eq("a", "x", "b", "y")
        pending = PendingFilter(conjunct, {"a", "b"}, 0.5, 10.0)
        plan = enumerate_plan(
            [Relation("a", [scan("a")]), Relation("b", [scan("b")]),
             Relation("c", [scan("c")])],
            [eq("b", "k", "c", "k"), eq("a", "k", "b", "k")],
            [pending],
        )
        filters = []

        def walk(node):
            if isinstance(node, Filter):
                filters.append(node)
            for child in node.children():
                walk(child)

        walk(plan)
        assert len(filters) == 1
        # the filter runs as soon as a and b are joined
        assert filters[0].aliases >= {"a", "b"}

    def test_leaf_filter_with_no_refs(self):
        pending = PendingFilter(ast.Literal(True), set(), 1.0, 0.1)
        plan = enumerate_plan(
            [Relation("a", [scan("a")]), Relation("b", [scan("b")])],
            [eq("a", "x", "b", "y")],
            [pending],
        )
        text = plan.describe()
        assert "FILTER" in text


class TestGreedy:
    def test_greedy_matches_dp_coverage(self):
        relations = [
            Relation(alias, [scan(alias, rows)])
            for alias, rows in [("a", 10), ("b", 500), ("c", 50), ("d", 200)]
        ]
        conjuncts = [
            eq("a", "k", "b", "k"), eq("b", "k", "c", "k"),
            eq("c", "k", "d", "k"),
        ]
        dp_plan = enumerate_plan(relations, conjuncts, dp_threshold=8)
        greedy_plan = enumerate_plan(
            [Relation(r.alias, list(r.paths)) for r in relations],
            conjuncts, dp_threshold=2,
        )
        assert dp_plan.aliases == greedy_plan.aliases == {"a", "b", "c", "d"}
        # greedy can be worse, never better
        assert greedy_plan.cost >= dp_plan.cost - 1e-9

    def test_dp_picks_cheaper_or_equal_order(self):
        relations = [
            Relation("big", [scan("big", 10_000)]),
            Relation("small", [scan("small", 10)]),
            Relation("mid", [scan("mid", 500)]),
        ]
        conjuncts = [
            eq("big", "k", "small", "k"), eq("small", "k", "mid", "k"),
        ]
        plan = enumerate_plan(relations, conjuncts)
        assert plan.aliases == {"big", "small", "mid"}


def index_probe(alias, column, bind, covered=None, cost=3.0, rows=1.0):
    """An index path on ``alias.column = bind`` (parameterised when *bind*
    references another alias)."""
    return IndexScan(
        alias, alias, Index(f"{alias}_{column}", alias, (column,)),
        [(column, bind)], None, [], cost, rows,
        covered_conjuncts=[covered] if covered is not None else None,
    )


class TestPredicateAnalysis:
    def test_bits_follow_sorted_alias_order(self):
        analysis = PredicateAnalysis({"b", "c", "a"})
        assert analysis.bits == {"a": 1, "b": 2, "c": 4}
        assert analysis.outer == 8
        assert analysis.mask_of(["c", "a", "elsewhere"]) == 4 | 1 | 8
        assert analysis.names(5) == {"a", "c"}

    def test_mask_includes_correlated_subquery_refs(self):
        # a.x > (SELECT i.v FROM t i WHERE i.k = b.k AND i.j = o.j)
        body = QueryBlock(
            select_items=[ast.SelectItem(ast.ColumnRef("i", "v"))],
            from_items=[FromItem("i", "t")],
            where_conjuncts=[eq("i", "k", "b", "k"), eq("i", "j", "o", "j")],
        )
        conjunct = ast.BinOp(
            ">", ast.ColumnRef("a", "x"), ast.SubqueryExpr("SCALAR", body)
        )
        analysis = PredicateAnalysis({"a", "b", "c"})
        facts = analysis.facts(conjunct)
        assert facts.has_subquery and not facts.equi
        # b through the subquery body; i is bound inside it, o is not ours
        assert facts.mask == analysis.mask_of(["a", "b"])
        assert facts.left_mask == analysis.bits["a"]
        assert facts.right_mask == analysis.bits["b"] | analysis.outer
        assert analysis.facts(conjunct) is facts  # memoised by identity

    def test_correlation_refs_are_taken_from_the_callback(self):
        body = QueryBlock(from_items=[FromItem("i", "t")])
        calls = []

        def refs_of(node):
            calls.append(node)
            return [ast.ColumnRef("a", "x")]

        analysis = PredicateAnalysis({"a"}, refs_of)
        facts = analysis.facts(ast.SubqueryExpr("EXISTS", body))
        assert calls == [body] and facts.mask == 1 and facts.has_subquery

    def test_equi_only_for_subquery_free_equality(self):
        analysis = PredicateAnalysis({"a", "b"})
        assert analysis.facts(eq("a", "x", "b", "y")).equi
        less = ast.BinOp("<", ast.ColumnRef("a", "x"), ast.ColumnRef("b", "y"))
        assert not analysis.facts(less).equi
        assert analysis.facts(less).left_mask == 1  # sides kept for binds
        literal = ast.BinOp("=", ast.ColumnRef("a", "x"), ast.Literal(1))
        assert analysis.facts(literal).right_mask == 0

    def test_equi_split_orientation_both_ways(self):
        analysis = PredicateAnalysis({"a", "b", "c"})
        a, b, c = (analysis.bits[x] for x in "abc")
        forward = analysis.facts(eq("a", "x", "c", "y"))
        backward = analysis.facts(eq("c", "y", "b", "x"))
        same_side = analysis.facts(eq("a", "x", "b", "y"))
        outer = analysis.facts(eq("c", "y", "elsewhere", "z"))
        keys, rest = _equi_split(
            a | b, c, [forward, backward, same_side, outer]
        )
        assert keys == [(forward, False), (backward, True)]
        assert rest == [same_side, outer]
        # a side that references nothing (a constant) is never a key
        constant = analysis.facts(
            ast.BinOp("=", ast.ColumnRef("c", "y"), ast.Literal(3))
        )
        assert _equi_split(a, c, [constant]) == ([], [constant])


class TestJoinMethods:
    def test_hash_keys_follow_the_inputs_not_the_conjunct(self):
        # conjunct written right-to-left: b.y = a.x with a on the left
        plan = enumerate_plan(
            [Relation("a", [scan("a", 50.0)]),
             Relation("b", [scan("b", 5000.0)], join_type="LEFT",
                      join_conjuncts=[eq("b", "y", "a", "x")],
                      required_predecessors={"a"})],
        )
        assert isinstance(plan, (HashJoin, MergeJoin))
        assert [k.qualifier for k in plan.left_keys] == ["a"]
        assert [k.qualifier for k in plan.right_keys] == ["b"]

    def anti_na(self, conjuncts):
        return enumerate_plan([
            Relation("a", [scan("a", 1000.0)]),
            Relation("n", [scan("n", 1000.0)], join_type="ANTI_NA",
                     join_conjuncts=conjuncts, required_predecessors={"a"}),
        ])

    def test_anti_na_hashes_one_bare_key(self):
        plan = self.anti_na([eq("a", "x", "n", "y")])
        assert isinstance(plan, HashJoin) and plan.join_type == "ANTI_NA"

    def test_anti_na_with_second_key_or_residual_is_nested_loops(self):
        two_keys = [eq("a", "x", "n", "y"), eq("a", "u", "n", "v")]
        assert isinstance(self.anti_na(two_keys), NestedLoopJoin)
        residual = [
            eq("a", "x", "n", "y"),
            ast.BinOp("<", ast.ColumnRef("a", "u"), ast.ColumnRef("n", "v")),
        ]
        assert isinstance(self.anti_na(residual), NestedLoopJoin)

    def test_covered_conjunct_not_reapplied_at_the_join(self):
        join = eq("a", "k", "b", "k")
        extra = ast.BinOp("<", ast.ColumnRef("a", "u"), ast.ColumnRef("b", "v"))
        probe = index_probe("b", "k", ast.ColumnRef("a", "k"), covered=join)
        plan = enumerate_plan(
            [Relation("a", [scan("a", 10.0)]),
             Relation("b", [scan("b", 100000.0), probe])],
            [join, extra],
        )
        assert isinstance(plan, NestedLoopJoin) and plan.right is probe
        assert plan.conjuncts == [extra]

    def test_uncovered_probe_keeps_the_conjunct(self):
        join = eq("a", "k", "b", "k")
        probe = index_probe("b", "k", ast.ColumnRef("a", "k"))
        plan = enumerate_plan(
            [Relation("a", [scan("a", 10.0)]),
             Relation("b", [scan("b", 100000.0), probe])],
            [join],
        )
        assert plan.right is probe and plan.conjuncts == [join]


class TestPathDependencies:
    def test_parameterised_path_cannot_lead_and_joins_by_nl_only(self):
        join = eq("a", "k", "b", "k")
        probe = index_probe("b", "k", ast.ColumnRef("a", "k"), covered=join)
        # b's only path needs a: the one valid order is a, b by index NL
        plan = enumerate_plan(
            [Relation("a", [scan("a", 1000.0)]), Relation("b", [probe])],
            [join],
        )
        assert isinstance(plan, NestedLoopJoin)
        assert plan.left.alias == "a" and plan.right is probe

    def test_correlation_bind_is_not_a_dependency(self):
        # bind on an alias outside the block: a runtime parameter
        probe = index_probe("b", "k", ast.ColumnRef("outer_q", "k"))
        plan = enumerate_plan([Relation("b", [probe])])
        assert plan is probe

    def test_lateral_view_follows_its_references(self):
        view = ViewScan("v", scan("inner", 5.0), ["c"], {"a"}, [], 5.0, 5.0)
        plan = enumerate_plan(
            [Relation("a", [scan("a", 1000.0)]), Relation("v", [view]),
             Relation("b", [scan("b", 2.0)])],
            [eq("a", "k", "b", "k")],
        )
        sequence = []
        node = plan
        while isinstance(node, (NestedLoopJoin, HashJoin, MergeJoin)):
            sequence.append(node)
            node = node.left
        lateral = next(j for j in sequence if j.right is view)
        assert isinstance(lateral, NestedLoopJoin)
        assert "a" in lateral.left.aliases

    def test_no_path_without_dependencies_raises(self):
        probe = index_probe("b", "k", ast.ColumnRef("a", "k"))
        with pytest.raises(OptimizerError):
            enumerate_plan([
                Relation("a", [index_probe("a", "k", ast.ColumnRef("b", "k"))]),
                Relation("b", [probe]),
            ])

    def test_required_predecessors_hold_across_inner_joins(self):
        semi = Relation(
            "s", [scan("s", 1.0)], join_type="SEMI",
            join_conjuncts=[eq("c", "x", "s", "y")],
            required_predecessors={"c"},
        )
        # s is tiny and would be joined first if the order allowed it
        plan = enumerate_plan(
            [Relation("a", [scan("a", 100.0)]), semi,
             Relation("c", [scan("c", 100.0)])],
            [eq("a", "k", "c", "k")],
        )
        sequence = join_sequence(plan)
        assert sequence.index("c") < sequence.index("s")
        # semijoined aliases are not exposed by the plan
        assert plan.aliases == {"a", "c"}


class TestBudget:
    RELATIONS = [("a", 100.0), ("b", 100.0), ("c", 100.0)]
    CONJUNCTS = [eq("a", "k", "b", "k"), eq("b", "k", "c", "k")]

    def relations(self):
        return [Relation(alias, [scan(alias, rows)])
                for alias, rows in self.RELATIONS]

    def test_budget_above_every_prefix_changes_nothing(self):
        free = enumerate_plan(self.relations(), self.CONJUNCTS)
        capped = enumerate_plan(
            self.relations(), self.CONJUNCTS, budget=free.cost
        )
        assert capped.cost == free.cost
        assert capped.describe() == free.describe()

    @pytest.mark.parametrize("dp_threshold", [8, 2])
    def test_budget_below_every_two_way_join_cuts_off(self, dp_threshold):
        # a leaf costs 100 <= budget, any join of two costs more
        with pytest.raises(CostBudgetExceeded):
            enumerate_plan(
                self.relations(), self.CONJUNCTS,
                dp_threshold=dp_threshold, budget=150.0,
            )


class TestGreedyAboveThreshold:
    def chain(self, n):
        names = [f"t{i}" for i in range(n)]
        relations = [
            Relation(name, [scan(name, 10.0 * (i + 1))])
            for i, name in enumerate(names)
        ]
        conjuncts = [
            eq(left, "k", right, "k") for left, right in zip(names, names[1:])
        ]
        return relations, conjuncts

    def test_nine_relations_go_greedy_and_cover_everything(self):
        relations, conjuncts = self.chain(9)  # default threshold is 8
        plan = enumerate_plan(relations, conjuncts)
        assert plan.aliases == {r.alias for r in relations}
        assert sorted(join_sequence(plan)) == sorted(plan.aliases)
        # greedy starts from the cheapest leaf
        assert join_sequence(plan)[0] == "t0"

    def test_greedy_never_beats_dp(self):
        relations, conjuncts = self.chain(6)
        dp_plan = enumerate_plan(relations, conjuncts)
        greedy_plan = enumerate_plan(relations, conjuncts, dp_threshold=3)
        assert greedy_plan.cost >= dp_plan.cost

    def test_greedy_honours_partial_order(self):
        relations, conjuncts = self.chain(4)
        relations.append(Relation(
            "s", [scan("s", 1.0)], join_type="SEMI",
            join_conjuncts=[eq("t3", "x", "s", "y")],
            required_predecessors={"t3"},
        ))
        plan = enumerate_plan(relations, conjuncts, dp_threshold=2)
        sequence = join_sequence(plan)
        assert sequence.index("t3") < sequence.index("s")
