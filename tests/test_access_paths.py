"""Access-path generation unit tests."""

import pytest

from repro.catalog import Catalog, Column, DataType, Index, TableDef
from repro.catalog.statistics import ColumnStats, TableStats
from repro.optimizer.access_paths import base_table_paths
from repro.optimizer.costmodel import DEFAULT_COST_MODEL
from repro.optimizer.plans import IndexScan, TableScan
from repro.optimizer.predicates import PredicateAnalysis
from repro.sql import ast


def make_table():
    catalog = Catalog()
    table = catalog.add_table(TableDef(
        "t",
        [Column("id", DataType.INT, True), Column("a", DataType.INT),
         Column("b", DataType.INT), Column("c", DataType.INT)],
        primary_key=("id",),
    ))
    catalog.add_index(Index("t_ab", "t", ("a", "b")))
    return catalog, table


class FakeStats:
    def __init__(self, rows=1000):
        self.rows = rows

    def column_stats(self, alias, column):
        return ColumnStats(num_distinct=50)

    def table_stats(self, alias):
        return TableStats(row_count=self.rows)


def eq(col, value):
    return ast.BinOp("=", ast.ColumnRef("t", col), ast.Literal(value))


def lt(col, value):
    return ast.BinOp("<", ast.ColumnRef("t", col), ast.Literal(value))


def paths_for(conjuncts, local_aliases={"t"}):
    catalog, table = make_table()
    stats = FakeStats()
    table_stats = TableStats(row_count=1000)
    return base_table_paths(
        "t", table, table_stats, conjuncts, PredicateAnalysis(local_aliases),
        stats,
        DEFAULT_COST_MODEL,
    )


class TestFullScan:
    def test_scan_always_present(self):
        paths = paths_for([])
        assert any(isinstance(p, TableScan) for p in paths)

    def test_scan_embeds_local_conjuncts(self):
        paths = paths_for([eq("c", 5)])
        scan = next(p for p in paths if isinstance(p, TableScan))
        assert len(scan.conjuncts) == 1
        assert scan.cardinality < 1000

    def test_scan_excludes_sibling_join_conjuncts(self):
        join = ast.BinOp(
            "=", ast.ColumnRef("t", "a"), ast.ColumnRef("u", "x")
        )
        paths = paths_for([join], local_aliases={"t", "u"})
        scan = next(p for p in paths if isinstance(p, TableScan))
        assert scan.conjuncts == []


class TestIndexPaths:
    def test_pk_equality_gives_unique_probe(self):
        paths = paths_for([eq("id", 7)])
        index_paths = [p for p in paths if isinstance(p, IndexScan)]
        assert any(p.index.name == "t_pk" for p in index_paths)
        probe = next(p for p in index_paths if p.index.name == "t_pk")
        assert probe.cardinality < 50

    def test_composite_prefix_plus_range(self):
        paths = paths_for([eq("a", 1), lt("b", 9)])
        composite = next(
            p for p in paths
            if isinstance(p, IndexScan) and p.index.name == "t_ab"
        )
        assert [c for c, _e in composite.eq_binds] == ["a"]
        assert composite.range_bind[0] == "b"

    def test_range_only_on_leading_column(self):
        paths = paths_for([lt("a", 3)])
        assert any(
            isinstance(p, IndexScan) and p.index.name == "t_ab"
            and p.range_bind is not None
            for p in paths
        )

    def test_no_index_on_non_leading_column(self):
        paths = paths_for([eq("b", 3)])
        assert not any(
            isinstance(p, IndexScan) and p.index.name == "t_ab"
            for p in paths
        )

    def test_parameterised_probe_from_sibling(self):
        join = ast.BinOp(
            "=", ast.ColumnRef("t", "a"), ast.ColumnRef("u", "x")
        )
        paths = paths_for([join], local_aliases={"t", "u"})
        probe = next(
            (p for p in paths
             if isinstance(p, IndexScan) and p.index.name == "t_ab"),
            None,
        )
        assert probe is not None
        assert probe.outer_aliases() == {"u"}
        assert join in probe.covered_conjuncts

    def test_correlation_parameter_probe(self):
        # reference to an alias outside the block: a runtime bind
        corr = ast.BinOp(
            "=", ast.ColumnRef("t", "a"), ast.ColumnRef("outer", "k")
        )
        paths = paths_for([corr], local_aliases={"t"})
        probe = next(
            (p for p in paths
             if isinstance(p, IndexScan) and p.index.name == "t_ab"),
            None,
        )
        assert probe is not None
        assert probe.outer_aliases() == {"outer"}

    def test_residual_conjuncts_post_filtered(self):
        paths = paths_for([eq("a", 1), eq("c", 2)])
        composite = next(
            p for p in paths
            if isinstance(p, IndexScan) and p.index.name == "t_ab"
        )
        assert len(composite.post_conjuncts) == 1

    def test_subquery_conjuncts_never_bind(self):
        sub = ast.SubqueryExpr("SCALAR", query=None)
        conjunct = ast.BinOp("=", ast.ColumnRef("t", "a"), sub)
        paths = paths_for([conjunct])
        assert not any(isinstance(p, IndexScan) for p in paths)
