"""Structural invariant verifier for the query-tree IR.

The transformation framework rewrites a shared declarative IR dozens of
times per query; a single transformation bug (a dangling alias after a
view merge, a conjunct referencing a deleted block, a non-grouped column
surviving group-by placement) silently corrupts costing and results.
This verifier checks the invariants every :class:`QueryBlock` /
:class:`SetOpBlock` must satisfy at *every* point of the pipeline:

``qtree.column-resolution``
    every column reference resolves to a visible from-item (local alias,
    or an enclosing block's alias for correlated references) and to an
    existing output column of that from-item;
``qtree.from-item``
    from-item sources are well-formed (base tables carry a resolved
    TableDef, derived tables a built query node);
``qtree.alias-unique``
    from-item aliases are unique within a block;
``qtree.block-names``
    block / set-op names are unique across the whole tree (TargetRef
    paths address blocks by name);
``qtree.expr-placed-twice``
    no block holds one conjunct object twice (the optimizer and the plan
    verifier name a conjunct by its place in its block), and no subquery
    expression sits at two places of one tree (its body is rewritten in
    place);
``qtree.join-type`` / ``qtree.join-endpoints``
    join types are known and every alias a non-inner item's ON condition
    references exists in scope (the partial-order endpoints);
``qtree.join-connected``
    the join graph of a multi-item block is connected (warning only: a
    genuine cross join is legal SQL);
``qtree.group-consistency``
    in an aggregated block, select / having / order-by expressions are
    composed of group-by expressions, aggregates, correlated references
    and constants only;
``qtree.grouping-sets``
    grouping-set indices point into the group-by list and grouping
    expressions are plain columns (the engine's rollup contract);
``qtree.dangling-subquery``
    every subquery expression holds a *built* query node, not a leftover
    parser statement;
``qtree.setop-shape``
    set operations have a known operator, the documented arity (n-ary
    UNION ALL, binary otherwise) and branches agreeing on column count;
``qtree.select-shape``
    blocks have a non-empty select list and a sane rownum limit.

Two more rules check the immutable-expression contract of
:mod:`repro.sql.ast` (the auditor runs them, see
:class:`~repro.analysis.auditor.TransformationAuditor`):

``qtree.expr-cache``
    every expression node's kept facts and SQL text equal a fresh walk
    and render (:func:`verify_expr_caches`);
``qtree.shared-mutated``
    costing a CBQT state left the expressions of the tree being searched
    — which the state's copy shares — rendering exactly as before
    (:func:`expr_texts`).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import Optional

from ..catalog.schema import Catalog
from ..errors import ReproError
from ..qtree import exprutil
from ..qtree.blocks import JOIN_TYPES, FromItem, QueryBlock, QueryNode, SetOpBlock
from ..sql import ast
from ..sql.render import render_expr, render_expr_uncached
from .diagnostics import Diagnostic

#: scope chain entry: alias -> visible output columns (None = unknown,
#: resolution succeeds for any column name)
_Env = dict[str, Optional[set[str]]]


class QTreeVerifier:
    """Checks structural invariants over a query tree."""

    #: total verify() invocations (read by the zero-overhead benchmark)
    calls = 0

    def __init__(self, catalog: Optional[Catalog] = None):
        self._catalog = catalog

    def verify(self, root: QueryNode) -> list[Diagnostic]:
        type(self).calls += 1
        diagnostics: list[Diagnostic] = []
        self._check_unique_names(root, diagnostics)
        self._check_placed_once(root, diagnostics)
        self._verify_node(root, [], diagnostics)
        return diagnostics

    # -- tree-wide invariants ------------------------------------------------

    def _check_unique_names(
        self, root: QueryNode, diagnostics: list[Diagnostic]
    ) -> None:
        seen: dict[str, int] = {}
        for node in _iter_all_nodes(root):
            seen[node.name] = seen.get(node.name, 0) + 1
        for name, count in seen.items():
            if count > 1:
                diagnostics.append(Diagnostic(
                    "qtree.block-names", "error",
                    f"block name {name!r} appears {count} times in one tree "
                    "(TargetRef paths are ambiguous)",
                    node=name,
                ))

    def _check_placed_once(
        self, root: QueryNode, diagnostics: list[Diagnostic]
    ) -> None:
        # a conjunct may itself be a subquery expression: one set each
        subqueries: set[int] = set()
        for node in _iter_all_nodes(root):
            if not isinstance(node, QueryBlock):
                continue
            groups: list[tuple[set[int], Sequence[ast.Expr], str]] = [
                (set(), node.all_conjuncts(), "block"),
                (subqueries, node.subquery_exprs(), "tree"),
            ]
            for seen, exprs, scope in groups:
                for expr in exprs:
                    if id(expr) in seen:
                        diagnostics.append(Diagnostic(
                            "qtree.expr-placed-twice", "error",
                            f"{render_expr(expr)!r} is one object placed at "
                            f"two places of the {scope}",
                            node=node.name,
                        ))
                    seen.add(id(expr))

    # -- node dispatch -------------------------------------------------------

    def _verify_node(
        self, node: QueryNode, scopes: list[_Env], diagnostics: list[Diagnostic]
    ) -> None:
        if isinstance(node, SetOpBlock):
            self._verify_setop(node, scopes, diagnostics)
        elif isinstance(node, QueryBlock):
            self._verify_block(node, scopes, diagnostics)
        else:
            diagnostics.append(Diagnostic(
                "qtree.from-item", "error",
                f"unexpected node type {type(node).__name__} in query tree",
            ))

    def _verify_setop(
        self, node: SetOpBlock, scopes: list[_Env], diagnostics: list[Diagnostic]
    ) -> None:
        if node.op not in ("UNION", "UNION ALL", "INTERSECT", "MINUS"):
            diagnostics.append(Diagnostic(
                "qtree.setop-shape", "error",
                f"unknown set operator {node.op!r}", node=node.name,
            ))
        if node.op == "UNION ALL":
            if len(node.branches) < 2:
                diagnostics.append(Diagnostic(
                    "qtree.setop-shape", "error",
                    f"UNION ALL has {len(node.branches)} branch(es), needs >= 2",
                    node=node.name,
                ))
        elif len(node.branches) != 2:
            diagnostics.append(Diagnostic(
                "qtree.setop-shape", "error",
                f"{node.op} has {len(node.branches)} branches, must be binary",
                node=node.name,
            ))
        arities = []
        for branch in node.branches:
            arities.append(_output_columns_of(branch))
            self._verify_node(branch, scopes, diagnostics)
        known = [a for a in arities if a is not None]
        if known and any(len(a) != len(known[0]) for a in known):
            diagnostics.append(Diagnostic(
                "qtree.setop-shape", "error",
                "set operation branches disagree on column count: "
                + ", ".join(str(len(a)) for a in known),
                node=node.name,
            ))
        if node.order_by and known:
            visible = {c.lower() for c in known[0]}
            for item in node.order_by:
                for ref in ast.column_refs_in(item.expr):
                    if ref.qualifier is None and ref.name not in visible:
                        diagnostics.append(Diagnostic(
                            "qtree.column-resolution", "error",
                            f"set-op ORDER BY references {ref.name!r}, not an "
                            "output column",
                            node=node.name,
                        ))

    # -- block invariants ---------------------------------------------------

    def _verify_block(
        self, block: QueryBlock, scopes: list[_Env], diagnostics: list[Diagnostic]
    ) -> None:
        local = self._build_env(block, diagnostics)
        chain = scopes + [local]

        if not block.select_items:
            diagnostics.append(Diagnostic(
                "qtree.select-shape", "error",
                "block has an empty select list", node=block.name,
            ))
        if block.rownum_limit is not None and (
            not isinstance(block.rownum_limit, int) or block.rownum_limit < 0
        ):
            diagnostics.append(Diagnostic(
                "qtree.select-shape", "error",
                f"invalid rownum limit {block.rownum_limit!r}", node=block.name,
            ))

        self._check_from_items(block, chain, diagnostics)
        self._check_expressions(block, chain, diagnostics)
        if block.group_by or block.has_aggregates:
            self._check_group_consistency(block, diagnostics)
        self._check_grouping_sets(block, diagnostics)
        self._check_connectivity(block, diagnostics)

        # Recurse into derived tables: a (lateral) view may reference the
        # parent block's other aliases, so they stay in scope.
        for item in block.from_items:
            if item.is_derived and isinstance(item.subquery, QueryNode):
                sibling_env: _Env = {
                    alias: cols for alias, cols in local.items()
                    if alias != item.alias
                }
                self._verify_node(
                    item.subquery, scopes + [sibling_env], diagnostics
                )

    def _build_env(
        self, block: QueryBlock, diagnostics: list[Diagnostic]
    ) -> _Env:
        env: _Env = {}
        for item in block.from_items:
            if item.alias in env:
                diagnostics.append(Diagnostic(
                    "qtree.alias-unique", "error",
                    f"duplicate from-item alias {item.alias!r}",
                    node=block.name,
                ))
                continue
            env[item.alias] = self._columns_of(item, block, diagnostics)
        return env

    def _columns_of(
        self, item: FromItem, block: QueryBlock, diagnostics: list[Diagnostic]
    ) -> Optional[set[str]]:
        if item.is_base_table:
            table = item.table
            if table is None and self._catalog is not None:
                try:
                    table = self._catalog.table(item.table_name)
                except ReproError:
                    table = None
            if table is None:
                diagnostics.append(Diagnostic(
                    "qtree.from-item", "error",
                    f"base-table from-item {item.alias!r} "
                    f"({item.source!r}) has no resolved table definition",
                    node=block.name,
                ))
                return None
            return {c.lower() for c in table.column_names} | {"rowid"}
        if not isinstance(item.subquery, QueryNode):
            diagnostics.append(Diagnostic(
                "qtree.from-item", "error",
                f"derived from-item {item.alias!r} holds "
                f"{type(item.source).__name__}, not a built query node",
                node=block.name,
            ))
            return None
        columns = _output_columns_of(item.subquery)
        if columns is None:
            diagnostics.append(Diagnostic(
                "qtree.from-item", "error",
                f"cannot compute output columns of derived table "
                f"{item.alias!r}", node=block.name,
            ))
            return None
        return {c.lower() for c in columns}

    # -- from-item / join invariants ------------------------------------------

    def _check_from_items(
        self,
        block: QueryBlock,
        chain: list[_Env],
        diagnostics: list[Diagnostic],
    ) -> None:
        for item in block.from_items:
            if item.join_type not in JOIN_TYPES:
                diagnostics.append(Diagnostic(
                    "qtree.join-type", "error",
                    f"from-item {item.alias!r} has unknown join type "
                    f"{item.join_type!r}", node=block.name,
                ))
                continue
            if item.is_inner and item.join_conjuncts:
                diagnostics.append(Diagnostic(
                    "qtree.join-type", "error",
                    f"INNER from-item {item.alias!r} carries ON conjuncts "
                    "(inner-join predicates belong to WHERE)",
                    node=block.name,
                ))
            if not item.is_inner:
                for predecessor in sorted(item.required_predecessors()):
                    if not _alias_visible(predecessor, chain):
                        diagnostics.append(Diagnostic(
                            "qtree.join-endpoints", "error",
                            f"{item.join_type} join of {item.alias!r} "
                            f"references alias {predecessor!r} which is not "
                            "in scope", node=block.name,
                        ))

    def _check_connectivity(
        self, block: QueryBlock, diagnostics: list[Diagnostic]
    ) -> None:
        aliases = [item.alias for item in block.from_items]
        if len(aliases) < 2:
            return
        parent = {alias: alias for alias in aliases}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        local = set(aliases)
        conjuncts = list(block.where_conjuncts)
        for item in block.from_items:
            conjuncts.extend(item.join_conjuncts)
        for conjunct in conjuncts:
            refs = sorted(exprutil.aliases_referenced(conjunct) & local)
            for other in refs[1:]:
                union(refs[0], other)
        for item in block.from_items:
            # lateral correlation is a join edge too
            if item.is_derived and isinstance(item.subquery, QueryNode):
                for ref in item.subquery.correlation_refs():
                    if ref.qualifier in local and ref.qualifier != item.alias:
                        union(item.alias, ref.qualifier)
        roots = {find(a) for a in aliases}
        if len(roots) > 1:
            diagnostics.append(Diagnostic(
                "qtree.join-connected", "warning",
                f"join graph has {len(roots)} disconnected components over "
                f"aliases {sorted(aliases)} (cross product)", node=block.name,
            ))

    # -- expression resolution ------------------------------------------------

    def _check_expressions(
        self,
        block: QueryBlock,
        chain: list[_Env],
        diagnostics: list[Diagnostic],
    ) -> None:
        output_columns = _output_columns_of(block) or []
        visible_outputs = {c.lower() for c in output_columns}
        sites: list[tuple[str, ast.Expr]] = []
        sites.extend(("select", item.expr) for item in block.select_items)
        sites.extend(("where", c) for c in block.where_conjuncts)
        sites.extend(("group by", g) for g in block.group_by)
        sites.extend(("having", c) for c in block.having_conjuncts)
        sites.extend(("order by", o.expr) for o in block.order_by)
        for item in block.from_items:
            sites.extend((f"join on {item.alias}", c)
                         for c in item.join_conjuncts)
        for site, expr in sites:
            self._check_expr(
                expr, site, block, chain, visible_outputs, diagnostics
            )

    def _check_expr(
        self,
        expr: ast.Expr,
        site: str,
        block: QueryBlock,
        chain: list[_Env],
        visible_outputs: set[str],
        diagnostics: list[Diagnostic],
    ) -> None:
        for node in expr.walk():
            if isinstance(node, ast.ColumnRef):
                self._check_column_ref(
                    node, site, block, chain, visible_outputs, diagnostics
                )
            elif isinstance(node, ast.Star):
                if node.qualifier is not None and not _alias_visible(
                    node.qualifier, chain
                ):
                    diagnostics.append(Diagnostic(
                        "qtree.column-resolution", "error",
                        f"{site}: star qualifier {node.qualifier!r} is not "
                        "in scope", node=block.name,
                    ))
            elif isinstance(node, ast.SubqueryExpr):
                if not isinstance(node.query, QueryNode):
                    diagnostics.append(Diagnostic(
                        "qtree.dangling-subquery", "error",
                        f"{site}: subquery expression holds "
                        f"{type(node.query).__name__}, not a built query "
                        "node", node=block.name,
                    ))
                else:
                    self._verify_node(node.query, chain, diagnostics)

    def _check_column_ref(
        self,
        ref: ast.ColumnRef,
        site: str,
        block: QueryBlock,
        chain: list[_Env],
        visible_outputs: set[str],
        diagnostics: list[Diagnostic],
    ) -> None:
        if ref.qualifier is None:
            if ref.name == "rownum" or ref.name in visible_outputs:
                return
            diagnostics.append(Diagnostic(
                "qtree.column-resolution", "error",
                f"{site}: unqualified reference {ref.name!r} matches no "
                "output column", node=block.name,
            ))
            return
        for env in reversed(chain):
            if ref.qualifier in env:
                columns = env[ref.qualifier]
                if columns is not None and ref.name not in columns:
                    diagnostics.append(Diagnostic(
                        "qtree.column-resolution", "error",
                        f"{site}: {ref.qualifier}.{ref.name} names no column "
                        f"of from-item {ref.qualifier!r}", node=block.name,
                    ))
                return
        diagnostics.append(Diagnostic(
            "qtree.column-resolution", "error",
            f"{site}: reference {ref.qualifier}.{ref.name} resolves to no "
            "visible from-item or correlation", node=block.name,
        ))

    # -- aggregation invariants ------------------------------------------------

    def _check_group_consistency(
        self, block: QueryBlock, diagnostics: list[Diagnostic]
    ) -> None:
        group_keys = {render_expr(g) for g in block.group_by}
        local = block.aliases()
        determined = self._determined_aliases(block)

        def consistent(expr: ast.Expr) -> bool:
            if isinstance(expr, (ast.Literal, ast.BindParam)):
                return True
            if render_expr(expr) in group_keys:
                return True
            if isinstance(expr, ast.FuncCall) and expr.is_aggregate:
                return True
            if isinstance(expr, ast.SubqueryExpr):
                return expr.left is None or consistent(expr.left)
            if isinstance(expr, ast.ColumnRef):
                # correlated (outer) references act as per-invocation
                # constants; rownum is evaluated pre-grouping upstream;
                # grouping an alias's rowid / full primary key determines
                # every column of that alias (Oracle's rowid group-by
                # unnesting relies on exactly this)
                return (
                    expr.qualifier not in local
                    or expr.qualifier in determined
                )
            if isinstance(expr, ast.Star):
                return False
            children = list(expr.children())
            return bool(children) and all(consistent(c) for c in children)

        sites: list[tuple[str, ast.Expr]] = []
        sites.extend(("select", item.expr) for item in block.select_items)
        sites.extend(("having", c) for c in block.having_conjuncts)
        sites.extend(("order by", o.expr) for o in block.order_by)
        for site, expr in sites:
            if not consistent(expr):
                diagnostics.append(Diagnostic(
                    "qtree.group-consistency", "error",
                    f"{site} expression {render_expr(expr)!r} is neither "
                    "grouped, aggregated, correlated, nor constant",
                    node=block.name,
                ))

    def _determined_aliases(self, block: QueryBlock) -> set[str]:
        """Aliases whose every column is functionally determined by the
        group-by list: their rowid is grouped, or their base table's full
        primary key is grouped."""
        grouped: dict[str, set[str]] = {}
        for expr in block.group_by:
            if isinstance(expr, ast.ColumnRef) and expr.qualifier:
                grouped.setdefault(expr.qualifier, set()).add(expr.name)
        determined = {
            alias for alias, columns in grouped.items() if "rowid" in columns
        }
        for item in block.from_items:
            if item.alias in determined or item.alias not in grouped:
                continue
            if item.is_base_table and item.table is not None:
                key = [c.lower() for c in (item.table.primary_key or [])]
                if key and set(key) <= grouped[item.alias]:
                    determined.add(item.alias)
        return determined

    def _check_grouping_sets(
        self, block: QueryBlock, diagnostics: list[Diagnostic]
    ) -> None:
        if block.grouping_sets is None:
            return
        for grouping_set in block.grouping_sets:
            for index in grouping_set:
                if not 0 <= index < len(block.group_by):
                    diagnostics.append(Diagnostic(
                        "qtree.grouping-sets", "error",
                        f"grouping set index {index} outside the group-by "
                        f"list (len {len(block.group_by)})", node=block.name,
                    ))
        for expr in block.group_by:
            if not isinstance(expr, ast.ColumnRef):
                diagnostics.append(Diagnostic(
                    "qtree.grouping-sets", "error",
                    f"grouping expression {render_expr(expr)!r} is not a "
                    "plain column (engine rollup contract)", node=block.name,
                ))


# -- helpers ----------------------------------------------------------------


def _alias_visible(alias: str, chain: list[_Env]) -> bool:
    return any(alias in env for env in chain)


def _output_columns_of(node: QueryNode) -> Optional[list[str]]:
    try:
        return node.output_columns()
    except ReproError:
        return None
    except AssertionError:
        return None


def _iter_all_nodes(root: QueryNode) -> Iterator[QueryNode]:
    """Yield every QueryBlock *and* SetOpBlock in the tree (iter_blocks
    yields only QueryBlocks)."""
    yield root
    if isinstance(root, SetOpBlock):
        for branch in root.branches:
            yield from _iter_all_nodes(branch)
    elif isinstance(root, QueryBlock):
        for item in root.from_items:
            if item.is_derived and isinstance(item.subquery, QueryNode):
                yield from _iter_all_nodes(item.subquery)
        for sub in root.subquery_exprs():
            if isinstance(sub.query, QueryNode):
                yield from _iter_all_nodes(sub.query)


# -- the immutable-expression contract ---------------------------------------


def _tree_exprs(root: QueryNode) -> Iterator[tuple[str, ast.Expr]]:
    """(block name, expression) for every top-level expression of every
    block and set operation of *root*."""
    for node in _iter_all_nodes(root):
        exprs: list[ast.Expr] = []
        if isinstance(node, QueryBlock):
            exprs.extend(item.expr for item in node.select_items)
            exprs.extend(node.all_conjuncts())
            exprs.extend(node.group_by)
        elif not isinstance(node, SetOpBlock):
            continue
        exprs.extend(o.expr for o in node.order_by)
        for expr in exprs:
            yield node.name, expr


def expr_texts(root: QueryNode) -> list[tuple[str, str]]:
    """Every expression of *root* rendered without kept text: a search
    state that mutates a shared expression in place changes this."""
    return [(name, render_expr_uncached(expr)) for name, expr in _tree_exprs(root)]


def verify_expr_caches(root: QueryNode) -> list[Diagnostic]:
    """``qtree.expr-cache``: each node's kept facts and text against a
    fresh walk and render."""
    diagnostics: list[Diagnostic] = []
    for name, expr in _tree_exprs(root):
        for node in expr.walk():
            problem = _cache_problem(node)
            if problem:
                diagnostics.append(Diagnostic(
                    "qtree.expr-cache", "error",
                    f"{render_expr_uncached(node)!r}: {problem}", node=name,
                ))
    return diagnostics


def _cache_problem(node: ast.Expr) -> str:
    walked = list(node.walk())
    subqueries = [n for n in walked if isinstance(n, ast.SubqueryExpr)]
    refs = [n for n in walked if isinstance(n, ast.ColumnRef) and n.qualifier]
    mutable = any(isinstance(n, (ast.BindParam, ast.SubqueryExpr)) for n in walked)
    facts = node.facts
    if not _same_objects(facts.subqueries, subqueries):
        return "kept subqueries differ from a walk"
    if not _same_objects(facts.column_refs, refs):
        return "kept column references differ from a walk"
    if facts.mutable != mutable:
        return f"kept mutable={facts.mutable}, a walk finds {mutable}"
    text = getattr(node, "_sql", None)
    if text is not None and (subqueries or text != render_expr_uncached(node)):
        return f"kept text {text!r} is stale"
    return ""


def _same_objects(kept, walked) -> bool:
    return len(kept) == len(walked) and all(
        a is b for a, b in zip(kept, walked, strict=True)
    )
