"""Abstract syntax tree for the SQL subset.

Two families of nodes live here:

* **Expressions** (:class:`Expr` subclasses) — shared between the parser
  output and the semantic query tree (:mod:`repro.qtree`).
* **Statements** — the syntactic shape of SELECT queries and the small DDL
  subset (CREATE TABLE / CREATE INDEX).  Statements are consumed by the
  query-tree builder and never mutated, so they have no ``clone()``: a
  built tree shares their expressions and a copied :class:`SubqueryExpr`
  shares a statement body.

Expressions are immutable values
--------------------------------

An :class:`Expr` is never changed after it is built.  There are two
exceptions, the *mutable nodes*: :attr:`BindParam.peeked` (bind peeking
records a value on the query tree being optimized) and
:attr:`SubqueryExpr.query` (transformations rewrite a built subquery
body in place, or swap it).  A subtree that holds a mutable node is
always copied; every other subtree is a value that any number of query
trees, and any number of blocks of one tree, may share.  The cost-based transformation framework copies the
query tree once per search state, so this is what makes a state cheap:

* :meth:`Expr.clone` is :func:`shared_copy`: the expression itself
  unless it holds a mutable node.  The container clones
  (:meth:`SelectItem.clone`, :meth:`OrderItem.clone`, and the
  query-tree ``QueryBlock.clone`` and ``FromItem.clone``) take it of
  each expression;
* :func:`repro.qtree.exprutil.map_expr` returns an unchanged immutable
  subtree as it is and rebuilds only the path from the root to a
  replaced node.

So one immutable conjunct may sit in several blocks of one tree, for
instance in each branch of an OR-expansion.  Within one block a conjunct
object *is* its position: the optimizer and the plan verifier key a
conjunct by (block, conjunct), so a block must not hold one object
twice.  A :class:`SubqueryExpr` is never shared, not even between the
blocks of one tree, since its body is rewritten in place.  In paranoid
mode the query-tree verifier checks both (``qtree.expr-placed-twice``).

Each node works out what it needs to know about its subtree once, on
first use, and keeps it:

* :attr:`Expr.facts` — the :class:`SubqueryExpr` nodes and the qualified
  :class:`ColumnRef` nodes of the subtree in :meth:`Expr.walk` order
  (subquery bodies not entered), and whether it holds a mutable node;
* its rendered SQL text (:func:`repro.sql.render.render_expr`), kept only
  for subquery-free nodes (a subquery body's text changes with the
  body).  A :class:`BindParam` renders as ``:key`` whatever its peek.

Operator spellings are canonicalised: ``!=`` becomes ``<>``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Union

#: Aggregate function names recognised by the analyser (upper-case).
AGGREGATE_FUNCTIONS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})

#: Comparison operators, canonical spellings.
COMPARISON_OPERATORS = frozenset({"=", "<>", "<", "<=", ">", ">="})

#: Maps each comparison operator to its mirror (for operand swapping).
MIRRORED_COMPARISON = {
    "=": "=", "<>": "<>", "<": ">", "<=": ">=", ">": "<", ">=": "<=",
}

#: Maps each comparison operator to its negation.
NEGATED_COMPARISON = {
    "=": "<>", "<>": "=", "<": ">=", "<=": ">", ">": "<=", ">=": "<",
}


class ExprFacts:
    """What an expression subtree holds, derived once (:attr:`Expr.facts`).

    ``subqueries`` and ``column_refs`` are in :meth:`Expr.walk` order and
    do not enter subquery bodies; ``column_refs`` holds the qualified
    references only.  ``mutable`` says whether the subtree holds a
    :class:`BindParam` or a :class:`SubqueryExpr`."""

    __slots__ = ("subqueries", "column_refs", "mutable")

    def __init__(self, subqueries: tuple, column_refs: tuple, mutable: bool):
        self.subqueries: tuple["SubqueryExpr", ...] = subqueries
        self.column_refs: tuple["ColumnRef", ...] = column_refs
        self.mutable = mutable


#: facts of a subtree with no subquery, qualified column or bind
NO_FACTS = ExprFacts((), (), False)
#: facts of a lone BindParam
_BIND_FACTS = ExprFacts((), (), True)


class Expr:
    """Base class for all expression nodes (immutable; see the module
    docstring).  ``_facts`` and ``_sql`` are filled on first use."""

    __slots__ = ("_facts", "_sql")
    _facts: ExprFacts
    #: the rendered SQL; None once rendered when the subtree holds a
    #: subquery (see :func:`repro.sql.render.render_expr`)
    _sql: Optional[str]

    def children(self) -> Iterator["Expr"]:
        """Yield direct child expressions (not subquery bodies)."""
        return iter(())

    def clone(self) -> "Expr":
        """The copy a query tree of its own takes: :func:`shared_copy`."""
        return shared_copy(self)

    @property
    def facts(self) -> ExprFacts:
        """This subtree's subqueries, qualified column references and
        mutability, derived from the children's facts once."""
        try:
            return self._facts
        except AttributeError:
            pass
        parts = [f for f in (c.facts for c in self.children()) if f is not NO_FACTS]
        if not parts:
            facts = NO_FACTS
        elif len(parts) == 1:
            facts = parts[0]
        else:
            facts = ExprFacts(
                tuple(sub for f in parts for sub in f.subqueries),
                tuple(ref for f in parts for ref in f.column_refs),
                any(f.mutable for f in parts),
            )
        self._facts = facts
        return facts

    def walk(self) -> Iterator["Expr"]:
        """Yield this node and all expression descendants, pre-order.

        Does not descend into subquery bodies; callers that need to see
        inside a :class:`SubqueryExpr` handle ``.query`` explicitly.
        """
        yield self
        for child in self.children():
            yield from child.walk()


class ColumnRef(Expr):
    """A possibly qualified column reference, e.g. ``e.salary``.

    The query-tree builder resolves every ColumnRef so that ``qualifier``
    names a from-item alias in scope.  ``ROWNUM`` parses as an unqualified
    ColumnRef named ``rownum`` and is special-cased by the builder.
    """

    __slots__ = ("qualifier", "name")

    def __init__(self, qualifier: Optional[str], name: str):
        self.qualifier = qualifier.lower() if qualifier else None
        self.name = name.lower()

    @property
    def facts(self) -> ExprFacts:
        # built per call: a cached copy would hold a cycle back to self
        return ExprFacts((), (self,), False) if self.qualifier else NO_FACTS

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ColumnRef)
            and self.qualifier == other.qualifier
            and self.name == other.name
        )

    def __hash__(self) -> int:
        return hash((self.qualifier, self.name))

    def __repr__(self) -> str:
        return f"ColumnRef({self.qualifier}.{self.name})"


class Literal(Expr):
    """A constant: ``None`` for NULL, bool, int, float, or str."""

    __slots__ = ("value",)

    def __init__(self, value: object):
        self.value = value

    @property
    def facts(self) -> ExprFacts:
        return NO_FACTS

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Literal) and self.value == other.value \
            and type(self.value) is type(other.value)

    def __hash__(self) -> int:
        return hash((type(self.value).__name__, self.value))

    def __repr__(self) -> str:
        return f"Literal({self.value!r})"


#: Sentinel for "no value peeked yet" on a BindParam (None is a valid
#: peeked value: the NULL bind).
NO_PEEK = object()


class BindParam(Expr):
    """A bind-variable placeholder: ``?`` or ``:name``.

    ``key`` is the canonical parameter key: the lower-cased name for
    ``:name`` binds, or the 1-based ordinal as a string (``"1"``, ``"2"``)
    for ``?`` binds — so the canonical rendering ``:1`` round-trips.

    ``peeked`` carries the value observed at first optimization (bind
    peeking): the selectivity estimator treats a peeked BindParam like a
    literal of that value, while execution always reads the actual bind
    set for the current call.  Identity (``__eq__``/``__hash__``) is by
    key only; the peeked value is advisory optimizer state.  It is one of
    the two mutable parts of an expression, so a BindParam is never
    shared between trees.
    """

    __slots__ = ("key", "peeked")

    def __init__(self, key: str, peeked: object = NO_PEEK):
        self.key = key.lower()
        self.peeked = peeked

    @property
    def has_peek(self) -> bool:
        return self.peeked is not NO_PEEK

    def clone(self) -> "BindParam":
        return BindParam(self.key, self.peeked)

    @property
    def facts(self) -> ExprFacts:
        return _BIND_FACTS

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BindParam) and self.key == other.key

    def __hash__(self) -> int:
        return hash(("bind", self.key))

    def __repr__(self) -> str:
        return f"BindParam(:{self.key})"


class Star(Expr):
    """``*`` or ``alias.*`` in a select list or COUNT(*)."""

    __slots__ = ("qualifier",)

    def __init__(self, qualifier: Optional[str] = None):
        self.qualifier = qualifier.lower() if qualifier else None

    @property
    def facts(self) -> ExprFacts:
        return NO_FACTS

    def __repr__(self) -> str:
        return f"Star({self.qualifier or ''})"


class BinOp(Expr):
    """Binary operator: arithmetic, comparison, or string concatenation."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = "<>" if op == "!=" else op
        self.left = left
        self.right = right

    def children(self) -> Iterator[Expr]:
        yield self.left
        yield self.right

    @property
    def is_comparison(self) -> bool:
        return self.op in COMPARISON_OPERATORS

    def __repr__(self) -> str:
        return f"BinOp({self.left!r} {self.op} {self.right!r})"


class And(Expr):
    """N-ary conjunction.  The normaliser flattens nested ANDs."""

    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[Expr]):
        self.operands = list(operands)

    def children(self) -> Iterator[Expr]:
        return iter(self.operands)

    def __repr__(self) -> str:
        return f"And({self.operands!r})"


class Or(Expr):
    """N-ary disjunction.  The normaliser flattens nested ORs."""

    __slots__ = ("operands",)

    def __init__(self, operands: Iterable[Expr]):
        self.operands = list(operands)

    def children(self) -> Iterator[Expr]:
        return iter(self.operands)

    def __repr__(self) -> str:
        return f"Or({self.operands!r})"


class Not(Expr):
    __slots__ = ("operand",)

    def __init__(self, operand: Expr):
        self.operand = operand

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __repr__(self) -> str:
        return f"Not({self.operand!r})"


class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    __slots__ = ("operand", "negated")

    def __init__(self, operand: Expr, negated: bool = False):
        self.operand = operand
        self.negated = negated

    def children(self) -> Iterator[Expr]:
        yield self.operand

    def __repr__(self) -> str:
        neg = " NOT" if self.negated else ""
        return f"IsNull({self.operand!r}{neg})"


class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    __slots__ = ("operand", "low", "high", "negated")

    def __init__(self, operand: Expr, low: Expr, high: Expr, negated: bool = False):
        self.operand = operand
        self.low = low
        self.high = high
        self.negated = negated

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield self.low
        yield self.high


class Like(Expr):
    """``expr [NOT] LIKE pattern``."""

    __slots__ = ("operand", "pattern", "negated")

    def __init__(self, operand: Expr, pattern: Expr, negated: bool = False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield self.pattern


class InList(Expr):
    """``expr [NOT] IN (literal, ...)`` — the value-list form of IN."""

    __slots__ = ("operand", "items", "negated")

    def __init__(self, operand: Expr, items: Iterable[Expr], negated: bool = False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def children(self) -> Iterator[Expr]:
        yield self.operand
        yield from self.items


class RowExpr(Expr):
    """A parenthesised row of expressions, e.g. ``(a, b) IN (SELECT ...)``."""

    __slots__ = ("items",)

    def __init__(self, items: Iterable[Expr]):
        self.items = list(items)

    def children(self) -> Iterator[Expr]:
        return iter(self.items)


class FuncCall(Expr):
    """A scalar or aggregate function call.

    ``name`` is stored upper-case.  ``distinct`` applies to aggregates
    (``COUNT(DISTINCT x)``).  User-defined functions are modelled by name:
    the catalog can register a function as *expensive*, which is what the
    predicate-pullup transformation keys on.
    """

    __slots__ = ("name", "args", "distinct")

    def __init__(self, name: str, args: Iterable[Expr], distinct: bool = False):
        self.name = name.upper()
        self.args = list(args)
        self.distinct = distinct

    def children(self) -> Iterator[Expr]:
        return iter(self.args)

    @property
    def is_aggregate(self) -> bool:
        return self.name in AGGREGATE_FUNCTIONS

    def __repr__(self) -> str:
        return f"FuncCall({self.name}, {self.args!r})"


@dataclass
class WindowFrame:
    """``ROWS|RANGE BETWEEN <start> AND <end>`` of a window specification.

    Bounds are encoded as strings ``"UNBOUNDED PRECEDING"``,
    ``"CURRENT ROW"``, ``"UNBOUNDED FOLLOWING"`` or an integer offset with
    direction, e.g. ``("PRECEDING", 3)``.
    """

    kind: str                      # "ROWS" or "RANGE"
    start: object = "UNBOUNDED PRECEDING"
    end: object = "CURRENT ROW"


class WindowFunc(Expr):
    """``func(...) OVER (PARTITION BY ... ORDER BY ... frame)``."""

    __slots__ = ("func", "partition_by", "order_by", "frame")

    def __init__(
        self,
        func: FuncCall,
        partition_by: Iterable[Expr] = (),
        order_by: Iterable["OrderItem"] = (),
        frame: Optional[WindowFrame] = None,
    ):
        self.func = func
        self.partition_by = list(partition_by)
        self.order_by = list(order_by)
        self.frame = frame

    def children(self) -> Iterator[Expr]:
        yield self.func
        yield from self.partition_by
        for item in self.order_by:
            yield item.expr


class Case(Expr):
    """Searched CASE expression."""

    __slots__ = ("whens", "default")

    def __init__(self, whens: Iterable[tuple[Expr, Expr]], default: Optional[Expr]):
        self.whens = list(whens)
        self.default = default

    def children(self) -> Iterator[Expr]:
        for cond, result in self.whens:
            yield cond
            yield result
        if self.default is not None:
            yield self.default


class SubqueryExpr(Expr):
    """A subquery used as an expression or predicate.

    ``kind`` is one of:

    * ``"EXISTS"`` — ``[NOT] EXISTS (q)``; ``negated`` gives NOT EXISTS.
    * ``"IN"`` — ``left [NOT] IN (q)``; ``left`` is an Expr or RowExpr.
    * ``"QUANTIFIED"`` — ``left <op> ANY|ALL (q)``; ``op`` is a comparison
      operator, ``quantifier`` is ``"ANY"`` or ``"ALL"``.
    * ``"SCALAR"`` — the subquery yields a single value used in an
      enclosing expression (e.g. ``salary > (SELECT AVG(...) ...)``).

    ``query`` is a parser-level statement until the query-tree builder
    replaces it with a built :class:`repro.qtree.blocks.QueryBlock`.
    It is one of the two mutable parts of an expression: transformations
    rewrite a built body in place or swap it, so a SubqueryExpr is never
    shared, not even between two blocks of one tree.
    """

    __slots__ = ("kind", "query", "left", "op", "quantifier", "negated")

    def __init__(
        self,
        kind: str,
        query: object,
        left: Optional[Expr] = None,
        op: Optional[str] = None,
        quantifier: Optional[str] = None,
        negated: bool = False,
    ):
        self.kind = kind
        self.query = query
        self.left = left
        self.op = "<>" if op == "!=" else op
        self.quantifier = quantifier
        self.negated = negated

    def children(self) -> Iterator[Expr]:
        if self.left is not None:
            yield self.left

    @property
    def facts(self) -> ExprFacts:
        # built per call: a cached copy would hold a cycle back to self
        left = self.left.facts if self.left is not None else NO_FACTS
        return ExprFacts((self,) + left.subqueries, left.column_refs, True)

    def __repr__(self) -> str:
        return f"SubqueryExpr({self.kind}, negated={self.negated})"


# ---------------------------------------------------------------------------
# Statement nodes (parser output; consumed by the query-tree builder)
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One entry of a select list: an expression with an optional alias."""

    expr: Expr
    alias: Optional[str] = None

    def clone(self) -> "SelectItem":
        return SelectItem(shared_copy(self.expr), self.alias)


@dataclass
class OrderItem:
    """One entry of an ORDER BY list."""

    expr: Expr
    descending: bool = False

    def clone(self) -> "OrderItem":
        return OrderItem(shared_copy(self.expr), self.descending)


class TableExpr:
    """Base for FROM-clause items."""


@dataclass
class TableName(TableExpr):
    """A base table (or named view) reference with an optional alias."""

    name: str
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        if self.alias:
            self.alias = self.alias.lower()


@dataclass
class DerivedTable(TableExpr):
    """An inline view: ``(SELECT ...) alias``."""

    query: "Statement"
    alias: Optional[str] = None

    def __post_init__(self) -> None:
        if self.alias:
            self.alias = self.alias.lower()


@dataclass
class JoinExpr(TableExpr):
    """ANSI join: ``left <kind> JOIN right ON condition``.

    ``kind`` is ``"INNER"``, ``"LEFT"``, ``"RIGHT"``, or ``"CROSS"``.
    RIGHT joins are normalised to LEFT by the query-tree builder.
    """

    left: TableExpr
    right: TableExpr
    kind: str
    condition: Optional[Expr] = None


@dataclass
class SelectStmt:
    """A single SELECT query block, syntactic form.

    ``grouping_sets`` is set when GROUP BY uses ROLLUP / CUBE / GROUPING
    SETS: the parser expands those into an explicit list of sets (each a
    list of indices into ``group_by``, which then holds the distinct
    grouping expressions).
    """

    select_items: list[SelectItem]
    from_items: list[TableExpr]
    distinct: bool = False
    where: Optional[Expr] = None
    group_by: list[Expr] = field(default_factory=list)
    grouping_sets: Optional[list[list[int]]] = None
    having: Optional[Expr] = None
    order_by: list[OrderItem] = field(default_factory=list)


@dataclass
class SetOpStmt:
    """A set operation between two queries.

    ``op`` is ``"UNION"``, ``"UNION ALL"``, ``"INTERSECT"``, or ``"MINUS"``
    (EXCEPT parses to MINUS).  Set operations associate left, so chains
    become left-deep SetOpStmt trees.
    """

    op: str
    left: "Statement"
    right: "Statement"
    order_by: list[OrderItem] = field(default_factory=list)


Statement = Union[SelectStmt, SetOpStmt]


# ---------------------------------------------------------------------------
# DDL nodes
# ---------------------------------------------------------------------------


@dataclass
class ColumnSpec:
    """A column definition inside CREATE TABLE."""

    name: str
    type_name: str
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    references: Optional[tuple[str, str]] = None  # (table, column)

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        self.type_name = self.type_name.upper()


@dataclass
class TableConstraint:
    """A table-level constraint inside CREATE TABLE.

    ``kind`` is ``"PRIMARY KEY"``, ``"UNIQUE"``, or ``"FOREIGN KEY"``.
    """

    kind: str
    columns: list[str]
    ref_table: Optional[str] = None
    ref_columns: Optional[list[str]] = None


@dataclass
class CreateTable:
    name: str
    columns: list[ColumnSpec]
    constraints: list[TableConstraint] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.name = self.name.lower()


@dataclass
class CreateIndex:
    name: str
    table: str
    columns: list[str]
    unique: bool = False

    def __post_init__(self) -> None:
        self.name = self.name.lower()
        self.table = self.table.lower()
        self.columns = [c.lower() for c in self.columns]


DdlStatement = Union[CreateTable, CreateIndex]


# ---------------------------------------------------------------------------
# Small expression utilities used across the code base
# ---------------------------------------------------------------------------


def shared_copy(expr: Expr) -> Expr:
    """The copy a container clone takes of *expr*: *expr* itself when its
    subtree holds no mutable node.  Otherwise the path to each mutable
    node is rebuilt, a BindParam is copied and a SubqueryExpr gets a body
    clone that shares in turn; the immutable subtrees beside them are
    shared."""
    if not expr.facts.mutable:
        return expr
    from ..qtree.exprutil import map_expr  # exprutil imports this module

    return map_expr(expr, _unchanged)


def _unchanged(_expr: Expr) -> None:
    return None


def conjuncts_of(expr: Optional[Expr]) -> list[Expr]:
    """Split *expr* into a flat list of AND-ed conjuncts.

    ``None`` yields an empty list.  Nested :class:`And` nodes are
    flattened; any other node is a single conjunct.
    """
    if expr is None:
        return []
    if isinstance(expr, And):
        result: list[Expr] = []
        for operand in expr.operands:
            result.extend(conjuncts_of(operand))
        return result
    return [expr]


def make_conjunction(conjuncts: list[Expr]) -> Optional[Expr]:
    """Combine conjuncts back into a single expression (inverse of
    :func:`conjuncts_of`)."""
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return And(conjuncts)


def disjuncts_of(expr: Optional[Expr]) -> list[Expr]:
    """Split *expr* into a flat list of OR-ed disjuncts."""
    if expr is None:
        return []
    if isinstance(expr, Or):
        result: list[Expr] = []
        for operand in expr.operands:
            result.extend(disjuncts_of(operand))
        return result
    return [expr]


def column_refs_in(expr: Expr) -> Iterator[ColumnRef]:
    """Yield every ColumnRef in *expr*, not descending into subqueries."""
    for node in expr.walk():
        if isinstance(node, ColumnRef):
            yield node


def contains_aggregate(expr: Expr) -> bool:
    """True if *expr* contains an aggregate function call outside any
    window specification (``AVG(x) OVER (...)`` is a window function, not
    an aggregate for grouping purposes)."""
    if isinstance(expr, WindowFunc):
        return False
    if isinstance(expr, FuncCall) and expr.is_aggregate:
        return True
    return any(contains_aggregate(child) for child in expr.children())


def contains_subquery(expr: Expr) -> bool:
    """True if *expr* contains any SubqueryExpr node."""
    return bool(expr.facts.subqueries)
