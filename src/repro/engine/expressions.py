"""Compilation of expression trees to Python closures.

Rows are dicts keyed ``"alias.column"``.  Compiled expressions implement
SQL three-valued logic: any comparison or arithmetic over NULL yields
NULL (``None``); AND/OR/NOT follow Kleene logic; WHERE treats NULL as
false (the caller applies :func:`is_true`).

Aggregate and window function calls are *not* evaluated row-at-a-time:
the evaluator computes them per group/partition and exposes the results
as pseudo-columns (``#agg:<sql>`` / ``#win:<sql>``); the compiler turns
such nodes into lookups of those keys.

Scalar/EXISTS/IN subqueries compile to calls into a
:class:`SubqueryRunner`, which both the reference evaluator and the
plan executor implement (the latter with tuple-iteration-semantics
caching, §2.1.1/§2.2.1 of the paper).
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from ..errors import ExecutionError, UnsupportedError
from ..sql import ast
from ..sql.render import render_expr

Row = dict
CompiledExpr = Callable[[Row], object]


def agg_key(expr: ast.FuncCall) -> str:
    """Pseudo-column key under which an aggregate's value is stored."""
    return f"#agg:{render_expr(expr)}"


def window_key(expr: ast.WindowFunc) -> str:
    """Pseudo-column key under which a window value is stored."""
    return f"#win:{render_expr(expr)}"


def grouping_key(expr: ast.Expr) -> str:
    """Pseudo-column key for the GROUPING(col) indicator."""
    return f"#grouping:{render_expr(expr)}"


def is_true(value: object) -> bool:
    """SQL WHERE semantics: NULL and FALSE both reject the row."""
    return value is True


class SubqueryRunner(Protocol):
    """Evaluates subquery expressions against an outer row."""

    def scalar(self, sub: ast.SubqueryExpr, outer_row: Row) -> object: ...

    def exists(self, sub: ast.SubqueryExpr, outer_row: Row) -> bool: ...

    def in_probe(self, sub: ast.SubqueryExpr, left_values: tuple,
                 outer_row: Row) -> object: ...

    def quantified(self, sub: ast.SubqueryExpr, left_value: object,
                   outer_row: Row) -> object: ...


class FunctionRegistry:
    """Scalar function implementations available to the engine."""

    def __init__(self) -> None:
        self._functions: dict[str, Callable] = {}
        self._register_builtins()

    def _register_builtins(self) -> None:
        def null_safe(fn: Callable) -> Callable:
            def wrapped(*args):
                if any(a is None for a in args):
                    return None
                return fn(*args)
            return wrapped

        self._functions.update({
            "UPPER": null_safe(lambda s: str(s).upper()),
            "LOWER": null_safe(lambda s: str(s).lower()),
            "LENGTH": null_safe(lambda s: len(str(s))),
            "ABS": null_safe(abs),
            "MOD": null_safe(lambda a, b: a % b),
            "FLOOR": null_safe(lambda x: int(x // 1)),
            "CEIL": null_safe(lambda x: int(-((-x) // 1))),
            "ROUND": null_safe(lambda x, n=0: round(x, int(n))),
            "SUBSTR": null_safe(
                lambda s, start, length=None: (
                    str(s)[int(start) - 1:]
                    if length is None
                    else str(s)[int(start) - 1:int(start) - 1 + int(length)]
                )
            ),
        })
        # LNNVL(p) is Oracle's "p is false or unknown" — used by
        # OR-expansion to make UNION ALL branches disjoint.
        self._functions["LNNVL"] = lambda p: p is not True
        # Variadic null handling.
        self._functions["NVL"] = lambda a, b: b if a is None else a
        self._functions["COALESCE"] = lambda *args: next(
            (a for a in args if a is not None), None
        )
        self._functions["GREATEST"] = lambda *args: (
            None if any(a is None for a in args) else max(args)
        )
        self._functions["LEAST"] = lambda *args: (
            None if any(a is None for a in args) else min(args)
        )

    def register(self, name: str, fn: Callable) -> None:
        self._functions[name.upper()] = fn

    def get(self, name: str) -> Callable:
        try:
            return self._functions[name.upper()]
        except KeyError:
            raise ExecutionError(f"unknown function {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name.upper() in self._functions


def sql_eq(a: object, b: object) -> object:
    """Three-valued equality."""
    if a is None or b is None:
        return None
    return a == b


def sql_compare(op: str, a: object, b: object) -> object:
    if a is None or b is None:
        return None
    try:
        if op == "=":
            return a == b
        if op == "<>":
            return a != b
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        if op == ">=":
            return a >= b
    except TypeError as exc:
        raise ExecutionError(
            f"cannot compare {type(a).__name__} with {type(b).__name__}"
        ) from exc
    raise ExecutionError(f"unknown comparison operator {op!r}")


class ExpressionCompiler:
    """Compiles expression trees into closures over row dicts."""

    def __init__(
        self,
        functions: FunctionRegistry,
        subquery_runner: Optional[SubqueryRunner] = None,
        binds: Optional[dict] = None,
    ):
        self._functions = functions
        self._subqueries = subquery_runner
        self._binds = binds or {}

    def compile(self, expr: ast.Expr) -> CompiledExpr:
        method = getattr(self, f"_compile_{type(expr).__name__.lower()}", None)
        if method is None:
            # Subclasses of ColumnRef (e.g. the builder's rownum marker).
            if isinstance(expr, ast.ColumnRef):
                return self._compile_columnref(expr)
            raise UnsupportedError(
                f"cannot compile expression {type(expr).__name__}"
            )
        return method(expr)

    # -- leaves ---------------------------------------------------------------

    def _compile_columnref(self, expr: ast.ColumnRef) -> CompiledExpr:
        if expr.qualifier is None:
            raise ExecutionError(f"unresolved column reference {expr.name!r}")
        key = f"{expr.qualifier}.{expr.name}"
        return lambda row: row.get(key)

    def _compile_literal(self, expr: ast.Literal) -> CompiledExpr:
        value = expr.value
        return lambda _row: value

    def _compile_star(self, expr: ast.Star) -> CompiledExpr:
        raise ExecutionError("bare * cannot be evaluated as a value")

    def _compile_bindparam(self, expr: ast.BindParam) -> CompiledExpr:
        # Binds are resolved at compile time: one plan, any bind values —
        # the compiler is constructed per execution with that run's binds.
        try:
            value = self._binds[expr.key]
        except KeyError:
            raise ExecutionError(
                f"no value bound for parameter :{expr.key}"
            ) from None
        return lambda _row: value

    # -- operators -------------------------------------------------------------

    def _compile_binop(self, expr: ast.BinOp) -> CompiledExpr:
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        op = expr.op
        if op in ast.COMPARISON_OPERATORS:
            return lambda row: sql_compare(op, left(row), right(row))
        if op == "||":
            def concat(row):
                a, b = left(row), right(row)
                if a is None or b is None:
                    return None
                return str(a) + str(b)
            return concat

        def arith(row):
            a, b = left(row), right(row)
            if a is None or b is None:
                return None
            try:
                if op == "+":
                    return a + b
                if op == "-":
                    return a - b
                if op == "*":
                    return a * b
                if op == "/":
                    if b == 0:
                        raise ExecutionError("division by zero")
                    return a / b
                if op == "%":
                    return a % b
            except TypeError as exc:
                raise ExecutionError(
                    f"bad operand types for {op!r}: "
                    f"{type(a).__name__}, {type(b).__name__}"
                ) from exc
            raise ExecutionError(f"unknown operator {op!r}")

        return arith

    def _compile_and(self, expr: ast.And) -> CompiledExpr:
        operands = [self.compile(op) for op in expr.operands]

        def evaluate(row):
            saw_null = False
            for operand in operands:
                value = operand(row)
                if value is False:
                    return False
                if value is None:
                    saw_null = True
            return None if saw_null else True

        return evaluate

    def _compile_or(self, expr: ast.Or) -> CompiledExpr:
        operands = [self.compile(op) for op in expr.operands]

        def evaluate(row):
            saw_null = False
            for operand in operands:
                value = operand(row)
                if value is True:
                    return True
                if value is None:
                    saw_null = True
            return None if saw_null else False

        return evaluate

    def _compile_not(self, expr: ast.Not) -> CompiledExpr:
        operand = self.compile(expr.operand)

        def evaluate(row):
            value = operand(row)
            if value is None:
                return None
            return not value

        return evaluate

    def _compile_isnull(self, expr: ast.IsNull) -> CompiledExpr:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def _compile_between(self, expr: ast.Between) -> CompiledExpr:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def evaluate(row):
            value = operand(row)
            lo_ok = sql_compare(">=", value, low(row))
            hi_ok = sql_compare("<=", value, high(row))
            result = _and3(lo_ok, hi_ok)
            if result is None:
                return None
            return (not result) if negated else result

        return evaluate

    def _compile_like(self, expr: ast.Like) -> CompiledExpr:
        import re

        operand = self.compile(expr.operand)
        pattern_expr = self.compile(expr.pattern)
        negated = expr.negated
        cache: dict[str, re.Pattern] = {}

        def evaluate(row):
            value = operand(row)
            pattern = pattern_expr(row)
            if value is None or pattern is None:
                return None
            regex = cache.get(pattern)
            if regex is None:
                regex = re.compile(
                    "^" + re.escape(str(pattern)).replace("%", ".*").replace("_", ".")
                    + "$",
                    re.DOTALL,
                )
                cache[pattern] = regex
            result = bool(regex.match(str(value)))
            return (not result) if negated else result

        return evaluate

    def _compile_inlist(self, expr: ast.InList) -> CompiledExpr:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def evaluate(row):
            value = operand(row)
            saw_null = False
            for item in items:
                result = sql_eq(value, item(row))
                if result is True:
                    return False if negated else True
                if result is None:
                    saw_null = True
            if saw_null:
                return None
            return True if negated else False

        return evaluate

    def _compile_rowexpr(self, expr: ast.RowExpr) -> CompiledExpr:
        items = [self.compile(item) for item in expr.items]
        return lambda row: tuple(item(row) for item in items)

    def _compile_case(self, expr: ast.Case) -> CompiledExpr:
        whens = [(self.compile(c), self.compile(r)) for c, r in expr.whens]
        default = self.compile(expr.default) if expr.default is not None else None

        def evaluate(row):
            for cond, result in whens:
                if cond(row) is True:
                    return result(row)
            return default(row) if default is not None else None

        return evaluate

    def _compile_funccall(self, expr: ast.FuncCall) -> CompiledExpr:
        if expr.is_aggregate:
            key = agg_key(expr)
            return lambda row: row.get(key)
        if expr.name == "GROUPING" and len(expr.args) == 1:
            # GROUPING(col): 1 when col is rolled up in this output row's
            # grouping set, else 0; filled in by the group-by evaluator.
            key = grouping_key(expr.args[0])
            return lambda row: row.get(key, 0)
        fn = self._functions.get(expr.name)
        args = [self.compile(arg) for arg in expr.args]

        def evaluate(row):
            return fn(*(arg(row) for arg in args))

        return evaluate

    def _compile_windowfunc(self, expr: ast.WindowFunc) -> CompiledExpr:
        key = window_key(expr)
        return lambda row: row.get(key)

    def _compile_subqueryexpr(self, expr: ast.SubqueryExpr) -> CompiledExpr:
        runner = self._subqueries
        if runner is None:
            raise ExecutionError(
                "subquery evaluation requires a SubqueryRunner"
            )
        if expr.kind == "SCALAR":
            return lambda row: runner.scalar(expr, row)
        if expr.kind == "EXISTS":
            negated = expr.negated

            def exists(row):
                result = runner.exists(expr, row)
                return (not result) if negated else result

            return exists
        if expr.kind == "IN":
            left = self.compile(expr.left)
            negated = expr.negated

            def in_probe(row):
                left_value = left(row)
                values = (
                    left_value if isinstance(left_value, tuple) else (left_value,)
                )
                result = runner.in_probe(expr, values, row)
                if result is None:
                    return None
                return (not result) if negated else result

            return in_probe
        if expr.kind == "QUANTIFIED":
            left = self.compile(expr.left)
            return lambda row: runner.quantified(expr, left(row), row)
        raise UnsupportedError(f"unknown subquery kind {expr.kind!r}")


def _and3(a: object, b: object) -> object:
    if a is False or b is False:
        return False
    if a is None or b is None:
        return None
    return True


# ---------------------------------------------------------------------------
# Aggregate accumulation (shared by group-by evaluation and window frames)
# ---------------------------------------------------------------------------


class Accumulator:
    """Incremental computation of one aggregate function."""

    def __init__(self, name: str, distinct: bool):
        self.name = name
        self.distinct = distinct
        self._values: list = []
        self._seen: set = set()
        self._count_star = 0

    def add_star(self) -> None:
        self._count_star += 1

    def add(self, value: object) -> None:
        if value is None:
            return
        if self.distinct:
            if value in self._seen:
                return
            self._seen.add(value)
        self._values.append(value)

    def result(self) -> object:
        name = self.name
        if name == "COUNT":
            if self._count_star:
                return self._count_star
            return len(self._values)
        if not self._values:
            return None
        if name == "SUM":
            return sum(self._values)
        if name == "AVG":
            return sum(self._values) / len(self._values)
        if name == "MIN":
            return min(self._values)
        if name == "MAX":
            return max(self._values)
        raise ExecutionError(f"unknown aggregate {name!r}")
