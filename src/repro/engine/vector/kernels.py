"""Compilation of expression trees into per-batch Python kernels.

The row engine compiles an expression to a closure called once per row;
per-row cost is dominated by Python call overhead and dict lookups.  The
vector engine instead generates Python *source* for a loop over a batch:
a filter's conjuncts fuse into a single ``for`` body of local-variable
loads and inline three-valued-logic tests, applied to whole batches.

Bind values, registered functions and non-inline literals enter a
kernel as trailing positional arguments (``k0``, ``k1``, ...), so the
generated function depends only on the expression tree.  Generation
therefore yields a :class:`KernelCode` — the function, the batch columns
it reads, and where each constant comes from (a value fixed by the
expression, a bind variable, or a function name) — which the vector
executor keeps on the plan node and reuses on every execution: an
execution only resolves the constants that depend on the call
(:meth:`KernelCode.bind`).  Code objects are additionally shared across
plans by a bounded cache keyed on the source text, so distinct plans of
the same shape compile once per process.

Two source modes exist per expression:

* **value** — the SQL value (``None`` for NULL), used by projections,
  join keys, and aggregate arguments;
* **truth** — a Python ``bool`` that is ``True`` exactly when the SQL
  value is TRUE (WHERE semantics), used by fused predicates.  Truth mode
  skips materialising UNKNOWN: ``a > b`` becomes
  ``(t0 := a) is not None and (t1 := b) is not None and t0 > t1``.

Kernels reference columns positionally; batch columns are resolved at
call time (missing keys bind as constant columns from the outer binding,
mirroring ``row.get``).  Expressions the generator cannot handle —
subqueries, GROUPING, non-literal LIKE patterns — raise
:class:`NotVectorizable`; callers fall back to the row engine's
closures over per-row views.

Walrus-assignment temporaries are only referenced behind short-circuit
guards that guarantee assignment, so generated conditionals never read
an unbound name.
"""

from __future__ import annotations

import functools
import re
from types import CodeType
from typing import Callable, Optional, Sequence

from ...errors import ExecutionError
from ..expressions import FunctionRegistry, agg_key, window_key
from .batch import ConstColumn

from ...sql import ast


class NotVectorizable(Exception):  # staticcheck: allow-raise
    """The expression cannot be compiled to a batch kernel.

    Internal control flow, never surfaced: every raise is caught by the
    kernel compiler or the vector executor's row-engine bridge — hence
    deliberately *not* a ReproError (a typed-error net must never cost
    away or report what is simply "use the row engine here")."""


#: literal types inlined into source as ``repr`` constants
_INLINE_LITERALS = (int, float, str, bool, type(None))

_COMPARISON_SOURCE = {
    "=": "==", "<>": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">=",
}

_ARITHMETIC = {"+", "-", "*", "/", "%"}


def _between_value(v, lo, hi, negated):
    """Row-engine BETWEEN semantics for value-mode kernels."""
    lo_ok = None if v is None or lo is None else v >= lo
    hi_ok = None if v is None or hi is None else v <= hi
    if lo_ok is False or hi_ok is False:
        result: object = False
    elif lo_ok is None or hi_ok is None:
        return None
    else:
        result = True
    return (not result) if negated else result


#: bounded: ad-hoc statements each bring new sources; 1024 keeps the
#: kernels of a full default plan cache (128 cursors) several times over
@functools.lru_cache(maxsize=1024)
def _compile(source: str) -> CodeType:
    """Code object for one kernel's source, shared by every plan that
    generates the same source (constants are call arguments)."""
    return compile(source, "<vector-kernel>", "exec")


#: constant sources of a :class:`KernelCode` besides a fixed value
_BIND = "bind"
_FUNCTION = "function"


class _Kernel:
    """A batch kernel ready to run: generated function, the batch
    columns it reads, and its constants' values for this execution."""

    __slots__ = ("fn", "keys", "consts")

    def __init__(self, fn: Callable, keys: list[str], consts: tuple):
        self.fn = fn
        self.keys = keys
        self.consts = consts

    def _args(self, batch, binding: Optional[dict]) -> list:
        columns = batch.columns
        args = []
        for key in self.keys:
            column = columns.get(key)
            if column is None:
                value = binding.get(key) if binding else None
                column = ConstColumn(value)
            args.append(column)
        args.extend(self.consts)
        return args

    def _run(self, indices, append, args):
        try:
            self.fn(indices, append, *args)
        except ZeroDivisionError:
            raise ExecutionError("division by zero") from None
        except TypeError as exc:
            raise ExecutionError(
                f"type error in vectorized expression: {exc}"
            ) from exc


class PredicateKernel(_Kernel):
    """Fused conjuncts; selects the passing row indices of a batch."""

    def select(
        self, batch, indices: Sequence[int], binding: Optional[dict] = None
    ) -> list[int]:
        out: list[int] = []
        self._run(indices, out.append, self._args(batch, binding))
        return out


class ValueKernel(_Kernel):
    """One expression in value mode; evaluates over selected indices."""

    def evaluate(
        self, batch, indices: Sequence[int], binding: Optional[dict] = None
    ) -> list:
        out: list = []
        self._run(indices, out.append, self._args(batch, binding))
        return out


class KernelCode:
    """The plan-invariant half of a kernel: the generated function, the
    batch columns it reads, and per constant its source — ``(None,
    value)`` fixed by the expression, ``("bind", key)`` or
    ``("function", name)``.  Holds no per-call value."""

    __slots__ = ("fn", "keys", "consts", "kernel_cls", "fixed")

    def __init__(self, fn: Callable, keys: list[str], consts: tuple,
                 kernel_cls: type):
        self.fn = fn
        self.keys = keys
        self.consts = consts
        self.kernel_cls = kernel_cls
        #: the kernel itself when no constant depends on the call
        self.fixed: Optional[_Kernel] = None
        if all(kind is None for kind, _source in consts):
            self.fixed = kernel_cls(
                fn, keys, tuple(value for _kind, value in consts)
            )

    def bind(self, binds: Optional[dict],
             functions: FunctionRegistry) -> _Kernel:
        """The kernel for one execution with *binds*."""
        if self.fixed is not None:
            return self.fixed
        values = []
        for kind, source in self.consts:
            if kind is None:
                values.append(source)
            elif kind == _BIND:
                if not binds or source not in binds:
                    raise ExecutionError(
                        f"no value bound for parameter :{source}"
                    )
                values.append(binds[source])
            else:
                values.append(functions.get(source))
        return self.kernel_cls(self.fn, self.keys, tuple(values))


class KernelCompiler:
    """Generates batch-kernel code for expression trees."""

    def __init__(self) -> None:
        # per-kernel state, reset by _generate
        self._columns: dict[str, str] = {}
        self._consts: list[tuple[Optional[str], object]] = []
        self._temps = 0

    # -- public API -------------------------------------------------------------

    def predicate(self, conjuncts: Sequence[ast.Expr]) -> Optional[KernelCode]:
        """Fuse *conjuncts* into one selection kernel, or ``None`` when
        any conjunct is not vectorizable (callers then evaluate **all**
        conjuncts on the row path to preserve evaluation order)."""
        try:
            return self._generate(
                lambda: [self._truth(c) for c in conjuncts],
                self._emit_predicate,
                PredicateKernel,
            )
        except NotVectorizable:
            return None

    def values(self, expr: ast.Expr) -> Optional[KernelCode]:
        """A value-mode kernel for *expr*, or ``None`` when not
        vectorizable."""
        try:
            return self._generate(
                lambda: [self._value(expr)], self._emit_values, ValueKernel
            )
        except NotVectorizable:
            return None

    # -- code generation --------------------------------------------------------

    def _generate(self, fragments, emit, kernel_cls) -> KernelCode:
        self._columns = {}
        self._consts = []
        self._temps = 0
        body_fragments = fragments()
        column_keys = list(self._columns)
        params = ["idx", "append"]
        params.extend(self._columns[key] for key in column_keys)
        params.extend(f"k{i}" for i in range(len(self._consts)))
        namespace: dict[str, object] = {}
        code = _compile(emit(params, body_fragments))
        exec(code, namespace)  # noqa: S102 - generated from our own AST
        # popped, not read: a function left in its own globals is a
        # reference cycle only the cyclic GC can free
        return KernelCode(
            namespace.pop("_kernel"), column_keys, tuple(self._consts),
            kernel_cls,
        )

    @staticmethod
    def _emit_predicate(params: list[str], truths: list[str]) -> str:
        lines = [f"def _kernel({', '.join(params)}):"]
        lines.append("    for i in idx:")
        for truth in truths:
            lines.append(f"        if not ({truth}): continue")
        lines.append("        append(i)")
        return "\n".join(lines)

    @staticmethod
    def _emit_values(params: list[str], values: list[str]) -> str:
        (value,) = values
        return (
            f"def _kernel({', '.join(params)}):\n"
            f"    for i in idx:\n"
            f"        append({value})\n"
        )

    # -- fragment helpers -------------------------------------------------------

    def _temp(self) -> str:
        self._temps += 1
        return f"t{self._temps}"

    def _column(self, key: str) -> str:
        name = self._columns.get(key)
        if name is None:
            name = f"c{len(self._columns)}"
            self._columns[key] = name
        return f"{name}[i]"

    def _const(self, value: object, kind: Optional[str] = None) -> str:
        """A constant argument: *value* itself, or with *kind* the bind
        key / function name it is resolved from per execution."""
        name = f"k{len(self._consts)}"
        self._consts.append((kind, value))
        return name

    # -- value mode -------------------------------------------------------------

    def _value(self, expr: ast.Expr) -> str:
        method = getattr(self, f"_value_{type(expr).__name__.lower()}", None)
        if method is None:
            if isinstance(expr, ast.ColumnRef):
                return self._value_columnref(expr)
            raise NotVectorizable(type(expr).__name__)
        return method(expr)

    def _value_columnref(self, expr: ast.ColumnRef) -> str:
        if expr.qualifier is None:
            raise ExecutionError(f"unresolved column reference {expr.name!r}")
        return self._column(f"{expr.qualifier}.{expr.name}")

    def _value_literal(self, expr: ast.Literal) -> str:
        if isinstance(expr.value, _INLINE_LITERALS):
            return repr(expr.value)
        return self._const(expr.value)

    def _value_bindparam(self, expr: ast.BindParam) -> str:
        return self._const(expr.key, _BIND)

    def _value_binop(self, expr: ast.BinOp) -> str:
        a, b = self._value(expr.left), self._value(expr.right)
        ta, tb = self._temp(), self._temp()
        op = expr.op
        if op in _COMPARISON_SOURCE:
            py = _COMPARISON_SOURCE[op]
            return (
                f"(None if ({ta} := {a}) is None or ({tb} := {b}) is None"
                f" else {ta} {py} {tb})"
            )
        if op == "||":
            return (
                f"(None if ({ta} := {a}) is None or ({tb} := {b}) is None"
                f" else str({ta}) + str({tb}))"
            )
        if op in _ARITHMETIC:
            return (
                f"(None if ({ta} := {a}) is None or ({tb} := {b}) is None"
                f" else {ta} {op} {tb})"
            )
        raise NotVectorizable(f"operator {op!r}")

    def _value_and(self, expr: ast.And) -> str:
        temps, sources = [], []
        for operand in expr.operands:
            source = self._value(operand)
            temp = self._temp()
            temps.append(temp)
            sources.append(f"({temp} := {source}) is False")
        false_test = " or ".join(sources)
        null_test = " or ".join(f"{t} is None" for t in temps)
        return (
            f"(False if ({false_test})"
            f" else (None if ({null_test}) else True))"
        )

    def _value_or(self, expr: ast.Or) -> str:
        temps, sources = [], []
        for operand in expr.operands:
            source = self._value(operand)
            temp = self._temp()
            temps.append(temp)
            sources.append(f"({temp} := {source}) is True")
        true_test = " or ".join(sources)
        null_test = " or ".join(f"{t} is None" for t in temps)
        return (
            f"(True if ({true_test})"
            f" else (None if ({null_test}) else False))"
        )

    def _value_not(self, expr: ast.Not) -> str:
        t = self._temp()
        return f"(None if ({t} := {self._value(expr.operand)}) is None else not {t})"

    def _value_isnull(self, expr: ast.IsNull) -> str:
        test = "is not None" if expr.negated else "is None"
        return f"(({self._value(expr.operand)}) {test})"

    def _value_between(self, expr: ast.Between) -> str:
        helper = self._const(_between_value)
        v = self._value(expr.operand)
        lo = self._value(expr.low)
        hi = self._value(expr.high)
        return f"({helper}({v}, {lo}, {hi}, {expr.negated!r}))"

    def _value_inlist(self, expr: ast.InList) -> str:
        items, has_null = self._inlist_items(expr)
        s = self._const(items)
        tv = self._temp()
        v = self._value(expr.operand)
        if not expr.negated:
            if has_null:
                return (
                    f"(None if ({tv} := {v}) is None"
                    f" else (True if {tv} in {s} else None))"
                )
            return f"(None if ({tv} := {v}) is None else {tv} in {s})"
        if has_null:
            return (
                f"(False if ({tv} := {v}) is not None and {tv} in {s}"
                f" else None)"
            )
        return f"(None if ({tv} := {v}) is None else {tv} not in {s})"

    def _value_like(self, expr: ast.Like) -> str:
        regex = self._like_regex(expr)
        r = self._const(regex)
        tv = self._temp()
        verdict = f"bool({r}.match(str({tv})))"
        if expr.negated:
            verdict = f"not {verdict}"
        return f"(None if ({tv} := {self._value(expr.operand)}) is None else {verdict})"

    def _value_rowexpr(self, expr: ast.RowExpr) -> str:
        items = ", ".join(self._value(item) for item in expr.items)
        return f"({items},)" if expr.items else "()"

    def _value_case(self, expr: ast.Case) -> str:
        default = (
            self._value(expr.default) if expr.default is not None else "None"
        )
        source = default
        for condition, result in reversed(expr.whens):
            truth = self._truth(condition)
            value = self._value(result)
            source = f"({value} if ({truth}) else {source})"
        return source

    def _value_funccall(self, expr: ast.FuncCall) -> str:
        if expr.is_aggregate:
            return self._column(agg_key(expr))
        if expr.name == "GROUPING":
            raise NotVectorizable("GROUPING")
        f = self._const(expr.name, _FUNCTION)
        args = ", ".join(self._value(arg) for arg in expr.args)
        return f"({f}({args}))"

    def _value_windowfunc(self, expr: ast.WindowFunc) -> str:
        return self._column(window_key(expr))

    # -- truth mode -------------------------------------------------------------

    def _truth(self, expr: ast.Expr) -> str:
        if isinstance(expr, ast.BinOp) and expr.op in _COMPARISON_SOURCE:
            a, b = self._value(expr.left), self._value(expr.right)
            ta, tb = self._temp(), self._temp()
            py = _COMPARISON_SOURCE[expr.op]
            return (
                f"(({ta} := {a}) is not None and ({tb} := {b}) is not None"
                f" and {ta} {py} {tb})"
            )
        if isinstance(expr, ast.And):
            return " and ".join(
                f"({self._truth(op)})" for op in expr.operands
            )
        if isinstance(expr, ast.Or):
            return " or ".join(
                f"({self._truth(op)})" for op in expr.operands
            )
        if isinstance(expr, ast.Not):
            t = self._temp()
            return f"(({t} := {self._value(expr.operand)}) is False)"
        if isinstance(expr, ast.IsNull):
            return self._value_isnull(expr)
        if isinstance(expr, ast.Between):
            return self._truth_between(expr)
        if isinstance(expr, ast.InList):
            return self._truth_inlist(expr)
        return f"(({self._value(expr)}) is True)"

    def _truth_between(self, expr: ast.Between) -> str:
        tv, tl, th = self._temp(), self._temp(), self._temp()
        v = self._value(expr.operand)
        lo = self._value(expr.low)
        hi = self._value(expr.high)
        if not expr.negated:
            return (
                f"(({tv} := {v}) is not None and ({tl} := {lo}) is not None"
                f" and {tv} >= {tl} and ({th} := {hi}) is not None"
                f" and {tv} <= {th})"
            )
        return (
            f"(({tv} := {v}) is not None"
            f" and ((({tl} := {lo}) is not None and {tv} < {tl})"
            f" or (({th} := {hi}) is not None and {tv} > {th})))"
        )

    def _truth_inlist(self, expr: ast.InList) -> str:
        items, has_null = self._inlist_items(expr)
        tv = self._temp()
        v = self._value(expr.operand)
        if not expr.negated:
            s = self._const(items)
            return f"(({tv} := {v}) is not None and {tv} in {s})"
        if has_null:
            # NOT IN with a NULL item is never TRUE
            return "(False)"
        s = self._const(items)
        return f"(({tv} := {v}) is not None and {tv} not in {s})"

    # -- shared helpers ---------------------------------------------------------

    @staticmethod
    def _inlist_items(expr: ast.InList) -> tuple[frozenset, bool]:
        values = []
        has_null = False
        for item in expr.items:
            if not isinstance(item, ast.Literal):
                raise NotVectorizable("non-literal IN list")
            if item.value is None:
                has_null = True
            else:
                values.append(item.value)
        try:
            return frozenset(values), has_null
        except TypeError:
            raise NotVectorizable("unhashable IN list") from None

    @staticmethod
    def _like_regex(expr: ast.Like) -> "re.Pattern":
        if not isinstance(expr.pattern, ast.Literal) or not isinstance(
            expr.pattern.value, str
        ):
            raise NotVectorizable("non-literal LIKE pattern")
        pattern = expr.pattern.value
        return re.compile(
            "^"
            + re.escape(pattern).replace("%", ".*").replace("_", ".")
            + "$",
            re.DOTALL,
        )
