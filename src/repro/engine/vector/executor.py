"""Batch-at-a-time plan execution sharing the row engine's accounting.

:class:`VectorExecutor` is a drop-in alternative to
:meth:`repro.engine.executor.Executor.execute`: same signature, same
:class:`~repro.engine.executor.ExecStats`, same output tuples.  The hot
path — table and index scans, INNER/LEFT index nested loops, filter,
projection, hash join, hash aggregate, distinct, sort, set operations —
runs batch-at-a-time over columnar
:class:`~repro.engine.vector.batch.Batch` chunks with compiled kernels;
every other operator (view scans, SEMI/ANTI and non-index nested loops,
merge joins, windows, COUNT STOPKEY) bridges to the untouched row
engine, whose dispatch in turn reroutes vector-native *subtrees* back to
the batch engine, so the two interleave freely within one plan.

An index nested-loop join probes the index for a whole left batch at
once and fetches the matching rows by row id from the table version's
row list (never through the whole-table ``columnar()`` transpose, which
every insert would invalidate).  A parameterised index scan whose rows
the *row* engine pulls directly — the inner side of a bridged nested
loop, run once per outer row — stays on the row engine: there a
one-probe batch converted back to rows costs more than it saves.

**Late materialization.**  Table columns enter the batch engine at two
places only — table scans (slices of the version's cached ``columnar()``
lists, never copied) and index fetches — and both carry only the
``alias.column`` keys the statement reads.  That set is computed once
per plan, on its first execution, and kept on the plan (a cached plan
re-runs thousands of times).  It covers every expression on every plan
node — scan filters, index binds and post/covered conjuncts, join keys,
residuals and conjuncts, group keys and aggregate arguments, windows,
sort keys, view subplans — and every column reference inside every
subquery's query tree, because a TIS subquery reads the outer columns
it correlates on from the binding built out of the outer row.  A
statement holding an unqualified column reference, a subquery not built
into a query tree, or an unknown plan node keeps every column: a missing
key reads as NULL, so the set may be too large but never too small.
Scans the row engine runs itself keep full rows.

**Whole-column keys.**  Hash-join build and probe and hash-aggregate
grouping iterate whole key columns — the column itself for one key,
``zip`` of the columns for several — instead of building a tuple per
row.  A join key with a NULL component (tested ``is None``) is replaced
by ``None``, which never enters the hash table and so never matches.
Aggregation groups a batch's row indices by key first, then updates each
group's states once from its index list, so every group sees its values
in row order and float sums are bit-identical to the row engine's.  An
INNER/LEFT hash join gathers its candidates about ``BATCH_SIZE`` at a
time and emits at most ``BATCH_SIZE`` rows per batch, so a fan-out probe
never materialises a left batch times its fan-out before the next
cancellation poll.

Two invariants the hybrid guarantees:

* **Work-unit parity.**  Every batch operator charges exactly the
  per-row :class:`~repro.optimizer.costmodel.CostModel` constants the row
  executor charges — including the SEMI/ANTI hash-probe short-circuit
  (candidates are costed round-by-round until each row's first passing
  match, mirroring the row loop's ``break``).  Committed work-unit
  baselines therefore hold under either engine.  Subtrees under a COUNT
  STOPKEY run entirely on the row engine: its per-row pipelining is what
  the stop-key cost model assumes, and batch granularity would over-
  charge the truncated scans.
* **Control-point parity.**  Each vector operator still fires the row
  engine's ``executor.<Op>`` fault-injection point at instantiation, and
  additionally fires ``executor.batch.<Op>`` plus a cancellation-token
  poll before every batch it emits, so timeouts, ``Cursor.cancel()`` and
  chaos suites keep their guarantees at batch boundaries.  A fault fired
  mid-stream discards the batch being produced — partial batches never
  leak downstream.

Expressions that resist kernel compilation (subqueries, GROUPING,
non-literal LIKE patterns) make the *operator* fall back to the bridge
rather than mixing per-row closures into batch loops; evaluation order —
and therefore subquery invocation counts and TIS cache charges — stays
identical to the row engine.
"""

from __future__ import annotations

import itertools
import operator
import time
import weakref
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ...errors import ExecutionError
from ...optimizer.plans import (
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexScan,
    Limit,
    MergeJoin,
    NestedLoopJoin,
    Plan,
    Project,
    SetOp,
    Sort,
    TableScan,
    ViewScan,
    WindowCompute,
)
from ...qtree.blocks import QueryNode, SetOpBlock
from ...resilience import CancelToken, faults
from ...sql import ast
from ..executor import ExecStats, Executor, _PlanRun
from ..expressions import Accumulator, Row, agg_key
from ..tables import TableLike
from . import batch as vbatch
from .batch import Batch, chunk_rows
from .kernels import (
    KernelCode,
    KernelCompiler,
    NotVectorizable,
    PredicateKernel,
    ValueKernel,
)

#: rows per batch
BATCH_SIZE = 1024

#: plan-node class names the batch engine executes natively; everything
#: else bridges to the row engine
VECTOR_OPERATORS = frozenset({
    "TableScan",
    "IndexScan",
    "NestedLoopJoin",
    "Filter",
    "Project",
    "HashJoin",
    "GroupBy",
    "Distinct",
    "Sort",
    "SetOp",
})

_MISSING = object()

#: a one-row, column-less batch: bind kernels evaluated over it read
#: every column from the binding (a leaf index probe's bind values)
_ONE_ROW = Batch({}, 1)

#: plan attribute holding the plan's column set once computed
_COLUMNS_ATTR = "_vector_columns"

#: plan-node attribute holding the node's kernel code once generated
_KERNELS_ATTR = "_vector_kernels"


def _columnar(data: TableLike) -> dict[str, list]:
    """Columnar view of a table's rows (bare column names + ``rowid``),
    cached on the table's immutable :class:`TableVersion` — copy-on-write
    storage means a version's columnar form never goes stale, and pinned
    snapshots of the same committed state share one build."""
    return data.columnar()


class VectorExecutor:
    """Executes plans batch-at-a-time.

    Wraps a row :class:`~repro.engine.executor.Executor` — the bridge
    target, fallback path, and TIS subquery machinery all come from it.
    """

    def __init__(self, executor: Executor):
        self._executor = executor

    def execute(
        self,
        plan: Plan,
        binding: Optional[Row] = None,
        binds: Optional[dict] = None,
        token: Optional[CancelToken] = None,
        analyze: bool = False,
    ) -> tuple[list[tuple], ExecStats]:
        """Run *plan* to completion; returns output tuples and stats."""
        stats = ExecStats()
        stats.executor_mode = "vector"
        out: list[tuple] = []
        run = _VectorRun(
            self._executor, stats, binds, token, analyze, _plan_columns(plan)
        )
        for batch in run.batches(plan, binding or {}):
            out.extend(batch.output_tuples())
        stats.rows_out = len(out)
        return out, stats


class _BridgeRun(_PlanRun):
    """Row-engine run whose dispatch reroutes vector-native subtrees back
    to the batch engine, so bridged operators (semi/anti NLJ, merge join,
    limits, views, TIS subquery plans) still scan and join columnar
    underneath — except a parameterised index scan, which it keeps.

    Subtrees under a COUNT STOPKEY are pinned to the row engine for
    work-unit parity: the Limit registers its descendants before they
    are dispatched.
    """

    def __init__(self, executor: Executor, stats: ExecStats,
                 binds: Optional[dict], token: Optional[CancelToken],
                 analyze: bool, vector_run: "_VectorRun"):
        super().__init__(executor, stats, binds, token, analyze)
        # weak: the vector run owns this bridge (no run-state cycles)
        self._vector_run = weakref.ref(vector_run)
        self._row_only: set[int] = set()

    def mark_row_only(self, plan: Plan) -> None:
        for node in plan.walk():
            self._row_only.add(id(node))

    def pin_early_stop_subtrees(self, plan: Plan) -> None:
        """Pin subtrees whose row-engine consumer stops pulling early —
        batch-at-a-time eagerness there would over-charge work units.
        Two such consumers exist: COUNT STOPKEY (Limit), and the inner
        side of a semi/anti nested-loop probe, which stops at the first
        qualifying match per outer row."""
        if isinstance(plan, Limit):
            self.mark_row_only(plan)
        elif isinstance(plan, NestedLoopJoin) and plan.join_type in (
            "SEMI",
            "ANTI",
            "ANTI_NA",
        ):
            self.mark_row_only(plan.right)

    def rows(self, plan: Plan, binding: Row) -> Iterator[Row]:
        if (
            type(plan).__name__ in VECTOR_OPERATORS
            and id(plan) not in self._row_only
        ):
            if not (isinstance(plan, IndexScan) and plan.outer_aliases()):
                return self._vector_run().rows_of(plan, binding)
            # a parameterised probe driven by the row engine runs once
            # per outer row: a one-probe batch costs more than it saves
            self._row_only.add(id(plan))
        self.pin_early_stop_subtrees(plan)
        return super().rows(plan, binding)


class _VectorRun:
    """State for one batch-engine execution."""

    def __init__(self, executor: Executor, stats: ExecStats,
                 binds: Optional[dict], token: Optional[CancelToken],
                 analyze: bool, columns: Optional[frozenset[str]]):
        self._executor = executor
        self._storage = executor._storage
        self._catalog = executor._catalog
        self._cm = executor._cm
        self._token = token
        self._analyze = analyze
        self.stats = stats
        #: the table columns scans and index fetches carry (None: all)
        self._columns = columns
        #: the row engine half of the hybrid (bridging + TIS subqueries)
        self._rows = _BridgeRun(executor, stats, binds, token, analyze, self)
        self._binds = binds
        self._functions = executor._functions
        self._compiler = KernelCompiler()
        #: this run's kernels (constants bound), by expression identity
        self._kernels: dict[object, Optional[PredicateKernel | ValueKernel]] = {}

    # -- kernel caches ----------------------------------------------------------

    def _kernel(self, plan: Plan, key: object,
                generate: Callable[[], Optional[KernelCode]]):
        """This run's kernel for the expression(s) identified by *key*
        on *plan*, or ``None`` when not vectorizable.  The code is
        generated on the plan's first execution and kept on the node
        (keyed by the identity of expressions the node holds, so the key
        is stable for the node's lifetime); later executions only bind
        its constants."""
        kernel = self._kernels.get(key, _MISSING)
        if kernel is _MISSING:
            codes = _node_kernels(plan)
            code = codes.get(key, _MISSING)
            if code is _MISSING:
                code = codes[key] = generate()
            kernel = (
                None if code is None
                else code.bind(self._binds, self._functions)
            )
            self._kernels[key] = kernel
        return kernel

    def _predicate(self, plan: Plan,
                   conjuncts: Sequence[ast.Expr]) -> Optional[PredicateKernel]:
        """Fused predicate kernel over *plan*'s *conjuncts*; ``None`` for
        an empty list.  Raises :class:`NotVectorizable` when any
        conjunct resists — the caller then bridges the whole operator so
        *all* conjuncts run on the row path in original order."""
        if not conjuncts:
            return None
        kernel = self._kernel(
            plan, tuple(map(id, conjuncts)),
            lambda: self._compiler.predicate(conjuncts),
        )
        if kernel is None:
            raise NotVectorizable("predicate")
        return kernel

    def _value(self, plan: Plan, expr: ast.Expr) -> ValueKernel:
        """Value kernel for one of *plan*'s expressions."""
        kernel = self._kernel(
            plan, id(expr), lambda: self._compiler.values(expr)
        )
        if kernel is None:
            raise NotVectorizable("expression")
        return kernel

    # -- dispatch ---------------------------------------------------------------

    def batches(self, plan: Plan, binding: Row) -> Iterator[Batch]:
        """Dispatch one plan node: vector-native when its kernels
        compile, bridged to the row engine otherwise."""
        name = type(plan).__name__
        if name in VECTOR_OPERATORS and id(plan) not in self._rows._row_only:
            try:
                gen = getattr(self, f"_vec_{name.lower()}")(plan, binding)
            except NotVectorizable:
                gen = None
            if gen is not None:
                # legacy per-operator fault point, fired at instantiation
                # exactly like the row engine's dispatch
                faults.check(f"executor.{name}", self._token)
                if self._analyze:
                    invocations = self.stats.node_invocations
                    invocations[id(plan)] = invocations.get(id(plan), 0) + 1
                return self._metered(gen, plan, name)
        return self._bridge(plan, binding)

    def _bridge(self, plan: Plan, binding: Row) -> Iterator[Batch]:
        """Run *plan* on the row engine, re-chunking its rows; the row
        dispatch reroutes any vector-native descendants back here."""
        self._rows.pin_early_stop_subtrees(plan)
        rows = _PlanRun.rows(self._rows, plan, binding)
        return chunk_rows(rows, BATCH_SIZE)

    def rows_of(self, plan: Plan, binding: Row) -> Iterator[Row]:
        """Row view of a vector-native subtree (bridge direction 2)."""
        for batch in self.batches(plan, binding):
            yield from batch.to_rows(binding)

    def _metered(self, gen: Iterator[Batch], plan: Plan,
                 name: str) -> Iterator[Batch]:
        """Per-batch control points: the ``executor.batch.<Op>`` fault
        point and a cancellation poll fire *before* each batch is
        produced, and actual-row counts accumulate per batch."""
        point = f"executor.batch.{name}"
        token = self._token
        count = self._rows._count
        analyze = self._analyze
        node_id = id(plan)
        seconds = self.stats.node_seconds
        clock = time.perf_counter
        while True:
            faults.check(point, token)
            if token is not None:
                token.check()
            start = clock() if analyze else 0.0
            try:
                batch = next(gen)
            except StopIteration:
                if analyze:
                    seconds[node_id] = (
                        seconds.get(node_id, 0.0) + clock() - start
                    )
                return
            if analyze:
                seconds[node_id] = (
                    seconds.get(node_id, 0.0) + clock() - start
                )
            if batch.length:
                count(plan, batch.length)
                yield batch

    # -- leaves ---------------------------------------------------------------

    def _vec_tablescan(self, plan: TableScan, binding: Row) -> Iterator[Batch]:
        kernel = self._predicate(plan, plan.conjuncts)
        data = self._storage.get(plan.table_name)
        return self._scan_batches(plan, kernel, data, binding)

    def _scan_batches(self, plan: TableScan,
                      kernel: Optional[PredicateKernel],
                      data: TableLike, binding: Row) -> Iterator[Batch]:
        charge = self.stats.charge
        cm = self._cm
        # charged per *stored* row, filtered or not — same as the row loop
        per_row = cm.scan_row + cm.predicate_eval * len(plan.conjuncts)
        table = _columnar(data)
        # the length comes from the same build as the columns: a second
        # read of a live table handle could see a newer version
        n = len(table["rowid"])
        prefix = plan.alias + "."
        wanted = self._columns
        columns = {
            prefix + name: col for name, col in table.items()
            if wanted is None or prefix + name in wanted
        }
        whole = Batch(columns, n)
        for start in range(0, n, BATCH_SIZE):
            end = min(start + BATCH_SIZE, n)
            if kernel is not None:
                out = whole.gather(
                    kernel.select(whole, range(start, end), binding)
                )
            elif end - start == n:
                out = whole
            else:
                out = Batch(
                    {key: col[start:end] for key, col in columns.items()},
                    end - start,
                )
            charge((end - start) * per_row)
            yield out

    # -- index access -----------------------------------------------------------

    def _index_access(self, plan: IndexScan) -> "_IndexAccess":
        eq = [self._value(plan, expr) for _column, expr in plan.eq_binds]
        bound = (
            None if plan.range_bind is None
            else self._value(plan, plan.range_bind[2])
        )
        post = self._predicate(plan, plan.post_conjuncts)
        data = self._storage.get(plan.table_name)
        return _IndexAccess(plan, data, eq, bound, post, self._columns)

    def _vec_indexscan(self, plan: IndexScan, binding: Row) -> Iterator[Batch]:
        return self._indexscan_batches(plan, self._index_access(plan), binding)

    def _indexscan_batches(self, plan: IndexScan, access: "_IndexAccess",
                           binding: Row) -> Iterator[Batch]:
        """One probe with bind values from *binding*, fetched in batches."""
        cm = self._cm
        charge = self.stats.charge
        # charged per fetched row id, filtered or not — same as the row loop
        per_row = cm.index_row + cm.predicate_eval * len(plan.post_conjuncts)
        charge(cm.index_probe)
        (row_ids,) = access.row_ids(_ONE_ROW, binding)
        row_ids = iter(row_ids)
        post = access.post
        while True:
            chunk = list(itertools.islice(row_ids, BATCH_SIZE))
            if not chunk:
                return
            charge(per_row * len(chunk))
            batch = Batch(access.columns(chunk), len(chunk))
            if post is not None:
                batch = batch.gather(
                    post.select(batch, range(batch.length), binding)
                )
            yield batch

    def _vec_nestedloopjoin(self, plan: NestedLoopJoin,
                            binding: Row) -> Iterator[Batch]:
        right = plan.right
        if (
            plan.join_type not in ("INNER", "LEFT")
            or not isinstance(right, IndexScan)
            or id(right) in self._rows._row_only
            or not right.outer_aliases() & plan.left.aliases
        ):
            raise NotVectorizable("nested loops other than an index probe")
        access = self._index_access(right)
        join = self._predicate(plan, plan.conjuncts)
        return self._nlj_batches(plan, access, join, binding)

    def _nlj_batches(self, plan: NestedLoopJoin, access: "_IndexAccess",
                     join: Optional[PredicateKernel],
                     binding: Row) -> Iterator[Batch]:
        """Index nested loops, one left batch at a time.

        Every left row probes the index (charged even when a bind value
        is NULL, as the row engine charges it), the candidates' rows are
        fetched by row id, and the scan's post-filter then the join
        conjuncts run as fused kernels over the candidates.  Candidates
        are processed — and output emitted — in chunks of about
        BATCH_SIZE, so a fan-out probe never materialises a whole left
        batch times its fan-out.
        """
        cm = self._cm
        charge = self.stats.charge
        right = plan.right
        post = access.post
        index_cost = (
            cm.index_row + cm.predicate_eval * len(right.post_conjuncts)
        )
        pair_cost = cm.pipeline_row + cm.predicate_eval * len(plan.conjuncts)
        #: columns the filter kernels read from a candidate
        kernels = [k for k in (post, join) if k is not None]
        keys = {key for kernel in kernels for key in kernel.keys}
        left_join = plan.join_type == "LEFT"
        count = self._rows._count
        token = self._token
        analyze = self._analyze
        clock = time.perf_counter
        right_id = id(right)
        invocations = self.stats.node_invocations
        seconds = self.stats.node_seconds
        faults.check("executor.IndexScan", token)
        for lbatch in self.batches(plan.left, binding):
            faults.check("executor.batch.IndexScan", token)
            n = lbatch.length
            charge(cm.index_probe * n)
            if analyze:
                # one inner invocation per probe, as in the row engine
                invocations[right_id] = invocations.get(right_id, 0) + n
                started = clock()
            row_ids = access.row_ids(lbatch, binding)
            #: LEFT: rows that matched, and the first row whose null
            #: extension is still undecided
            matched = bytearray(n)
            pending = 0
            i = 0
            while i < n:
                cand_left: list[int] = []
                cand_rid: list[int] = []
                while i < n and len(cand_rid) < BATCH_SIZE:
                    for row_id in row_ids[i]:
                        cand_left.append(i)
                        cand_rid.append(row_id)
                    i += 1
                # rows before i have all their candidates in hand
                m = len(cand_rid)
                charge(index_cost * m)
                selected: Sequence[int] = range(m)
                if kernels:
                    probe = self._probe_batch(
                        keys, access, lbatch, cand_left, cand_rid
                    )
                    if post is not None:
                        selected = post.select(probe, selected, binding)
                if selected:
                    count(right, len(selected))
                if analyze:
                    seconds[right_id] = (
                        seconds.get(right_id, 0.0) + clock() - started
                    )
                charge(pair_cost * len(selected))
                if join is not None and selected:
                    selected = join.select(probe, selected, binding)
                if left_join:
                    out_left, out_rid, pending = _weave_left(
                        selected, cand_left, cand_rid, matched, pending, i
                    )
                elif len(selected) == m:
                    out_left, out_rid = cand_left, cand_rid
                else:
                    out_left = [cand_left[s] for s in selected]
                    out_rid = [cand_rid[s] for s in selected]
                for start in range(0, len(out_left), BATCH_SIZE):
                    end = start + BATCH_SIZE
                    yield access.joined(
                        lbatch, out_left[start:end], out_rid[start:end]
                    )
                if analyze:
                    started = clock()

    @staticmethod
    def _probe_batch(keys: set[str], access: "_IndexAccess", lbatch: Batch,
                     cand_left: list[int], cand_rid: list[int]) -> Batch:
        """Candidate batch holding only the columns in *keys* (left
        columns gathered, right columns fetched); binding keys stay out
        and resolve from the binding."""
        columns = access.columns(cand_rid, keys)
        for key in keys:
            column = lbatch.columns.get(key)
            if column is not None:
                columns[key] = [column[i] for i in cand_left]
        return Batch(columns, len(cand_rid))

    # -- filters and projection -------------------------------------------------

    def _vec_filter(self, plan: Filter, binding: Row) -> Iterator[Batch]:
        kernel = self._predicate(plan, plan.conjuncts)
        extra = sum(
            self._catalog.function_cost(node.name)
            for c in plan.conjuncts
            for node in c.walk()
            if isinstance(node, ast.FuncCall)
        )
        return self._filter_batches(plan, kernel, extra, binding)

    def _filter_batches(self, plan: Filter,
                        kernel: Optional[PredicateKernel],
                        extra: float, binding: Row) -> Iterator[Batch]:
        cm = self._cm
        charge = self.stats.charge
        per_row = cm.predicate_eval * len(plan.conjuncts) + extra
        for batch in self.batches(plan.child, binding):
            charge(per_row * batch.length)
            if kernel is None:
                yield batch
                continue
            selected = kernel.select(batch, range(batch.length), binding)
            if len(selected) == batch.length:
                yield batch
            else:
                yield batch.gather(selected)

    def _vec_project(self, plan: Project, binding: Row) -> Iterator[Batch]:
        # plain column references alias the child's column list instead of
        # re-materialising it; everything else compiles to a value kernel
        sources: list[object] = []
        for item in plan.select_items:
            expr = item.expr
            if isinstance(expr, ast.ColumnRef) and expr.qualifier is not None:
                sources.append(f"{expr.qualifier}.{expr.name}")
            else:
                sources.append(self._value(plan, expr))
        return self._project_batches(plan, sources, binding)

    def _project_batches(self, plan: Project, sources: list,
                         binding: Row) -> Iterator[Batch]:
        cm = self._cm
        charge = self.stats.charge
        width = len(sources)
        for batch in self.batches(plan.child, binding):
            n = batch.length
            charge(cm.pipeline_row * n)
            columns = dict(batch.columns)
            for i, source in enumerate(sources):
                if isinstance(source, str):
                    column = batch.columns.get(source)
                    if column is None:
                        column = [binding.get(source)] * n
                    columns[f"#out:{i}"] = column
                else:
                    columns[f"#out:{i}"] = source.evaluate(
                        batch, range(n), binding
                    )
            yield Batch(columns, n, width)

    # -- hash join --------------------------------------------------------------

    def _vec_hashjoin(self, plan: HashJoin, binding: Row) -> Iterator[Batch]:
        left_keys = [self._value(plan, k) for k in plan.left_keys]
        right_keys = [self._value(plan, k) for k in plan.right_keys]
        residual = self._predicate(plan, plan.residual_conjuncts)
        return self._hashjoin_batches(
            plan, left_keys, right_keys, residual, binding
        )

    def _hashjoin_batches(self, plan: HashJoin,
                          left_keys: list[ValueKernel],
                          right_keys: list[ValueKernel],
                          residual: Optional[PredicateKernel],
                          binding: Row) -> Iterator[Batch]:
        cm = self._cm
        charge = self.stats.charge
        pair_cost = (
            cm.pipeline_row
            + cm.predicate_eval * len(plan.residual_conjuncts)
        )

        # build side (right), materialised as one batch
        build = vbatch.concat(list(self.batches(plan.right, binding)))
        n_build = build.length
        charge(cm.hash_row * n_build)
        build_keys = _join_keys(self._key_columns(build, right_keys, binding))
        #: key -> build row indices in build order; NULL keys stay out
        table: dict[object, list[int]] = {}
        build_has_null_key = False
        get = table.get
        for i, key in enumerate(build_keys):
            if key is None:
                build_has_null_key = True
                continue
            bucket = get(key)
            if bucket is None:
                table[key] = [i]
            else:
                bucket.append(i)

        inner_like = plan.join_type in ("INNER", "LEFT")
        for lbatch in self.batches(plan.left, binding):
            n = lbatch.length
            charge(cm.hash_row * n)
            probe_keys = _join_keys(
                self._key_columns(lbatch, left_keys, binding)
            )
            # None for a NULL key: NULL keys are never in the table
            buckets = list(map(get, probe_keys))
            if inner_like:
                yield from self._hj_inner(
                    plan, lbatch, buckets, build, residual, pair_cost,
                    binding,
                )
                continue
            out = self._hj_semi(
                plan, lbatch, probe_keys, buckets, build, residual,
                pair_cost, binding, bool(table), build_has_null_key,
            )
            if out is not None:
                yield out

    def _key_columns(self, batch: Batch, kernels: list[ValueKernel],
                     binding: Row) -> list[list]:
        """Evaluate join-key kernels over a whole batch."""
        indices = range(batch.length)
        return [k.evaluate(batch, indices, binding) for k in kernels]

    def _hj_inner(self, plan: HashJoin, lbatch: Batch,
                  buckets: list, build: Batch,
                  residual: Optional[PredicateKernel], pair_cost: float,
                  binding: Row) -> Iterator[Batch]:
        """INNER/LEFT probe for one left batch, given each left row's
        bucket of build rows (None: no match).

        Emission order matches the row loop: per left row, its passing
        matches in build order, then (LEFT) the null-extended row when
        none passed.  Candidates are processed — and output emitted — in
        chunks of about BATCH_SIZE, so a fan-out probe never
        materialises a whole left batch times its fan-out.
        """
        charge = self.stats.charge
        n = lbatch.length
        hits = [i for i, bucket in enumerate(buckets) if bucket is not None]
        left_join = plan.join_type == "LEFT"
        if not hits and not left_join:
            return
        #: LEFT: rows that matched, and the first row whose null
        #: extension is still undecided
        matched = bytearray(n)
        pending = 0
        n_hits = len(hits)
        h = 0
        while True:
            cand_left: list[int] = []
            cand_right: list[int] = []
            while h < n_hits and len(cand_right) < BATCH_SIZE:
                i = hits[h]
                bucket = buckets[i]
                cand_left.extend([i] * len(bucket))
                cand_right.extend(bucket)
                h += 1
            # rows before the next hit have all their candidates in hand
            closed = hits[h] if h < n_hits else n
            m = len(cand_right)
            charge(pair_cost * m)
            selected: Sequence[int] = range(m)
            if residual is not None and m:
                pair = self._pair_batch(
                    residual.keys, lbatch, cand_left, build, cand_right,
                    binding,
                )
                selected = residual.select(pair, selected, binding)
            if left_join:
                out_left, out_right, pending = _weave_left(
                    selected, cand_left, cand_right, matched, pending, closed
                )
            elif len(selected) == m:
                out_left, out_right = cand_left, cand_right
            else:
                out_left = [cand_left[s] for s in selected]
                out_right = [cand_right[s] for s in selected]
            for start in range(0, len(out_left), BATCH_SIZE):
                end = start + BATCH_SIZE
                yield self._merged_batch(
                    lbatch, out_left[start:end], build,
                    out_right[start:end], left_join,
                )
            if h == n_hits:
                return

    def _hj_semi(self, plan: HashJoin, lbatch: Batch, probe_keys: Sequence,
                 buckets: list, build: Batch,
                 residual: Optional[PredicateKernel], pair_cost: float,
                 binding: Row, build_has_keys: bool,
                 build_has_null_key: bool) -> Optional[Batch]:
        """SEMI/ANTI/ANTI_NA probe for one left batch.

        Residual candidates are costed round-by-round — every left row's
        first candidate, then the second for rows still unmatched, … —
        so the charges equal the row loop's evaluate-until-first-match
        ``break`` exactly.
        """
        charge = self.stats.charge
        n = lbatch.length
        if residual is None:
            # the first candidate passes; the row loop breaks there
            matched = [bucket is not None for bucket in buckets]
            charge(pair_cost * sum(matched))
        else:
            matched = [False] * n
            active = [i for i, bucket in enumerate(buckets) if bucket]
            position = 0
            while active:
                cand_right = [buckets[i][position] for i in active]
                charge(pair_cost * len(active))
                pair = self._pair_batch(
                    residual.keys, lbatch, active, build, cand_right, binding,
                )
                for s in residual.select(pair, range(len(active)), binding):
                    matched[active[s]] = True
                position += 1
                active = [
                    i for i in active
                    if not matched[i] and len(buckets[i]) > position
                ]

        join_type = plan.join_type
        if join_type == "SEMI":
            keep = list(itertools.compress(range(n), matched))
        elif join_type == "ANTI" or not (build_has_keys or build_has_null_key):
            # ANTI, or ANTI_NA over an empty build side: no row matched
            keep = [i for i in range(n) if not matched[i]]
        elif build_has_null_key:
            keep = []  # ANTI_NA: a NULL build key may equal any row's key
        else:  # ANTI_NA: a NULL probe key may equal any build key
            keep = [
                i for i in range(n)
                if not matched[i] and probe_keys[i] is not None
            ]
        if not keep:
            return None
        return lbatch.gather(keep)

    def _pair_batch(self, keys: list[str], lbatch: Batch,
                    left_indices: list[int], build: Batch,
                    right_indices: list[int], binding: Row) -> Batch:
        """Candidate-pair batch holding only the columns a residual
        kernel reads; ``-1`` right indices (null extension) read NULL."""
        columns: dict[str, list] = {}
        for key in keys:
            column = lbatch.columns.get(key)
            if column is not None:
                columns[key] = [column[i] for i in left_indices]
                continue
            column = build.columns.get(key)
            if column is not None:
                columns[key] = [
                    column[j] if j >= 0 else None for j in right_indices
                ]
        return Batch(columns, len(left_indices))

    @staticmethod
    def _merged_batch(lbatch: Batch, left_indices: list[int], build: Batch,
                      right_indices: list[int], null_extended: bool) -> Batch:
        """Join output rows; with *null_extended*, a ``-1`` right index
        reads NULL."""
        columns: dict[str, list] = {}
        for key, column in lbatch.columns.items():
            columns[key] = list(map(column.__getitem__, left_indices))
        for key, column in build.columns.items():
            if null_extended:
                columns[key] = [
                    column[j] if j >= 0 else None for j in right_indices
                ]
            else:
                columns[key] = list(map(column.__getitem__, right_indices))
        return Batch(columns, len(left_indices))

    # -- aggregation ------------------------------------------------------------

    def _vec_groupby(self, plan: GroupBy, binding: Row) -> Iterator[Batch]:
        if plan.grouping_sets is not None:
            raise NotVectorizable("grouping sets")
        key_kernels = [self._value(plan, g) for g in plan.group_exprs]
        specs = []
        for call in plan.aggregates:
            is_star = bool(call.args) and isinstance(call.args[0], ast.Star)
            kernel = None if is_star else self._value(plan, call.args[0])
            specs.append((call, kernel, is_star))
        codes = _node_kernels(plan)
        names = codes.get("aggregates")
        if names is None:
            names = codes["aggregates"] = [agg_key(c) for c in plan.aggregates]
        return self._groupby_batches(plan, key_kernels, specs, names, binding)

    def _groupby_batches(self, plan: GroupBy,
                         key_kernels: list[ValueKernel], specs: list,
                         names: list[str], binding: Row) -> Iterator[Batch]:
        cm = self._cm
        charge = self.stats.charge
        per_row = cm.agg_row * max(len(specs), 1)
        #: key -> [rep_batch, rep_index, states]; insertion-ordered, so
        #: output order matches the row engine's first-seen order
        groups: dict[object, list] = {}
        for batch in self.batches(plan.child, binding):
            charge(per_row * batch.length)
            self._accumulate(batch, groups, key_kernels, specs, binding)

        if not groups and not plan.group_exprs:
            # scalar aggregate over empty input: one all-NULL group
            row: Row = dict(binding)
            for (call, _kernel, _star), name in zip(specs, names):
                row[name] = Accumulator(call.name, call.distinct).result()
            charge(cm.pipeline_row)
            yield Batch.from_rows([row])
            return

        out_rows: list[Row] = []
        for rep_batch, rep_index, states in groups.values():
            row = rep_batch.row_view(rep_index, binding)
            for (call, _kernel, _star), name, state in zip(
                specs, names, states
            ):
                row[name] = _agg_finish(call.name, state)
            charge(cm.pipeline_row)
            out_rows.append(row)
            if len(out_rows) >= BATCH_SIZE:
                yield Batch.from_rows(out_rows)
                out_rows = []
        if out_rows:
            yield Batch.from_rows(out_rows)

    def _accumulate(self, batch: Batch, groups: dict,
                    key_kernels: list[ValueKernel], specs: list,
                    binding: Row) -> None:
        """Accumulate one batch into *groups*.

        The batch's row indices are grouped by key first; then each
        group's states are updated once, from its index list — in row
        order, so every group appends its values in the row engine's
        order.
        """
        n = batch.length
        if not n:
            return
        indices = range(n)
        key_columns = [
            k.evaluate(batch, indices, binding) for k in key_kernels
        ]
        #: key -> this batch's row indices; first-seen order
        members: dict[object, Sequence[int]]
        if not key_columns:
            members = {(): indices}
        else:
            members = {}
            get = members.get
            for i, key in enumerate(
                key_columns[0] if len(key_columns) == 1
                else zip(*key_columns)
            ):
                rows = get(key)
                if rows is None:
                    members[key] = [i]
                else:
                    rows.append(i)
        arg_columns = [
            None if kernel is None else kernel.evaluate(
                batch, indices, binding
            )
            for _call, kernel, _star in specs
        ]
        for key, rows in members.items():
            group = groups.get(key)
            if group is None:
                #: state per aggregate: [star_count, values, seen-or-None]
                states = [
                    [0, [], set() if call.distinct else None]
                    for call, _kernel, _star in specs
                ]
                group = [batch, rows[0], states]
                groups[key] = group
            whole = len(rows) == n
            for state, (_call, _kernel, star), column in zip(
                group[2], specs, arg_columns
            ):
                if star:
                    state[0] += len(rows)
                    continue
                values = column if whole else map(column.__getitem__, rows)
                seen = state[2]
                if seen is None:
                    state[1] += [v for v in values if v is not None]
                    continue
                append = state[1].append
                for value in values:
                    if value is not None and value not in seen:
                        seen.add(value)
                        append(value)

    # -- distinct / sort / set operations ----------------------------------------

    def _vec_distinct(self, plan: Plan, binding: Row) -> Iterator[Batch]:
        return self._distinct_batches(plan, binding)

    def _distinct_batches(self, plan: Plan, binding: Row) -> Iterator[Batch]:
        cm = self._cm
        charge = self.stats.charge
        seen: set[tuple] = set()
        for batch in self.batches(plan.child, binding):
            charge(cm.hash_row * batch.length)
            keep = []
            for i, values in enumerate(batch.output_tuples()):
                if values not in seen:
                    seen.add(values)
                    keep.append(i)
            if len(keep) == batch.length:
                yield batch
            else:
                yield batch.gather(keep)

    def _vec_sort(self, plan: Sort, binding: Row) -> Iterator[Batch]:
        kernels = [self._value(plan, item.expr) for item in plan.order_by]
        return self._sort_batches(plan, kernels, binding)

    def _sort_batches(self, plan: Sort, kernels: list[ValueKernel],
                      binding: Row) -> Iterator[Batch]:
        cm = self._cm
        big = vbatch.concat(list(self.batches(plan.child, binding)))
        n = big.length
        self.stats.charge(cm.sort_cost(n))
        indices = list(range(n))
        # successive stable sorts, least-significant key first — the same
        # passes the row engine makes, so tie order is identical.  A key
        # is the value itself, or ``(is NULL, value)`` when the column
        # holds a NULL: NULLs sort last ascending and, reversed, first
        # descending, as ``reference._SortKey`` orders them
        for kernel, item in reversed(list(zip(kernels, plan.order_by))):
            column = kernel.evaluate(big, range(n), binding)
            if None in column:
                key = lambda i, c=column: ((v := c[i]) is None, v)  # noqa: E731
            else:
                key = column.__getitem__
            indices.sort(key=key, reverse=item.descending)
        for start in range(0, n, BATCH_SIZE):
            yield big.gather(indices[start:start + BATCH_SIZE])

    def _vec_setop(self, plan: SetOp, binding: Row) -> Iterator[Batch]:
        return self._setop_batches(plan, binding)

    def _setop_batches(self, plan: SetOp, binding: Row) -> Iterator[Batch]:
        cm = self._cm
        charge = self.stats.charge
        op = plan.op
        if op == "UNION ALL":
            for branch in plan.branches:
                for batch in self.batches(branch, binding):
                    values = batch.output_tuples()
                    charge(cm.pipeline_row * len(values))
                    yield _tuple_batch(values)
            return
        if op == "UNION":
            seen: set[tuple] = set()
            for branch in plan.branches:
                for batch in self.batches(branch, binding):
                    keep = []
                    for values in batch.output_tuples():
                        charge(cm.hash_row)
                        if values not in seen:
                            seen.add(values)
                            keep.append(values)
                    if keep:
                        yield _tuple_batch(keep)
            return
        left, right = plan.branches
        right_set: set[tuple] = set()
        for batch in self.batches(right, binding):
            right_set.update(batch.output_tuples())
        charge(cm.hash_row * len(right_set))
        seen = set()
        want = op == "INTERSECT"
        for batch in self.batches(left, binding):
            keep = []
            for values in batch.output_tuples():
                charge(cm.hash_row)
                if values in seen:
                    continue
                if (values in right_set) == want:
                    seen.add(values)
                    keep.append(values)
            if keep:
                yield _tuple_batch(keep)


def _agg_finish(name: str, state: list) -> object:
    """Finish one group's aggregate; mirrors ``Accumulator.result``."""
    star_count, values, _seen = state
    if name == "COUNT":
        return star_count if star_count else len(values)
    if not values:
        return None
    if name == "SUM":
        return sum(values)
    if name == "AVG":
        return sum(values) / len(values)
    if name == "MIN":
        return min(values)
    if name == "MAX":
        return max(values)
    raise ExecutionError(f"unknown aggregate {name!r}")


def _join_keys(columns: list[list]) -> Sequence:
    """Per row, its hash-join key: the value itself for one key column,
    the tuple of values for several — and ``None`` when any component is
    NULL, so the row never matches."""
    if len(columns) == 1:
        return columns[0]
    keys: list = list(zip(*columns))
    for column in columns:
        if None in column:  # a cheap pre-check; the test is ``is None``
            for i, value in enumerate(column):
                if value is None:
                    keys[i] = None
    return keys


def _node_kernels(plan: Plan) -> dict:
    """The kernel code generated for *plan*'s own expressions, kept on
    the node: code objects, column keys and constant sources only —
    nothing a particular execution bound."""
    codes = getattr(plan, _KERNELS_ATTR, None)
    if codes is None:
        codes = {}
        setattr(plan, _KERNELS_ATTR, codes)
    return codes


def _plan_columns(plan: Plan) -> Optional[frozenset[str]]:
    """The table columns a run of *plan* carries (``None``: all of
    them), computed on the plan's first execution and kept on the plan."""
    columns = getattr(plan, _COLUMNS_ATTR, _MISSING)
    if columns is _MISSING:
        columns = _referenced_columns(plan)
        setattr(plan, _COLUMNS_ATTR, columns)
    return columns


def _referenced_columns(plan: Plan) -> Optional[frozenset[str]]:
    """Every ``alias.column`` key an expression in *plan* references —
    on any node, view subplans included, and inside any subquery's query
    tree (a TIS subquery reads its outer columns from the binding built
    out of the outer row, and plans its own body from that tree).

    ``None`` when the plan holds an unqualified column reference, a
    subquery not built into a query tree, or a node kind this walk does
    not know: a key missing from a batch silently reads as NULL, so the
    set must never be too small.
    """
    keys: set[str] = set()
    #: plan nodes, expressions and subquery trees still to visit
    pending: list[object] = list(plan.walk())
    queries: set[int] = set()
    while pending:
        item = pending.pop()
        if isinstance(item, Plan):
            exprs = _node_exprs(item)
            if exprs is None:
                return None
            pending.extend(exprs)
            if isinstance(item, ViewScan):
                keys.update(f"{a}.{c}" for a, c in item.correlation_keys)
        elif isinstance(item, ast.Expr):
            for node in item.walk():
                if isinstance(node, ast.ColumnRef):
                    if node.qualifier is None:
                        return None
                    keys.add(f"{node.qualifier}.{node.name}")
                elif isinstance(node, ast.SubqueryExpr):
                    query = node.query
                    if not isinstance(query, QueryNode):
                        return None
                    if id(query) not in queries:
                        queries.add(id(query))
                        pending.extend(_query_exprs(query))
    return frozenset(keys)


def _node_exprs(node: Plan) -> Optional[list]:
    """The expressions one plan node evaluates (``None``: unknown
    node)."""
    if isinstance(node, (TableScan, ViewScan, NestedLoopJoin, Filter)):
        return list(node.conjuncts)
    if isinstance(node, IndexScan):
        exprs = [expr for _column, expr in node.eq_binds]
        if node.range_bind is not None:
            exprs.append(node.range_bind[2])
        return exprs + node.post_conjuncts + node.covered_conjuncts
    if isinstance(node, (HashJoin, MergeJoin)):
        return node.left_keys + node.right_keys + node.residual_conjuncts
    if isinstance(node, GroupBy):
        return node.group_exprs + list(node.aggregates)
    if isinstance(node, WindowCompute):
        return list(node.windows)
    if isinstance(node, Sort):
        return [item.expr for item in node.order_by]
    if isinstance(node, Project):
        return [item.expr for item in node.select_items]
    if isinstance(node, (Limit, Distinct, SetOp)):
        return []
    return None


def _query_exprs(query: QueryNode) -> list[ast.Expr]:
    """The expressions of *query*'s blocks, derived tables and set-op
    branches included; nested subqueries are reached through their
    :class:`~repro.sql.ast.SubqueryExpr` nodes."""
    exprs: list[ast.Expr] = []
    nodes: list[QueryNode] = [query]
    while nodes:
        node = nodes.pop()
        exprs.extend(item.expr for item in node.order_by)
        if isinstance(node, SetOpBlock):
            nodes.extend(node.branches)
            continue
        exprs.extend(item.expr for item in node.select_items)
        exprs.extend(node.all_conjuncts())
        exprs.extend(node.group_by)
        nodes.extend(item.subquery for item in node.derived_from_items())
    return exprs


class _IndexAccess:
    """One :class:`IndexScan` compiled for the batch engine: bind
    kernels, post-filter kernel, the index and the table's rows.

    Rows are fetched by row id from the pinned version's row list, never
    through ``columnar()``: a probe touches a handful of rows, while
    ``columnar()`` transposes the whole table — once per table version,
    and every insert makes a new version.
    """

    __slots__ = ("eq", "bound", "op", "post", "index", "rows", "fields",
                 "rowid_key", "null_row")

    def __init__(self, plan: IndexScan, data: TableLike,
                 eq: list[ValueKernel], bound: Optional[ValueKernel],
                 post: Optional[PredicateKernel],
                 wanted: Optional[frozenset[str]]):
        self.eq = eq
        self.bound = bound
        self.op = plan.range_bind[1] if plan.range_bind is not None else None
        self.post = post
        self.index = data.index_named(plan.index.name)
        self.rows = data.rows
        names = list(data.table.columns)
        prefix = plan.alias + "."
        #: the fetched columns: those in the statement's column set
        self.fields = [
            (prefix + name, operator.itemgetter(name))
            for name in names
            if wanted is None or prefix + name in wanted
        ]
        rowid_key = prefix + "rowid"
        self.rowid_key = (
            rowid_key if wanted is None or rowid_key in wanted else None
        )
        #: the stored row a NULL-extended output row reads
        self.null_row = dict.fromkeys(names)

    def row_ids(self, batch: Batch, binding: Row) -> list[Iterable[int]]:
        """Per row of *batch*, the matching row ids in index order (none
        when a bind value is NULL)."""
        indices = range(batch.length)
        if self.eq:
            prefixes = list(zip(*[
                k.evaluate(batch, indices, binding) for k in self.eq
            ]))
        else:
            prefixes = [()] * batch.length
        scan = self.index.scan
        if self.bound is None:
            return list(map(scan, prefixes))
        op = self.op
        values = self.bound.evaluate(batch, indices, binding)
        return [scan(prefix, op, v) for prefix, v in zip(prefixes, values)]

    def columns(self, row_ids: list[int],
                wanted: Optional[set[str]] = None) -> dict[str, list]:
        """The fetched columns (all, or those in *wanted*) for *row_ids*;
        a ``-1`` row id reads as the NULL extension."""
        rows = self.rows
        null_row = self.null_row
        stored = [rows[r] if r >= 0 else null_row for r in row_ids]
        columns = {
            key: list(map(field, stored))
            for key, field in self.fields
            if wanted is None or key in wanted
        }
        rowid_key = self.rowid_key
        if rowid_key is not None and (wanted is None or rowid_key in wanted):
            columns[rowid_key] = [r if r >= 0 else None for r in row_ids]
        return columns

    def joined(self, lbatch: Batch, left_indices: list[int],
               row_ids: list[int]) -> Batch:
        """Join output: the left rows at *left_indices* beside the
        fetched rows *row_ids*."""
        out = lbatch.gather(left_indices)
        out.columns.update(self.columns(row_ids))
        return out


def _weave_left(selected: Sequence[int], cand_left: list[int],
                cand_rid: list[int], matched: bytearray, pending: int,
                closed: int) -> tuple[list[int], list[int], int]:
    """LEFT join output for one chunk of candidates: each left row's
    passing matches in candidate order, and a NULL extension (row id
    ``-1``) for every row before *closed* that matched nothing.  Returns
    the output's left indices, row ids, and the new *pending* row."""
    out_left: list[int] = []
    out_rid: list[int] = []
    for s in selected:
        i = cand_left[s]
        while pending < i:
            if not matched[pending]:
                out_left.append(pending)
                out_rid.append(-1)
            pending += 1
        matched[i] = 1
        out_left.append(i)
        out_rid.append(cand_rid[s])
    while pending < closed:
        if not matched[pending]:
            out_left.append(pending)
            out_rid.append(-1)
        pending += 1
    return out_left, out_rid, pending


def _tuple_batch(values: list[tuple]) -> Batch:
    """A batch holding only the ``#out:i`` projection of *values*."""
    width = len(values[0])
    columns = {
        f"#out:{i}": [v[i] for v in values] for i in range(width)
    }
    return Batch(columns, len(values), width)
