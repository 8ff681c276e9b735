"""Public facade: an embedded relational database whose optimizer
implements the paper's cost-based query transformation framework.

Typical use::

    from repro import Database

    db = Database()
    db.execute_ddl("CREATE TABLE employees (emp_id INT PRIMARY KEY, ...)")
    db.insert("employees", rows)
    db.analyze()

    result = db.execute("SELECT ...")       # optimize + run
    print(db.explain("SELECT ..."))         # plan + transformed SQL
    report = db.optimize("SELECT ...").report  # CBQT decisions & states
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Optional, TextIO

from .analysis import DiagnosticReport, TransformationAuditor
from .catalog.schema import Catalog, Index, TableDef
from .catalog.statistics import StatisticsRegistry, collect_statistics
from .configstamp import Stamped
from .cbqt.caching import DynamicSamplingCache
from .cbqt.framework import CbqtConfig, CbqtFramework, OptimizationReport
from .durability import (
    DurabilityConfig,
    DurabilityManager,
    RecoveryReport,
)
from .engine.executor import ExecStats, Executor
from .engine.expressions import FunctionRegistry
from .engine.reference import ReferenceEvaluator
from .engine.tables import Storage, StorageSnapshot
from .engine.vector import VectorExecutor
from .errors import (
    CatalogError,
    DurabilityError,
    ExecutionError,
    ReproError,
    StatementCancelled,
    StatementTimeout,
)
from .obs import (
    MetricsRegistry,
    Tracer,
    annotation_lines,
    format_explain_analyze,
)
from .optimizer.annotations import AnnotationStore
from .optimizer.costmodel import DEFAULT_COST_MODEL, CostModel
from .optimizer.physical import OptimizerCounters, PhysicalOptimizer
from .optimizer.plans import Plan
from .qtree import build_query_tree
from .qtree.binds import apply_peeks
from .qtree.blocks import QueryNode
from .resilience import (
    CancelToken,
    DegradationInfo,
    QuarantineRegistry,
    ResilienceConfig,
    SearchGovernor,
    activate,
)
from .sql import ast, parse_query, parse_statement
from .transform.pipeline import TRANSFORMATION_NAMES

#: execution engines selectable per database / per statement; "vector"
#: (the default) runs the batch engine, "row" is the classic
#: row-at-a-time escape hatch (also reachable via the ``REPRO_EXEC``
#: environment variable)
EXECUTOR_MODES = ("row", "vector")


def _default_executor_mode() -> str:
    mode = os.environ.get("REPRO_EXEC", "").strip().lower()
    if not mode:
        return "vector"
    if mode not in EXECUTOR_MODES:
        raise ExecutionError(
            f"REPRO_EXEC={mode!r} is not one of {'/'.join(EXECUTOR_MODES)}"
        )
    return mode


@dataclass
class OptimizerConfig(Stamped):
    """All optimizer knobs; the evaluation section's switches map 1:1.

    * Figure 2: ``OptimizerConfig()`` vs ``OptimizerConfig.heuristic_mode()``
    * Figure 3: default vs ``OptimizerConfig.without("unnest_view",
      "subquery_merge")``
    * Figure 4: default vs ``OptimizerConfig.without("jppd")``
    * Table 2: ``replace(config, cbqt=replace(config.cbqt,
      search_strategy="linear"))`` etc.
    """

    cbqt: CbqtConfig = field(default_factory=CbqtConfig)
    #: resilience layer: degradation ladder, search governor, quarantine
    resilience: ResilienceConfig = field(default_factory=ResilienceConfig)
    cost_model: CostModel = DEFAULT_COST_MODEL
    #: reuse of query sub-tree cost annotations (§3.4.2)
    annotation_reuse: bool = True
    #: left-deep DP up to this many from-items, greedy beyond
    dp_threshold: int = 8
    #: dynamic sampling for tables without statistics (§3.4.4)
    dynamic_sampling: bool = True

    @staticmethod
    def heuristic_mode() -> "OptimizerConfig":
        """Pre-10g behaviour: transformations by heuristic rules only."""
        return OptimizerConfig(cbqt=CbqtConfig(enabled=False))

    def without(self, *names: str) -> "OptimizerConfig":
        """Copy with the named transformations disabled entirely."""
        disabled = self.cbqt.disabled_transformations | frozenset(names)
        return replace(
            self, cbqt=replace(self.cbqt, disabled_transformations=disabled)
        )

    def with_strategy(self, strategy: Optional[str]) -> "OptimizerConfig":
        """Copy with a forced state-space search strategy."""
        return replace(self, cbqt=replace(self.cbqt, search_strategy=strategy))


@dataclass
class OptimizedQuery:
    """Outcome of optimizing (not running) one query."""

    sql: str
    tree: QueryNode
    plan: Plan
    report: OptimizationReport
    counters: OptimizerCounters
    columns: list[str]

    @property
    def transformed_sql(self) -> str:
        return self.report.transformed_sql

    @property
    def estimated_cost(self) -> float:
        return self.plan.cost

    def explain(self) -> str:
        lines = annotation_lines(self.report)
        lines.append(self.plan.describe())
        return "\n".join(lines)


@dataclass
class ReadSnapshot:
    """A consistent point-in-time read handle over one database.

    Pins every table's current copy-on-write version
    (:class:`~repro.engine.tables.StorageSnapshot`) together with the
    catalog/statistics version counters observed at pin time.  Executing
    against the handle (``execute_plan(storage=snapshot.storage)``) sees
    exactly the pinned data regardless of concurrent DDL / INSERT /
    ANALYZE, and the recorded versions let the plan cache validate (and
    hard parses record) dependencies *as of the snapshot* rather than
    racing the live counters — this is the snapshot-read isolation the
    multi-session server front end (:mod:`repro.server`) serves reads
    under."""

    storage: StorageSnapshot
    #: table -> (catalog_version, statistics_version) at pin time
    table_versions: dict

    def versions(self, table: str) -> tuple:
        """Version pair for *table* as of the snapshot (the
        :class:`~repro.service.plan_cache.PlanCache` VersionReader
        contract); tables created after the pin read as (0, 0) — absent,
        exactly as the snapshot sees them."""
        return self.table_versions.get(table.lower(), (0, 0))


@dataclass
class QueryResult:
    """Rows plus full optimization/execution accounting."""

    rows: list[tuple]
    columns: list[str]
    plan: Plan
    report: OptimizationReport
    exec_stats: ExecStats
    optimize_seconds: float
    execute_seconds: float
    #: set by the service layer: "miss", "hit", or "reoptimized"
    cache_status: Optional[str] = None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def work_units(self) -> float:
        return self.exec_stats.work_units

    def explain_analyze(self, timing: bool = True) -> str:
        """EXPLAIN ANALYZE output: the annotation header plus the plan
        with estimated vs. actual rows, per-operator Q-error, invocation
        counts, and (when the run was profiled and *timing* is on)
        wall-clock self-time per operator.  ``timing=False`` yields
        deterministic output for golden tests."""
        lines = annotation_lines(self.report, self.cache_status)
        lines.append(
            format_explain_analyze(self.plan, self.exec_stats, timing)
        )
        return "\n".join(lines)

    @property
    def total_time_units(self) -> float:
        """The paper's "total run time": optimization + execution, in one
        deterministic currency (optimizer states weigh in as work too)."""
        return self.exec_stats.work_units + self.report.total_states


class _NoMemo:
    """``Database.plan_memo``: there is no cross-statement plan memo, so
    every count is zero."""

    def snapshot(self) -> dict:
        return {"hits": 0, "misses": 0, "join_hits": 0, "join_misses": 0}


class Database:
    """A database instance: in-memory by default, durable when opened
    with a *data_dir* (write-ahead log + checkpoint + recovery; see
    :mod:`repro.durability`)."""

    def __init__(
        self,
        config: Optional[OptimizerConfig] = None,
        data_dir: Optional[str] = None,
        durability: Optional[DurabilityConfig] = None,
    ):
        self.config = config or OptimizerConfig()
        self.catalog = Catalog()
        self.storage = Storage()
        self.statistics = StatisticsRegistry()
        self.functions = FunctionRegistry()
        self._sampling_cache = DynamicSamplingCache(
            self.storage, self.catalog, self.statistics
        )
        #: shared failure ledger for the degradation ladder (fix-control
        #: style kill switches; see repro.resilience.quarantine)
        self.quarantine = QuarantineRegistry(
            self.config.resilience.quarantine_statement_threshold,
            self.config.resilience.quarantine_global_threshold,
        )
        #: unified metrics registry (set to None to detach entirely —
        #: every recording site is guarded on it); collectors read the
        #: subsystems' own accounting at snapshot time only
        self.metrics: Optional[MetricsRegistry] = MetricsRegistry()
        self.metrics.register_collector(
            "quarantine", self.quarantine.snapshot
        )
        self.metrics.register_collector(
            "dynamic_sampling", self._sampling_cache.snapshot
        )
        self.metrics.register_collector("statistics", self.statistics.snapshot)
        #: no plan is reused across statements; ``bench/`` still reads
        #: these (zero) counts in its traced runs
        self.plan_memo = _NoMemo()
        #: 10053-style optimizer trace; None (the default) emits nothing.
        #: Arm with :meth:`tracing` or assign a Tracer directly.
        self.tracer: Optional[Tracer] = None
        #: default execution engine ("row" / "vector"),
        #: overridable per statement via ``execute(..., executor=...)``
        self.executor_mode: str = _default_executor_mode()
        #: durable-storage manager; None = pure in-memory instance (the
        #: default, and the zero-cost path every mutation is guarded on)
        self.durability: Optional[DurabilityManager] = None
        #: what recovery found when a *data_dir* instance opened
        self.recovery: Optional[RecoveryReport] = None
        if data_dir is not None:
            manager = DurabilityManager(data_dir, durability, self.metrics)
            # replay drives the public mutation API below; the manager is
            # attached only afterwards so recovery does not re-log
            self.recovery = manager.open(self)
            self.durability = manager
            self.metrics.register_collector("durability", manager.stats)
        elif durability is not None:
            raise DurabilityError(
                "a DurabilityConfig needs a data_dir to apply to"
            )

    # -- schema & data -------------------------------------------------------

    def execute_ddl(self, sql: str) -> None:
        """Run one CREATE TABLE / CREATE INDEX statement."""
        stmt = parse_statement(sql)
        if isinstance(stmt, ast.CreateTable):
            self._create_table(self.catalog.create_table_from_ddl, stmt)
        elif isinstance(stmt, ast.CreateIndex):
            self._create_index(self.catalog.create_index_from_ddl, stmt)
        else:
            raise CatalogError("execute_ddl expects CREATE TABLE/INDEX")

    def create_table(self, table: TableDef) -> None:
        """Register a programmatically built table definition."""
        self._create_table(self.catalog.add_table, table)

    def create_index(self, index: Index) -> None:
        self._create_index(self.catalog.add_index, index)

    def _create_table(self, register: Callable, definition) -> None:
        """Shared CREATE TABLE path: catalog + storage + WAL, atomically.

        The catalog entry is rolled back if storage creation or WAL
        logging fails — a half-created table (in the catalog but without
        storage, or in memory but not in the log) must never survive."""
        manager = self.durability
        if manager is None:
            table = register(definition)
            try:
                self.storage.create(table)
            except BaseException:
                self.catalog.remove_table(table.name)
                raise
            return
        with manager.exclusive():
            table = register(definition)
            try:
                self.storage.create(table)
                manager.append({
                    "op": "create_table",
                    "table": table.to_dict(include_indexes=False),
                })
            except BaseException:
                self.catalog.remove_table(table.name)
                self.storage.drop(table.name)
                raise

    def _create_index(self, register: Callable, definition) -> None:
        """Shared CREATE INDEX path, mirroring :meth:`_create_table`:
        the catalog entry is rolled back when the index build (e.g. a
        unique violation over existing rows) or WAL logging fails."""
        manager = self.durability
        if manager is None:
            index = register(definition)
            try:
                self.storage.get(index.table).attach_index(index)
            except BaseException:
                self.catalog.remove_index(index.name)
                raise
            return
        with manager.exclusive():
            index = register(definition)
            try:
                data = self.storage.get(index.table)

                def log_then_publish(publish: Callable[[], None]) -> None:
                    manager.commit(
                        {"op": "create_index", "index": index.to_dict()},
                        publish,
                    )

                data.attach_index(index, on_commit=log_then_publish)
            except BaseException:
                self.catalog.remove_index(index.name)
                raise

    def insert(self, table: str, rows: Iterable[dict]) -> int:
        """Insert dict rows (missing columns become NULL).

        The table's statistics stay in force until the rows inserted
        since they were gathered pass the staleness threshold
        (:meth:`StatisticsRegistry.record_insert`); only then do they
        drop, invalidating dependent cursors.

        On a durable instance the batch's WAL record is appended —
        normalised rows, one record for the whole batch — *before* the
        new table version is published, so an acknowledged insert
        survives a crash and a failed one is invisible everywhere."""
        manager = self.durability
        if manager is None:
            data = self.storage.get(table)
            count = data.insert(rows)
            self.statistics.record_insert(table, data.row_count)
        else:
            with manager.exclusive():
                data = self.storage.get(table)
                name = data.table.name

                def log_then_publish(
                    batch: list, publish: Callable[[], None]
                ) -> None:
                    manager.commit(
                        {"op": "insert", "table": name, "rows": batch},
                        publish,
                    )

                count = data.insert(rows, on_commit=log_then_publish)
                # under the exclusive lock, so the basis a stale drop
                # records is the row count replay reaches at this record
                self.statistics.record_insert(table, data.row_count)
            manager.maybe_checkpoint(self)
        return count

    def analyze(self, table: Optional[str] = None) -> None:
        """Collect exact optimizer statistics (ANALYZE)."""
        manager = self.durability
        if manager is None:
            for name, stats in self._collect_analyze(table):
                self.statistics.set(name, stats)
            return
        with manager.exclusive():
            # collect first (it can fail on an unknown table — nothing
            # may be logged then), log, then publish.  The record carries
            # no statistics: replay re-runs the same deterministic
            # collection over identical rows, and the exclusive lock
            # pins the rows the LSN refers to.
            computed = self._collect_analyze(table)
            manager.append({"op": "analyze", "table": table})
            for name, stats in computed:
                self.statistics.set(name, stats)

    def _collect_analyze(self, table: Optional[str]) -> list:
        names = [table.lower()] if table else list(self.catalog.tables)  # staticcheck: ignore[lock.discipline] GIL-atomic dict iteration, as the pre-durability analyze did
        return [
            (
                name,
                collect_statistics(
                    self.storage.get(name).rows,
                    self.catalog.table(name).column_names,
                ),
            )
            for name in names
        ]

    def register_function(
        self,
        name: str,
        fn: Callable,
        expensive_cost: Optional[float] = None,
    ) -> None:
        """Register a scalar function; a non-None *expensive_cost* marks
        it expensive for the predicate-pullup transformation (§2.2.6).

        Only the catalog fact (name + cost) is durable — the callable
        itself cannot be serialized, so applications must re-register
        their functions on every open; costing then behaves identically
        after recovery."""
        self.functions.register(name, fn)
        if expensive_cost is None:
            return
        manager = self.durability
        if manager is None:
            self.catalog.register_expensive_function(name, expensive_cost)
            return
        with manager.exclusive():
            manager.append({
                "op": "expensive_function",
                "name": name,
                "cost": expensive_cost,
            })
            self.catalog.register_expensive_function(name, expensive_cost)

    # -- durability ----------------------------------------------------------

    def checkpoint(self) -> int:
        """Serialize the full committed state to the data directory and
        truncate the WAL; returns the checkpoint's LSN."""
        if self.durability is None:
            raise DurabilityError(
                "checkpoint requires a database opened with data_dir"
            )
        return self.durability.checkpoint(self)

    def close(self) -> None:
        """Flush and release durable resources (no-op when in-memory)."""
        if self.durability is not None:
            self.durability.close()

    # -- observability ---------------------------------------------------------

    @contextmanager
    def tracing(
        self, capacity: int = 4096, sink: Optional[TextIO] = None
    ) -> Iterator[Tracer]:
        """Arm the 10053-style optimizer trace for the with-block.

        Every optimization inside the block emits ``cbqt.*`` and
        ``heuristic.*`` events into the yielded :class:`Tracer` (and, as
        JSON lines, into *sink* when given).  Nested blocks shadow the
        outer tracer; on exit the previous tracer is restored.
        """
        tracer = Tracer(capacity, sink)
        previous = self.tracer
        self.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = previous

    def read_snapshot(self) -> ReadSnapshot:
        """Pin a consistent point-in-time view for reads: every table's
        current copy-on-write version plus the catalog/statistics version
        counters at pin time (see :class:`ReadSnapshot`)."""
        storage = self.storage.snapshot()
        versions = {
            name: (
                self.catalog.table_version(name),
                self.statistics.table_version(name),
            )
            for name in storage.versions()
        }
        return ReadSnapshot(storage, versions)

    def snapshot(self) -> dict:
        """One consistent export of every metric the instance kept:
        counters, histogram percentiles, and the absorbed subsystem
        accounting (quarantine, dynamic sampling, statistics staleness
        monitoring, and — when a
        :class:`~repro.service.QueryService` wraps this database — the
        plan cache).  Empty when ``metrics`` was detached."""
        if self.metrics is None:
            return {}
        return self.metrics.snapshot()

    def _record_optimized(self, optimized: OptimizedQuery) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        report = optimized.report
        metrics.counter("optimizer.statements").inc()
        metrics.histogram("optimizer.states").record(report.total_states)
        metrics.histogram("optimizer.seconds").record(report.elapsed_seconds)
        if report.degradation is not None:
            metrics.counter("optimizer.degradations").inc()
            metrics.counter(
                f"optimizer.degraded.{report.degradation.level}"
            ).inc()
        if report.quarantined:
            metrics.counter("optimizer.quarantined_statements").inc()
        if report.governor is not None and report.governor.exhausted:
            metrics.counter("optimizer.governor_exhaustions").inc()

    # -- optimization & execution ----------------------------------------------

    def parse(self, sql: str) -> QueryNode:
        """Parse + resolve into a query tree (no transformation)."""
        return build_query_tree(parse_query(sql), self.catalog)

    def _physical(self, config: OptimizerConfig) -> PhysicalOptimizer:
        return PhysicalOptimizer(
            self.catalog,
            self.statistics,
            config.cost_model,
            AnnotationStore(config.annotation_reuse),
            OptimizerCounters(),
            config.dp_threshold,
            self._sampling_cache if config.dynamic_sampling else None,
        )

    def optimize_tree(
        self,
        tree: QueryNode,
        sql: str = "",
        config: Optional[OptimizerConfig] = None,
        token: Optional[CancelToken] = None,
        rebuild: Optional[Callable[[], QueryNode]] = None,
    ) -> OptimizedQuery:
        """Transform + plan an already-built query tree.

        This is the single optimization path: ``optimize``, ``explain``,
        ``execute``, and the service layer's plan cache all funnel through
        it.  The framework may mutate *tree*; callers that need to keep a
        pristine copy (for re-optimization) must clone or re-parse.

        With ``config.resilience.fallback`` enabled this drives the
        degradation ladder: a typed error raised by a transformation or
        the search discards the blamed transformation and retries — full
        CBQT minus the culprit, then heuristic-only, then the
        untransformed plan — recording the degradation on the report.
        *rebuild* supplies a pristine tree for a retry (defaults to
        re-parsing *sql*); *token* arms statement timeout/cancellation,
        which always aborts instead of degrading."""
        config = config or self.config
        resilience = config.resilience
        if not resilience.fallback:
            optimized = self._optimize_attempt(tree, sql, config, token)
            self._record_optimized(optimized)
            return optimized

        quarantine = self.quarantine
        signature = None
        quarantined: list[str] = []
        if quarantine.dirty():
            signature = " ".join(sql.split()) if sql else "<tree>"
            quarantined = sorted(
                name for name in TRANSFORMATION_NAMES
                if quarantine.is_quarantined(name, signature)
            )
        base_disabled = config.cbqt.disabled_transformations
        if quarantined:
            base_disabled = base_disabled | frozenset(quarantined)
        if rebuild is None:
            if sql:
                rebuild = lambda: self.parse(sql)  # noqa: E731
            else:
                # raw-tree caller: keep a pristine copy for retries
                pristine = tree.clone()
                rebuild = pristine.clone

        blamed: list[str] = []
        failures: list[str] = []
        last_error: Optional[ReproError] = None
        attempts = 0
        for level in ("full", "cbqt-discard", "heuristic", "untransformed"):
            if level == "full":
                enabled, disabled = config.cbqt.enabled, base_disabled
            elif level == "cbqt-discard":
                if not blamed or not config.cbqt.enabled:
                    continue  # nothing to discard / already heuristic
                enabled = True
                disabled = base_disabled | frozenset(blamed)
            elif level == "heuristic":
                enabled = False
                disabled = base_disabled | frozenset(blamed)
            else:
                enabled, disabled = False, TRANSFORMATION_NAMES
            if (
                enabled == config.cbqt.enabled
                and disabled == config.cbqt.disabled_transformations
            ):
                attempt_config = config  # untroubled fast path: no rewrite
            else:
                attempt_config = replace(
                    config,
                    cbqt=replace(
                        config.cbqt,
                        enabled=enabled,
                        disabled_transformations=disabled,
                    ),
                )
            attempts += 1
            try:
                optimized = self._optimize_attempt(
                    tree, sql, attempt_config, token
                )
            except (StatementTimeout, StatementCancelled):
                raise  # user limits abort; they never degrade
            except ReproError as exc:
                if signature is None:
                    signature = " ".join(sql.split()) if sql else "<tree>"
                name = getattr(exc, "transformation", None)
                if name:
                    quarantine.record_failure(name, signature)
                    if name not in blamed:
                        blamed.append(name)
                failures.append(f"{type(exc).__name__}: {exc}")
                last_error = exc
                tree = rebuild()  # the failed attempt may have mutated it
                continue
            optimized.report.quarantined = quarantined
            if level != "full":
                optimized.report.degradation = DegradationInfo(
                    level=level,
                    reason=failures[-1],
                    blamed=list(blamed),
                    attempts=attempts,
                    errors=list(failures),
                )
            self._record_optimized(optimized)
            return optimized
        assert last_error is not None
        raise last_error

    def _optimize_attempt(
        self,
        tree: QueryNode,
        sql: str,
        config: OptimizerConfig,
        token: Optional[CancelToken],
    ) -> OptimizedQuery:
        """One optimization attempt at one ladder level."""
        if token is not None:
            token.check()  # fast-fail before any optimization work
        columns = list(tree.output_columns())
        physical = self._physical(config)
        resilience = config.resilience
        governor = None
        if (
            token is not None
            or resilience.governor_deadline is not None
            or resilience.governor_max_states is not None
        ):
            governor = SearchGovernor(
                resilience.governor_deadline,
                resilience.governor_max_states,
                token,
            )
        framework = CbqtFramework(
            self.catalog, physical, config.cbqt,
            governor=governor, tracer=self.tracer,
        )
        tree, plan, report = framework.optimize(tree)
        return OptimizedQuery(sql, tree, plan, report, physical.counters, columns)

    def optimize(
        self,
        sql: str,
        config: Optional[OptimizerConfig] = None,
        binds: Optional[dict] = None,
        token: Optional[CancelToken] = None,
    ) -> OptimizedQuery:
        """Transform + plan a query without running it.

        When *binds* are given their values are peeked for selectivity
        estimation (Oracle-style bind peeking); the plan still contains
        bind placeholders and runs correctly for any later values."""

        def build() -> QueryNode:
            tree = self.parse(sql)
            if binds:
                apply_peeks(tree, binds)
            return tree

        return self.optimize_tree(
            build(), sql, config, token=token, rebuild=build
        )

    def explain(self, sql: str, config: Optional[OptimizerConfig] = None) -> str:
        """EXPLAIN-style output: transformed SQL + the operator tree."""
        return self.optimize(sql, config).explain()

    def check(
        self, sql: str, config: Optional[OptimizerConfig] = None
    ) -> DiagnosticReport:
        """Run the optimizer sanitizer over one query and report.

        Optimizes *sql* with the verifiers wired into every
        transformation step (regardless of ``debug_checks``), but in
        reporting mode: violations are collected into the returned
        :class:`~repro.analysis.DiagnosticReport` — attributed to the
        transformation and CBQT state that produced them — instead of
        raising."""
        config = config or self.config
        auditor = TransformationAuditor(
            self.catalog, raise_on_error=False, context=sql
        )
        tree = self.parse(sql)
        physical = self._physical(config)
        framework = CbqtFramework(
            self.catalog, physical, config.cbqt, auditor=auditor
        )
        framework.optimize(tree)
        return auditor.report

    def execute_plan(
        self,
        optimized: OptimizedQuery,
        config: Optional[OptimizerConfig] = None,
        binds: Optional[dict] = None,
        optimize_seconds: float = 0.0,
        cache_status: Optional[str] = None,
        token: Optional[CancelToken] = None,
        analyze: bool = False,
        executor: Optional[str] = None,
        storage: Optional[StorageSnapshot] = None,
    ) -> QueryResult:
        """Run an already-optimized query with the given bind values.

        *token* arms cooperative cancellation: the executor's loops poll
        it and abort with a typed error when it trips.  *analyze*
        profiles every operator (invocations + wall-clock self-time) for
        :meth:`QueryResult.explain_analyze`.  *executor* picks the
        engine for this statement ("row" / "vector");
        the default is the database's :attr:`executor_mode`.  *storage*
        substitutes a pinned :class:`~repro.engine.tables.StorageSnapshot`
        (from :meth:`read_snapshot`) for the live tables, giving the run
        snapshot-read isolation against concurrent writers."""
        config = config or self.config
        mode = executor or self.executor_mode
        if mode not in EXECUTOR_MODES:
            raise ExecutionError(
                f"unknown executor mode {mode!r}; "
                f"expected one of {'/'.join(EXECUTOR_MODES)}"
            )
        physical: Optional[PhysicalOptimizer] = None

        def plan_subquery(query: QueryNode) -> Plan:
            # only TIS subqueries need a physical optimizer: build it on
            # first use, so a cached plan's execution never pays for it
            nonlocal physical
            if physical is None:
                physical = self._physical(config)
            return physical.optimize(query)

        row_executor = Executor(
            storage if storage is not None else self.storage,
            self.catalog,
            self.functions,
            plan_subquery=plan_subquery,
            cost_model=config.cost_model,
        )
        started = time.perf_counter()
        with activate(token):
            if mode == "row":
                rows, stats = row_executor.execute(
                    optimized.plan, binds=binds, token=token, analyze=analyze
                )
            else:
                vector = VectorExecutor(row_executor)
                try:
                    rows, stats = vector.execute(
                        optimized.plan,
                        binds=binds,
                        token=token,
                        analyze=analyze,
                    )
                except (StatementTimeout, StatementCancelled):
                    raise
                except ReproError:
                    # The batch engine is an optimization, not an oracle:
                    # under the resilience policy a failure degrades to
                    # the row engine rather than failing the statement.
                    if not config.resilience.fallback:
                        raise
                    if self.metrics is not None:
                        self.metrics.counter("executor.vector_fallbacks").inc()
                    rows, stats = row_executor.execute(
                        optimized.plan,
                        binds=binds,
                        token=token,
                        analyze=analyze,
                    )
        execute_seconds = time.perf_counter() - started
        metrics = self.metrics
        if metrics is not None:
            metrics.counter("executor.statements").inc()
            metrics.histogram("executor.seconds").record(execute_seconds)
            metrics.histogram("executor.work_units").record(stats.work_units)
        return QueryResult(
            rows,
            optimized.columns,
            optimized.plan,
            optimized.report,
            stats,
            optimize_seconds,
            execute_seconds,
            cache_status,
        )

    def execute(
        self,
        sql: str,
        config: Optional[OptimizerConfig] = None,
        binds: Optional[dict] = None,
        timeout: Optional[float] = None,
        token: Optional[CancelToken] = None,
        analyze: bool = False,
        executor: Optional[str] = None,
    ) -> QueryResult:
        """Optimize and run a query (one-shot, no plan cache).

        *timeout* bounds the whole statement (optimize + execute) in
        wall-clock seconds; expiry raises
        :class:`~repro.errors.StatementTimeout`.  *analyze* arms the
        per-operator execution profiler (EXPLAIN ANALYZE)."""
        if token is None and timeout is not None:
            token = CancelToken(timeout)
        elif token is not None and timeout is not None:
            token.set_deadline(timeout)
        with activate(token):
            started = time.perf_counter()
            optimized = self.optimize(sql, config, binds, token=token)
            optimize_seconds = time.perf_counter() - started
            return self.execute_plan(
                optimized,
                config,
                binds,
                optimize_seconds=optimize_seconds,
                token=token,
                analyze=analyze,
                executor=executor,
            )

    def explain_analyze(
        self,
        sql: str,
        config: Optional[OptimizerConfig] = None,
        binds: Optional[dict] = None,
        timing: bool = True,
    ) -> str:
        """EXPLAIN ANALYZE: optimize and *run* the query with operator
        profiling armed, then render estimated vs. actual rows, Q-error,
        invocations, and self-time per operator.  ``timing=False``
        produces deterministic output."""
        result = self.execute(sql, config, binds, analyze=True)
        return result.explain_analyze(timing=timing)

    def reference_execute(
        self, sql: str, binds: Optional[dict] = None
    ) -> list[tuple]:
        """Evaluate with the naive reference evaluator (test oracle)."""
        evaluator = ReferenceEvaluator(self.storage, self.functions, binds)
        return evaluator.evaluate(self.parse(sql))
