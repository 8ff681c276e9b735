"""The query-serving layer: sessions, prepared statements, and the
shared plan cache.

This is a miniature of Oracle's server-side cursor machinery:

* ``QueryService`` owns the shared :class:`PlanCache` (library cache)
  over one :class:`~repro.database.Database`;
* ``Session.prepare()`` returns a :class:`PreparedStatement`; its
  ``execute(binds)`` peeks bind values on a hard parse, shares the
  cached plan on soft parses, and re-optimizes when a new bind value's
  estimated selectivity drifts far from the peeked plan's assumption
  (adaptive cursor sharing);
* DDL and ``analyze()`` invalidate exactly the dependent entries via the
  catalog/statistics version counters.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from .. import configstamp
from ..database import Database, OptimizerConfig, QueryResult, ReadSnapshot
from ..errors import ReproError, StatementCancelled, StatementTimeout
from ..qtree.binds import apply_peeks, referenced_tables
from ..resilience import CancelToken, activate
from .binds import extract_bind_profile, max_drift, normalize_binds
from .metrics import CacheMetrics
from .plan_cache import CacheEntry, PlanCache, normalize_sql

#: re-optimize when the selectivity ratio between the peeked plan and the
#: current binds exceeds this factor
DEFAULT_REOPTIMIZE_THRESHOLD = 8.0

#: distinct config objects whose cache-key text the service remembers
_CONFIG_KEYS = 32


class PreparedStatement:
    """A parsed-once, execute-many handle onto one SQL text.

    The statement itself is light: the shareable state (plan, bind
    profile, dependency versions) lives in the service's plan cache, so
    two sessions preparing the same text share one cursor."""

    def __init__(self, service: "QueryService", sql: str,
                 config: Optional[OptimizerConfig] = None):
        self._service = service
        self.sql = sql
        self.config = config

    def execute(self, binds: object = None,
                timeout: Optional[float] = None) -> QueryResult:
        """Run with *binds* (mapping or positional sequence)."""
        return self._service.execute(self.sql, binds, self.config,
                                     timeout=timeout)

    def explain(self, binds: object = None) -> str:
        return self._service.explain(self.sql, binds, self.config)

    def cursor(self) -> "Cursor":
        """A cancellable execution handle for this statement."""
        return Cursor(self._service, self.sql, self.config)

    def __repr__(self) -> str:
        return f"PreparedStatement({self.sql!r})"


class Cursor:
    """A cancellable handle on one statement.

    ``execute()`` runs synchronously on the calling thread;
    ``cancel()`` may be called from any other thread and aborts the
    in-flight execution at its next cooperative check point with
    :class:`~repro.errors.StatementCancelled`.  A cancelled execution
    never poisons the shared plan cache: a plan cached before the
    cancellation stays valid and keeps serving other sessions.
    """

    def __init__(self, service: "QueryService", sql: str,
                 config: Optional[OptimizerConfig] = None):
        self._service = service
        self.sql = sql
        self.config = config
        self._token = CancelToken()

    def execute(self, binds: object = None,
                timeout: Optional[float] = None) -> QueryResult:
        if timeout is not None:
            self._token.set_deadline(timeout)
        return self._service.execute(
            self.sql, binds, self.config, token=self._token
        )

    def cancel(self) -> None:
        """Request cancellation (thread-safe, cooperative)."""
        self._token.cancel()

    @property
    def cancelled(self) -> bool:
        return self._token.cancelled


class Session:
    """One client's view of the service.  Sessions are cheap; plans are
    shared across all sessions of the owning service."""

    def __init__(self, service: "QueryService",
                 config: Optional[OptimizerConfig] = None):
        self._service = service
        self.config = config

    def prepare(self, sql: str,
                config: Optional[OptimizerConfig] = None) -> PreparedStatement:
        return PreparedStatement(self._service, sql, config or self.config)

    def cursor(self, sql: str,
               config: Optional[OptimizerConfig] = None) -> Cursor:
        """A cancellable execution handle (``Cursor.cancel()``)."""
        return Cursor(self._service, sql, config or self.config)

    def execute(self, sql: str, binds: object = None,
                timeout: Optional[float] = None) -> QueryResult:
        """Run *sql*; *timeout* bounds the whole statement in wall-clock
        seconds (StatementTimeout on expiry)."""
        return self._service.execute(sql, binds, self.config,
                                     timeout=timeout)

    def explain(self, sql: str, binds: object = None) -> str:
        return self._service.explain(sql, binds, self.config)


class QueryService:
    """Shared query-serving layer over one database."""

    def __init__(
        self,
        database: Database,
        capacity: int = 128,
        reoptimize_threshold: float = DEFAULT_REOPTIMIZE_THRESHOLD,
        caching: bool = True,
    ):
        self.database = database
        self.metrics = CacheMetrics()
        self.cache = PlanCache(capacity, self.metrics)
        self.reoptimize_threshold = reoptimize_threshold
        self.caching = caching
        # single-flight hard parsing: concurrent misses on one cache key
        # elect a leader that optimizes once; the rest wait and share the
        # stored entry instead of thundering-herd re-optimizing
        self._gate_lock = threading.Lock()
        self._gates: dict[tuple, threading.Lock] = {}
        #: id(config) -> (config, configstamp epoch, repr(config))
        self._config_keys: dict[int, tuple] = {}
        # surface the plan-cache accounting in Database.snapshot();
        # collectors run at snapshot time only, so this costs nothing
        # on the serving path
        if database.metrics is not None:
            database.metrics.register_collector(
                "plan_cache", self.cache_stats
            )

    # -- session / statement construction ----------------------------------

    def session(self, config: Optional[OptimizerConfig] = None) -> Session:
        return Session(self, config)

    def prepare(self, sql: str,
                config: Optional[OptimizerConfig] = None) -> PreparedStatement:
        return PreparedStatement(self, sql, config)

    # -- execution ---------------------------------------------------------

    def execute(
        self,
        sql: str,
        binds: object = None,
        config: Optional[OptimizerConfig] = None,
        timeout: Optional[float] = None,
        token: Optional[CancelToken] = None,
        analyze: bool = False,
        snapshot: Optional[ReadSnapshot] = None,
    ) -> QueryResult:
        """Serve one execution: soft parse against the plan cache, hard
        parse (with bind peeking) on miss, adaptive re-optimization on
        selectivity drift.

        *timeout* bounds the whole statement (optimize + execute) in
        wall-clock seconds; *token* allows cross-thread cancellation.
        Both abort with a typed error and never poison the plan cache.
        *analyze* arms the per-operator execution profiler so the result
        supports full :meth:`~repro.database.QueryResult.explain_analyze`
        output (the plan itself is still cached and shared normally).
        *snapshot* pins the read to a point-in-time
        :class:`~repro.database.ReadSnapshot`: rows come from the pinned
        copy-on-write table versions, and plan-cache validation uses the
        versions recorded in the snapshot handle rather than the live
        counters (the server's snapshot-read isolation)."""
        if token is None and timeout is not None:
            token = CancelToken()
        if token is not None and timeout is not None:
            token.set_deadline(timeout)
        bind_map = normalize_binds(binds)
        try:
            with activate(token):
                entry, status, optimize_seconds = self._cursor_for(
                    sql, bind_map, config, token,
                    versions=snapshot.versions if snapshot else None,
                )
                result = self.database.execute_plan(
                    entry.optimized,
                    config,
                    bind_map,
                    optimize_seconds=optimize_seconds,
                    cache_status=status,
                    token=token,
                    analyze=analyze,
                    storage=snapshot.storage if snapshot else None,
                )
        except StatementTimeout:
            self.metrics.bump("timeouts")
            raise
        except StatementCancelled:
            self.metrics.bump("cancellations")
            raise
        self.metrics.bump("executions")
        if entry.degraded is not None:
            self.metrics.bump("degraded_executions")
        self.metrics.add_time("execute_seconds", result.execute_seconds)
        return result

    def explain(
        self,
        sql: str,
        binds: object = None,
        config: Optional[OptimizerConfig] = None,
    ) -> str:
        """EXPLAIN through the service: the (possibly cached) plan, its
        cache disposition, and the cache counters."""
        bind_map = normalize_binds(binds)
        entry, status, _seconds = self._cursor_for(sql, bind_map, config)
        return (
            f"-- cache: {status}\n"
            + entry.optimized.explain()
            + "\n"
            + self.metrics.format_table()
        )

    # -- cache management --------------------------------------------------

    def invalidate(self, table: Optional[str] = None) -> int:
        """Eagerly drop cached plans depending on *table* (all when None).
        Lazy validation makes this optional; it exists for explicit
        ``ALTER``-style maintenance."""
        return self.cache.invalidate(table)

    def cache_stats(self) -> dict:
        """Counters plus current occupancy."""
        stats = self.metrics.snapshot()
        stats["entries"] = len(self.cache)
        stats["capacity"] = self.cache.capacity
        return stats

    def format_cache_stats(self) -> str:
        stats = self.cache_stats()
        return (
            self.metrics.format_table()
            + f"\n  {'entries':<16} {stats['entries']}"
            + f"\n  {'capacity':<16} {stats['capacity']}"
        )

    # -- internals ---------------------------------------------------------

    def _versions(self, table: str) -> tuple:
        return (
            self.database.catalog.table_version(table),
            self.database.statistics.table_version(table),
        )

    def _key(self, sql: str, config: Optional[OptimizerConfig]) -> tuple:
        """Normalized text plus the effective config's ``repr``, which is
        remembered per config object until a config write advances the
        :func:`~repro.configstamp.epoch`."""
        effective = config or self.database.config
        epoch = configstamp.epoch()
        known = self._config_keys.get(id(effective))
        if known is None or known[0] is not effective or known[1] != epoch:
            if len(self._config_keys) >= _CONFIG_KEYS:
                self._config_keys.clear()
            known = (effective, epoch, repr(effective))
            self._config_keys[id(effective)] = known
        return (normalize_sql(sql), known[2])

    def _cursor_for(
        self,
        sql: str,
        bind_map: dict,
        config: Optional[OptimizerConfig],
        token: Optional[CancelToken] = None,
        versions: Optional[Callable[[str], tuple]] = None,
    ) -> tuple[CacheEntry, str, float]:
        """Find or build the cursor serving this call; returns the entry,
        its cache disposition, and the optimize time spent (0 on hit).

        *versions* overrides the dependency-version reader used for both
        cache validation and dependency recording; snapshot reads pass
        the versions pinned in their :class:`ReadSnapshot` so a cached
        plan is judged against the data the statement will actually see.

        Each call is counted once, when its disposition is final: a
        shared cursor is a ``hit``, any hard parse (miss, re-optimization,
        degraded retry, uncached) a ``miss``."""
        entry, status, seconds = self._resolve_cursor(
            sql, bind_map, config, token, versions or self._versions
        )
        self.metrics.bump("hits" if status == "hit" else "misses")
        return entry, status, seconds

    def _resolve_cursor(
        self,
        sql: str,
        bind_map: dict,
        config: Optional[OptimizerConfig],
        token: Optional[CancelToken],
        reader: Callable[[str], tuple],
    ) -> tuple[CacheEntry, str, float]:
        key = self._key(sql, config)
        if not self.caching:
            entry, seconds = self._hard_parse(
                key, sql, bind_map, config, token, reader
            )
            return entry, "uncached", seconds

        try:
            entry = self.cache.lookup(key, reader)
        except (StatementTimeout, StatementCancelled):
            raise
        except ReproError:
            # A broken cache must not take statements down with it:
            # degrade to an uncached hard parse for this call.
            self.metrics.bump("cache_errors")
            entry, seconds = self._hard_parse(
                key, sql, bind_map, config, token, reader
            )
            return entry, "uncached", seconds
        if entry is None:
            return self._build_gated(
                key, sql, bind_map, config, token, reader, "miss"
            )

        if (
            entry.degraded is not None
            and entry.quarantine_epoch != self.database.quarantine.epoch
        ):
            # The quarantine was reset since this fallback plan was built:
            # give the statement another shot at full CBQT.
            return self._build_gated(
                key, sql, bind_map, config, token, reader, "retry",
                counter="degraded_retries",
            )

        if entry.bind_profile and bind_map != entry.peeked_binds:
            drift = max_drift(
                entry.bind_profile, bind_map, self.database.statistics
            )
            if drift > self.reoptimize_threshold:
                return self._build_gated(
                    key, sql, bind_map, config, token, reader, "reoptimized",
                    counter="reoptimizations",
                )
        return entry, "hit", 0.0

    def _build_gated(
        self,
        key: tuple,
        sql: str,
        bind_map: dict,
        config: Optional[OptimizerConfig],
        token: Optional[CancelToken],
        reader: Callable[[str], tuple],
        status: str,
        counter: Optional[str] = None,
    ) -> tuple[CacheEntry, str, float]:
        """Hard parse behind a per-key gate (single flight).

        Concurrent callers needing the same cursor elect a leader: the
        first to claim the gate optimizes and stores; the rest block,
        then re-check the cache and share the leader's entry instead of
        redundantly re-optimizing (no thundering herd).  A leader on a
        plain miss re-checks too: an earlier leader may have stored and
        released its gate since this caller's own lookup.  A caller whose
        re-check still comes up empty — the leader failed or was
        cancelled — builds its own entry; errors never wedge the gate."""
        with self._gate_lock:
            gate = self._gates.setdefault(key, threading.Lock())
        leader = gate.acquire(blocking=False)
        if not leader:
            gate.acquire()
        try:
            if not leader:
                self.metrics.bump("single_flight_waits")
                if token is not None:
                    token.check()
            if not leader or status == "miss":
                entry = self._shared_entry(key, reader)
                if entry is not None:
                    # Bind drift is not re-checked here: the entry was
                    # peeked moments ago, and the next execution
                    # re-evaluates drift anyway.
                    return entry, "hit", 0.0
            entry, seconds = self._hard_parse(
                key, sql, bind_map, config, token, reader
            )
            self._store(entry)
            if counter is not None:
                self.metrics.bump(counter)
            return entry, status, seconds
        finally:
            gate.release()
            with self._gate_lock:
                if self._gates.get(key) is gate:
                    del self._gates[key]

    def _shared_entry(
        self, key: tuple, reader: Callable[[str], tuple]
    ) -> Optional[CacheEntry]:
        """The cached entry another caller just built, if it can serve
        this one (a cache fault reads as "nothing shared")."""
        try:
            entry = self.cache.lookup(key, reader)
        except (StatementTimeout, StatementCancelled):
            raise
        except ReproError:
            return None
        if entry is not None and (
            entry.degraded is not None
            and entry.quarantine_epoch != self.database.quarantine.epoch
        ):
            return None
        return entry

    def _store(self, entry: CacheEntry) -> None:
        """Store *entry*, tolerating cache faults (the plan still serves
        this call; it is simply not shared)."""
        try:
            self.cache.store(entry)
        except (StatementTimeout, StatementCancelled):
            raise
        except ReproError:
            self.metrics.bump("cache_errors")

    def _hard_parse(
        self,
        key: tuple,
        sql: str,
        bind_map: dict,
        config: Optional[OptimizerConfig],
        token: Optional[CancelToken] = None,
        versions: Optional[Callable[[str], tuple]] = None,
    ) -> tuple[CacheEntry, float]:
        """Parse, peek binds, optimize; build the cache entry recording
        the dependency versions read *before* optimization, so any
        concurrent catalog/statistics change invalidates the entry."""
        reader = versions or self._versions
        database = self.database
        started = time.perf_counter()
        tree = database.parse(sql)
        dependencies = {
            table: reader(table) for table in referenced_tables(tree)
        }
        apply_peeks(tree, bind_map)
        profile = extract_bind_profile(tree, database.statistics)

        def rebuild():
            fresh = database.parse(sql)
            apply_peeks(fresh, bind_map)
            return fresh

        epoch = database.quarantine.epoch
        optimized = database.optimize_tree(
            tree, sql, config, token=token, rebuild=rebuild
        )
        seconds = time.perf_counter() - started
        self.metrics.add_time("optimize_seconds", seconds)
        degradation = optimized.report.degradation
        entry = CacheEntry(
            key=key,
            sql=sql,
            optimized=optimized,
            dependencies=dependencies,
            bind_profile=profile,
            peeked_binds=dict(bind_map),
            degraded=degradation.level if degradation is not None else None,
            quarantine_epoch=epoch,
        )
        return entry, seconds
