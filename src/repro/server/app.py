"""The multi-session query-serving application.

:class:`ReproServer` is the transport-independent core of the server:
the HTTP layer (:mod:`repro.server.http`) and tests call its methods
directly with plain dict/list payloads.  It owns

* one :class:`~repro.database.Database` + shared
  :class:`~repro.service.QueryService` (all sessions share the plan
  cache — two clients preparing the same text share one cursor);
* the :class:`~repro.server.sessions.SessionRegistry` plus an idle
  reaper thread;
* the :class:`~repro.server.admission.AdmissionController`, whose
  execution-slot semaphore bounds how many statements run at once.

Concurrency model
-----------------

A statement runs on the thread that submitted it — for HTTP, the
connection's handler thread — so a cached execution pays no thread
handoff.  Every statement is admitted (or refused with 429 semantics)
and appended to its session's FIFO queue.  A submitter that finds its
session idle drains the queue itself: it runs its own statement and
then any that other connections queued on the same session meanwhile;
a submitter that finds the session busy blocks on its statement's
future until the draining thread has run it.  So a session runs at
most one statement at a time and its statements are totally ordered.
Before each statement the draining thread claims one of the
``ServerConfig.workers`` execution slots, so no more than that many
statements execute at once however many connections are open — the
HTTP layer behaves like a synchronous database protocol while the
slots bound actual parallelism.

Reads run against a :meth:`~repro.database.Database.read_snapshot`
pinned when the statement starts: concurrent DDL / INSERT / ANALYZE
publish new copy-on-write table versions atomically, so a read sees
either none or all of a batch — never a torn intermediate — and the
plan cache validates dependencies against the pinned versions.

Each statement carries a :class:`~repro.resilience.CancelToken` whose
deadline is armed at *admission* (waiting for the session or for a slot
burns it); the token is
threaded through the optimizer's search governor and the executor's
loops, so a deadline or a cancel request aborts the statement wherever
it is, with a typed error, without poisoning the session's queue or the
shared plan cache.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from typing import Callable, Optional

from ..database import Database, OptimizerConfig
from ..errors import (
    ReproError,
    ServerShuttingDown,
    SessionNotFound,
    StatementTimeout,
)
from ..resilience import CancelToken
from ..service import QueryService
from .admission import AdmissionController, ServerConfig
from .sessions import Cursor, ServerSession, SessionRegistry, WorkItem


class ReproServer:
    """Transport-independent serving core over one database."""

    def __init__(
        self,
        database: Optional[Database] = None,
        service: Optional[QueryService] = None,
        config: Optional[ServerConfig] = None,
    ) -> None:
        if service is not None:
            self.service = service
            self.database = service.database
        else:
            self.database = database or Database()
            self.service = QueryService(self.database)
        self.config = config or ServerConfig()
        self.admission = AdmissionController(self.config)
        self.sessions = SessionRegistry(self.config.idle_timeout)
        self._closed = threading.Event()
        self._draining = threading.Event()
        self._reaper: Optional[threading.Thread] = None
        self.started = time.monotonic()
        metrics = self.database.metrics
        if metrics is not None:
            metrics.register_collector("server", self.stats)

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Start the idle-session reaper (idempotent)."""
        if self._reaper is not None:
            return
        self._reaper = threading.Thread(
            target=self._reap_loop, name="repro-reaper", daemon=True
        )
        self._reaper.start()

    def close(self) -> None:
        """Stop the reaper, refuse new statements, and wait until every
        admitted statement has finished."""
        self._closed.set()
        self.admission.wait_idle()

    def shutdown(self, grace: Optional[float] = None) -> dict:
        """Graceful shutdown: refuse new work, drain or cancel, persist.

        The sequence — the contract SIGTERM/SIGINT ride on:

        1. flip the draining flag, so every subsequent submission is
           refused with :class:`~repro.errors.ServerShuttingDown` (503);
        2. wait up to *grace* seconds (default
           ``config.shutdown_grace``) for in-flight and queued
           statements to finish on their own;
        3. statements still pending when the grace window closes get
           their cancel tokens fired — they unwind with
           ``StatementCancelled`` at the next cooperative check, so the
           wait below cannot hang on a long optimization;
        4. stop the reaper and wait for the unwound statements;
        5. if the database is durable, checkpoint it and close the WAL —
           a restart then recovers from the checkpoint alone.

        Idempotent: a second call returns immediately."""
        if self._draining.is_set():
            return {"drained": True, "cancelled": 0, "checkpointed": False}
        self._draining.set()
        if grace is None:
            grace = self.config.shutdown_grace
        self.admission.wait_idle(max(grace, 0.0))
        cancelled = self._cancel_all_sessions()
        self.close()
        checkpointed = False
        manager = self.database.durability
        if manager is not None and not manager.closed:
            self.database.checkpoint()
            self.database.close()
            checkpointed = True
        self._count("server.shutdowns")
        return {
            "drained": cancelled == 0,
            "cancelled": cancelled,
            "checkpointed": checkpointed,
        }

    def _cancel_all_sessions(self) -> int:
        """Fire the cancel token of every active and queued statement."""
        cancelled = 0
        for session_id in self.sessions.ids():
            try:
                session = self.sessions.get(session_id)
            except SessionNotFound:
                continue  # reaped or disconnected since ids() snapshot
            with session.lock:
                if session.active_token is not None:
                    session.active_token.cancel()
                    cancelled += 1
                for item in session.queue:
                    item.token.cancel()
                    cancelled += 1
        return cancelled

    def _reap_loop(self) -> None:
        while not self._closed.wait(self.config.reap_interval):
            self.sessions.reap_idle()

    # -- session lifecycle -------------------------------------------------

    def connect(self, options: Optional[dict] = None) -> dict:
        """Open a session.  *options* may set ``mode``
        ("cbqt"/"heuristic") and a session-default ``timeout``."""
        options = options or {}
        config: Optional[OptimizerConfig] = None
        mode = options.get("mode")
        if mode == "heuristic":
            config = OptimizerConfig.heuristic_mode()
        elif mode not in (None, "cbqt"):
            raise ReproError(f"unknown session mode {mode!r}")
        timeout = options.get("timeout", self.config.statement_timeout)
        if timeout is not None:
            timeout = float(timeout)
            if timeout <= 0:
                raise ReproError("session timeout must be positive")
        session = ServerSession(self.service.session(config), timeout)
        self.sessions.add(session)
        self._count("server.connects")
        return {"session_id": session.id}

    def disconnect(self, session_id: str) -> dict:
        session = self.sessions.remove(session_id)
        if session is None:
            raise SessionNotFound(f"no session {session_id!r}")
        with session.lock:
            # cancel in-flight and queued work; the drain loop surfaces
            # StatementCancelled on their futures and moves on
            if session.active_token is not None:
                session.active_token.cancel()
            for item in session.queue:
                item.token.cancel()
            session.statements.clear()
            session.cursors.clear()
        self._count("server.disconnects")
        return {"closed": session_id}

    # -- statement API -----------------------------------------------------

    def prepare(self, session_id: str, sql: str) -> dict:
        """Parse-check *sql* and register a prepared handle."""
        session = self.sessions.get(session_id)
        if _statement_head(sql) not in ("SELECT", "("):
            raise ReproError("prepare expects a SELECT statement")
        self.database.parse(sql)  # typed error now, not at first execute
        prepared = self.service.prepare(sql, session.session.config)
        statement_id = session.register_statement(prepared)
        return {"statement_id": statement_id, "sql": sql}

    def execute(
        self,
        session_id: str,
        sql: Optional[str] = None,
        statement_id: Optional[str] = None,
        binds: object = None,
        timeout: Optional[float] = None,
        analyze: bool = False,
        fetch_size: Optional[int] = None,
    ) -> dict:
        """Run one statement (by text or prepared handle) to completion.

        SELECTs run against a read snapshot pinned at statement start;
        ``CREATE TABLE`` / ``CREATE INDEX`` text routes to DDL.  With
        *fetch_size* the rows stay server-side in a cursor and the reply
        carries the first page plus a ``cursor_id`` for /fetch."""
        session = self.sessions.get(session_id)
        if statement_id is not None:
            sql = session.statement(statement_id).sql
        if not sql:
            raise ReproError("execute needs 'sql' or 'statement_id'")
        head = _statement_head(sql)
        if head == "CREATE":
            return self._run(session, timeout, lambda token: self._do_ddl(sql))
        if head not in ("SELECT", "EXPLAIN", "("):
            raise ReproError(
                f"unsupported statement {head!r}; use /insert for rows"
            )
        return self._run(
            session,
            timeout,
            lambda token: self._do_query(
                session, sql, binds, token, analyze, fetch_size
            ),
        )

    def fetch(self, session_id: str, cursor_id: str, n: int = 100) -> dict:
        """Next page of an open cursor; exhaustion auto-closes it."""
        session = self.sessions.get(session_id)
        cursor = session.cursor(cursor_id)
        if n <= 0:
            raise ReproError("fetch size must be positive")
        rows, more = cursor.fetch(n)
        if not more:
            session.close_cursor(cursor_id)
        return {
            "cursor_id": cursor_id,
            "columns": cursor.columns,
            "rows": [list(row) for row in rows],
            "more": more,
        }

    def cancel(self, session_id: str, drain: bool = False) -> dict:
        """Cancel the session's in-flight statement (and, with *drain*,
        everything queued behind it).  Safe from any thread; the victim
        unwinds with :class:`~repro.errors.StatementCancelled` at its
        next cooperative check point and the session keeps serving."""
        session = self.sessions.get(session_id)
        cancelled = 0
        with session.lock:
            if session.active_token is not None:
                session.active_token.cancel()
                cancelled += 1
            if drain:
                for item in session.queue:
                    item.token.cancel()
                    cancelled += 1
        self._count("server.cancels")
        return {"cancelled": cancelled}

    def explain(self, session_id: str, sql: str, binds: object = None) -> dict:
        session = self.sessions.get(session_id)
        plan = self._run(
            session, None,
            lambda token: {"plan": self.service.explain(
                sql, binds, session.session.config
            )},
        )
        return plan

    # -- data API ----------------------------------------------------------

    def ddl(self, session_id: str, sql: str) -> dict:
        session = self.sessions.get(session_id)
        return self._run(session, None, lambda token: self._do_ddl(sql))

    def insert(self, session_id: str, table: str, rows: list) -> dict:
        session = self.sessions.get(session_id)
        if not isinstance(rows, list) or not all(
            isinstance(row, dict) for row in rows
        ):
            raise ReproError("insert expects a list of column->value rows")

        def work(token: CancelToken) -> dict:
            count = self.database.insert(table, rows)
            return {"inserted": count, "table": table.lower()}

        return self._run(session, None, work)

    def analyze(self, session_id: str, table: Optional[str] = None) -> dict:
        session = self.sessions.get(session_id)

        def work(token: CancelToken) -> dict:
            self.database.analyze(table)
            return {"analyzed": table.lower() if table else "all"}

        return self._run(session, None, work)

    # -- admin API ---------------------------------------------------------

    def stats(self) -> dict:
        """Server-level accounting (also absorbed into the metrics
        registry as the ``server`` collector)."""
        return {
            "sessions": len(self.sessions),
            "sessions_reaped": self.sessions.reaped_total,
            "uptime_seconds": time.monotonic() - self.started,
            "workers": self.config.workers,
            "draining": self._draining.is_set(),
            **self.admission.snapshot(),
        }

    def metrics(self) -> dict:
        return self.database.snapshot()

    def cache(self) -> dict:
        return self.service.cache_stats()

    def quarantine(self) -> dict:
        return self.database.quarantine.snapshot()

    # -- internals ---------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        metrics = self.database.metrics
        if metrics is not None:
            metrics.counter(name).inc(n)

    def _run(
        self,
        session: ServerSession,
        timeout: Optional[float],
        fn: Callable[[CancelToken], dict],
    ) -> dict:
        """Admit and enqueue one unit of session work, run it on this
        thread when the session is idle, and return its payload."""
        future, drain = self._submit(session, timeout, fn)
        started = time.perf_counter()
        try:
            if drain:
                self._drain(session)
            payload = future.result()
        finally:
            metrics = self.database.metrics
            if metrics is not None:
                metrics.histogram("server.statement_seconds").record(
                    time.perf_counter() - started
                )
        session.touch()
        with session.lock:
            session.statements_executed += 1
        self._count("server.statements")
        return payload

    def _submit(
        self,
        session: ServerSession,
        timeout: Optional[float],
        fn: Callable[[CancelToken], dict],
    ) -> tuple[Future, bool]:
        """Queue one statement; returns its future and whether the
        caller found the session idle and must drain it."""
        if timeout is None:
            timeout = session.statement_timeout
        token = CancelToken()
        deadline = None
        if timeout is not None:
            # the deadline covers queue wait + optimize + execute; it is
            # the same clock the SearchGovernor and executor loops poll
            token.set_deadline(timeout)
            deadline = time.monotonic() + timeout
        future: Future = Future()
        item = WorkItem(fn, token, future, deadline)
        if self._draining.is_set() or self._closed.is_set():
            raise ServerShuttingDown(
                "server is shutting down; no new statements accepted"
            )
        with session.lock:
            if session.closed:
                raise SessionNotFound(f"no session {session.id!r}")
            self.admission.admit(session.pending())
            session.queue.append(item)
            drain = not session.draining
            if drain:
                session.draining = True
        return future, drain

    def _drain(self, session: ServerSession) -> None:
        """Run the session's queued statements in order on this thread,
        each holding an execution slot.

        One failure — cancellation, timeout, optimizer error — resolves
        only its own future; the loop continues with the next item, so a
        cancelled statement never poisons the session's queue."""
        while True:
            with session.lock:
                if not session.queue:
                    session.draining = False
                    return
                item = session.queue.popleft()
                # the cancel target from here on, slot wait included
                session.active_token = item.token
            running = self.admission.start(item.deadline)
            try:
                if not running:
                    raise StatementTimeout(
                        "statement deadline expired while queued"
                    )
                item.future.set_result(item.fn(item.token))
            except BaseException as exc:  # noqa: B036 - resolved via future  # staticcheck: ignore[error.swallow] nothing swallowed: set_exception re-raises in the waiter
                self._count("server.statement_errors")
                item.future.set_exception(exc)
            finally:
                with session.lock:
                    session.active_token = None
                self.admission.finish(running)

    def _do_ddl(self, sql: str) -> dict:
        self.database.execute_ddl(sql)
        return {"ok": True}

    def _do_query(
        self,
        session: ServerSession,
        sql: str,
        binds: object,
        token: CancelToken,
        analyze: bool,
        fetch_size: Optional[int],
    ) -> dict:
        head = _statement_head(sql)
        explain_analyze = False
        if head == "EXPLAIN":
            rest = sql.lstrip()[len("EXPLAIN"):].lstrip()
            if rest.upper().startswith("ANALYZE"):
                sql = rest[len("ANALYZE"):].lstrip()
                analyze = explain_analyze = True
            else:
                return {"plan": self.service.explain(
                    rest, binds, session.session.config
                )}
        snapshot = self.database.read_snapshot()
        result = self.service.execute(
            sql,
            binds,
            session.session.config,
            token=token,
            analyze=analyze,
            snapshot=snapshot,
        )
        payload = {
            "columns": result.columns,
            "row_count": len(result.rows),
            "cache_status": result.cache_status,
            "optimize_seconds": result.optimize_seconds,
            "execute_seconds": result.execute_seconds,
        }
        if explain_analyze:
            payload["explain_analyze"] = result.explain_analyze()
        if fetch_size is not None:
            if fetch_size <= 0:
                raise ReproError("fetch_size must be positive")
            cursor = Cursor(result.columns, result.rows)
            page, more = cursor.fetch(fetch_size)
            payload["rows"] = [list(row) for row in page]
            payload["more"] = more
            if more:
                session.register_cursor(cursor)
                payload["cursor_id"] = cursor.id
        else:
            payload["rows"] = [list(row) for row in result.rows]
            payload["more"] = False
        return payload


def _statement_head(sql: str) -> str:
    stripped = sql.lstrip()
    if stripped.startswith("("):
        return "("
    parts = stripped.split(None, 1)
    return parts[0].upper() if parts else ""
