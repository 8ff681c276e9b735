"""Server-side session state: prepared statements, open cursors, and
the per-session statement queue.

A :class:`ServerSession` is the server's unit of isolation and
fairness:

* each session's statements run **in order** — one thread at a time
  drains a session's queue, holding at most one execution slot on its
  behalf, so a session can never take every slot by itself, and a
  statement sees every effect of the ones the same session submitted
  before it;
* prepared statements and open fetch cursors are session-scoped; they
  disappear with the session (disconnect or idle reap);
* the session records its in-flight statement's
  :class:`~repro.resilience.CancelToken` so a concurrent HTTP request
  can cancel it.

:class:`SessionRegistry` owns the id → session map behind a lock; every
lookup refreshes the session's idle clock, and the reaper scans for
sessions past the idle timeout with no pending work.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from typing import Callable, Optional

from ..errors import SessionNotFound
from ..resilience import CancelToken
from ..service import PreparedStatement, Session

#: process-wide id streams; uuid-free so test output stays deterministic
_session_ids = itertools.count(1)
_statement_ids = itertools.count(1)
_cursor_ids = itertools.count(1)


class WorkItem:
    """One admitted statement waiting for (or holding) an execution
    slot."""

    __slots__ = ("fn", "token", "future", "deadline")

    def __init__(
        self,
        fn: Callable[[CancelToken], dict],
        token: CancelToken,
        future: "Future[dict]",
        deadline: Optional[float],
    ) -> None:
        #: callable(token) -> JSON-able payload, run by the thread
        #: draining the session
        self.fn = fn
        self.token = token
        self.future = future
        #: monotonic-clock instant after which the statement is dead
        self.deadline = deadline


class Cursor:
    """Server-side fetch state: the materialised rows of one executed
    statement, consumed in pages."""

    __slots__ = ("id", "columns", "rows", "position")

    def __init__(self, columns: list, rows: list) -> None:
        self.id = f"c{next(_cursor_ids)}"
        self.columns = columns
        self.rows = rows
        self.position = 0

    def fetch(self, n: int) -> tuple[list, bool]:
        """Next *n* rows plus whether more remain."""
        page = self.rows[self.position:self.position + n]
        self.position += len(page)
        return page, self.position < len(self.rows)


class ServerSession:
    """One connected client's server-side state."""

    def __init__(self, session: Session,
                 statement_timeout: Optional[float] = None) -> None:
        self.id = f"s{next(_session_ids)}"
        #: the service-layer session (shared plan cache underneath)
        self.session = session
        #: session-default statement timeout (request may override)
        self.statement_timeout = statement_timeout
        self.statements: dict[str, PreparedStatement] = {}
        self.cursors: dict[str, Cursor] = {}
        #: guards queue / draining / active_token / cursors / statements
        self.lock = threading.Lock()
        self.queue: deque[WorkItem] = deque()
        #: True while a thread is draining this session's queue
        self.draining = False
        #: token of the statement currently executing (cancel target)
        self.active_token: Optional[CancelToken] = None
        self.last_used = time.monotonic()
        self.closed = False
        self.statements_executed = 0

    def touch(self) -> None:
        self.last_used = time.monotonic()

    def pending(self) -> int:
        """Statements admitted and not yet finished (caller holds lock)."""
        return len(self.queue) + (1 if self.draining else 0)  # staticcheck: ignore[lock.discipline] documented caller-holds-lock helper

    def register_statement(self, prepared: PreparedStatement) -> str:
        statement_id = f"q{next(_statement_ids)}"
        with self.lock:
            self.statements[statement_id] = prepared
        return statement_id

    def statement(self, statement_id: str) -> PreparedStatement:
        with self.lock:
            prepared = self.statements.get(statement_id)
        if prepared is None:
            raise SessionNotFound(
                f"no prepared statement {statement_id!r} in session {self.id}"
            )
        return prepared

    def register_cursor(self, cursor: Cursor) -> None:
        with self.lock:
            self.cursors[cursor.id] = cursor

    def cursor(self, cursor_id: str) -> Cursor:
        with self.lock:
            cursor = self.cursors.get(cursor_id)
        if cursor is None:
            raise SessionNotFound(
                f"no open cursor {cursor_id!r} in session {self.id}"
            )
        return cursor

    def close_cursor(self, cursor_id: str) -> None:
        with self.lock:
            self.cursors.pop(cursor_id, None)


class SessionRegistry:
    """Thread-safe id → :class:`ServerSession` map with idle reaping."""

    def __init__(self, idle_timeout: float) -> None:
        self._lock = threading.Lock()
        self._sessions: dict[str, ServerSession] = {}
        self.idle_timeout = idle_timeout
        self._reaped_total = 0

    @property
    def reaped_total(self) -> int:
        with self._lock:
            return self._reaped_total

    def add(self, session: ServerSession) -> None:
        with self._lock:
            self._sessions[session.id] = session

    def get(self, session_id: str) -> ServerSession:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise SessionNotFound(f"no session {session_id!r}")
        with session.lock:
            closed = session.closed
        if closed:
            raise SessionNotFound(f"no session {session_id!r}")
        session.touch()
        return session

    def remove(self, session_id: str) -> Optional[ServerSession]:
        with self._lock:
            session = self._sessions.pop(session_id, None)
        if session is not None:
            # under session.lock: the drain loop checks `closed` while
            # holding it, and must never observe a half-removed session
            with session.lock:
                session.closed = True
        return session

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def reap_idle(self, now: Optional[float] = None) -> list[str]:
        """Drop sessions idle past the timeout with no pending work.

        A session mid-statement (or with a queued backlog) is never
        reaped, however stale its clock — the reap would orphan running
        work; its clock refreshes when the statement finishes anyway."""
        now = time.monotonic() if now is None else now
        with self._lock:
            candidates = list(self._sessions.values())
        reaped = []
        for session in candidates:
            if now - session.last_used < self.idle_timeout:
                continue
            with session.lock:
                if session.pending():
                    continue
                session.closed = True
            reaped.append(session.id)
        with self._lock:
            for session_id in reaped:
                self._sessions.pop(session_id, None)
            self._reaped_total += len(reaped)
        return reaped
