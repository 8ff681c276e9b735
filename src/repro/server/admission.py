"""Admission control for the query-serving front end.

A statement runs on the thread that received it, but at most
``ServerConfig.workers`` statements execute at once: each holds one
permit of the controller's execution-slot semaphore while it runs.
Without admission control a burst of clients turns into an unbounded
backlog where every statement times out.  The controller enforces two
limits *before* a statement is queued:

* a **global** cap on pending statements (running + queued) of
  ``workers + max_queue_depth`` — beyond it new statements are refused
  with :class:`~repro.errors.AdmissionRejected` (HTTP 429) so clients
  back off instead of piling up;
* a **per-session** queue-depth cap, so one chatty session cannot
  monopolise the global queue.

A third limit applies while a statement waits for a slot: the wait is
bounded by the time left before its deadline, and a statement whose
deadline burns first fails with :class:`~repro.errors.StatementTimeout`
(HTTP 408) without ever touching the optimizer — its deadline would
have fired mid-parse anyway, and the slot is better spent on a
statement that can still finish.

Layering with the optimizer's own :class:`~repro.resilience.SearchGovernor`:
admission bounds *how many* statements are in flight; the governor (fed
the same per-request deadline through the statement's
:class:`~repro.resilience.CancelToken`) bounds how long each admitted
statement may optimize.  Together they keep tail latency bounded from
both ends.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Optional

from ..errors import AdmissionRejected


@dataclass
class ServerConfig:
    """Knobs of the serving front end."""

    host: str = "127.0.0.1"
    port: int = 8390
    #: statements executing at once, across all sessions (each runs on
    #: the thread that received it, holding one execution slot)
    workers: int = 4
    #: admitted statements allowed to wait beyond the executing ones
    max_queue_depth: int = 32
    #: pending statements allowed per session (running + queued)
    session_queue_depth: int = 8
    #: seconds of inactivity before a session is reaped
    idle_timeout: float = 300.0
    #: how often the reaper thread scans for idle sessions
    reap_interval: float = 5.0
    #: default per-statement wall-clock timeout (None = unbounded);
    #: requests may override per call, sessions per connect
    statement_timeout: Optional[float] = None
    #: graceful-shutdown drain window: in-flight statements get this many
    #: seconds to finish before they are cancelled (new statements are
    #: refused with 503 :class:`~repro.errors.ServerShuttingDown` the
    #: moment shutdown starts)
    shutdown_grace: float = 5.0

    @property
    def max_pending(self) -> int:
        """Global cap on running + queued statements."""
        return self.workers + self.max_queue_depth


class AdmissionController:
    """Thread-safe pending-statement accounting with refusal limits.

    ``admit()`` reserves a pending slot or raises; every reservation is
    paired with exactly one ``finish()`` (the server's drain loop calls
    it in a ``finally``), so a statement that fails, times out, or is
    cancelled can never leak its slot.  Between the two, ``start()``
    claims one of the ``workers`` execution slots."""

    def __init__(self, config: ServerConfig) -> None:
        if config.workers < 1:
            raise ValueError("ServerConfig.workers must be at least 1")
        self._config = config
        self._lock = threading.Lock()
        #: notified when the last pending statement finishes
        self._idle = threading.Condition(self._lock)
        #: one permit per statement allowed to execute at once
        self._slots = threading.BoundedSemaphore(config.workers)
        #: statements admitted and not yet finished (queued + running)
        self.pending = 0
        #: statements currently holding an execution slot
        self.running = 0
        self.admitted_total = 0
        self.rejected_global = 0
        self.rejected_session = 0
        #: admitted statements whose deadline burned before they got a slot
        self.queue_timeouts = 0

    def admit(self, session_pending: int) -> None:
        """Reserve a pending slot; *session_pending* is the admitting
        session's current backlog (running + queued)."""
        with self._lock:
            if self.pending >= self._config.max_pending:
                self.rejected_global += 1
                raise AdmissionRejected(
                    f"server saturated: {self.pending} statements pending "
                    f"(limit {self._config.max_pending}); retry later"
                )
            if session_pending >= self._config.session_queue_depth:
                self.rejected_session += 1
                raise AdmissionRejected(
                    f"session queue full: {session_pending} statements "
                    f"pending (limit {self._config.session_queue_depth})"
                )
            self.pending += 1
            self.admitted_total += 1

    def start(self, deadline: Optional[float] = None) -> bool:
        """Claim an execution slot for an admitted statement, waiting no
        longer than its *deadline* (a ``time.monotonic()`` instant; None
        waits as long as it takes).  False — counted as a queue timeout
        — when the deadline passes first."""
        if deadline is None:
            self._slots.acquire()
        else:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._slots.acquire(timeout=remaining):
                with self._lock:
                    self.queue_timeouts += 1
                return False
        with self._lock:
            self.running += 1
        return True

    def finish(self, was_running: bool = True) -> None:
        """An admitted statement left the system (done, failed,
        cancelled, or expired before it got a slot)."""
        with self._lock:
            self.pending -= 1
            if was_running:
                self.running -= 1
            if not self.pending:
                self._idle.notify_all()
        if was_running:
            self._slots.release()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until no statement is pending (or *timeout* seconds
        pass); True when idle."""
        end = None if timeout is None else time.monotonic() + timeout
        with self._lock:  # the condition's own lock
            while self.pending:
                remaining = None if end is None else end - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(remaining)
            return True

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pending": self.pending,
                "running": self.running,
                "max_pending": self._config.max_pending,
                "admitted_total": self.admitted_total,
                "rejected_global": self.rejected_global,
                "rejected_session": self.rejected_session,
                "queue_timeouts": self.queue_timeouts,
            }
