"""The serving transport: the HTTP request reader and the statement path.

The handler reads the request line and header lines itself (no
``email`` parser), so every status and limit of the stdlib reader is
pinned here over raw sockets.  A statement runs on the thread that
received it, with ``ServerConfig.workers`` execution slots bounding how
many run at once; the slot, deadline, ordering and shutdown rules are
driven with events and barriers against a stubbed statement body, so
no assertion depends on timing.
"""

from __future__ import annotations

import http.client
import json
import socket
import sys
import threading
from types import SimpleNamespace
from typing import Optional

import pytest

from repro import Database
from repro.errors import StatementTimeout
from repro.server import ReproServer, ServerConfig
from repro.server.http import MAX_HEADERS, MAX_LINE, RequestHandler, make_http_server

#: how long any blocking step may take before the test fails
PATIENCE = 10.0


@pytest.fixture
def serve():
    """Factory: start an HTTP server over a fresh app; yields
    (app, port) and tears everything down."""
    running = []

    def start(config=None):
        app = ReproServer(database=Database(), config=config or ServerConfig())
        server = make_http_server(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        running.append((server, app))
        return app, server.server_address[1]

    yield start
    for server, app in running:
        server.shutdown()
        server.server_close()
        app.close()


# -- raw-socket helpers ------------------------------------------------------


def _open(port: int) -> tuple[socket.socket, object]:
    sock = socket.create_connection(("127.0.0.1", port), timeout=PATIENCE)
    return sock, sock.makefile("rb")


def _read_reply(reader) -> tuple[int, dict, bytes]:
    """One reply: status, headers (lower-case names), body."""
    status_line = reader.readline()
    assert status_line, "connection closed before a reply"
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = reader.read(int(headers.get("content-length", 0)))
    return status, headers, body


def _closed(reader) -> bool:
    """True when the server closed the connection (a connection left
    open fails the test with a socket timeout instead)."""
    return reader.read(1) == b""


def _exchange(port: int, data: bytes) -> tuple[int, bool]:
    """Send *data* on a fresh connection: the reply's status, and
    whether the server closed the connection after it."""
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(data)
        status, _headers, _body = _read_reply(reader)
        return status, _closed(reader)


def _refused(port: int, data: bytes) -> bytes:
    """Send *data* on a fresh connection and read until the server
    closes it.  An error reply to a request line without a usable
    version is HTTP/0.9-style — no status line — so callers look for the
    code in the stdlib's error page."""
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(data)
        return reader.read()


# -- the request reader ------------------------------------------------------


def test_request_line_over_the_limit_is_414(serve):
    _, port = serve()
    line = b"GET /" + b"a" * MAX_LINE + b" HTTP/1.1"
    # exactly MAX_LINE + 1 bytes, no newline: the server reads all of it
    line = line[:MAX_LINE + 1]
    assert _exchange(port, line) == (414, True)


def test_bad_request_line_syntax_is_400(serve):
    _, port = serve()
    assert _exchange(port, b"GET / extra HTTP/1.1\r\n\r\n") == (400, True)


@pytest.mark.parametrize("request_line", [
    b"GET /healthz HTTX/1.1",  # not an HTTP version
    b"GET /healthz HTTP/1.x",  # non-digit version
    b"GET /healthz HTTP/1.1.1",
    b"GET / HTTP/1.1 extra",   # four words, the last no version
    b"POST /sessions",         # HTTP/0.9 allows GET only
])
def test_bad_request_version_is_400(serve, request_line):
    _, port = serve()
    reply = _refused(port, request_line + b"\r\n\r\n")
    assert b"Error code: 400" in reply


@pytest.mark.parametrize("version", [b"HTTP/2.0", b"HTTP/3.1"])
def test_http_2_and_above_is_505(serve, version):
    _, port = serve()
    reply = _refused(port, b"GET /healthz " + version + b"\r\n\r\n")
    assert b"Error code: 505" in reply


def test_header_line_over_the_limit_is_431(serve):
    _, port = serve()
    head = b"GET /healthz HTTP/1.1\r\n"
    field = b"X-Long: " + b"a" * MAX_LINE
    # the header line is MAX_LINE + 1 bytes with no newline
    assert _exchange(port, head + field[:MAX_LINE + 1]) == (431, True)


def test_header_count_limit(serve):
    _, port = serve()
    fields = b"".join(b"X-F%d: v\r\n" % i for i in range(MAX_HEADERS))
    request = b"GET /healthz HTTP/1.1\r\n" + fields
    # MAX_HEADERS lines are accepted ...
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(request + b"\r\n")
        assert _read_reply(reader)[0] == 200
    # ... one more is refused (sent without the blank line, so the
    # server has read every byte when it answers)
    assert _exchange(port, request + b"X-More: v\r\n") == (431, True)


def test_http_1_0_closes_unless_keep_alive(serve):
    _, port = serve()
    assert _exchange(port, b"GET /healthz HTTP/1.0\r\n\r\n") == (200, True)
    sock, reader = _open(port)
    with sock, reader:
        for _ in range(2):  # the same connection serves both
            sock.sendall(
                b"GET /healthz HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"
            )
            status, headers, _ = _read_reply(reader)
            assert status == 200 and "connection" not in headers


def test_connection_close_is_honoured(serve):
    _, port = serve()
    request = b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(request)
        status, headers, _ = _read_reply(reader)
        assert status == 200 and headers["connection"] == "close"
        assert _closed(reader)


def test_expect_100_continue_is_answered(serve):
    _, port = serve()
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(
            b"POST /sessions HTTP/1.1\r\nContent-Length: 2\r\n"
            b"Expect: 100-continue\r\n\r\n"
        )
        assert reader.readline().split()[1] == b"100"
        assert reader.readline() == b"\r\n"
        sock.sendall(b"{}")
        status, _, body = _read_reply(reader)
        assert status == 200 and "session_id" in json.loads(body)


def test_double_slash_paths_are_collapsed(serve):
    _, port = serve()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PATIENCE)
    try:
        conn.request("GET", "//healthz")
        response = conn.getresponse()
        assert response.status == 200 and json.loads(response.read())["ok"]
    finally:
        conn.close()


@pytest.mark.parametrize("name", [
    b"Content-Length", b"content-length", b"CONTENT-LENGTH",
])
def test_header_names_are_case_insensitive(serve, name):
    _, port = serve()
    body = json.dumps({"timeout": -1}).encode()
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(
            b"POST /sessions HTTP/1.1\r\n" + name
            + b": %d\r\n\r\n" % len(body) + body
        )
        status, _, payload = _read_reply(reader)
    # the body was read: its invalid timeout is what the server refuses
    assert status == 400
    assert "timeout must be positive" in json.loads(payload)["error"]["message"]


@pytest.mark.parametrize("declared", [b"abc", b"-5", b"1_0", b"99999999999"])
def test_malformed_content_length_is_400_and_closes(serve, declared):
    """An unusable Content-Length leaves the body unread, so the server
    cannot find the next request line: 400, then close."""
    _, port = serve()
    request = b"POST /sessions HTTP/1.1\r\nContent-Length: " + declared
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(request + b"\r\n\r\n")
        status, headers, payload = _read_reply(reader)
        assert status == 400
        assert json.loads(payload)["error"]["type"] == "ReproError"
        assert headers["connection"] == "close"
        assert _closed(reader)


def test_idle_keep_alive_connection_times_out(serve, monkeypatch):
    assert RequestHandler.timeout is not None and RequestHandler.timeout > 0
    monkeypatch.setattr(RequestHandler, "timeout", 0.5)
    handlers: list[threading.Thread] = []
    setup = RequestHandler.setup

    def recording_setup(handler):
        handlers.append(threading.current_thread())
        setup(handler)

    monkeypatch.setattr(RequestHandler, "setup", recording_setup)
    _, port = serve()
    sock, reader = _open(port)
    with sock, reader:
        sock.sendall(b"GET /healthz HTTP/1.1\r\n\r\n")
        assert _read_reply(reader)[0] == 200
        # then idle: the server closes the connection ...
        assert _closed(reader)
    # ... and the handler thread exits
    (handler,) = handlers
    handler.join(PATIENCE)
    assert not handler.is_alive()


# -- the statement path ------------------------------------------------------


class _Statements:
    """Stub for ``QueryService.execute``: each call records its SQL,
    thread and the concurrency it saw, then blocks until ``release``
    is set; it logs its SQL to *log* when it returns."""

    def __init__(self, log: Optional[list] = None) -> None:
        self.lock = threading.Lock()
        self.entered = threading.Condition(self.lock)
        self.release = threading.Event()
        self.log = [] if log is None else log
        self.calls: list[str] = []
        self.threads: list[threading.Thread] = []
        self.running = 0
        self.peak = 0

    def wait_entered(self, n: int) -> None:
        with self.entered:
            assert self.entered.wait_for(
                lambda: len(self.calls) >= n, PATIENCE
            ), f"only {len(self.calls)} of {n} statements started"

    def __call__(self, sql, binds=None, config=None, token=None,
                 analyze=False, snapshot=None):
        with self.entered:
            self.calls.append(sql)
            self.threads.append(threading.current_thread())
            self.running += 1
            self.peak = max(self.peak, self.running)
            self.entered.notify_all()
        try:
            assert self.release.wait(PATIENCE)
            return SimpleNamespace(
                columns=["sql"], rows=[(sql,)], cache_status="hit",
                optimize_seconds=0.0, execute_seconds=0.0,
            )
        finally:
            with self.lock:
                self.running -= 1
            self.log.append(sql)


def _stubbed(config: ServerConfig,
             log: Optional[list] = None) -> tuple[ReproServer, _Statements]:
    app = ReproServer(database=Database(), config=config)
    statements = _Statements(log)
    app.service.execute = statements
    return app, statements


class _Admissions:
    """Counts the app's admissions, notifying waiters after each."""

    def __init__(self, app: ReproServer) -> None:
        self.count = 0
        self.changed = threading.Condition()
        admit = app.admission.admit

        def counting_admit(session_pending):
            admit(session_pending)
            with self.changed:
                self.count += 1
                self.changed.notify_all()

        app.admission.admit = counting_admit

    def wait_for(self, n: int) -> None:
        with self.changed:
            assert self.changed.wait_for(lambda: self.count >= n, PATIENCE)


def _in_thread(fn, *args, **kwargs) -> tuple[threading.Thread, dict]:
    outcome: dict = {}

    def run():
        try:
            outcome["result"] = fn(*args, **kwargs)
        except Exception as exc:  # the test inspects it
            outcome["error"] = exc

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def test_statements_run_on_the_calling_thread_with_no_worker_threads():
    app, statements = _stubbed(ServerConfig(workers=2))
    statements.release.set()
    sid = app.connect()["session_id"]
    try:
        for _ in range(3):
            assert app.execute(sid, "SELECT 1")["rows"] == [["SELECT 1"]]
        assert statements.threads == [threading.current_thread()] * 3
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-worker")
        ]
    finally:
        app.close()


def test_running_statements_never_exceed_workers():
    workers, sessions = 3, 8
    app, statements = _stubbed(ServerConfig(workers=workers))
    sids = [app.connect()["session_id"] for _ in range(sessions)]
    barrier = threading.Barrier(sessions)

    def client(sid):
        barrier.wait(PATIENCE)
        return app.execute(sid, f"SELECT '{sid}'")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the eight threads finely
    threads = [_in_thread(client, sid) for sid in sids]
    try:
        statements.wait_entered(workers)
        # every slot is taken; the other five wait for one
        assert app.admission.snapshot()["running"] == workers
        with statements.lock:
            assert statements.running == workers
    finally:
        statements.release.set()
        for thread, _ in threads:
            thread.join(PATIENCE)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread, _ in threads)
    assert [o.get("error") for _, o in threads] == [None] * sessions
    assert sorted(statements.log) == sorted(
        f"SELECT '{sid}'" for sid in sids
    )
    assert statements.peak == workers
    assert app.admission.snapshot()["pending"] == 0
    app.close()


def test_deadline_expiring_while_waiting_for_a_slot_is_408(serve):
    """The slot wait is bounded by the deadline: the statement fails
    while the slot is still taken and never reaches the service."""
    app, port = serve(ServerConfig(workers=1))
    statements = _Statements()
    app.service.execute = statements
    busy = app.connect()["session_id"]
    late = app.connect()["session_id"]

    def post(sid, body):
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=PATIENCE)
        try:
            conn.request("POST", f"/sessions/{sid}/execute",
                         body=json.dumps(body))
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    holder, held = _in_thread(post, busy, {"sql": "SELECT 'busy'"})
    try:
        statements.wait_entered(1)
        waiter, waited = _in_thread(
            post, late, {"sql": "SELECT 'late'", "timeout": 0.2}
        )
        waiter.join(PATIENCE)
        # answered while the busy statement still holds the only slot
        assert not waiter.is_alive()
        status, payload = waited["result"]
        assert status == 408
        assert payload["error"]["type"] == StatementTimeout.__name__
        assert app.admission.snapshot()["queue_timeouts"] == 1
        assert statements.calls == ["SELECT 'busy'"]
    finally:
        statements.release.set()
        holder.join(PATIENCE)
    assert held["result"][0] == 200
    assert app.admission.snapshot()["pending"] == 0


def test_one_session_runs_its_statements_fifo():
    """Statements from three connections on one session run one at a
    time, in arrival order, each answered to its own caller."""
    app, statements = _stubbed(ServerConfig(workers=4))
    admitted = _Admissions(app)
    sid = app.connect()["session_id"]
    texts = ["SELECT 'first'", "SELECT 'second'", "SELECT 'third'"]
    threads = []
    try:
        threads.append(_in_thread(app.execute, sid, texts[0]))
        statements.wait_entered(1)
        for n, sql in enumerate(texts[1:], start=2):
            threads.append(_in_thread(app.execute, sid, sql))
            admitted.wait_for(n)
        # the first statement still runs; the other two are queued
        assert statements.calls == texts[:1]
    finally:
        statements.release.set()
        for thread, _ in threads:
            thread.join(PATIENCE)
    assert statements.calls == texts
    assert statements.peak == 1
    assert [o["result"]["rows"] for _, o in threads] == [[[t]] for t in texts]
    app.close()


def test_shutdown_waits_for_a_running_statement():
    order: list[str] = []
    app, statements = _stubbed(ServerConfig(workers=2), log=order)
    sid = app.connect()["session_id"]
    closing = threading.Event()
    wait_idle = app.admission.wait_idle

    def signalling_wait_idle(timeout=None):
        if timeout is None:
            closing.set()  # shutdown's final, unbounded wait has begun
        return wait_idle(timeout)

    app.admission.wait_idle = signalling_wait_idle
    runner, ran = _in_thread(app.execute, sid, "SELECT 'running'")
    statements.wait_entered(1)

    def stop():
        app.shutdown(grace=0)
        order.append("shutdown returned")

    stopper, stopped = _in_thread(stop)
    try:
        assert closing.wait(PATIENCE)
        assert order == []
    finally:
        statements.release.set()
        runner.join(PATIENCE)
        stopper.join(PATIENCE)
    assert order == ["SELECT 'running'", "shutdown returned"]
    assert "error" not in stopped
    assert ran["result"]["rows"] == [["SELECT 'running'"]]
