"""Integration tests for the HTTP/JSON serving front end.

Every test talks to a real ``ThreadingHTTPServer`` bound to an
ephemeral port — the same stack ``python -m repro serve`` runs — so the
protocol, the admission controller, the per-session statement queues,
and snapshot-read isolation are exercised end to end.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import Database
from repro.server import ReproServer, ServerConfig
from repro.server.http import RequestHandler, make_http_server

#: sized so the non-equi cross join below runs for seconds if nothing
#: stops it — long enough that cancel/timeout must be doing the work
SLOW_ROWS = 900
SLOW_SQL = "SELECT COUNT(*) FROM big a, big b WHERE a.id + b.id < 0"


class Client:
    """Minimal JSON-over-HTTP client for one server."""

    def __init__(self, base: str):
        self.base = base

    def call(self, method: str, path: str, body=None):
        data = json.dumps(body).encode() if body is not None else None
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def ok(self, method: str, path: str, body=None):
        status, payload = self.call(method, path, body)
        assert status == 200, f"{method} {path} -> {status}: {payload}"
        return payload

    def connect(self, options=None) -> str:
        return self.ok("POST", "/sessions", options or {})["session_id"]

    def execute(self, session_id: str, sql: str, **kwargs):
        return self.call(
            "POST", f"/sessions/{session_id}/execute",
            {"sql": sql, **kwargs},
        )


@pytest.fixture
def serve_db():
    """Factory: start a server over a prepared database; yields
    (app, client) pairs and tears everything down."""
    running = []

    def start(config=None, seed=None):
        database = Database()
        if seed is not None:
            seed(database)
        app = ReproServer(database=database, config=config or ServerConfig())
        server = make_http_server(app, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        client = Client(f"http://{host}:{port}")
        running.append((server, app))
        return app, client

    yield start
    for server, app in running:
        server.shutdown()
        server.server_close()
        app.close()


def seed_people(db: Database) -> None:
    db.execute_ddl(
        "CREATE TABLE people (id INT PRIMARY KEY, dept INT, pay INT)"
    )
    db.insert("people", [
        {"id": i, "dept": i % 5, "pay": 100 + (i * 37) % 900}
        for i in range(200)
    ])
    db.analyze()


def seed_big(db: Database) -> None:
    db.execute_ddl("CREATE TABLE big (id INT PRIMARY KEY)")
    db.insert("big", [{"id": i} for i in range(SLOW_ROWS)])
    db.analyze()


# -- protocol round trips ----------------------------------------------------


def test_connect_execute_disconnect(serve_db):
    _, client = serve_db(seed=seed_people)
    sid = client.connect()
    status, result = client.execute(
        sid, "SELECT dept, COUNT(*) FROM people GROUP BY dept ORDER BY dept"
    )
    assert status == 200
    assert result["rows"] == [[d, 40] for d in range(5)]
    assert result["cache_status"] == "miss"
    status, again = client.execute(
        sid, "SELECT dept, COUNT(*) FROM people GROUP BY dept ORDER BY dept"
    )
    assert again["cache_status"] == "hit"
    assert client.ok("DELETE", f"/sessions/{sid}") == {"closed": sid}
    status, _ = client.execute(sid, "SELECT COUNT(*) FROM people")
    assert status == 404


def test_ddl_insert_analyze_over_http(serve_db):
    _, client = serve_db()
    sid = client.connect()
    client.ok("POST", f"/sessions/{sid}/ddl",
              {"sql": "CREATE TABLE t (id INT PRIMARY KEY, v INT)"})
    out = client.ok("POST", f"/sessions/{sid}/insert", {
        "table": "t", "rows": [{"id": i, "v": i % 3} for i in range(9)],
    })
    assert out == {"inserted": 9, "table": "t"}
    assert client.ok("POST", f"/sessions/{sid}/analyze",
                     {"table": "t"}) == {"analyzed": "t"}
    _, result = client.execute(
        sid, "SELECT v, COUNT(*) FROM t GROUP BY v ORDER BY v"
    )
    assert result["rows"] == [[0, 3], [1, 3], [2, 3]]


def test_prepare_binds_and_paged_fetch(serve_db):
    _, client = serve_db(seed=seed_people)
    sid = client.connect()
    prepared = client.ok("POST", f"/sessions/{sid}/statements", {
        "sql": "SELECT id FROM people WHERE dept = :d ORDER BY id",
    })
    status, result = client.call(
        "POST", f"/sessions/{sid}/execute",
        {"statement_id": prepared["statement_id"], "binds": {"d": 2},
         "fetch_size": 15},
    )
    assert status == 200
    assert result["row_count"] == 40 and len(result["rows"]) == 15
    assert result["more"] and "cursor_id" in result
    collected = [row[0] for row in result["rows"]]
    cursor_id = result["cursor_id"]
    while result.get("more"):
        result = client.ok("POST", f"/sessions/{sid}/fetch",
                           {"cursor_id": cursor_id, "n": 15})
        collected.extend(row[0] for row in result["rows"])
    assert collected == [i for i in range(200) if i % 5 == 2]
    # exhausted cursors close server-side
    status, _ = client.call("POST", f"/sessions/{sid}/fetch",
                            {"cursor_id": cursor_id, "n": 15})
    assert status == 404


def test_explain_verbs(serve_db):
    _, client = serve_db(seed=seed_people)
    sid = client.connect()
    plan = client.ok("POST", f"/sessions/{sid}/explain",
                     {"sql": "SELECT COUNT(*) FROM people"})["plan"]
    assert "Aggregate" in plan or "aggregate" in plan.lower()
    _, result = client.execute(
        sid, "EXPLAIN ANALYZE SELECT COUNT(*) FROM people WHERE dept = 1"
    )
    assert "actual" in result["explain_analyze"]
    assert result["rows"] == [[40]]


def test_admin_endpoints_and_shared_plan_cache(serve_db):
    app, client = serve_db(seed=seed_people)
    first, second = client.connect(), client.connect()
    sql = "SELECT COUNT(*) FROM people WHERE pay > 500"
    assert client.execute(first, sql)[1]["cache_status"] == "miss"
    # a different session shares the plan cache (one cursor per text)
    assert client.execute(second, sql)[1]["cache_status"] == "hit"
    health = client.ok("GET", "/healthz")
    assert health["ok"] and health["sessions"] == 2
    cache = client.ok("GET", "/cache")
    assert cache["entries"] >= 1 and cache["hits"] >= 1
    metrics = client.ok("GET", "/metrics")
    assert metrics["server"]["admitted_total"] >= 2
    assert metrics["counters"]["server.statements"] >= 2
    assert "epoch" in client.ok("GET", "/quarantine")
    assert set(client.ok("GET", "/sessions")["sessions"]) == {first, second}


def test_error_status_mapping(serve_db):
    _, client = serve_db(seed=seed_people)
    sid = client.connect()
    assert client.call("POST", "/sessions/zzz/execute",
                       {"sql": "SELECT 1"})[0] == 404
    assert client.execute(sid, "SELECT nosuch FROM people")[0] == 400
    assert client.execute(sid, "DELETE FROM people")[0] == 400
    assert client.call("GET", "/nosuch")[0] == 404
    assert client.call("POST", f"/sessions/{sid}/fetch",
                       {"cursor_id": "c999"})[0] == 404
    status, payload = client.execute(sid, "SELECT FROM people")
    assert status == 400
    assert payload["error"]["type"] in ("ParseError", "SqlError")


class _CountingSocket:
    """An accepted socket that records every write the handler makes."""

    def __init__(self, sock: socket.socket, writes: list) -> None:
        self.sock = sock
        self._writes = writes

    def sendall(self, data, *args):
        self._writes.append(bytes(data))
        return self.sock.sendall(data, *args)

    def send(self, data, *args):
        self._writes.append(bytes(data))
        return self.sock.send(data, *args)

    def __getattr__(self, name):
        return getattr(self.sock, name)


def test_every_reply_is_one_write_on_a_nodelay_socket(serve_db, monkeypatch):
    """A reply split into a header write and a body write stalls each
    keep-alive round trip on the peer's delayed ACK (Nagle): every
    reply — 200, typed error, unrouted 404 — must be one write, on a
    socket with TCP_NODELAY set."""
    writes: list[bytes] = []
    accepted: list[_CountingSocket] = []
    original_setup = RequestHandler.setup

    def counting_setup(handler):
        handler.request = _CountingSocket(handler.request, writes)
        accepted.append(handler.request)
        original_setup(handler)

    monkeypatch.setattr(RequestHandler, "setup", counting_setup)
    _, client = serve_db(seed=seed_people)
    host, port = client.base.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=60)

    def round_trip(method: str, path: str, body=None) -> tuple[int, dict]:
        writes.clear()
        conn.request(method, path, body=json.dumps(body or {}),
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert len(writes) == 1, [w[:40] for w in writes]
        assert writes[0].startswith(f"HTTP/1.1 {response.status} ".encode())
        return response.status, payload

    try:
        status, session = round_trip("POST", "/sessions")
        sid = session["session_id"]
        sql = "SELECT dept, COUNT(*) FROM people GROUP BY dept ORDER BY dept"
        for _ in range(3):
            assert round_trip(
                "POST", f"/sessions/{sid}/execute", {"sql": sql}
            )[0] == 200
        status, payload = round_trip(
            "POST", f"/sessions/{sid}/execute", {"sql": "SELECT FROM people"}
        )
        assert status == 400 and "error" in payload
        assert round_trip(
            "POST", "/sessions/zzz/execute", {"sql": sql}
        )[0] == 404
        assert round_trip("GET", "/nosuch")[0] == 404
        # one keep-alive connection carried every request; read its
        # option while it is open (the server closes it after ours)
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        conn.close()


# -- admission control -------------------------------------------------------


def _bg(client: Client, sid: str, sql: str, **kwargs):
    """Run one execute on a thread; returns (thread, outcome-dict)."""
    outcome: dict = {}

    def run():
        outcome["status"], outcome["payload"] = client.execute(
            sid, sql, **kwargs
        )

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread, outcome


def _wait_running(app: ReproServer, timeout: float = 5.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if app.admission.snapshot()["running"] >= 1:
            return
        time.sleep(0.01)
    raise AssertionError("statement never started running")


def test_saturation_rejects_with_429(serve_db):
    app, client = serve_db(
        config=ServerConfig(workers=1, max_queue_depth=0),
        seed=seed_big,
    )
    busy, other = client.connect(), client.connect()
    thread, outcome = _bg(client, busy, SLOW_SQL)
    _wait_running(app)
    status, payload = client.execute(other, "SELECT COUNT(*) FROM big")
    assert status == 429
    assert payload["error"]["type"] == "AdmissionRejected"
    client.ok("POST", f"/sessions/{busy}/cancel", {})
    thread.join(timeout=30)
    assert outcome["status"] == 409
    # capacity freed: the refused client's retry succeeds
    status, result = client.execute(other, "SELECT COUNT(*) FROM big")
    assert status == 200 and result["rows"] == [[SLOW_ROWS]]


def test_session_queue_depth_rejects_with_429(serve_db):
    app, client = serve_db(
        config=ServerConfig(workers=2, session_queue_depth=1),
        seed=seed_big,
    )
    sid = client.connect()
    thread, outcome = _bg(client, sid, SLOW_SQL)
    _wait_running(app)
    status, payload = client.execute(sid, "SELECT COUNT(*) FROM big")
    assert status == 429 and payload["error"]["type"] == "AdmissionRejected"
    # other sessions are unaffected by this session's full queue
    other = client.connect()
    assert client.execute(other, "SELECT COUNT(*) FROM big")[0] == 200
    client.ok("POST", f"/sessions/{sid}/cancel", {})
    thread.join(timeout=30)
    assert outcome["status"] == 409


def test_statement_timeout_maps_to_408(serve_db):
    _, client = serve_db(seed=seed_big)
    sid = client.connect()
    started = time.monotonic()
    status, payload = client.execute(sid, SLOW_SQL, timeout=0.2)
    assert status == 408
    assert payload["error"]["type"] == "StatementTimeout"
    assert time.monotonic() - started < 30
    # the session keeps serving after its statement timed out
    assert client.execute(sid, "SELECT COUNT(*) FROM big")[0] == 200


def test_deadline_burned_in_queue_maps_to_408(serve_db):
    app, client = serve_db(
        config=ServerConfig(workers=1, max_queue_depth=8),
        seed=seed_big,
    )
    busy, queued = client.connect(), client.connect()
    slow_thread, slow_outcome = _bg(client, busy, SLOW_SQL)
    _wait_running(app)
    # admitted behind the slow statement with a deadline it cannot make
    fast_thread, fast_outcome = _bg(
        client, queued, "SELECT COUNT(*) FROM big", timeout=0.1
    )
    time.sleep(0.3)
    client.ok("POST", f"/sessions/{busy}/cancel", {})
    slow_thread.join(timeout=30)
    fast_thread.join(timeout=30)
    assert fast_outcome["status"] == 408
    assert app.admission.snapshot()["queue_timeouts"] >= 1


def test_session_default_timeout_from_connect(serve_db):
    _, client = serve_db(seed=seed_big)
    sid = client.connect({"timeout": 0.2})
    status, payload = client.execute(sid, SLOW_SQL)
    assert status == 408 and payload["error"]["type"] == "StatementTimeout"


# -- cancellation (satellite: no leaked cursors, no poisoned queue) ---------


def test_cancel_over_http_leaves_session_healthy(serve_db):
    app, client = serve_db(seed=seed_big)
    sid = client.connect()
    thread, outcome = _bg(client, sid, SLOW_SQL, fetch_size=10)
    _wait_running(app)
    cancelled = client.ok("POST", f"/sessions/{sid}/cancel", {})
    assert cancelled["cancelled"] == 1
    thread.join(timeout=30)
    assert outcome["status"] == 409
    assert outcome["payload"]["error"]["type"] == "StatementCancelled"
    # no partially-consumed cursor leaked from the aborted execution
    session = app.sessions.get(sid)
    assert session.cursors == {}
    assert session.active_token is None and not session.queue
    # the statement queue is not poisoned: same session keeps working,
    # including statements queued *behind* the cancelled one
    status, result = client.execute(
        sid, "SELECT COUNT(*) FROM big WHERE id < 10"
    )
    assert status == 200 and result["rows"] == [[10]]
    assert app.admission.snapshot()["pending"] == 0


def test_cancel_with_drain_flushes_queued_statements(serve_db):
    app, client = serve_db(
        config=ServerConfig(workers=1), seed=seed_big
    )
    sid = client.connect()
    slow_thread, slow_outcome = _bg(client, sid, SLOW_SQL)
    _wait_running(app)
    queued_thread, queued_outcome = _bg(client, sid, SLOW_SQL)
    time.sleep(0.1)
    out = client.ok("POST", f"/sessions/{sid}/cancel", {"drain": True})
    assert out["cancelled"] == 2
    slow_thread.join(timeout=30)
    queued_thread.join(timeout=30)
    assert slow_outcome["status"] == 409
    assert queued_outcome["status"] == 409
    assert client.execute(sid, "SELECT COUNT(*) FROM big")[0] == 200


# -- snapshot reads ----------------------------------------------------------


def test_snapshot_reads_never_see_torn_batches(serve_db):
    """Readers racing batched inserts must observe counts that are
    multiples of the batch size: copy-on-write versions publish a batch
    atomically and each statement reads one pinned snapshot."""
    batch = 7
    app, client = serve_db(config=ServerConfig(workers=4))
    setup = client.connect()
    client.ok("POST", f"/sessions/{setup}/ddl", {
        "sql": "CREATE TABLE feed (id INT PRIMARY KEY, batch INT)",
    })
    stop = threading.Event()
    failures: list[str] = []

    def writer():
        n = 0
        while not stop.is_set() and n < 40:
            rows = [{"id": n * batch + i, "batch": n} for i in range(batch)]
            status, payload = client.call(
                "POST", f"/sessions/{setup}/insert",
                {"table": "feed", "rows": rows},
            )
            if status != 200:
                failures.append(f"insert failed: {payload}")
                return
            n += 1

    def reader():
        rsid = client.connect()
        while not stop.is_set():
            status, result = client.execute(
                rsid, "SELECT COUNT(*) FROM feed"
            )
            if status != 200:
                failures.append(f"read failed: {result}")
                return
            count = result["rows"][0][0]
            if count % batch != 0:
                failures.append(f"torn read: COUNT(*) = {count}")
                return

    writer_thread = threading.Thread(target=writer)
    reader_threads = [threading.Thread(target=reader) for _ in range(3)]
    writer_thread.start()
    for thread in reader_threads:
        thread.start()
    writer_thread.join(timeout=60)
    stop.set()
    for thread in reader_threads:
        thread.join(timeout=60)
    assert not failures, failures[0]
    status, result = client.execute(setup, "SELECT COUNT(*) FROM feed")
    assert result["rows"] == [[40 * batch]]


def test_snapshot_reads_survive_concurrent_ddl(serve_db):
    """CREATE INDEX / ANALYZE racing readers must never produce an
    error or a wrong count (reads run on pinned versions; the plan
    cache revalidates against the snapshot's versions)."""
    app, client = serve_db(seed=seed_people)
    sid = client.connect()
    failures: list[str] = []
    stop = threading.Event()

    def reader():
        rsid = client.connect()
        while not stop.is_set():
            status, result = client.execute(
                rsid, "SELECT COUNT(*) FROM people WHERE dept = 3"
            )
            if status != 200 or result["rows"] != [[40]]:
                failures.append(f"{status}: {result}")
                return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    client.ok("POST", f"/sessions/{sid}/ddl", {
        "sql": "CREATE INDEX people_dept ON people (dept)",
    })
    client.ok("POST", f"/sessions/{sid}/analyze", {})
    time.sleep(0.3)
    stop.set()
    for thread in threads:
        thread.join(timeout=60)
    assert not failures, failures[0]


# -- session lifecycle -------------------------------------------------------


def test_idle_sessions_are_reaped(serve_db):
    app, client = serve_db(seed=seed_people)
    sid = client.connect()
    client.execute(sid, "SELECT COUNT(*) FROM people")
    # deterministic reap: pretend the idle timeout elapsed
    reaped = app.sessions.reap_idle(
        now=time.monotonic() + app.config.idle_timeout + 1
    )
    assert sid in reaped
    assert client.execute(sid, "SELECT COUNT(*) FROM people")[0] == 404
    assert app.sessions.reaped_total >= 1


def test_busy_sessions_are_not_reaped(serve_db):
    app, client = serve_db(seed=seed_big)
    sid = client.connect()
    thread, outcome = _bg(client, sid, SLOW_SQL)
    _wait_running(app)
    reaped = app.sessions.reap_idle(
        now=time.monotonic() + app.config.idle_timeout + 1
    )
    assert sid not in reaped
    client.ok("POST", f"/sessions/{sid}/cancel", {})
    thread.join(timeout=30)


# -- concurrent load with differential checking ------------------------------


def test_eight_concurrent_clients_get_correct_results(serve_db):
    """The acceptance floor: >= 8 concurrent sessions, every result
    differentially checked against the reference evaluator."""
    app, client = serve_db(
        config=ServerConfig(workers=4), seed=seed_people
    )
    queries = [
        "SELECT dept, COUNT(*) FROM people GROUP BY dept ORDER BY dept",
        "SELECT COUNT(*) FROM people WHERE pay > 400",
        "SELECT id FROM people WHERE dept = 1 AND pay < 300 ORDER BY id",
        "SELECT MAX(pay), MIN(pay) FROM people",
    ]
    expected = {
        sql: app.database.reference_execute(sql) for sql in queries
    }
    failures: list[str] = []

    def worker(seed: int):
        sid = client.connect()
        for i in range(6):
            sql = queries[(seed + i) % len(queries)]
            status, result = client.execute(sid, sql)
            if status != 200:
                failures.append(f"{status}: {result}")
                return
            got = [tuple(row) for row in result["rows"]]
            if got != expected[sql]:
                failures.append(f"wrong rows for {sql}: {got}")
                return
        client.call("DELETE", f"/sessions/{sid}")

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not failures, failures[0]
    stats = app.admission.snapshot()
    assert stats["pending"] == 0
    assert stats["admitted_total"] >= 8 * 6
