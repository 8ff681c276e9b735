"""HTTP/JSON transport over :class:`~repro.server.app.ReproServer`.

Stdlib only: a ``ThreadingHTTPServer`` whose handler threads call the
app synchronously — the app's admission controller and worker pool
bound actual concurrency, so an unbounded number of keep-alive
connections cannot overload the optimizer.

Routes (all request/response bodies are JSON)::

    POST   /sessions                     -> {"session_id": ...}
    DELETE /sessions/<id>                -> {"closed": ...}
    POST   /sessions/<id>/statements     {"sql"} -> {"statement_id"}
    POST   /sessions/<id>/execute        {"sql"|"statement_id", "binds"?,
                                          "timeout"?, "analyze"?,
                                          "fetch_size"?} -> rows + stats
    POST   /sessions/<id>/fetch          {"cursor_id", "n"?} -> next page
    POST   /sessions/<id>/cancel         {"drain"?} -> {"cancelled": n}
    POST   /sessions/<id>/explain        {"sql", "binds"?} -> {"plan"}
    POST   /sessions/<id>/ddl            {"sql"} -> {"ok": true}
    POST   /sessions/<id>/insert         {"table", "rows"} -> {"inserted"}
    POST   /sessions/<id>/analyze        {"table"?} -> {"analyzed"}
    GET    /healthz | /metrics | /cache | /quarantine | /sessions

Typed engine errors map onto transport status codes; the body always
carries ``{"error": {"type", "message"}}`` so clients can branch on the
engine's exception taxonomy rather than parse prose:

==============================  ======
:class:`SessionNotFound`        404
:class:`AdmissionRejected`      429 (back off and retry)
:class:`StatementTimeout`       408
:class:`StatementCancelled`     409
:class:`ServerShuttingDown`     503 (graceful shutdown in progress;
                                reconnect after the restart)
:class:`VerificationError`      500 (an engine invariant broke — a
                                server bug, never the client's request)
other :class:`ReproError`       400
anything else                   500
==============================  ======
"""

from __future__ import annotations

import json
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from ..errors import (
    AdmissionRejected,
    ReproError,
    ServerShuttingDown,
    SessionNotFound,
    StatementCancelled,
    StatementTimeout,
    VerificationError,
)
from .admission import ServerConfig
from .app import ReproServer

#: request bodies beyond this are refused (a denial-of-service guard,
#: not a data limit — bulk loads should batch their /insert calls)
MAX_BODY_BYTES = 16 * 1024 * 1024


def _status_for(exc: BaseException) -> int:
    if isinstance(exc, SessionNotFound):
        return 404
    if isinstance(exc, AdmissionRejected):
        return 429
    if isinstance(exc, StatementTimeout):
        return 408
    if isinstance(exc, StatementCancelled):
        return 409
    if isinstance(exc, ServerShuttingDown):
        return 503
    if isinstance(exc, VerificationError):
        # an invariant violation is a server-side bug, not a bad request
        return 500
    if isinstance(exc, ReproError):
        return 400
    return 500


class ReproHTTPServer(ThreadingHTTPServer):
    """One listening socket over one :class:`ReproServer` app."""

    daemon_threads = True
    # a client holding a keep-alive connection must not pin a handler
    # thread forever between requests
    timeout = 60

    def __init__(self, app: ReproServer, host: str, port: int) -> None:
        self.app = app
        super().__init__((host, port), RequestHandler)


class RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ReproHTTPServer
    #: TCP_NODELAY on every accepted socket; together with the one-write
    #: reply no segment ever waits on a delayed ACK
    disable_nagle_algorithm = True

    #: set True (e.g. by the CLI's --verbose) to restore stderr request
    #: logging; quiet by default so the load bench isn't I/O bound
    verbose = False

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    # -- plumbing ----------------------------------------------------------

    def _reply(self, status: int, payload: dict) -> None:
        """Status line, headers and body in one write (one ``sendall``):
        a body written after the headers would wait on the client's
        delayed ACK (Nagle) on every keep-alive reply."""
        body = json.dumps(payload, default=str).encode("utf-8")
        self.log_request(status)
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _error(self, exc: BaseException) -> None:
        self._reply(_status_for(exc), {
            "error": {"type": type(exc).__name__, "message": str(exc)}
        })

    def _body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            raise ReproError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        if length == 0:
            return {}
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except ValueError as exc:
            raise ReproError(f"invalid JSON body: {exc}") from exc
        if not isinstance(payload, dict):
            raise ReproError("request body must be a JSON object")
        return payload

    def _dispatch(self, method: str) -> None:
        try:
            handled = self._route(method)
        except VerificationError as exc:
            # deliberate: reported as a 500 so one broken statement does
            # not take the transport down, but never folded into the
            # generic 400 typed-error path
            self._error(exc)
            return
        except Exception as exc:  # typed errors become status codes
            self._error(exc)
            return
        if not handled:
            self._reply(404, {"error": {
                "type": "NotFound",
                "message": f"no route {method} {self.path}",
            }})

    # -- routing -----------------------------------------------------------

    def _route(self, method: str) -> bool:
        app = self.server.app
        path = self.path.split("?", 1)[0].rstrip("/")
        parts = [p for p in path.split("/") if p]

        if method == "GET":
            admin = {
                "healthz": lambda: {"ok": True, **app.stats()},
                "metrics": app.metrics,
                "cache": app.cache,
                "quarantine": app.quarantine,
                "sessions": lambda: {"sessions": app.sessions.ids()},
            }
            if len(parts) == 1 and parts[0] in admin:
                self._reply(200, admin[parts[0]]())
                return True
            return False

        if method == "DELETE":
            if len(parts) == 2 and parts[0] == "sessions":
                self._reply(200, app.disconnect(parts[1]))
                return True
            return False

        if method != "POST":
            return False
        if parts == ["sessions"]:
            self._reply(200, app.connect(self._body()))
            return True
        if len(parts) != 3 or parts[0] != "sessions":
            return False
        session_id, verb = parts[1], parts[2]
        body = self._body()
        if verb == "statements":
            payload = app.prepare(session_id, _require(body, "sql"))
        elif verb == "execute":
            payload = app.execute(
                session_id,
                sql=body.get("sql"),
                statement_id=body.get("statement_id"),
                binds=body.get("binds"),
                timeout=_number(body, "timeout"),
                analyze=bool(body.get("analyze", False)),
                fetch_size=_integer(body, "fetch_size"),
            )
        elif verb == "fetch":
            payload = app.fetch(
                session_id,
                _require(body, "cursor_id"),
                _integer(body, "n", 100),
            )
        elif verb == "cancel":
            payload = app.cancel(session_id, bool(body.get("drain", False)))
        elif verb == "explain":
            payload = app.explain(
                session_id, _require(body, "sql"), body.get("binds")
            )
        elif verb == "ddl":
            payload = app.ddl(session_id, _require(body, "sql"))
        elif verb == "insert":
            payload = app.insert(
                session_id, _require(body, "table"), body.get("rows") or []
            )
        elif verb == "analyze":
            payload = app.analyze(session_id, body.get("table"))
        else:
            return False
        self._reply(200, payload)
        return True

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler contract
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802
        self._dispatch("DELETE")


def _require(body: dict, key: str) -> str:
    value = body.get(key)
    if not value or not isinstance(value, str):
        raise ReproError(f"request needs a non-empty {key!r} field")
    return value


def _number(body: dict, key: str) -> Optional[float]:
    value = body.get(key)
    if value is None:
        return None
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ReproError(f"{key!r} must be a number")
    return float(value)


def _integer(body: dict, key: str, default: Optional[int] = None) -> Optional[int]:
    value = body.get(key, default)
    if value is None:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise ReproError(f"{key!r} must be an integer")
    return value


def make_http_server(
    app: ReproServer,
    host: Optional[str] = None,
    port: Optional[int] = None,
) -> ReproHTTPServer:
    """Bind a listening HTTP server over *app* (port 0 picks a free
    port; the bound address is ``server.server_address``) and start the
    app's idle reaper."""
    config = app.config
    server = ReproHTTPServer(
        app,
        config.host if host is None else host,
        config.port if port is None else port,
    )
    app.start()
    return server


def run_server(
    server: ReproHTTPServer,
    grace: Optional[float] = None,
) -> dict:
    """Serve until SIGTERM/SIGINT, then shut down gracefully.

    Signal handlers are installed only when running on the main thread
    (test harnesses drive servers from worker threads, where the stdlib
    forbids ``signal.signal``).  A handler cannot call
    ``server.shutdown()`` from the serving thread — that deadlocks — so
    it hands off to a short-lived helper thread that stops the accept
    loop; the graceful drain/cancel/checkpoint sequence
    (:meth:`ReproServer.shutdown`) then runs below, after
    ``serve_forever`` returns."""
    app = server.app

    def request_stop(signum: int, frame: object) -> None:
        threading.Thread(
            target=server.shutdown, name="repro-shutdown", daemon=True
        ).start()

    previous = {}
    on_main = threading.current_thread() is threading.main_thread()
    if on_main:
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, request_stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        server.server_close()
        outcome = app.shutdown(grace)
    return outcome


def serve(
    app: Optional[ReproServer] = None,
    config: Optional[ServerConfig] = None,
) -> None:
    """Blocking entry point: serve until interrupted."""
    app = app or ReproServer(config=config)
    run_server(make_http_server(app))
