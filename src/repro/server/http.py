"""HTTP/JSON transport over :class:`~repro.server.app.ReproServer`.

Stdlib only: a ``ThreadingHTTPServer`` gives each connection a handler
thread, and that thread runs the connection's statements itself — the
app's admission controller bounds how many execute at once, so an
unbounded number of keep-alive connections cannot overload the
optimizer.  The handler reads the request line and header lines with
``readline`` into a small case-insensitive mapping (:class:`Headers`)
rather than through the stdlib's ``email`` header parser, keeping the
stdlib's statuses and limits: 414 for a request line over
:data:`MAX_LINE` bytes, 400 for bad request-line syntax, 505 for
HTTP/2 and above, 431 for a header line over :data:`MAX_LINE` bytes or
more than :data:`MAX_HEADERS` header lines, and 400 (closing the
connection) for a malformed ``Content-Length``.  Every reply goes out in
one write on a ``TCP_NODELAY`` socket, and an idle keep-alive
connection is closed after :attr:`RequestHandler.timeout` seconds.

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

import email.utils
import json
import signal
import threading
import time
from http import HTTPStatus
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
#: longest request line or header line, in bytes (the stdlib's limit)
MAX_LINE = 65536
#: most header lines one request may carry (the stdlib's limit)
MAX_HEADERS = 100

#: reply bodies: JSON, anything non-JSON (dates, decimals) as its str()
_ENCODER = json.JSONEncoder(default=str)

#: (second, its RFC 7231 date): every reply within a second shares one
_date: tuple[int, str] = (-1, "")


class Headers(dict):
    """Request header fields by case-insensitive name (stored lower
    case); a repeated field keeps its first value."""

    __slots__ = ()

    def __getitem__(self, name: str) -> str:
        return dict.__getitem__(self, name.lower())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and dict.__contains__(self, name.lower())

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return dict.get(self, name.lower(), default)


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

    def __init__(self, app: ReproServer, host: str, port: int) -> None:
        self.app = app
        super().__init__((host, port), RequestHandler)


class RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: ReproHTTPServer
    #: TCP_NODELAY on every accepted socket; together with the one-write
    #: reply no segment ever waits on a delayed ACK
    disable_nagle_algorithm = True
    #: seconds an accepted socket may sit idle: a client holding a
    #: keep-alive connection must not pin its handler thread forever
    #: between requests (a read past it closes the connection)
    timeout = 60

    #: set True (e.g. by the CLI's --verbose) to restore stderr request
    #: logging; quiet by default so the load bench isn't I/O bound
    verbose = False

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def date_time_string(self, timestamp: Optional[float] = None) -> str:
        """The ``Date`` header value, formatted once per second."""
        global _date
        if timestamp is not None:
            return super().date_time_string(timestamp)
        now = int(time.time())
        second, text = _date
        if second != now:
            text = email.utils.formatdate(now, usegmt=True)
            _date = (now, text)
        return text

    # -- request reading ---------------------------------------------------

    def parse_request(self) -> bool:
        """Parse ``raw_requestline`` and read the header block.

        The stdlib's request-line rules (400 for bad syntax or version,
        505 for HTTP/2 and above, ``//`` paths collapsed, HTTP/1.0
        closes unless it asks for keep-alive), with the header lines
        read by :meth:`_read_headers` instead of the stdlib's ``email``
        parser.  False once an error reply has been sent."""
        self.command = None
        self.request_version = self.default_request_version
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad request version ({version!r})",
                )
                return False
            if number >= (2, 0):
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(
                HTTPStatus.BAD_REQUEST, f"Bad request syntax ({requestline!r})"
            )
            return False
        command, path = words[:2]
        if len(words) == 2:
            self.close_connection = True
            if command != "GET":
                self.send_error(
                    HTTPStatus.BAD_REQUEST,
                    f"Bad HTTP/0.9 request type ({command!r})",
                )
                return False
        if path.startswith("//"):
            # a leading // reads as a scheme-relative URI to clients
            path = "/" + path.lstrip("/")
        self.command, self.path = command, path
        headers = self._read_headers()
        if headers is None:
            return False
        self.headers = headers
        connection = headers.get("connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (
            headers.get("expect", "").lower() == "100-continue"
            and self.request_version >= "HTTP/1.1"
        ):
            return self.handle_expect_100()
        return True

    def _read_headers(self) -> Optional[Headers]:
        """Header lines up to the blank line that ends them; None after
        a 431 reply (a line over MAX_LINE bytes, or more than
        MAX_HEADERS lines)."""
        headers = Headers()
        readline = self.rfile.readline
        #: the field a folded continuation line extends (first values only)
        name: Optional[str] = None
        for _ in range(MAX_HEADERS + 1):
            line = readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                self.send_error(
                    HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE,
                    "Line too long",
                )
                return None
            if line in (b"\r\n", b"\n", b""):
                return headers
            text = line.decode("iso-8859-1")
            if text[0] in " \t":
                if name is not None:
                    dict.__setitem__(
                        headers, name, f"{headers[name]} {text.strip()}"
                    )
                continue
            field, sep, value = text.partition(":")
            name = field.strip().lower()
            if not sep or name in headers:
                name = None
                continue
            dict.__setitem__(headers, name, value.strip())
        self.send_error(
            HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers"
        )
        return None

    # -- plumbing ----------------------------------------------------------

    def _reply(self, status: int, payload: dict) -> None:
        """Status line, headers and body in one write (one ``sendall``):
        a body written after the headers would wait on the client's
        delayed ACK (Nagle) on every keep-alive reply."""
        body = _ENCODER.encode(payload).encode("utf-8")
        self.log_request(status)
        head = (
            f"{self.protocol_version} {status} {self.responses[status][0]}\r\n"
            f"Server: {self.version_string()}\r\n"
            f"Date: {self.date_time_string()}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            + ("Connection: close\r\n" if self.close_connection else "")
            + "\r\n"
        )
        self.wfile.write(head.encode("latin-1") + body)

    def _error(self, exc: BaseException) -> None:
        self._reply(_status_for(exc), {
            "error": {"type": type(exc).__name__, "message": str(exc)}
        })

    def _body(self) -> dict:
        declared = self.headers.get("content-length")
        length = _content_length(declared)
        if length is None or length > MAX_BODY_BYTES:
            # the body stays unread, so the next request line could not
            # be found: answer, then close the connection
            self.close_connection = True
            if length is None:
                raise ReproError(f"invalid Content-Length {declared!r}")
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


def _version_number(version: str) -> Optional[tuple[int, int]]:
    """``(major, minor)`` of an ``HTTP/x.y`` token; None when malformed."""
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(
        part.isascii() and part.isdigit() and len(part) <= 10 for part in parts
    ):
        return None
    return int(parts[0]), int(parts[1])


def _content_length(declared: Optional[str]) -> Optional[int]:
    """The body length a ``Content-Length`` value declares (0 when
    absent); None when it is not a non-negative decimal integer."""
    if not declared:
        return 0
    text = declared.strip()
    if not (text.isascii() and text.isdigit()):
        return None
    return int(text)


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
