"""Concurrent multi-session query-serving front end.

Turns the embedded engine into a small server: an HTTP/JSON protocol
(stdlib ``ThreadingHTTPServer``) over a transport-independent app core,
with per-connection sessions, prepared statements and paged fetch,
snapshot reads (statement-level read consistency over the storage
layer's copy-on-write table versions), and admission control that
bounds how many statements execute at once.  Each statement runs on the
thread of the connection that sent it.  ``python -m repro serve`` is the
CLI entry point; see DESIGN.md §13 for the architecture.
"""

from __future__ import annotations

from .admission import AdmissionController, ServerConfig
from .app import ReproServer
from .http import ReproHTTPServer, make_http_server, run_server, serve
from .sessions import ServerSession, SessionRegistry

__all__ = [
    "AdmissionController",
    "ReproHTTPServer",
    "ReproServer",
    "ServerConfig",
    "ServerSession",
    "SessionRegistry",
    "make_http_server",
    "run_server",
    "serve",
]
