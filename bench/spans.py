"""In-memory spans recorded from outside the program.

The traced run wraps the public entry point of every layer (see
:data:`TARGETS`) so each call becomes a span - name, start, end, the
span that caused it, and the statement it belongs to.  A layer's *self
time* is its span's duration minus the part its child spans cover.
Nothing inside ``src/repro`` is edited; the wrappers are installed for
the traced run only and removed afterwards, and the untraced run
asserts that none is present (:func:`assert_unwrapped`).
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional

#: layers in pipeline order; a span's layer is its name up to the dot.
#: ``database`` is the facade glue between the layers (the in-process
#: root span's self time); ``server`` includes ``server.http``, the part
#: of a request's client-observed latency that no handler span covers.
LAYERS = ("sql", "qtree", "transform", "cbqt", "optimizer", "service",
          "engine", "server", "durability", "database")


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]      # index into Tracer.spans
    statement: Optional[int]   # index of the statement it belongs to


class Tracer:
    """Span recorder.  ``enabled`` is off outside the timed region, so
    set-up and warm-up calls pass through the wrappers unrecorded."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = False
        self.counts: dict[str, float] = defaultdict(float)
        #: session id -> the client's open statement span; how a server
        #: handler thread finds the request that caused it
        self.links: dict[str, int] = {}
        #: objects whose counters are read when the run ends, kept alive
        #: so that ``id()`` stays unique
        self.watched: dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[int]:
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(
        self,
        name: str,
        parent: Optional[int] = None,
        statement: Optional[int] = None,
    ) -> Iterator[Optional[int]]:
        """Record one span around the block; *parent* defaults to the
        innermost open span of this thread."""
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        if statement is None and parent is not None:
            statement = self.spans[parent].statement
        # the end is filled in on exit; appending first fixes the index
        # children refer to
        with self._lock:
            index = len(self.spans)
            self.spans.append(
                Span(name, time.perf_counter(), 0.0, parent, statement)
            )
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index] = self.spans[index]._replace(
                end=time.perf_counter()
            )

    @contextmanager
    def adopt(self, parent: Optional[int]) -> Iterator[None]:
        """Make *parent* (a span opened on another thread) the cause of
        the spans this thread opens inside the block."""
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals
    (children may overlap or, across threads, outlive the parent)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        result.append((span.end - span.start) - covered)
    return result


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def layer_shares(by_name: dict[str, float]) -> dict[str, float]:
    """Percent of all statement time per layer (sums to 100)."""
    total = sum(by_name.values())
    shares = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in by_name.items():
        shares[name.split(".", 1)[0]] += 100.0 * seconds / total
    return shares


# -- the wrappers -----------------------------------------------------------


def _count_search(tracer: Tracer, args: tuple, result: object) -> None:
    report = result[2]  # CbqtFramework.optimize -> (tree, plan, report)
    tracer.counts["cbqt.states"] += report.total_states
    tracer.counts["optimizer.join_enumerations"] += report.join_enumerations


def _watch_annotations(tracer: Tracer, args: tuple, result: object) -> None:
    stats = args[0].annotations.stats  # cumulative per PhysicalOptimizer
    tracer.watched[id(stats)] = stats


def _count_execution(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.counts["engine.work_units"] += result.exec_stats.work_units
    tracer.counts["engine.rows_out"] += len(result.rows)


def _client_span(tracer: Tracer, args: tuple) -> Optional[int]:
    # ReproServer.execute / insert (self, session_id, ...): runs on an
    # HTTP handler thread; the client registered its open span
    parent = tracer.links.get(args[1])
    tracer._local.reply_parent = parent
    return parent


def _reply_parent(tracer: Tracer, args: tuple) -> Optional[int]:
    # RequestHandler._reply follows the app call on the same thread
    parent = getattr(tracer._local, "reply_parent", None)
    tracer._local.reply_parent = None
    return parent


#: (span name, module, class or None, attribute, parent finder, counter)
TARGETS = (
    ("sql.parse", "repro.sql", None, "parse_query", None, None),
    ("qtree.build", "repro.qtree", None, "build_query_tree", None, None),
    ("transform.heuristic", "repro.transform.pipeline", None,
     "apply_heuristic_phase", None, None),
    ("cbqt.search", "repro.cbqt.framework", "CbqtFramework", "optimize",
     None, _count_search),
    ("optimizer.physical", "repro.optimizer.physical", "PhysicalOptimizer",
     "optimize", None, _watch_annotations),
    ("service.lookup", "repro.service.service", "QueryService", "execute",
     None, None),
    ("engine.execute", "repro.database", "Database", "execute_plan",
     None, _count_execution),
    ("engine.insert", "repro.database", "Database", "insert", None, None),
    ("server.handle", "repro.server.app", "ReproServer", "execute",
     _client_span, None),
    ("server.handle", "repro.server.app", "ReproServer", "insert",
     _client_span, None),
    ("server.serialize", "repro.server.http", "RequestHandler", "_reply",
     _reply_parent, None),
    ("durability.commit", "repro.durability.manager", "DurabilityManager",
     "commit", None, None),
)


def _wrapper(
    tracer: Tracer,
    name: str,
    fn: Callable,
    find_parent: Optional[Callable],
    count: Optional[Callable],
) -> Callable:
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        parent = find_parent(tracer, args) if find_parent else None
        with tracer.span(name, parent):
            result = fn(*args, **kwargs)
        if count is not None:
            count(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    traced.bench_wrapper = True
    return traced


def _bindings(module_name: str, class_name: Optional[str], attribute: str):
    """Every ``(namespace, name)`` through which the program reaches the
    target: the class attribute, or - for a module-level function, which
    callers import by name - each ``repro`` module global bound to it."""
    module = importlib.import_module(module_name)
    if class_name is not None:
        return [(getattr(module, class_name), attribute)]
    original = getattr(module, attribute)
    return [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and mod_name.split(".")[0] == "repro"
        for name, value in list(vars(mod).items())
        if value is original
    ]


@contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the block; restore all of them on exit."""
    import repro.server.app as app

    patched: list[tuple[object, str, object]] = []

    def patch(namespace: object, name: str, value: object) -> None:
        patched.append((namespace, name, vars(namespace)[name]))
        setattr(namespace, name, value)

    work_item = app.WorkItem

    def adopted_work_item(fn, token, future, deadline):
        # built on the handler thread inside the ``server.handle`` span,
        # run on a pool thread: carry the span across
        parent = tracer.current()

        def run(item_token):
            with tracer.adopt(parent):
                return fn(item_token)

        return work_item(run, token, future, deadline)

    adopted_work_item.bench_wrapper = True
    try:
        for name, module, cls, attribute, find_parent, count in TARGETS:
            for namespace, bound in _bindings(module, cls, attribute):
                original = vars(namespace)[bound]
                patch(namespace, bound,
                      _wrapper(tracer, name, original, find_parent, count))
        patch(app, "WorkItem", adopted_work_item)
        yield
    finally:
        for namespace, name, original in reversed(patched):
            setattr(namespace, name, original)


def assert_unwrapped() -> None:
    """The untraced run must measure the program as shipped."""
    import repro.server.app as app

    found = [
        f"{module}.{cls or ''}.{attribute}"
        for _name, module, cls, attribute, _p, _c in TARGETS
        for namespace, bound in _bindings(module, cls, attribute)
        if getattr(vars(namespace)[bound], "bench_wrapper", False)
    ]
    if getattr(app.WorkItem, "bench_wrapper", False):
        found.append("repro.server.app.WorkItem")
    if found:
        raise AssertionError(f"tracing wrappers present in an untraced run: {found}")
