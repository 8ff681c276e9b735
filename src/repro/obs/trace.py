"""Structured optimizer trace — the repo's 10053 analogue.

A :class:`Tracer` collects :class:`TraceEvent` records into a bounded
ring buffer and, optionally, streams each event as one JSON line to a
sink.  Producers (the CBQT framework, the heuristic pipeline) hold an
``Optional[Tracer]`` and guard every emission with an ``is None`` test,
so a disarmed engine constructs zero trace events — the class-level
``TraceEvent.created`` counter lets the benchmark gate prove it.

Event kinds emitted by the engine:

* ``cbqt.search`` — one per cost-based transformation with applicable
  objects: chosen strategy, object count, and every alternative label
  per object (interleaved/juxtaposed alternatives appear here, so the
  trace records which combined rewrites entered the state space);
* ``cbqt.state`` — one per costed search state: transformation, state
  bit-vector, estimated cost, prune reason (``cost-cutoff``,
  ``infeasible``, ``governor``, or None for a completed state), the
  and the annotation-cache hit/miss deltas incurred while costing it;
* ``cbqt.decision`` — the search outcome: best state, best/baseline
  cost, states evaluated, evaluation order, applied labels;
* ``cbqt.governor`` — emitted when a search governor cut the search
  short (budget/deadline exhaustion accounting);
* ``heuristic.rule`` — one per heuristic rule application round that
  rewrote the tree: rule name, target count, before/after structural
  signatures.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Optional, TextIO


def _jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-serialisable structures."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) for v in value)
    return str(value)


class TraceEvent:
    """One optimizer trace record (sequence number, kind, payload)."""

    __slots__ = ("seq", "kind", "data")

    #: class-level construction counter; bench_obs asserts it stays flat
    #: across a workload run with tracing disarmed
    created = 0

    def __init__(self, seq: int, kind: str, data: dict):
        type(self).created += 1
        self.seq = seq
        self.kind = kind
        self.data = data

    def to_dict(self) -> dict:
        return {"seq": self.seq, "kind": self.kind, **_jsonable(self.data)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def format(self) -> str:
        parts = " ".join(
            f"{key}={_compact(value)}" for key, value in self.data.items()
        )
        return f"[{self.seq:05d}] {self.kind:<16} {parts}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent({self.seq}, {self.kind!r}, {self.data!r})"


def _compact(value: Any) -> str:
    if isinstance(value, float):
        return "inf" if value == float("inf") else f"{value:.2f}"
    if isinstance(value, tuple):
        return "(" + ",".join(str(v) for v in value) + ")"
    return str(value)


class Tracer:
    """Bounded ring buffer of trace events with an optional JSONL sink.

    *capacity* bounds the in-memory buffer (oldest events drop first);
    *sink* is a writable text stream that receives every event as one
    JSON line the moment it is emitted (so a crash mid-optimization
    still leaves the prefix on disk, as 10053 does).
    """

    #: class-level construction counter (mirrors SearchGovernor.created)
    created = 0

    def __init__(self, capacity: int = 4096, sink: Optional[TextIO] = None):
        type(self).created += 1
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        self._sink = sink
        self._seq = 0
        #: total events emitted, including any that fell off the ring
        self.emitted = 0

    def emit(self, kind: str, **data: Any) -> TraceEvent:
        event = TraceEvent(self._seq, kind, data)
        self._seq += 1
        self.emitted += 1
        self._buffer.append(event)
        if self._sink is not None:
            self._sink.write(event.to_json() + "\n")
        return event

    # -- introspection -----------------------------------------------------

    def events(self, kind: Optional[str] = None) -> list[TraceEvent]:
        if kind is None:
            return list(self._buffer)
        return [e for e in self._buffer if e.kind == kind]

    def count(self, kind: Optional[str] = None) -> int:
        return len(self.events(kind))

    def __len__(self) -> int:
        return len(self._buffer)

    def clear(self) -> None:
        self._buffer.clear()

    def format_table(self) -> str:
        """Human-readable rendering of the buffered events."""
        lines = [
            f"optimizer trace ({len(self._buffer)} buffered of "
            f"{self.emitted} emitted, capacity {self.capacity})"
        ]
        lines.extend(event.format() for event in self._buffer)
        return "\n".join(lines)
