"""Deterministic fault-injection harness for the optimizer and executor.

Every layer that can fail in production exposes a *named injection
point*: each transformation (``transform.<name>``), the CBQT costing
call (``cbqt.costing``), each executor operator
(``executor.<PlanClass>``), the plan cache
(``plan_cache.lookup`` / ``plan_cache.store``), and the subplan memo
(``memo.lookup``).  Call sites invoke
:func:`check`, which is a single global-load-and-None-test when no
injector is active — the harness costs nothing unless armed.

A test arms faults with :func:`inject`::

    with inject(FaultSpec("transform.unnest_view", at=2)):
        db.execute(sql)           # 2nd unnest application raises

Faults are deterministic: a :class:`FaultSpec` fires on the *k*-th
invocation of its point, and :meth:`FaultInjector.plan` derives a spec
from a seed so chaos suites can sweep seed matrices reproducibly.  A
``stall`` fault busy-waits honouring the current statement's
:class:`~repro.resilience.cancel.CancelToken` — used to prove timeouts
and ``Cursor.cancel()`` interrupt a wedged operator — and gives up with
:class:`~repro.errors.FaultInjected` after ``stall_limit`` seconds so a
mis-armed test can never hang the suite.
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import FaultInjected
from .cancel import CancelToken, current_token

#: executor operator names (mirrors repro.optimizer.plans; kept as
#: strings to avoid importing the executor from this leaf module)
EXECUTOR_OPERATORS = (
    "TableScan",
    "IndexScan",
    "ViewScan",
    "NestedLoopJoin",
    "HashJoin",
    "MergeJoin",
    "Filter",
    "GroupBy",
    "WindowCompute",
    "Project",
    "Distinct",
    "Sort",
    "Limit",
    "SetOp",
)

#: operators the vectorized engine runs natively; each also checks an
#: ``executor.batch.<Op>`` point before producing every batch, so chaos
#: tests can fail an operator mid-stream rather than only at startup
BATCH_OPERATORS = (
    "TableScan",
    "IndexScan",
    "NestedLoopJoin",
    "Filter",
    "Project",
    "HashJoin",
    "GroupBy",
    "Distinct",
    "Sort",
    "SetOp",
)

#: non-transformation, non-executor injection points
CORE_POINTS = ("cbqt.costing", "plan_cache.lookup", "plan_cache.store")

#: durable-storage injection points (:mod:`repro.durability`):
#: ``wal.append`` fires before a record is written (commit refused,
#: nothing persisted), ``wal.fsync`` fires before the flush+fsync (the
#: buffered record is rolled back), ``wal.torn_tail`` half-writes the
#: record and poisons the log — simulating a crash mid-append — and
#: ``checkpoint.write`` fails a checkpoint before its temp file is
#: written (the previous checkpoint + WAL stay authoritative)
DURABILITY_POINTS = (
    "wal.append",
    "wal.fsync",
    "wal.torn_tail",
    "checkpoint.write",
)

#: subplan-memo injection points (:mod:`repro.optimizer.memo`):
#: ``memo.lookup`` fires inside a memo lookup; the statement degrades to
#: memo-off (fresh optimization) rather than failing or mis-planning
MEMO_POINTS = ("memo.lookup",)


def injection_points() -> list[str]:
    """Every registered injection point, in a stable order."""
    from ..transform.pipeline import COST_BASED_ORDER, HEURISTIC_ORDER

    points = [
        f"transform.{cls.name}" for cls in HEURISTIC_ORDER + COST_BASED_ORDER
    ]
    points.extend(CORE_POINTS)
    points.extend(f"executor.{name}" for name in EXECUTOR_OPERATORS)
    points.extend(f"executor.batch.{name}" for name in BATCH_OPERATORS)
    points.extend(DURABILITY_POINTS)
    points.extend(MEMO_POINTS)
    return points


@dataclass
class FaultSpec:
    """One armed fault: *point* misbehaves on its ``at``-th invocation."""

    point: str
    #: 1-based invocation ordinal the fault fires on
    at: int = 1
    #: "raise" or "stall"
    kind: str = "raise"
    #: exception type raised (``kind="raise"``); non-ReproError types are
    #: allowed so tests can prove KeyboardInterrupt/SystemExit escape
    #: every handler in transform/ and cbqt/
    error: type = FaultInjected
    message: str = ""
    #: keep firing on every invocation >= ``at``
    repeat: bool = False


class FaultInjector:
    """Counts invocations per injection point and fires matching specs."""

    def __init__(self, *specs: FaultSpec, stall_limit: float = 2.0) -> None:
        self.specs = list(specs)
        self.stall_limit = stall_limit
        self._lock = threading.Lock()
        #: point -> invocations observed while this injector was active
        self.counts: dict[str, int] = {}
        #: (point, invocation, kind) for every fault actually fired
        self.fired: list[tuple[str, int, str]] = []

    @classmethod
    def plan(
        cls,
        seed: int,
        points: Optional[list[str]] = None,
        kinds: tuple[str, ...] = ("raise",),
        max_at: int = 3,
        stall_limit: float = 2.0,
    ) -> "FaultInjector":
        """Derive one fault deterministically from *seed* (chaos sweeps)."""
        rng = random.Random(seed)
        pool = points if points is not None else injection_points()
        spec = FaultSpec(
            point=rng.choice(pool),
            at=rng.randint(1, max_at),
            kind=rng.choice(kinds),
        )
        return cls(spec, stall_limit=stall_limit)

    def fire(self, point: str, token: Optional[CancelToken] = None) -> None:
        with self._lock:
            count = self.counts.get(point, 0) + 1
            self.counts[point] = count
            matched = [
                spec for spec in self.specs
                if spec.point == point
                and (count == spec.at or (spec.repeat and count >= spec.at))
            ]
            if matched:
                self.fired.append((point, count, matched[0].kind))
        for spec in matched:
            if spec.kind == "stall":
                self._stall(point, token)
            else:
                message = spec.message or (
                    f"injected fault at {point} (invocation {count})"
                )
                raise spec.error(message)

    def _stall(self, point: str, token: Optional[CancelToken]) -> None:
        """Wedge until cancelled/timed out; never hangs past stall_limit."""
        deadline = time.monotonic() + self.stall_limit
        while time.monotonic() < deadline:
            if token is not None:
                token.check()
            ambient = current_token()
            if ambient is not None and ambient is not token:
                ambient.check()
            time.sleep(0.0005)
        raise FaultInjected(
            f"stalled operator at {point} exceeded the stall limit "
            f"({self.stall_limit}s) without being cancelled"
        )


#: the active injector (None = harness disarmed, near-zero overhead)
_ACTIVE: Optional[FaultInjector] = None


def check(point: str, token: Optional[CancelToken] = None) -> None:
    """Injection-point hook; a no-op unless a fault injector is active."""
    injector = _ACTIVE
    if injector is not None:
        injector.fire(point, token)


def active() -> Optional[FaultInjector]:
    return _ACTIVE


@contextmanager
def inject(*specs: FaultSpec, stall_limit: float = 2.0,
           injector: Optional[FaultInjector] = None) -> Iterator[FaultInjector]:
    """Arm *specs* (or a prebuilt *injector*) for the duration of the
    block; restores the previous injector on exit."""
    global _ACTIVE
    if injector is None:
        injector = FaultInjector(*specs, stall_limit=stall_limit)
    previous = _ACTIVE
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = previous
