"""Optimizer resilience layer: never fail a statement the engine could
have run unoptimized.

Production optimizers are judged on robustness as much as plan quality —
one buggy rewrite or pathological search must not abort a statement the
engine could execute with a simpler plan.  This package supplies the
four safeguards, plus the harness that proves them:

* :class:`~repro.resilience.governor.SearchGovernor` — per-statement
  wall-clock deadline and cost-estimation budget for the CBQT search;
  exhaustion returns the best-so-far plan instead of raising;
* the **degradation ladder** (driven by ``Database.optimize_tree``) — on
  a typed error from a transformation or the search, retry full CBQT
  with the blamed transformation discarded, then heuristic-only, then
  the untransformed plan, recording the reason in explain output and
  service metrics;
* :class:`~repro.resilience.quarantine.QuarantineRegistry` — a
  transformation failing repeatedly (per statement signature or
  globally) is disabled for subsequent parses, fix-control style,
  inspectable and resettable at runtime;
* :class:`~repro.resilience.cancel.CancelToken` — statement timeouts and
  cooperative ``Cursor.cancel()`` threaded through the optimizer and the
  executor's row loops;
* :mod:`~repro.resilience.faults` — a deterministic, seed-driven
  fault-injection harness over named injection points (every
  transformation, costing, every executor operator, the plan cache) used
  by the chaos suite to prove each fault yields a correct result via
  fallback or a clean typed error — never a wrong answer or a hang.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .. import env
from ..errors import ReproError
from .cancel import CancelToken, activate, current_token
from .faults import (
    FaultInjector,
    FaultSpec,
    inject,
    injection_points,
)
from .governor import GovernorStats, SearchGovernor
from .quarantine import QuarantineRegistry


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer (one per safeguard)."""

    #: degradation ladder: recover from optimizer errors by retrying at
    #: lower optimization levels instead of failing the statement
    fallback: bool = field(
        default_factory=lambda: env.flag("REPRO_FALLBACK", True)
    )
    #: search governor wall-clock deadline per statement (seconds)
    governor_deadline: Optional[float] = None
    #: search governor budget on cost estimations per statement
    governor_max_states: Optional[int] = None
    #: failures of one transformation on one statement signature before
    #: it is quarantined for that statement
    quarantine_statement_threshold: int = 3
    #: total failures of one transformation before it is quarantined
    #: globally
    quarantine_global_threshold: int = 12


@dataclass
class DegradationInfo:
    """How a statement was rescued by the degradation ladder."""

    #: level that finally succeeded: "cbqt-discard" (full CBQT with the
    #: blamed transformations disabled), "heuristic", or "untransformed"
    level: str
    #: the failure that triggered the final fallback step
    reason: str
    #: transformation names blamed and discarded on the way down
    blamed: list[str] = field(default_factory=list)
    #: optimization attempts spent (including the one that succeeded)
    attempts: int = 1
    #: every failure seen while descending the ladder
    errors: list[str] = field(default_factory=list)

    def describe(self) -> str:
        blamed = f" blamed={','.join(self.blamed)}" if self.blamed else ""
        return f"{self.level} after {self.attempts} attempts{blamed}; {self.reason}"


@contextmanager
def blame(transformation: str) -> Iterator[None]:
    """Attribute any :class:`ReproError` escaping the block to
    *transformation* (innermost attribution wins) so the degradation
    ladder and quarantine know which rewrite to discard."""
    try:
        yield
    except ReproError as exc:
        if getattr(exc, "transformation", None) is None:
            exc.transformation = transformation  # type: ignore[attr-defined]
        raise


__all__ = [
    "CancelToken",
    "DegradationInfo",
    "FaultInjector",
    "FaultSpec",
    "GovernorStats",
    "QuarantineRegistry",
    "ResilienceConfig",
    "SearchGovernor",
    "activate",
    "blame",
    "current_token",
    "inject",
    "injection_points",
]
