"""EXPLAIN rendering helpers: unified annotation lines and EXPLAIN
ANALYZE (estimated vs. actual) output.

Two jobs:

* :func:`annotation_lines` is the single place the ``-- xxx:`` header
  lines of every explain surface are assembled (the Database facade,
  the shell, and EXPLAIN ANALYZE all render through it, so degradation,
  quarantine, governor, and sanitizer annotations stay consistent);
* :func:`format_explain_analyze` renders a plan with per-operator
  estimated rows, actual rows, invocation counts, wall-clock self-time,
  and Q-error (``q=-`` where the consumer stops early), plus a
  plan-level max-Q-error summary — the
  estimated-vs-actual feedback loop industrial optimizers audit plans
  with.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..optimizer.plans import Limit, NestedLoopJoin, Plan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cbqt.framework import OptimizationReport
    from ..engine.executor import ExecStats


def annotation_lines(
    report: "OptimizationReport", cache_status: Optional[str] = None
) -> list[str]:
    """The ``-- xxx:`` header lines for one optimized query, in the
    canonical order: cache disposition (when known), transformed SQL,
    degradation, quarantine, governor, sanitizer findings."""
    lines = []
    if cache_status is not None:
        lines.append(f"-- cache: {cache_status}")
    lines.append(f"-- transformed: {report.transformed_sql}")
    if report.degradation is not None:
        lines.append(f"-- degraded: {report.degradation.describe()}")
    if report.quarantined:
        lines.append(f"-- quarantined: {', '.join(report.quarantined)}")
    if report.governor is not None and report.governor.exhausted:
        lines.append(f"-- governor: {report.governor.describe()}")
    # paranoid-mode findings (errors raise before explain is reachable,
    # so anything surviving into the report is a warning)
    lines.extend(f"-- check: {d.format()}" for d in report.diagnostics)
    return lines


def qerror(estimated: float, actual: float) -> float:
    """The Q-error of one cardinality estimate: the factor by which the
    estimate misses the observation, symmetric in direction and floored
    at one row on both sides (so empty results stay finite)."""
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


#: nested-loop joins that stop probing their inner at the first match
EARLY_STOP_JOINS = ("SEMI", "ANTI", "ANTI_NA")


def operator_profiles(plan: "Plan", stats: "ExecStats") -> list[dict]:
    """Per-operator estimated-vs-actual profile, pre-order.

    Each entry: ``plan``, ``depth``, ``label``, ``estimated`` (rows per
    invocation), ``actual`` (rows over all invocations), ``qerror``,
    ``invocations``, ``self_seconds`` (inclusive time minus direct
    children's inclusive time; 0.0 when the run was not profiled).

    The Q-error compares ``estimated`` times the invocations with
    ``actual``.  It is None for an operator whose consumer stops reading
    early — the inner of a SEMI/ANTI nested loop, anything under COUNT
    STOPKEY — since its actual rows say nothing about its estimate."""
    profiles: list[dict] = []
    node_rows = stats.node_rows
    node_invocations = stats.node_invocations
    node_seconds = stats.node_seconds

    def visit(node: "Plan", depth: int, scored: bool) -> None:
        children = node.children()
        inclusive = node_seconds.get(id(node), 0.0)
        child_time = sum(node_seconds.get(id(c), 0.0) for c in children)
        actual = node_rows.get(id(node), 0)
        invocations = node_invocations.get(id(node), 0)
        profiles.append({
            "plan": node,
            "depth": depth,
            "label": node.label(),
            "estimated": node.cardinality,
            "actual": actual,
            "qerror": (
                qerror(node.cardinality * max(invocations, 1), actual)
                if scored else None
            ),
            "invocations": invocations,
            "self_seconds": max(inclusive - child_time, 0.0),
        })
        scored = scored and not isinstance(node, Limit)
        early_stopped = (
            node.right
            if isinstance(node, NestedLoopJoin)
            and node.join_type in EARLY_STOP_JOINS
            else None
        )
        for child in children:
            visit(child, depth + 1, scored and child is not early_stopped)

    visit(plan, 0, True)
    return profiles


def format_explain_analyze(
    plan: "Plan", stats: "ExecStats", timing: bool = True
) -> str:
    """EXPLAIN ANALYZE rendering: the operator tree with estimated and
    actual rows, Q-error, invocation counts, and (when *timing*)
    wall-clock self-time per operator, followed by a plan-level summary.

    With ``timing=False`` the output is fully deterministic — the golden
    tests rely on that."""
    profiles = operator_profiles(plan, stats)
    lines = []
    for profile in profiles:
        q = profile["qerror"]
        detail = (
            f"est={profile['estimated']:.0f} actual={profile['actual']} "
            f"q={'-' if q is None else f'{q:.2f}'} "
            f"invocations={profile['invocations']}"
        )
        if timing:
            detail += f" self={profile['self_seconds'] * 1000:.1f}ms"
        lines.append("  " * profile["depth"] + f"{profile['label']}  ({detail})")
    # the root is always scored
    worst = max(
        (p for p in profiles if p["qerror"] is not None),
        key=lambda p: p["qerror"],
    )
    lines.append(
        f"-- max q-error: {worst['qerror']:.2f} at {worst['label']}"
    )
    lines.append(f"-- actual rows out: {stats.rows_out}")
    return "\n".join(lines)
