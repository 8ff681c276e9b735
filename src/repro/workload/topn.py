"""Top-N% improvement curves and degradation statistics — the aggregate
measures Figures 2-4 of the paper report.

"Top N is defined as the N longest running queries without cost-based
transformation": queries are ranked by their *baseline* total run time,
the top fraction is kept, and the improvement is the aggregate ratio of
baseline to treated total time over that subset, expressed as a
percentage (the paper's "improved by 387%" style)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .runner import QueryOutcome

#: the fractions the paper's figures sweep
DEFAULT_FRACTIONS = (0.05, 0.10, 0.25, 0.50, 0.80, 1.00)


@dataclass
class CurvePoint:
    fraction: float
    n_queries: int
    baseline_total: float
    treated_total: float

    @property
    def improvement_percent(self) -> float:
        """(baseline/treated - 1) * 100 over the subset."""
        if self.treated_total <= 0:
            return 0.0
        return (self.baseline_total / self.treated_total - 1.0) * 100.0


def top_n_curve(
    outcomes: Sequence[QueryOutcome],
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
) -> list[CurvePoint]:
    """Improvement as a function of the top-N% most expensive queries."""
    ranked = sorted(
        outcomes, key=lambda o: o.baseline.total_time, reverse=True
    )
    points = []
    for fraction in fractions:
        count = max(1, int(round(len(ranked) * fraction)))
        subset = ranked[:count]
        points.append(
            CurvePoint(
                fraction,
                count,
                sum(o.baseline.total_time for o in subset),
                sum(o.treated.total_time for o in subset),
            )
        )
    return points


@dataclass
class DegradationStats:
    """The paper's "a small fraction, X%, of the affected queries
    degraded by Y%"."""

    n_total: int
    n_degraded: int
    degraded_percent_of_queries: float
    average_degradation_percent: float


def degradation_stats(
    outcomes: Sequence[QueryOutcome], threshold: float = 1.0
) -> DegradationStats:
    degraded = [o for o in outcomes if o.improvement_ratio < threshold]
    if degraded:
        base = sum(o.baseline.total_time for o in degraded)
        treated = sum(o.treated.total_time for o in degraded)
        average = (treated / base - 1.0) * 100.0 if base else 0.0
    else:
        average = 0.0
    n_total = len(outcomes)
    return DegradationStats(
        n_total,
        len(degraded),
        100.0 * len(degraded) / n_total if n_total else 0.0,
        average,
    )


def optimization_time_increase_percent(
    outcomes: Sequence[QueryOutcome],
) -> float:
    """Aggregate optimization-effort increase of treated over baseline,
    measured in join-order enumerations — the deterministic proxy for
    optimizer time.  Unlike states costed, this currency sees what cost
    annotations (§3.4.2) save: a block that an earlier state of the same
    search already optimized is reused and pays no enumeration, so the
    treated run can even pay fewer than the baseline.
    Charged at :data:`~repro.workload.runner.OPT_ENUMERATION_COST` work
    units per enumeration when a benchmark needs absolute numbers."""
    base = sum(max(o.baseline.opt_enumerations, 1) for o in outcomes)
    treated = sum(o.treated.opt_enumerations for o in outcomes)
    if base <= 0:
        return 0.0
    return (treated / base - 1.0) * 100.0


def summarize(outcomes: Sequence[QueryOutcome]) -> dict:
    """One-stop summary used by the benchmark reports."""
    curve = top_n_curve(outcomes)
    stats = degradation_stats(outcomes)
    return {
        "n_affected": len(outcomes),
        "overall_improvement_percent": curve[-1].improvement_percent,
        "curve": [
            (p.fraction, round(p.improvement_percent, 1)) for p in curve
        ],
        "degraded_query_percent": round(stats.degraded_percent_of_queries, 1),
        "average_degradation_percent": round(
            stats.average_degradation_percent, 1
        ),
        "optimization_time_increase_percent": round(
            optimization_time_increase_percent(outcomes), 1
        ),
    }
