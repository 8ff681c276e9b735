"""Figure 3 — unnesting disabled vs cost-based unnesting (§4.2).

Baseline: both unnesting transformations disabled entirely; subqueries
run under tuple-iteration semantics with correlation-value caching.
Treatment: cost-based unnesting.  The paper reports a ~387% average
improvement over the affected 5% of the workload, ~460% at the top 5%,
with ~15% of affected queries degrading ~50% and optimization time +31%.

Shape criteria: multiple-x improvement on affected queries; the benefit
*grows* toward the most expensive queries (TIS cost scales with outer
cardinality); optimization effort increases."""

import pytest

from repro import OptimizerConfig
from repro.workload import (
    degradation_stats,
    optimization_time_increase_percent,
    run_workload,
    top_n_curve,
)

from conftest import format_curve, record_report

UNNESTING = ("unnest_view", "subquery_merge")


@pytest.mark.benchmark(group="fig3")
def test_fig3_unnesting(benchmark, apps, complex_queries, mixed_queries):
    db, _schema = apps
    relevant = [
        q for q in list(complex_queries) + list(mixed_queries)
        if q.relevant & set(UNNESTING)
    ]
    assert len(relevant) >= 15

    def run():
        return run_workload(
            db, relevant,
            OptimizerConfig().without(*UNNESTING),
            OptimizerConfig(),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not result.errors, result.errors[:3]

    affected = result.affected()
    assert affected
    curve = top_n_curve(affected)
    stats = degradation_stats(affected)
    opt_increase = optimization_time_increase_percent(result.outcomes)

    report = format_curve(
        "Figure 3. Unnesting disabled vs cost-based unnesting, "
        "improvement over top-N% most expensive affected queries",
        curve,
        extra_lines=[
            "",
            f"  affected queries: {len(affected)} of {len(result.outcomes)}",
            f"  degraded: {stats.degraded_percent_of_queries:.0f}% of affected, "
            f"by {stats.average_degradation_percent:.0f}% on average",
            f"  optimization effort increase: {opt_increase:.0f}%",
            "",
            "  paper: +460% at top 5%, +387% average; 15% degraded ~50%; "
            "optimization time +31%",
        ],
    )
    record_report(
        "Figure 3 unnesting",
        report,
        metrics={
            "n_affected": len(affected),
            "top5_improvement_percent": round(curve[0].improvement_percent, 1),
            "overall_improvement_percent": round(
                curve[-1].improvement_percent, 1
            ),
            "degraded_query_percent": round(
                stats.degraded_percent_of_queries, 1
            ),
            "optimization_time_increase_percent": round(opt_increase, 1),
        },
    )

    overall = curve[-1].improvement_percent
    top5 = curve[0].improvement_percent
    # unnesting is the dominant win: multiple-x improvement
    assert overall > 100.0
    # and it benefits the most expensive queries more (paper's key shape)
    assert top5 >= overall
    assert stats.degraded_percent_of_queries < 50.0
    # unnesting removes subquery blocks, and annotations serve the
    # blocks a state leaves alone, so the treated parse runs at most a
    # little more join-order enumeration than the baseline (often less)
    assert opt_increase < 40.0
