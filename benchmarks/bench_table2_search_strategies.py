"""Table 2 — Increase in optimization time for the state-space search
techniques (§4.4).

The paper's query: three base tables and four unnestable subqueries (of
NOT IN / EXISTS / NOT EXISTS types), each subquery over three base
tables.  Expected state counts: Heuristic 1, Two-pass 2, Linear 5,
Exhaustive 16; optimization time grows in that order but stays tame
thanks to cost-annotation reuse."""

import time

import pytest

from repro import OptimizerConfig

from conftest import record_report

TABLE2_QUERY = """
SELECT e.employee_name, d.department_name, j.job_title
FROM employees e, departments d, job_history j
WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id
  AND e.job_id NOT IN (SELECT j2.job_id FROM job_history j2, departments d2,
                       locations l2 WHERE j2.dept_id = d2.dept_id
                       AND d2.loc_id = l2.loc_id AND l2.country_id = 2)
  AND EXISTS (SELECT 1 FROM job_history j3, departments d3, locations l3
              WHERE j3.emp_id = e.emp_id AND j3.dept_id = d3.dept_id
              AND d3.loc_id = l3.loc_id)
  AND NOT EXISTS (SELECT 1 FROM job_history j4, departments d4, locations l4
                  WHERE j4.emp_id = e.emp_id AND j4.dept_id = d4.dept_id
                  AND d4.loc_id = l4.loc_id AND l4.country_id = 3)
  AND e.dept_id IN (SELECT d5.dept_id FROM departments d5, locations l5,
                    countries c5 WHERE d5.loc_id = l5.loc_id
                    AND l5.country_id = c5.country_id AND c5.region_id = 1)
"""

MODES = [
    ("Heuristic", OptimizerConfig.heuristic_mode()),
    ("Two Pass", OptimizerConfig().with_strategy("two_pass")),
    ("Linear", OptimizerConfig().with_strategy("linear")),
    ("Exhaustive", OptimizerConfig().with_strategy("exhaustive")),
]


def run_mode(hr_db, config, repeats: int = 9):
    hr_db.optimize(TABLE2_QUERY, config)  # warm-up (caches, allocator)
    started = time.perf_counter()
    for _ in range(repeats):
        optimized = hr_db.optimize(TABLE2_QUERY, config)
    elapsed = (time.perf_counter() - started) / repeats
    # Table 2 counts the states of the *unnesting* search specifically.
    decision = optimized.report.decision_for("unnest_view")
    states = decision.states_evaluated if decision and not \
        optimized.report.heuristic_mode else 1
    return elapsed, states, optimized


@pytest.mark.benchmark(group="table2")
def test_table2_search_strategies(benchmark, hr_db):
    # interleaving would add a third alternative per aggregate subquery;
    # this query has none, so counts match the paper's binary bit-vector.
    def measure():
        return {
            name: run_mode(hr_db, config)[:2] for name, config in MODES
        }

    results = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [
        "Table 2. Optimization time and #states per search technique",
        "",
        f"  {'mode':<12} {'opt time':>10} {'#states':>8}   (paper: time / states)",
    ]
    paper = {
        "Heuristic": ("0.24 s", 1),
        "Two Pass": ("0.33 s", 2),
        "Linear": ("0.61 s", 5),
        "Exhaustive": ("0.97 s", 16),
    }
    for name, (elapsed, states) in results.items():
        p_time, p_states = paper[name]
        lines.append(
            f"  {name:<12} {elapsed:9.3f}s {states:8d}   ({p_time} / {p_states})"
        )
    metrics = {
        f"states_{name.lower().replace(' ', '_')}": states
        for name, (_elapsed, states) in results.items()
    }
    record_report(
        "Table 2 search strategies",
        "\n".join(lines),
        metrics=metrics,
    )

    # Shape assertions: the paper's state counts, exactly.
    assert results["Heuristic"][1] == 1
    assert results["Two Pass"][1] == 2
    assert results["Linear"][1] == 5
    assert results["Exhaustive"][1] == 16
    # Optimization effort is monotone in states (allow timing noise on
    # the two cheapest modes).
    assert results["Exhaustive"][0] > results["Two Pass"][0] * 0.8
    assert results["Exhaustive"][0] >= results["Linear"][0] * 0.5


@pytest.mark.benchmark(group="table2")
def test_table2_all_strategies_same_rows(benchmark, hr_db):
    def rows_per_mode():
        return {
            name: sorted(hr_db.execute(TABLE2_QUERY, config).rows)
            for name, config in MODES
        }

    rows = benchmark.pedantic(rows_per_mode, rounds=1, iterations=1)
    baseline = rows["Heuristic"]
    for name, got in rows.items():
        assert got == baseline, name
