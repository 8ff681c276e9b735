"""Exact-equality golden over the optimizer's deterministic outputs.

``tests/golden/plan_digests.json`` pins the *shape* of each chosen plan;
this golden also pins what a "pure speed-up" of the optimizer must not
move: the chosen plan's cost to the last float bit, the number of CBQT
states costed and the number of join-order enumerations — for the
twelve paper queries and the Table 2 query, under all four search
strategies (the ``memo_off`` leg).  The ``classes_memo_off`` leg adds
five generated queries of every non-SPJ workload class
(:mod:`repro.workload.querygen`) under the default strategy, so shapes
beyond the paper's own queries are pinned too.  The leg names say that
no plan is reused across statements; the two tests below hold the
optimizer to that.

Regenerate (only when a change is *meant* to alter plans or counts)::

    PYTHONPATH=src python -m tests.test_optimizer_counts
"""

from __future__ import annotations

import json
import os

import pytest

from repro import OptimizerConfig
from repro.cbqt.search import STRATEGIES
from repro.optimizer.physical import PhysicalOptimizer
from repro.workload import (
    MixWeights,
    QueryGenerator,
    apps_database,
    hr_database,
    register_workload_functions,
)
from repro.workload.plan_digest import structural_digest

from . import conftest  # noqa: F401  (suite-wide REPRO_* defaults)
from .paper_queries import ALL_RUNNABLE, TABLE2
from .test_workload_equivalence import _small_apps

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "optimizer_counts.json")


def compute_counts() -> dict[str, list]:
    """``"<query>/<strategy>" -> [digest, repr(cost), states, join orders]``
    on one fresh HR database, in sorted order."""
    db = hr_database(scale=1, seed=42)
    queries = dict(ALL_RUNNABLE, TABLE2=TABLE2)
    counts: dict[str, list] = {}
    for name in sorted(queries):
        for strategy in sorted(STRATEGIES):
            config = OptimizerConfig().with_strategy(strategy)
            optimized = db.optimize(queries[name], config)
            counts[f"{name}/{strategy}"] = [
                structural_digest(optimized.plan),
                repr(optimized.plan.cost),
                optimized.report.total_states,
                optimized.counters.join_orders_considered,
            ]
    return counts


#: generated queries pinned per non-SPJ workload class
QUERIES_PER_CLASS = 5


def compute_class_counts() -> dict[str, list]:
    """``"<class>/<i>" -> [digest, repr(cost), states, join orders]`` for
    :data:`QUERIES_PER_CLASS` generated queries of every workload class
    except plain select-project-join, on one fresh fixed-seed apps
    database, optimized in class order with the default strategy."""
    db, schema = apps_database(
        seed=13,
        modules=("hr", "oe"),
        masters_per_module=2,
        details_per_module=2,
        histories_per_module=1,
        master_rows=30,
        detail_rows=250,
        history_rows=500,
    )
    register_workload_functions(db)
    generator = QueryGenerator(schema, seed=101)
    config = OptimizerConfig()
    counts: dict[str, list] = {}
    for query_class, _weight in MixWeights().items():
        if query_class == "spj":
            continue
        for i in range(QUERIES_PER_CLASS):
            query = generator.generate_class(query_class)
            optimized = db.optimize(query.sql, config)
            counts[f"{query_class}/{i}"] = [
                structural_digest(optimized.plan),
                repr(optimized.plan.cost),
                optimized.report.total_states,
                optimized.counters.join_orders_considered,
            ]
    return counts


LEGS = {
    "memo_off": compute_counts,
    "classes_memo_off": compute_class_counts,
}


@pytest.mark.parametrize("leg", sorted(LEGS))
def test_counts_match_golden(leg):
    with open(GOLDEN) as handle:
        golden = json.load(handle)[leg]
    counts = LEGS[leg]()
    assert sorted(counts) == sorted(golden)
    changed = {k: (golden[k], v) for k, v in counts.items() if golden[k] != v}
    assert not changed


def _digest_and_cost(optimized) -> tuple[str, str]:
    return structural_digest(optimized.plan), repr(optimized.plan.cost)


def test_plans_do_not_depend_on_earlier_statements():
    """A statement gets the same plan on a database that has already
    optimized many others as on a freshly built one.  Positions 45 and
    178 of this sequence are ``groupby_view`` queries whose plan and cost
    would change if anything planned for an earlier statement were
    reused."""
    db, schema = _small_apps()
    classes = [name for name, _weight in MixWeights().items()]
    sqls = []
    for seed in (77, 78, 79, 80):
        generator = QueryGenerator(schema, seed)
        for i in range(60):
            sqls.append(generator.generate_class(classes[i % len(classes)]).sql)
    warm = [_digest_and_cost(db.optimize(sql)) for sql in sqls]
    for position in (45, 178):
        fresh_db, _schema = _small_apps()
        fresh = _digest_and_cost(fresh_db.optimize(sqls[position]))
        assert warm[position] == fresh, position


#: ``optimize_deep`` statement #6 at seed 11: two subqueries over the same
#: three-table join core, one of them correlated
DEEP_6 = (
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id "
    "AND j.start_date > '1996-01-01' "
    "AND d.loc_id NOT IN (SELECT l2.loc_id "
    "FROM departments d2, locations l2, countries c2 "
    "WHERE d2.loc_id = l2.loc_id AND l2.country_id = c2.country_id "
    "AND c2.region_id <= 1) "
    "AND EXISTS (SELECT 1 FROM departments d3, locations l3, countries c3 "
    "WHERE l3.loc_id = d.loc_id AND d3.loc_id = l3.loc_id "
    "AND l3.country_id = c3.country_id AND c3.region_id = 3)"
)


def test_reported_cost_is_the_cost_of_the_returned_tree():
    """The cost a statement reports is what planning its final tree from
    scratch gives, not a cost carried over from some other tree."""
    db = hr_database(scale=1, seed=42)
    optimized = db.optimize(DEEP_6)
    fresh = PhysicalOptimizer(db.catalog, db.statistics).optimize(
        optimized.tree
    )
    assert optimized.plan.cost == fresh.cost


if __name__ == "__main__":
    with open(GOLDEN, "w") as out:
        json.dump(
            {leg: compute() for leg, compute in LEGS.items()},
            out, indent=1, sort_keys=True,
        )
        out.write("\n")
    print(f"golden file updated: {GOLDEN}")
