"""The §3.4.1 cost cut-off never prunes a state cheaper than its budget.

The physical optimizer hands a state's budget only to nested plans whose
whole cost is a summand of the state's cost (``optimizer/physical.py``).
So a state it aborts really costs more than the best state costed before
it, and for a search that compares each state with that incumbent the
cut-off changes no decision: cut-off on and off choose the same plan, to
the last bit of its cost.

Iterative improvement also compares a neighbour with the *current*
state, which can itself have been pruned, so there a sound cut-off can
still change the walk (``ITERATIVE_WALK`` below).  The budget itself is
checked under every strategy by
``test_a_pruned_state_costs_more_than_its_budget``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import OptimizerConfig
from repro.cbqt.search import STRATEGIES
from repro.optimizer.physical import CostBudgetExceeded, PhysicalOptimizer
from repro.workload import MixWeights, QueryGenerator, hr_database
from repro.workload.plan_digest import structural_digest

from .test_workload_equivalence import _small_apps

CLASSES = [name for name, _w in MixWeights().items() if name != "spj"]

#: positions in the class suite where a cut-off that budgeted per-probe
#: and cache-scaled subplans chose a costlier plan (JPPD pruned at 401.80
#: and 439.10 whose trees cost 28.61; one 28.80 against 28.60)
PRUNED_CHEAPER = (32, 85, 89)

#: ``optimize_deep`` statements (seed 11) that chose a costlier plan on
#: ``hr_database(1, 42)`` with annotation reuse off, cost on -> off:
#: 2,624 -> 260, 678 -> 228, 708 -> 270, 4,018 -> 1,235, 1,382 -> 576
DEEP = [
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id "
    "AND NOT EXISTS (SELECT 1 FROM job_history j2, departments d2, locations l2 "
    "WHERE d2.dept_id = e.dept_id AND j2.dept_id = d2.dept_id "
    "AND d2.loc_id = l2.loc_id AND l2.country_id <= 6) "
    "AND NOT EXISTS (SELECT 1 FROM departments d3, locations l3, countries c3 "
    "WHERE l3.loc_id = d.loc_id AND d3.loc_id = l3.loc_id "
    "AND l3.country_id = c3.country_id AND c3.region_id = 1) "
    "AND NOT EXISTS (SELECT 1 FROM departments d4, locations l4, countries c4 "
    "WHERE l4.loc_id = d.loc_id AND d4.loc_id = l4.loc_id "
    "AND l4.country_id = c4.country_id AND c4.region_id <= 2) "
    "AND NOT EXISTS (SELECT 1 FROM job_history j5, jobs b5, employees e5 "
    "WHERE b5.job_id = j.job_id AND j5.job_id = b5.job_id "
    "AND j5.emp_id = e5.emp_id AND e5.salary < 15700) "
    "AND e.dept_id IN (SELECT d6.dept_id FROM employees e6, departments d6, "
    "locations l6 WHERE e6.dept_id = d6.dept_id AND d6.loc_id = l6.loc_id "
    "AND e6.salary > 19700)",
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id AND d.loc_id <= 15 "
    "AND j.job_id IN (SELECT b2.job_id FROM job_history j2, jobs b2, employees e2 "
    "WHERE j2.job_id = b2.job_id AND j2.emp_id = e2.emp_id "
    "AND b2.min_salary > 7000) "
    "AND e.emp_id IN (SELECT j3.emp_id FROM job_history j3, jobs b3, employees e3 "
    "WHERE j3.job_id = b3.job_id AND j3.emp_id = e3.emp_id AND e3.salary < 8900) "
    "AND NOT EXISTS (SELECT 1 FROM departments d4, locations l4, countries c4 "
    "WHERE l4.loc_id = d.loc_id AND d4.loc_id = l4.loc_id "
    "AND l4.country_id = c4.country_id AND c4.region_id <= 2) "
    "AND e.emp_id NOT IN (SELECT j5.emp_id FROM job_history j5, jobs b5, "
    "employees e5 WHERE j5.job_id = b5.job_id AND j5.emp_id = e5.emp_id "
    "AND b5.min_salary > 11000)",
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id "
    "AND e.job_id NOT IN (SELECT j2.job_id FROM job_history j2, departments d2, "
    "locations l2 WHERE j2.dept_id = d2.dept_id AND d2.loc_id = l2.loc_id "
    "AND l2.country_id <= 4) "
    "AND NOT EXISTS (SELECT 1 FROM departments d3, locations l3, countries c3 "
    "WHERE l3.loc_id = d.loc_id AND d3.loc_id = l3.loc_id "
    "AND l3.country_id = c3.country_id AND c3.region_id <= 3) "
    "AND EXISTS (SELECT 1 FROM departments d4, locations l4, countries c4 "
    "WHERE l4.loc_id = d.loc_id AND d4.loc_id = l4.loc_id "
    "AND l4.country_id = c4.country_id AND c4.region_id = 4)",
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id "
    "AND j.start_date > '2002-01-01' "
    "AND e.dept_id IN (SELECT d2.dept_id FROM departments d2, locations l2, "
    "countries c2 WHERE d2.loc_id = l2.loc_id AND l2.country_id = c2.country_id "
    "AND c2.region_id <= 2) "
    "AND j.job_id NOT IN (SELECT b3.job_id FROM job_history j3, jobs b3, "
    "employees e3 WHERE j3.job_id = b3.job_id AND j3.emp_id = e3.emp_id "
    "AND b3.min_salary > 9000) "
    "AND EXISTS (SELECT 1 FROM departments d4, locations l4, countries c4 "
    "WHERE l4.loc_id = d.loc_id AND d4.loc_id = l4.loc_id "
    "AND l4.country_id = c4.country_id AND c4.region_id = 3)",
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id AND e.salary > 13200 "
    "AND EXISTS (SELECT 1 FROM employees e2, departments d2, locations l2 "
    "WHERE e2.emp_id = j.emp_id AND e2.dept_id = d2.dept_id "
    "AND d2.loc_id = l2.loc_id AND e2.salary > 13600) "
    "AND EXISTS (SELECT 1 FROM departments d3, locations l3, countries c3 "
    "WHERE l3.loc_id = d.loc_id AND d3.loc_id = l3.loc_id "
    "AND l3.country_id = c3.country_id AND c3.region_id = 4) "
    "AND e.emp_id NOT IN (SELECT j4.emp_id FROM job_history j4, departments d4, "
    "locations l4 WHERE j4.dept_id = d4.dept_id AND d4.loc_id = l4.loc_id)",
]

#: seed-11 statement #84: five unnesting objects, so iterative search.
#: Its random restart lands on a state the cut-off prunes, and from an
#: unknown (infinite) cost every costed neighbour is an improvement; the
#: walk differs from the one without the cut-off, and here it ends
#: cheaper (3,851 on, 7,587 off)
ITERATIVE_WALK = (
    "SELECT e.employee_name, d.department_name, j.job_title "
    "FROM employees e, departments d, job_history j "
    "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id AND d.loc_id <= 21 "
    "AND d.loc_id IN (SELECT l2.loc_id FROM departments d2, locations l2, "
    "countries c2 WHERE d2.loc_id = l2.loc_id AND l2.country_id = c2.country_id "
    "AND c2.region_id <= 2) "
    "AND EXISTS (SELECT 1 FROM job_history j3, jobs b3, employees e3 "
    "WHERE b3.job_id = j.job_id AND j3.job_id = b3.job_id "
    "AND j3.emp_id = e3.emp_id AND e3.salary < 10200) "
    "AND d.loc_id IN (SELECT l4.loc_id FROM departments d4, locations l4, "
    "countries c4 WHERE d4.loc_id = l4.loc_id AND l4.country_id = c4.country_id "
    "AND c4.region_id <= 1) "
    "AND NOT EXISTS (SELECT 1 FROM job_history j5, departments d5, locations l5 "
    "WHERE d5.dept_id = e.dept_id AND j5.dept_id = d5.dept_id "
    "AND d5.loc_id = l5.loc_id AND l5.country_id <= 2) "
    "AND e.dept_id IN (SELECT d6.dept_id FROM employees e6, departments d6, "
    "locations l6 WHERE e6.dept_id = d6.dept_id AND d6.loc_id = l6.loc_id "
    "AND e6.salary > 18900 AND l6.country_id <= 4)"
)


def _config(cutoff, reuse=True, strategy=None):
    config = OptimizerConfig().with_strategy(strategy)
    return dataclasses.replace(
        config,
        annotation_reuse=reuse,
        cbqt=dataclasses.replace(config.cbqt, cost_cutoff=cutoff),
    )


def _chosen(db, sql, config):
    plan = db.optimize(sql, config).plan
    return structural_digest(plan), repr(plan.cost)


def _assert_cutoff_changes_nothing(db, statements, reuse=True, strategy=None):
    on, off = _config(True, reuse, strategy), _config(False, reuse, strategy)
    differ = [
        i for i, sql in enumerate(statements)
        if _chosen(db, sql, on) != _chosen(db, sql, off)
    ]
    assert differ == []


@pytest.fixture(scope="module")
def class_suite():
    """240 generated queries: five of every non-SPJ class, seeds 77-80."""
    db, schema = _small_apps()
    statements = []
    for seed in (77, 78, 79, 80):
        generator = QueryGenerator(schema, seed=seed)
        statements.extend(
            generator.generate_class(name).sql
            for name in CLASSES for _ in range(5)
        )
    return db, statements


@pytest.fixture(scope="module")
def hr():
    return hr_database(scale=1, seed=42)


def test_class_suite_cutoff_changes_no_plan(class_suite):
    db, statements = class_suite
    assert len(statements) == 240
    _assert_cutoff_changes_nothing(db, statements)


@pytest.mark.parametrize("reuse", [True, False], ids=["reuse", "no_reuse"])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_cutoff_changes_no_plan_under_every_strategy(class_suite, strategy, reuse):
    db, statements = class_suite
    _assert_cutoff_changes_nothing(
        db, [statements[i] for i in PRUNED_CHEAPER], reuse, strategy
    )


def test_deep_statements_cutoff_changes_no_plan(hr):
    # annotation reuse off: an annotation made before the budget
    # tightened would otherwise serve a subplan the budget aborts
    _assert_cutoff_changes_nothing(hr, DEEP, reuse=False)


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_a_pruned_state_costs_more_than_its_budget(
    class_suite, hr, monkeypatch, strategy
):
    optimize = PhysicalOptimizer.optimize
    pruned: list[tuple[float, float]] = []

    def checked(self, node, budget=None):
        try:
            return optimize(self, node, budget)
        except CostBudgetExceeded:
            pruned.append((optimize(self, node).cost, budget))
            raise

    monkeypatch.setattr(PhysicalOptimizer, "optimize", checked)
    db, statements = class_suite
    config = _config(True, reuse=False, strategy=strategy)
    for sql in [statements[i] for i in PRUNED_CHEAPER]:
        db.optimize(sql, config)
    for sql in DEEP + [ITERATIVE_WALK]:
        hr.optimize(sql, config)
    assert pruned
    assert [(cost, budget) for cost, budget in pruned if cost <= budget] == []
