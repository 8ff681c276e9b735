"""Each conjunct of a block is applied at exactly one operator.

An access path that already applies a conjunct (an index probe's bound
conjunct, or a scan / post filter on the joined item's own columns) must
not have it applied again at the join: the join would charge the
conjunct's selectivity a second time and underestimate its rows.  The
plan verifier's ``plan.conjunct-placement`` rule checks the same
contract on a finished plan.
"""

from __future__ import annotations

from repro import PlanVerifier
from repro.optimizer.plans import IndexScan, Join, NestedLoopJoin
from repro.sql.render import render_expr

#: the paper's Q2: the EXISTS becomes a semijoin whose ON condition the
#: inner index probe (``e.dept_id``) and its post filter (``e.salary``)
#: apply in full
Q2 = (
    "SELECT d.department_name FROM departments d "
    "WHERE EXISTS (SELECT 1 FROM employees e "
    "WHERE e.dept_id = d.dept_id AND e.salary > 20000)"
)

#: a LEFT join whose ON conjunct the inner index probe binds
LEFT = (
    "SELECT e.emp_id, j.job_title FROM employees e "
    "LEFT JOIN job_history j ON j.emp_id = e.emp_id "
    "WHERE e.salary > 29000"
)


def _only_join(plan) -> Join:
    (join,) = [node for node in plan.walk() if isinstance(node, Join)]
    return join


def test_semijoin_estimate_is_not_charged_twice(hr_db):
    plan = hr_db.optimize(Q2).plan
    returned = len(hr_db.execute(Q2).rows)
    assert returned == 40
    join = _only_join(plan)
    assert join.join_type == "SEMI"
    assert join.cardinality >= 0.5 * returned


def test_left_join_estimate_is_not_charged_twice(hr_db):
    plan = hr_db.optimize(LEFT).plan
    returned = len(hr_db.execute(LEFT).rows)
    assert returned == 93
    join = _only_join(plan)
    assert join.join_type == "LEFT"
    assert join.cardinality >= 0.5 * returned


def test_no_join_reapplies_what_its_inner_path_applies(hr_db):
    plan = hr_db.optimize(LEFT).plan
    joins = [node for node in plan.walk() if isinstance(node, Join)]
    assert any(isinstance(join.right, IndexScan) for join in joins)
    for join in joins:
        # by text: a copy of a conjunct is the same conjunct applied twice
        inner = set(map(render_expr, join.right.applied_conjuncts()))
        assert not inner & set(map(render_expr, join.applied_conjuncts()))


def test_verifier_catches_a_covered_conjunct_reapplied_at_the_join(hr_db):
    plan = hr_db.optimize(LEFT).plan
    assert PlanVerifier().verify(plan) == []
    join = _only_join(plan)
    assert isinstance(join, NestedLoopJoin)
    scan = join.right
    assert isinstance(scan, IndexScan) and scan.covered_conjuncts
    join.conjuncts = join.conjuncts + [scan.covered_conjuncts[0]]
    rules = [d.rule for d in PlanVerifier().verify(plan)]
    assert rules == ["plan.conjunct-placement"]
