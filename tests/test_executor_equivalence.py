"""Plan executor vs reference evaluator on a battery of query shapes.

Every query is optimized (heuristic + cost-based transformations all on),
executed through each engine (row-at-a-time, vectorized), and compared against the reference evaluator as an unordered multiset
(ordered where the query has a top-level ORDER BY).
"""

from collections import Counter

import pytest

from repro import OptimizerConfig

EXECUTORS = ("row", "vector")

QUERIES = [
    # scans and filters
    "SELECT emp_id FROM employees WHERE salary > 50",
    "SELECT emp_id FROM employees WHERE dept_id IS NULL",
    "SELECT emp_id FROM employees WHERE salary BETWEEN 20 AND 40",
    "SELECT emp_id FROM employees WHERE dept_id IN (1, 3, 5)",
    "SELECT emp_id, salary + 10 FROM employees WHERE MOD(salary, 2) = 0",
    # joins
    "SELECT e.emp_id, d.department_name FROM employees e, departments d "
    "WHERE e.dept_id = d.dept_id",
    "SELECT e.emp_id FROM employees e, departments d, locations l "
    "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id AND l.country_id = 1",
    "SELECT e.emp_id, j.job_title FROM employees e JOIN job_history j "
    "ON e.emp_id = j.emp_id AND j.start_date > 60",
    "SELECT e.emp_id, d.dept_id FROM employees e LEFT OUTER JOIN departments d "
    "ON e.dept_id = d.dept_id",
    "SELECT e.emp_id FROM employees e LEFT OUTER JOIN departments d "
    "ON e.dept_id = d.dept_id WHERE d.dept_id IS NULL",
    # self join
    "SELECT a.emp_id, b.emp_id FROM employees a, employees b "
    "WHERE a.mgr_id = b.emp_id AND b.salary > 70",
    # aggregation
    "SELECT dept_id, COUNT(emp_id), AVG(salary) FROM employees GROUP BY dept_id",
    "SELECT COUNT(*) FROM employees WHERE salary > 1000",
    "SELECT dept_id, SUM(salary) FROM employees GROUP BY dept_id "
    "HAVING SUM(salary) > 200",
    "SELECT d.loc_id, COUNT(e.emp_id) FROM departments d, employees e "
    "WHERE e.dept_id = d.dept_id GROUP BY d.loc_id",
    "SELECT MIN(salary), MAX(salary) FROM employees",
    "SELECT COUNT(DISTINCT dept_id) FROM employees",
    # distinct
    "SELECT DISTINCT dept_id FROM employees",
    "SELECT DISTINCT e.dept_id, j.job_title FROM employees e, job_history j "
    "WHERE e.emp_id = j.emp_id",
    # subqueries kept or unnested
    "SELECT e.emp_id FROM employees e WHERE EXISTS "
    "(SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id)",
    "SELECT e.emp_id FROM employees e WHERE NOT EXISTS "
    "(SELECT 1 FROM job_history j WHERE j.emp_id = e.emp_id AND j.job_title = 2)",
    "SELECT e.emp_id FROM employees e WHERE e.dept_id IN "
    "(SELECT d.dept_id FROM departments d WHERE d.loc_id = 2)",
    "SELECT e.emp_id FROM employees e WHERE e.dept_id NOT IN "
    "(SELECT d.dept_id FROM departments d WHERE d.loc_id = 2)",
    "SELECT e.emp_id FROM employees e WHERE e.mgr_id NOT IN "
    "(SELECT j.job_title FROM job_history j WHERE j.emp_id = e.emp_id)",
    "SELECT e.emp_id FROM employees e WHERE e.salary > "
    "(SELECT AVG(e2.salary) FROM employees e2 WHERE e2.dept_id = e.dept_id)",
    "SELECT e.emp_id FROM employees e WHERE e.salary > ALL "
    "(SELECT j.job_title FROM job_history j WHERE j.emp_id = e.emp_id)",
    "SELECT e.emp_id FROM employees e WHERE e.salary < ANY "
    "(SELECT j.start_date FROM job_history j WHERE j.emp_id = e.emp_id)",
    "SELECT e.emp_id, (SELECT COUNT(*) FROM job_history j "
    "WHERE j.emp_id = e.emp_id) FROM employees e WHERE e.salary > 80",
    # views
    "SELECT v.d, v.c FROM (SELECT dept_id AS d, COUNT(emp_id) AS c "
    "FROM employees GROUP BY dept_id) v WHERE v.c > 5",
    "SELECT e.emp_id, v.c FROM employees e, "
    "(SELECT dept_id AS d, COUNT(emp_id) AS c FROM employees "
    "GROUP BY dept_id) v WHERE e.dept_id = v.d AND e.salary > 60",
    "SELECT m.dept_id FROM departments m, (SELECT DISTINCT j.dept_id AS k "
    "FROM job_history j WHERE j.job_title > 5) v WHERE v.k = m.dept_id",
    # set operations
    "SELECT dept_id FROM employees UNION SELECT dept_id FROM departments",
    "SELECT dept_id FROM employees UNION ALL SELECT dept_id FROM job_history",
    "SELECT dept_id FROM employees MINUS SELECT dept_id FROM departments "
    "WHERE loc_id = 1",
    "SELECT dept_id FROM departments INTERSECT SELECT dept_id FROM employees "
    "WHERE salary > 50",
    # disjunction
    "SELECT e.emp_id FROM employees e, departments d WHERE "
    "e.dept_id = d.dept_id AND (d.loc_id = 1 OR e.salary > 80)",
    # order by / rownum
    "SELECT emp_id, salary FROM employees ORDER BY salary DESC, emp_id",
    "SELECT v.emp_id FROM (SELECT emp_id FROM employees "
    "ORDER BY salary DESC) v WHERE rownum <= 7",
    # windows
    "SELECT emp_id, AVG(salary) OVER (PARTITION BY dept_id) FROM employees",
    "SELECT emp_id, SUM(salary) OVER (PARTITION BY dept_id ORDER BY emp_id "
    "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) FROM employees",
    "SELECT emp_id, ROW_NUMBER() OVER (PARTITION BY dept_id ORDER BY salary) "
    "FROM employees",
    # case and expressions in grouping
    "SELECT CASE WHEN salary > 50 THEN 1 ELSE 0 END, COUNT(*) FROM employees "
    "GROUP BY CASE WHEN salary > 50 THEN 1 ELSE 0 END",
]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("sql", QUERIES, ids=range(len(QUERIES)))
def test_plan_matches_reference(tiny_db, sql, executor):
    expected = tiny_db.reference_execute(sql)
    result = tiny_db.execute(sql, OptimizerConfig(), executor=executor)
    assert result.exec_stats.executor_mode == executor
    if "ORDER BY" in sql and "(" not in sql.split("ORDER BY")[0][-20:]:
        assert result.rows == expected
    else:
        assert Counter(result.rows) == Counter(expected)


@pytest.mark.parametrize("sql", QUERIES[:24], ids=range(24))
def test_heuristic_mode_matches_reference(tiny_db, sql):
    expected = Counter(tiny_db.reference_execute(sql))
    result = tiny_db.execute(sql, OptimizerConfig.heuristic_mode())
    assert Counter(result.rows) == expected


def test_rownum_view_returns_top_rows(tiny_db):
    result = tiny_db.execute(
        "SELECT v.salary FROM (SELECT salary FROM employees "
        "ORDER BY salary DESC) v WHERE rownum <= 3"
    )
    top3 = sorted(
        (r["salary"] for r in tiny_db.storage.get("employees").rows),
        reverse=True,
    )[:3]
    assert sorted((r[0] for r in result.rows), reverse=True) == top3


def test_work_units_track_estimates(tiny_db):
    """Estimated cost and measured work should be within an order of
    magnitude for a plain join (same currency)."""
    result = tiny_db.execute(
        "SELECT e.emp_id FROM employees e, departments d "
        "WHERE e.dept_id = d.dept_id"
    )
    estimate = result.plan.cost
    measured = result.exec_stats.work_units
    assert measured > 0
    assert 0.1 < estimate / measured < 10.0


def test_multi_item_not_in_null_aware(tiny_db):
    """(a, b) NOT IN (...) with NULLs on both sides: a FALSE component
    must beat an UNKNOWN one (regression for hash ANTI_NA keys)."""
    from collections import Counter

    sql = (
        "SELECT e.emp_id FROM employees e WHERE (e.dept_id, e.mgr_id) "
        "NOT IN (SELECT j.dept_id, j.job_title FROM job_history j)"
    )
    expected = Counter(tiny_db.reference_execute(sql))
    got = Counter(tiny_db.execute(sql).rows)
    assert got == expected


def test_multi_item_in_semijoin(tiny_db):
    from collections import Counter

    sql = (
        "SELECT e.emp_id FROM employees e WHERE (e.dept_id, e.mgr_id) "
        "IN (SELECT j.dept_id, j.job_title FROM job_history j)"
    )
    expected = Counter(tiny_db.reference_execute(sql))
    got = Counter(tiny_db.execute(sql).rows)
    assert got == expected


EXTRA_QUERIES = [
    # LEFT-joined derived views (JPPD may make them lateral)
    "SELECT e.emp_id, v.c FROM employees e LEFT OUTER JOIN "
    "(SELECT j.emp_id AS k, COUNT(*) AS c FROM job_history j "
    "GROUP BY j.emp_id) v ON v.k = e.emp_id",
    "SELECT e.emp_id FROM employees e LEFT OUTER JOIN "
    "(SELECT DISTINCT j.dept_id AS k FROM job_history j "
    "WHERE j.job_title > 4) v ON v.k = e.dept_id WHERE v.k IS NULL",
    # UNION (dedup) view joined to a table
    "SELECT e.emp_id FROM employees e, "
    "(SELECT dept_id AS k FROM departments UNION "
    "SELECT dept_id AS k FROM job_history) v WHERE e.dept_id = v.k "
    "AND e.salary > 75",
    # nested set operations
    "SELECT dept_id FROM employees INTERSECT "
    "(SELECT dept_id FROM departments MINUS "
    "SELECT dept_id FROM job_history WHERE job_title = 1)",
    # correlated EXISTS inside a view
    "SELECT v.emp_id FROM (SELECT e.emp_id, e.dept_id FROM employees e "
    "WHERE EXISTS (SELECT 1 FROM job_history j "
    "WHERE j.emp_id = e.emp_id)) v WHERE v.dept_id = 3",
    # aggregate over a union-all view
    "SELECT v.k, COUNT(*) FROM (SELECT dept_id AS k FROM employees "
    "UNION ALL SELECT dept_id AS k FROM job_history) v GROUP BY v.k",
]


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("sql", EXTRA_QUERIES, ids=range(len(EXTRA_QUERIES)))
def test_extra_shapes_match_reference(tiny_db, sql, executor):
    expected = Counter(tiny_db.reference_execute(sql))
    got = tiny_db.execute(sql, executor=executor)
    assert Counter(got.rows) == expected


@pytest.mark.parametrize("sql", QUERIES[:12], ids=range(12))
def test_executors_agree_on_plan_and_work(tiny_db, sql):
    """All three engines must run the *same* chosen plan, produce the
    same row multiset, and charge the same deterministic work units
    (modulo float summation order)."""
    import math

    runs = {
        mode: tiny_db.execute(sql, executor=mode) for mode in EXECUTORS
    }
    plans = {r.plan.describe() for r in runs.values()}
    assert len(plans) == 1, "executor choice must not affect the plan"
    base = runs["row"]
    assert Counter(runs["vector"].rows) == Counter(base.rows)
    assert math.isclose(
        runs["vector"].exec_stats.work_units,
        base.exec_stats.work_units,
        rel_tol=1e-9,
    ), (runs["vector"].exec_stats.work_units, base.exec_stats.work_units)
