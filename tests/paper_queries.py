"""The paper's worked example queries (Q1-Q17), adapted to the HR demo
schema exactly as :mod:`repro.workload.schemas` defines it.

Differences from the paper's listings are mechanical: string literals for
dates use ISO format, and Q7's window query runs over the ``accounts``
table the paper describes.  Q3/Q6/Q8/Q10/Q11/Q13/Q15/Q17/Q18 are the
paper's *transformed* forms — tests assert that our transformations
produce trees with the corresponding shape, not these exact strings.
"""

# Q1: both subqueries (correlated aggregate + IN) — the running example.
Q1 = """
SELECT e1.employee_name, j.job_title
FROM employees e1, job_history j
WHERE e1.emp_id = j.emp_id AND
  j.start_date > '1998-01-01' AND
  e1.salary > (SELECT AVG(e2.salary)
               FROM employees e2
               WHERE e2.dept_id = e1.dept_id) AND
  e1.dept_id IN (SELECT d.dept_id
                 FROM departments d, locations l
                 WHERE d.loc_id = l.loc_id AND l.country_id = 1)
"""

# Q2: single-table EXISTS -> semijoin (imperative unnesting).
Q2 = """
SELECT d.department_name
FROM departments d
WHERE EXISTS (SELECT 1 FROM employees e
              WHERE e.dept_id = d.dept_id AND e.salary > 20000)
"""

# Q4: PK-FK join elimination candidate.
Q4 = """
SELECT e.employee_name, e.salary
FROM employees e, departments d
WHERE e.dept_id = d.dept_id
"""

# Q5: unique-key outer join elimination candidate.
Q5 = """
SELECT e.employee_name, e.salary
FROM employees e LEFT OUTER JOIN departments d ON e.dept_id = d.dept_id
"""

# Q7: running average over accounts; predicates pushable through the
# window's PARTITION BY (acct_id) but not its ORDER BY (time).
Q7 = """
SELECT v.acct_id, v.time, v.ravg
FROM (SELECT a.acct_id, a.time,
             AVG(a.balance) OVER (PARTITION BY a.acct_id ORDER BY a.time
                  RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS ravg
      FROM accounts a) v
WHERE v.acct_id = 7 AND v.time <= 12
"""

# Q12: distinct view joined to outer tables — the JPPD running example.
Q12 = """
SELECT e1.employee_name, j.job_title
FROM employees e1, job_history j,
     (SELECT DISTINCT d.dept_id
      FROM departments d, locations l
      WHERE d.loc_id = l.loc_id AND l.country_id IN (1, 2)) v
WHERE e1.dept_id = v.dept_id AND
      e1.emp_id = j.emp_id AND
      j.start_date > '1998-01-01'
"""

# Q14: UNION ALL with common join tables (departments, locations).
Q14 = """
SELECT e.first_name, e.last_name, e.job_id, d.department_name, l.city
FROM employees e, departments d, locations l
WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id
UNION ALL
SELECT e.first_name, e.last_name, j.job_id, d.department_name, l.city
FROM employees e, job_history j, departments d, locations l
WHERE e.emp_id = j.emp_id AND j.dept_id = d.dept_id AND
      d.loc_id = l.loc_id
"""

# Q16: expensive predicates under a blocking view with outer ROWNUM.
Q16 = """
SELECT v.emp_id, v.salary
FROM (SELECT e.emp_id, e.salary
      FROM employees e
      WHERE SLOW_CHECK(e.salary) = 1 AND SLOW_MATCH(e.emp_id) = 0
      ORDER BY e.hire_date) v
WHERE rownum < 20
"""

# Set-operator conversion inputs (§2.2.7).
Q_MINUS = """
SELECT e.dept_id FROM employees e
MINUS
SELECT d.dept_id FROM departments d WHERE d.loc_id = 2
"""

Q_INTERSECT = """
SELECT e.dept_id FROM employees e WHERE e.salary > 15000
INTERSECT
SELECT d.dept_id FROM departments d
"""

# Disjunction into UNION ALL (§2.2.8).
Q_OR = """
SELECT e.emp_id, d.dept_id
FROM employees e, departments d
WHERE e.dept_id = d.dept_id AND (d.loc_id = 3 OR e.job_id = 5)
"""

# NOT IN with nullable columns -> null-aware antijoin (§2.1.1).
Q_NOT_IN_NULLABLE = """
SELECT e.emp_id FROM employees e
WHERE e.dept_id NOT IN (SELECT j.dept_id FROM job_history j
                        WHERE j.start_date > '2000-01-01')
"""

# Group-by placement candidate (§2.2.4).
Q_GBP = """
SELECT d.loc_id, SUM(e.salary), COUNT(e.salary)
FROM departments d, employees e
WHERE e.dept_id = d.dept_id
GROUP BY d.loc_id
"""

# Table 2's query (§4.4; same text as benchmarks/bench_table2): three base
# tables and four unnestable subqueries over three tables each.  Not part
# of ALL_RUNNABLE (the plan-digest corpus); used by the counts golden.
TABLE2 = """
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

ALL_RUNNABLE = {
    "Q1": Q1,
    "Q2": Q2,
    "Q4": Q4,
    "Q5": Q5,
    "Q7": Q7,
    "Q12": Q12,
    "Q14": Q14,
    "Q_MINUS": Q_MINUS,
    "Q_INTERSECT": Q_INTERSECT,
    "Q_OR": Q_OR,
    "Q_NOT_IN_NULLABLE": Q_NOT_IN_NULLABLE,
    "Q_GBP": Q_GBP,
}
