"""Seeded input generators for the four workloads.

Nothing here imports the program under test: the generators produce
plain SQL text, rows and expected answers, and the program only ever
receives those.

Design rule (as in TPC-H's qgen): the *shapes* a workload is made of
form a fixed corpus, and ``--seed`` draws the literals, the sample and
the order.  Two seeds give different statements of the same aggregate
cost, so an end-to-end median moves when the program changes and not
when the seed does.
"""

from __future__ import annotations

import random
import re
from typing import Iterator, NamedTuple, Optional, Sequence

# ---------------------------------------------------------------------------
# optimize_deep: the paper's Table 2 family over the HR schema
# ---------------------------------------------------------------------------

#: three-table subquery cores: from-list, join conjuncts, filter
#: templates, (outer column, inner column) link options; ``#`` becomes
#: the subquery's ordinal so aliases stay unique within a statement
_CORES = (
    (
        "job_history j#, departments d#, locations l#",
        "j#.dept_id = d#.dept_id AND d#.loc_id = l#.loc_id",
        ("l#.country_id = {country}", "l#.country_id <= {country}", ""),
        (("e.emp_id", "j#.emp_id"), ("e.job_id", "j#.job_id"),
         ("e.dept_id", "d#.dept_id")),
    ),
    (
        "departments d#, locations l#, countries c#",
        "d#.loc_id = l#.loc_id AND l#.country_id = c#.country_id",
        ("c#.region_id = {region}", "c#.region_id <= {region}"),
        (("e.dept_id", "d#.dept_id"), ("d.loc_id", "l#.loc_id")),
    ),
    (
        "employees e#, departments d#, locations l#",
        "e#.dept_id = d#.dept_id AND d#.loc_id = l#.loc_id",
        ("e#.salary > {salary}", "l#.country_id = {country}",
         "e#.salary > {salary} AND l#.country_id <= {country}"),
        (("e.mgr_id", "e#.emp_id"), ("e.dept_id", "d#.dept_id"),
         ("j.emp_id", "e#.emp_id")),
    ),
    (
        "job_history j#, jobs b#, employees e#",
        "j#.job_id = b#.job_id AND j#.emp_id = e#.emp_id",
        ("b#.min_salary > {min_salary}", "e#.salary < {salary}"),
        (("e.job_id", "b#.job_id"), ("e.emp_id", "j#.emp_id"),
         ("j.job_id", "b#.job_id")),
    ),
)

_KINDS = ("NOT IN", "EXISTS", "NOT EXISTS", "IN")

_OUTER_FILTERS = (
    "",
    " AND e.salary > {salary}",
    " AND j.start_date > '{year}-01-01'",
    " AND d.loc_id <= {loc}",
)


#: literal domains of the ``{placeholder}`` names used in the shapes;
#: kept to the populated middle of each column (locations only use
#: countries 1-6) so that a draw changes the statement, not its class of
#: selectivity - plan search effort then varies little from seed to seed
_LITERALS = {
    "country": lambda rng: rng.randint(1, 6),
    "region": lambda rng: rng.randint(1, 4),
    "salary": lambda rng: rng.randint(80, 220) * 100,
    "min_salary": lambda rng: rng.randint(4, 11) * 1000,
    "year": lambda rng: rng.randint(1994, 2002),
    "loc": lambda rng: rng.randint(10, 25),
}


def _fill(shape: str, rng: random.Random) -> str:
    """Replace every ``{placeholder}`` by its own draw from *rng*."""
    return re.sub(
        r"\{(\w+)\}", lambda m: str(_LITERALS[m.group(1)](rng)), shape
    )


def _subquery(shape: random.Random, ordinal: int) -> str:
    tables, joins, filters, links = shape.choice(_CORES)
    kind = shape.choice(_KINDS)
    outer, inner = shape.choice(links)
    where = joins
    template = shape.choice(filters)
    if template:
        where += " AND " + template
    if kind in ("IN", "NOT IN"):
        text = f"{outer} {kind} (SELECT {inner} FROM {tables} WHERE {where})"
    else:
        text = (f"{kind} (SELECT 1 FROM {tables} "
                f"WHERE {inner} = {outer} AND {where})")
    return text.replace("#", str(ordinal))


def _table2_shape(shape: random.Random, k: int) -> str:
    """A three-table outer block plus *k* unnestable subqueries over
    three tables each (§4.4), with ``{literal}`` placeholders."""
    return (
        "SELECT e.employee_name, d.department_name, j.job_title "
        "FROM employees e, departments d, job_history j "
        "WHERE e.dept_id = d.dept_id AND e.emp_id = j.emp_id"
        + shape.choice(_OUTER_FILTERS)
        + "".join(" AND " + _subquery(shape, n) for n in range(2, k + 2))
    )


#: JPPD (distinct / group-by view) and group-by placement targets
_VIEW_SHAPES = (
    "SELECT e1.employee_name, j.job_title FROM employees e1, job_history j, "
    "(SELECT DISTINCT d.dept_id FROM departments d, locations l "
    "WHERE d.loc_id = l.loc_id "
    "AND l.country_id IN ({country}, {country})) v "
    "WHERE e1.dept_id = v.dept_id AND e1.emp_id = j.emp_id "
    "AND j.start_date > '{year}-01-01'",
    "SELECT e.employee_name, d.department_name, v.total "
    "FROM employees e, departments d, "
    "(SELECT j.emp_id AS k, COUNT(*) AS total FROM job_history j, "
    "departments d2 WHERE j.dept_id = d2.dept_id AND d2.loc_id <= {loc} "
    "GROUP BY j.emp_id) v "
    "WHERE v.k = e.emp_id AND e.dept_id = d.dept_id AND e.salary > {salary}",
    "SELECT d.loc_id, SUM(e.salary), COUNT(e.salary) "
    "FROM departments d, employees e, locations l "
    "WHERE e.dept_id = d.dept_id AND d.loc_id = l.loc_id "
    "AND l.country_id <= {country} AND e.salary > {salary} GROUP BY d.loc_id",
    "SELECT d.loc_id, SUM(e.salary), COUNT(e.salary) "
    "FROM departments d, employees e WHERE e.dept_id = d.dept_id "
    "AND e.salary > {salary} GROUP BY d.loc_id",
)

#: statements per pass by shape; fixed, so every seed has the same mix.
#: Sized so the median falls inside the k=3 group and the 95th
#: percentile inside the k=5 group, never on a boundary between groups.
OPTIMIZE_DEEP_MIX = (("k2", 40), ("k3", 64), ("k4", 40), ("k5", 44),
                     ("view", 40))


def _optimize_deep_shapes() -> list[str]:
    """The fixed shape corpus (same for every seed)."""
    shape = random.Random("optimize_deep/shapes")
    shapes = []
    for name, count in OPTIMIZE_DEEP_MIX:
        for index in range(count):
            if name == "view":
                shapes.append(_VIEW_SHAPES[index % len(_VIEW_SHAPES)])
            else:
                shapes.append(_table2_shape(shape, int(name[1:])))
    return shapes


def optimize_deep_statements(seed: int, paper_queries: Sequence[str]) -> list[str]:
    """Distinct statements for one ``optimize_deep`` pass, in run order:
    the shape corpus with literals drawn by *seed*, plus the paper
    queries verbatim."""
    rng = random.Random(f"optimize_deep/timed/{seed}")
    statements: list[str] = []
    seen = set()
    for shape in _optimize_deep_shapes():
        sql = _fill(shape, rng)
        while sql in seen:  # two draws of one shape may coincide
            sql = _fill(shape, rng)
        seen.add(sql)
        statements.append(sql)
    statements.extend(" ".join(sql.split()) for sql in paper_queries)
    rng.shuffle(statements)
    return statements


def optimize_deep_warmup(seed: int) -> list[str]:
    """Every tenth shape with literals from another stream than the
    timed list's: the same shapes for every seed, so set-up time does
    not depend on the seed."""
    rng = random.Random(f"optimize_deep/warmup/{seed}")
    return [_fill(shape, rng) for shape in _optimize_deep_shapes()[::10]]


# ---------------------------------------------------------------------------
# adhoc_mixed: a stratified sample of the committed statement pool
# ---------------------------------------------------------------------------

#: strata of the pool, by the statement's execute time when the pool was
#: built; a pass draws the same number of statements from each.  With 30
#: strata the 95th percentile is the median of the 29th stratum's sample
#: rather than an extreme of one (0.95 x 30 = 28.5).
ADHOC_STRATA = 30


def adhoc_sample(
    seed: int, pool_costs: Sequence[float], per_stratum: int,
    sub: str = "timed",
) -> list[int]:
    """Positions in the pool to run, in run order.

    *pool_costs* is the pool's recorded cost column.  The pool is cut
    into :data:`ADHOC_STRATA` equal-size cost strata and *per_stratum*
    statements are drawn from each without replacement, so every seed's
    list has the same cost profile - including the same number of the
    expensive subquery statements - while the statements differ."""
    rng = random.Random(f"adhoc_mixed/{sub}/{seed}")
    by_cost = sorted(range(len(pool_costs)), key=lambda i: (pool_costs[i], i))
    size = len(by_cost) // ADHOC_STRATA
    chosen: list[int] = []
    for stratum in range(ADHOC_STRATA):
        members = by_cost[stratum * size:(stratum + 1) * size]
        chosen.extend(rng.sample(members, per_stratum))
    rng.shuffle(chosen)
    return chosen


# ---------------------------------------------------------------------------
# serve_*: one table, six prepared reads, hard parses and insert batches
# ---------------------------------------------------------------------------

ITEM_ROWS = 20_000
#: rows per bucket; every read addresses one bucket through the
#: ``items_bucket_ix`` index, so its cost does not depend on table size
BUCKET_ROWS = 50
BUCKETS = ITEM_ROWS // BUCKET_ROWS
GROUPS = 6
#: inserted rows start here and live in bucket >= FIRST_INSERT_ID: no
#: read ever addresses them, so answers stay fixed while clients race
FIRST_INSERT_ID = 1_000_000
INSERT_BATCH = 5

SERVE_DDL = (
    "CREATE TABLE items (id INT PRIMARY KEY, bucket INT, grp INT, "
    "val INT, name VARCHAR(20))",
    "CREATE INDEX items_bucket_ix ON items (bucket)",
    "CREATE TABLE groups (grp INT PRIMARY KEY, label VARCHAR(20))",
)


def item_row(item_id: int) -> dict:
    return {
        "id": item_id,
        "bucket": item_id // BUCKET_ROWS,
        "grp": item_id % GROUPS,
        "val": (item_id * 37) % 1000,
        "name": f"item_{item_id}",
    }


def item_rows() -> list[dict]:
    return [item_row(i) for i in range(ITEM_ROWS)]


def group_rows() -> list[dict]:
    return [{"grp": g, "label": f"group_{g}"} for g in range(GROUPS)]


def _bucket(bucket: int) -> list[dict]:
    return [item_row(i) for i in
            range(bucket * BUCKET_ROWS, (bucket + 1) * BUCKET_ROWS)]


# The plain-Python model of the table: one function per read, taking the
# bind values and returning the rows the server must send.

def _model_lookup(b: dict) -> list[list]:
    row = item_row(b["id"])
    return [[row["id"], row["grp"], row["val"]]]


def _model_name(b: dict) -> list[list]:
    row = item_row(b["id"])
    return [[row["name"], row["val"]]]


def _model_range(b: dict) -> list[list]:
    rows = sorted(_bucket(b["b"]), key=lambda r: (r["val"], r["id"]))
    return [[r["id"], r["val"]] for r in rows]


def _model_groups(b: dict) -> list[list]:
    out = []
    for g in range(GROUPS):
        vals = [r["val"] for r in _bucket(b["b"]) if r["grp"] == g]
        out.append([g, len(vals), sum(vals)])
    return out


def _model_filtered(b: dict) -> list[list]:
    vals = [r["val"] for r in _bucket(b["b"]) if r["grp"] == b["g"]]
    return [[len(vals), max(vals)]]


def _model_join(b: dict) -> list[list]:
    return [[r["id"], f"group_{r['grp']}"] for r in _bucket(b["b"])]


#: the six prepared reads: (sql, bind names drawn per call, model)
READS = (
    ("SELECT id, grp, val FROM items WHERE id = :id", ("id",), _model_lookup),
    ("SELECT name, val FROM items WHERE id = :id", ("id",), _model_name),
    ("SELECT id, val FROM items WHERE bucket = :b ORDER BY val, id",
     ("b",), _model_range),
    ("SELECT grp, COUNT(*), SUM(val) FROM items WHERE bucket = :b "
     "GROUP BY grp ORDER BY grp", ("b",), _model_groups),
    ("SELECT COUNT(*), MAX(val) FROM items WHERE bucket = :b AND grp = :g",
     ("b", "g"), _model_filtered),
    ("SELECT i.id, g.label FROM items i, groups g WHERE i.grp = g.grp "
     "AND i.bucket = :b ORDER BY i.id", ("b",), _model_join),
)

_BIND_RANGES = {"id": ITEM_ROWS, "b": BUCKETS, "g": GROUPS}

#: serve_write_mix, by statement index modulo ten: 70% prepared reads,
#: 10% unique-literal hard parses, 20% insert batches
WRITE_MIX = ("read",) * 3 + ("insert",) + ("read",) * 2 + ("hard_parse",) \
    + ("read",) * 2 + ("insert",)


class Op(NamedTuple):
    """One client request and the answer the server must give."""

    kind: str                      # "read" | "hard_parse" | "insert"
    read: Optional[int] = None     # index into READS
    binds: Optional[dict] = None
    sql: Optional[str] = None      # hard_parse text
    rows: Optional[list] = None    # insert batch
    expected: Optional[list] = None


def serve_ops(seed: int, client: int, write_mix: bool) -> Iterator[Op]:
    """The endless, deterministic request cycle of one client."""
    rng = random.Random(f"serve/{seed}/{client}/{int(write_mix)}")
    next_id = FIRST_INSERT_ID * (client + 1)
    reads = 0
    index = 0
    while True:
        kind = WRITE_MIX[index % len(WRITE_MIX)] if write_mix else "read"
        if kind == "read":
            which = reads % len(READS)
            reads += 1
            _sql, names, model = READS[which]
            binds = {n: rng.randrange(_BIND_RANGES[n]) for n in names}
            yield Op("read", read=which, binds=binds, expected=model(binds))
        elif kind == "hard_parse":
            # the statement index in the text makes it unique, so every
            # one of these misses the plan cache
            bucket = rng.randrange(BUCKETS)
            vals = [r["val"] for r in _bucket(bucket)]
            yield Op(
                "hard_parse",
                sql=(f"SELECT COUNT(*), SUM(val), {client * 10_000_000 + index}"
                     f" FROM items WHERE bucket = {bucket}"),
                expected=[[len(vals), sum(vals), client * 10_000_000 + index]],
            )
        else:
            batch = []
            for _ in range(INSERT_BATCH):
                row = item_row(next_id)
                row["bucket"] = next_id  # far from every bucket read
                batch.append(row)
                next_id += 1
            yield Op("insert", rows=batch)
        index += 1
