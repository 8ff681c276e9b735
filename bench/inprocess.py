"""The two in-process workloads: one caller, a fixed list of distinct
statements, every pass on a freshly built database.

A *round* is one set-up plus one pass over the list.  Each pass sees the
same statements against the same empty memo, so the rounds of a run are
repeats of one measurement: ``run.py`` takes each statement's median
latency over the rounds before it takes percentiles over statements.
"""

from __future__ import annotations

import gc
import importlib.util
import os
import random
import time
from typing import NamedTuple, Optional

from repro import Database
from repro.errors import ReproError
from repro.workload.schemas import hr_schema

import adhoc_pool
import workgen
from spans import Tracer
from stats import checksum

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Round(NamedTuple):
    """What one set-up + timed region produced."""

    setup_s: float
    timed_s: float
    #: (operation kind, seconds) per attempted statement, in issue order
    latencies: list
    failures: list          # one message per failed statement
    counters: dict          # layer counts over the timed region


class _FixedList:
    """Shared round loop of the in-process workloads."""

    #: every round runs the same statements, so per-statement medians
    #: over rounds are meaningful (``run.py`` keys on this)
    fixed_list = True
    peak_rss_of = "self"

    def __init__(self, seed: int, scale: float, tracer: Optional[Tracer]):
        self.seed = seed
        self.scale = scale
        self.tracer = tracer

    def _timed(self, db: Database, statements: list[str]) -> tuple:
        """Run *statements* once; returns (latencies, failures)."""
        tracer = self.tracer
        latencies, failures = [], []
        gc.collect()
        if tracer is not None:
            tracer.enabled = True
        try:
            for index, sql in enumerate(statements):
                outcome = problem = None
                started = time.perf_counter()
                try:
                    if tracer is None:
                        outcome = self._statement(db, sql)
                    else:
                        with tracer.span("database.facade", statement=index):
                            outcome = self._statement(db, sql)
                except ReproError as exc:
                    problem = f"{type(exc).__name__}: {exc}"
                latencies.append(("statement", time.perf_counter() - started))
                if problem is None:
                    problem = self._check(index, outcome)
                if problem:
                    failures.append(f"#{index} {problem}: {sql}")
        finally:
            if tracer is not None:
                tracer.enabled = False
        return latencies, failures

    def _counts(self, db: Database) -> dict:
        """Cumulative layer counts: the tracer's boundary counts plus
        the program's public snapshots (empty when untraced)."""
        if self.tracer is None:
            return {}
        if db.durability is not None:
            raise AssertionError("in-process workloads must not log")
        counts = dict(self.tracer.counts)
        memo = db.plan_memo.snapshot()
        counts["optimizer.memo_hits"] = memo["hits"] + memo["join_hits"]
        counts["optimizer.memo_lookups"] = counts["optimizer.memo_hits"] \
            + memo["misses"] + memo["join_misses"]
        counts["engine.vector_fallbacks"] = db.snapshot()["counters"].get(
            "executor.vector_fallbacks", 0
        )
        return counts

    def _pass(self, db: Database, setup_s: float) -> Round:
        before = self._counts(db)
        latencies, failures = self._timed(db, self.statements)
        after = self._counts(db)
        return Round(
            setup_s, sum(s for _k, s in latencies), latencies, failures,
            {k: v - before.get(k, 0) for k, v in after.items()},
        )

    def finish(self) -> tuple[int, list]:
        """Checks after the last round: (attempted, failures)."""
        return 0, []


# ---------------------------------------------------------------------------
# optimize_deep
# ---------------------------------------------------------------------------

#: employees in the workload's own HR data (job_history is 3x).  A
#: quarter of the demo scale: the optimizer does the same work, and the
#: reference evaluator checks a sampled plan in ~0.1 s instead of ~1 s.
HR_EMPLOYEES = 250
#: share of the chosen plans executed and checked after the timed region
VERIFY_SHARE = 0.05


def _load_hr(db: Database) -> None:
    """Small, fixed HR data (same shape as ``load_hr_data``)."""
    rng = random.Random("optimize_deep/data")
    n = HR_EMPLOYEES

    def date() -> str:
        return (f"{rng.randint(1990, 2006)}-{rng.randint(1, 12):02d}-"
                f"{rng.randint(1, 28):02d}")

    db.insert("regions", [{"region_id": i, "region_name": f"region_{i}"}
                          for i in range(1, 5)])
    db.insert("countries", [
        {"country_id": i, "country_name": f"country_{i}",
         "region_id": rng.randint(1, 4)} for i in range(1, 21)])
    db.insert("locations", [
        {"loc_id": i, "city": f"city_{i}",
         "country_id": min(rng.randint(1, 20), rng.randint(1, 6))}
        for i in range(1, 31)])
    db.insert("departments", [
        {"dept_id": i, "department_name": f"dept_{i}",
         "loc_id": rng.randint(1, 30)} for i in range(1, 41)])
    db.insert("jobs", [
        {"job_id": i, "job_title": f"job_{i}", "min_salary": 1000 * i,
         "max_salary": 2000 * i} for i in range(1, 16)])
    db.insert("employees", [
        {"emp_id": i, "employee_name": f"emp_{i}", "first_name": f"fn_{i}",
         "last_name": f"ln_{i}",
         "salary": round(rng.uniform(1000.0, 30000.0), 2),
         "dept_id": None if rng.random() < 0.02 else rng.randint(1, 40),
         "job_id": rng.randint(1, 15),
         "mgr_id": None if rng.random() < 0.1 else rng.randint(1, n),
         "hire_date": date()} for i in range(1, n + 1)])
    db.insert("job_history", [
        {"emp_id": rng.randint(1, n), "job_id": rng.randint(1, 15),
         "job_title": f"job_{rng.randint(1, 15)}",
         "dept_id": rng.randint(1, 40), "start_date": date(),
         "end_date": date()} for _ in range(3 * n)])
    db.insert("accounts", [
        {"acct_id": acct, "time": t,
         "balance": round(rng.uniform(-5000.0, 50000.0), 2)}
        for acct in range(1, 11) for t in range(1, 25)])
    db.analyze()


def _paper_queries() -> list[str]:
    """The plan-digest corpus, read from the test suite (not edited)."""
    path = os.path.join(ROOT, "tests", "paper_queries.py")
    spec = importlib.util.spec_from_file_location("paper_queries", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.ALL_RUNNABLE.values())


class OptimizeDeep(_FixedList):
    """Hard parses only: ``Database.optimize(sql)``, never executed."""

    name = "optimize_deep"

    def __init__(self, seed: int, scale: float, tracer: Optional[Tracer]):
        super().__init__(seed, scale, tracer)
        paper = _paper_queries()
        statements = workgen.optimize_deep_statements(seed, paper)
        self.statements = statements[:max(int(len(statements) * scale), 40)]
        self.warmup = workgen.optimize_deep_warmup(seed)
        rng = random.Random(f"optimize_deep/verify/{seed}")
        #: positions whose chosen plan is executed and checked afterwards
        self._verify = set(rng.sample(
            range(len(self.statements)),
            max(int(len(self.statements) * VERIFY_SHARE), 2),
        ))

    def run_round(self, budget: float) -> Round:
        self._db = None
        gc.collect()  # the previous round's database, see AdhocMixed
        started = time.perf_counter()
        db = Database()
        hr_schema(db)
        _load_hr(db)
        for sql in self.warmup:
            db.optimize(sql)
        setup_s = time.perf_counter() - started
        self._db, self._plans = db, []
        return self._pass(db, setup_s)

    def _statement(self, db: Database, sql: str):
        return db.optimize(sql)

    def _check(self, index: int, optimized) -> Optional[str]:
        if index in self._verify:
            self._plans.append((index, optimized))
        return None

    def finish(self) -> tuple[int, list]:
        """Execute the sampled plans of the last round and compare each
        with the reference evaluator."""
        db = self._db
        failures = []
        for index, optimized in self._plans:
            try:
                got = checksum(db.execute_plan(optimized).rows)
                want = checksum(db.reference_execute(optimized.sql))
            except ReproError as exc:
                failures.append(f"#{index} {type(exc).__name__}: {exc}")
                continue
            if got != want:
                failures.append(
                    f"#{index} chosen plan returns {got}, reference {want}: "
                    f"{optimized.sql}"
                )
        return len(self._plans), failures


# ---------------------------------------------------------------------------
# adhoc_mixed
# ---------------------------------------------------------------------------

#: statements drawn per cost stratum and pass (x30 strata = 510)
PER_STRATUM = 17


class AdhocMixed(_FixedList):
    """The paper's 92/8 mix, hard parse + execute, no plan cache."""

    name = "adhoc_mixed"

    def __init__(self, seed: int, scale: float, tracer: Optional[Tracer]):
        super().__init__(seed, scale, tracer)
        self.statements: Optional[list] = None

    def _draw(self, schema) -> None:
        sql, entries = adhoc_pool.load_pool(schema)
        costs = [entry[3] for entry in entries]
        per = max(int(PER_STRATUM * self.scale), 2)
        timed = workgen.adhoc_sample(self.seed, costs, per)
        warm = workgen.adhoc_sample(self.seed, costs, 2, sub="warmup")
        self.statements = [sql[i] for i in timed]
        self.expected = [tuple(entries[i][1:3]) for i in timed]
        self.warmup = [sql[i] for i in warm]

    def run_round(self, budget: float) -> Round:
        # free the previous round's database first: left to the cycle
        # collector it may overlap the new one and double the peak RSS
        gc.collect()
        started = time.perf_counter()
        db, schema = adhoc_pool.adhoc_database()
        setup_s = time.perf_counter() - started
        if self.statements is None:
            self._draw(schema)  # input generation, not program set-up
        started = time.perf_counter()
        for sql in self.warmup:
            db.execute(sql)
        setup_s += time.perf_counter() - started
        return self._pass(db, setup_s)

    def _statement(self, db: Database, sql: str):
        return db.execute(sql)

    def _check(self, index: int, result) -> Optional[str]:
        got = checksum(result.rows)
        if got != self.expected[index]:
            return f"returned {got}, expected {self.expected[index]}"
        return None
