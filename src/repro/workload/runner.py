"""Workload runner: execute a query set under two optimizer configs and
collect the paper's measurements.

For every query we record, under each config:

* optimization effort — wall-clock seconds, the number of
  transformation states costed (the currency Table 2 reports), and the
  number of join-order enumerations the physical optimizer ran (the
  deterministic optimizer-time currency: a block served from a cost
  annotation is not enumerated again, so this is the plan work a state
  actually pays, which states-costed cannot see);
* execution effort — deterministic work units from the engine;
* the plan (to detect "execution plans changed", the paper's affected-set
  criterion in §4.1);
* result checksum — both configs must return identical multisets, which
  the runner verifies (a transformation bug would silently corrupt an
  experiment otherwise).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from ..database import Database, OptimizerConfig
from ..errors import ReproError
from .querygen import EXPENSIVE_FUNCTION, GeneratedQuery


@dataclass
class ConfigMeasurement:
    """One query under one optimizer config."""

    exec_work: float
    opt_states: int
    opt_enumerations: int
    opt_seconds: float
    exec_seconds: float
    plan_text: str
    rows: int

    @property
    def total_time(self) -> float:
        """The paper's "total run time": optimization + execution.  Both
        terms are in work units; optimizer states are charged at a fixed
        rate so that the optimization-time increase CBQT causes (§4.4)
        shows up in the totals."""
        return self.exec_work + OPT_STATE_COST * self.opt_states


#: work units charged per transformation state costed by the optimizer
OPT_STATE_COST = 40.0

#: work units charged per join-order enumeration; annotation reuse
#: across states shows up as a drop in this charge, never in
#: states-costed (which counts transformation decisions, not plan work)
OPT_ENUMERATION_COST = 40.0


@dataclass
class QueryOutcome:
    query: GeneratedQuery
    baseline: ConfigMeasurement
    treated: ConfigMeasurement

    @property
    def plan_changed(self) -> bool:
        return self.baseline.plan_text != self.treated.plan_text

    @property
    def improvement_ratio(self) -> float:
        """old/new ratio of total run time (1.0 = unchanged)."""
        new = max(self.treated.total_time, 1e-9)
        return self.baseline.total_time / new


@dataclass
class WorkloadResult:
    outcomes: list[QueryOutcome] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    def affected(self) -> list[QueryOutcome]:
        return [o for o in self.outcomes if o.plan_changed]

    def relevant_to(self, *transformations: str) -> list[QueryOutcome]:
        wanted = set(transformations)
        return [
            o for o in self.outcomes if o.query.relevant & wanted
        ]


def register_workload_functions(db: Database, cost: float = 300.0) -> None:
    """Register the expensive UDF the generated workload uses."""
    db.register_function(
        EXPENSIVE_FUNCTION,
        lambda x: None if x is None else (x * 2654435761) % 7 % 2,
        expensive_cost=cost,
    )


def run_workload(
    db: Database,
    queries: Sequence[GeneratedQuery],
    baseline_config: OptimizerConfig,
    treated_config: OptimizerConfig,
    verify: bool = True,
) -> WorkloadResult:
    """Run every query under both configs."""
    result = WorkloadResult()
    for query in queries:
        try:
            baseline = _measure(db, query, baseline_config)
            treated = _measure(db, query, treated_config)
        except ReproError as exc:
            result.errors.append((query.name, str(exc)))
            continue
        if verify and baseline.rows != treated.rows:
            result.errors.append(
                (query.name,
                 f"row-count mismatch: {baseline.rows} vs {treated.rows}")
            )
            continue
        result.outcomes.append(QueryOutcome(query, baseline, treated))
    return result


def _measure(
    db: Database, query: GeneratedQuery, config: OptimizerConfig
) -> ConfigMeasurement:
    outcome = db.execute(query.sql, config)
    return ConfigMeasurement(
        exec_work=outcome.exec_stats.work_units,
        opt_states=max(outcome.report.total_states, 1),
        opt_enumerations=outcome.report.join_enumerations,
        opt_seconds=outcome.optimize_seconds,
        exec_seconds=outcome.execute_seconds,
        plan_text=outcome.plan.describe(),
        rows=len(outcome.rows),
    )


def verify_result_equivalence(
    db: Database,
    queries: Sequence[GeneratedQuery],
    config_a: OptimizerConfig,
    config_b: OptimizerConfig,
) -> list[str]:
    """Full multiset comparison (slower than run_workload's row-count
    check); returns the names of mismatching queries."""
    mismatches = []
    for query in queries:
        rows_a = Counter(db.execute(query.sql, config_a).rows)
        rows_b = Counter(db.execute(query.sql, config_b).rows)
        if rows_a != rows_b:
            mismatches.append(query.name)
    return mismatches
