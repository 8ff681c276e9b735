"""Exact-equality golden over the optimizer's deterministic outputs.

``tests/golden/plan_digests.json`` pins the *shape* of each chosen plan;
this golden also pins what a "pure speed-up" of the optimizer must not
move: the chosen plan's cost to the last float bit, the number of CBQT
states costed and the number of fresh join-order enumerations — for the
twelve paper queries and the Table 2 query, under all four search
strategies, with the subplan memo on and off.

Regenerate (only when a change is *meant* to alter plans or counts)::

    PYTHONPATH=src python -m tests.test_optimizer_counts
"""

from __future__ import annotations

import json
import os

import pytest

from repro import OptimizerConfig
from repro.cbqt.search import STRATEGIES
from repro.workload import hr_database
from repro.workload.plan_digest import structural_digest

from . import conftest  # noqa: F401  (suite-wide REPRO_* defaults)
from .paper_queries import ALL_RUNNABLE, TABLE2

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "optimizer_counts.json")


def compute_counts(plan_memo: bool) -> dict[str, list]:
    """``"<query>/<strategy>" -> [digest, repr(cost), states, join orders]``
    on one fresh HR database, in sorted order (with the memo on, later
    statements reuse earlier ones' subplans, so the order is part of the
    contract)."""
    db = hr_database(scale=1, seed=42)
    queries = dict(ALL_RUNNABLE, TABLE2=TABLE2)
    counts: dict[str, list] = {}
    for name in sorted(queries):
        for strategy in sorted(STRATEGIES):
            config = OptimizerConfig(plan_memo=plan_memo).with_strategy(strategy)
            optimized = db.optimize(queries[name], config)
            counts[f"{name}/{strategy}"] = [
                structural_digest(optimized.plan),
                repr(optimized.plan.cost),
                optimized.report.total_states,
                optimized.counters.join_orders_considered,
            ]
    return counts


@pytest.mark.parametrize("leg", ["memo_on", "memo_off"])
def test_counts_match_golden(leg):
    with open(GOLDEN) as handle:
        golden = json.load(handle)[leg]
    counts = compute_counts(plan_memo=(leg == "memo_on"))
    assert sorted(counts) == sorted(golden)
    changed = {k: (golden[k], v) for k, v in counts.items() if golden[k] != v}
    assert not changed


if __name__ == "__main__":
    with open(GOLDEN, "w") as out:
        json.dump(
            {"memo_on": compute_counts(True), "memo_off": compute_counts(False)},
            out, indent=1, sort_keys=True,
        )
        out.write("\n")
    print(f"golden file updated: {GOLDEN}")
