#!/usr/bin/env python
"""Bench regression gate: compare benchmarks/results/*.json against the
committed baselines (benchmarks/baselines.json).

The benches export deterministic, work-unit-derived scalars (improvement
percentages, affected-query counts, optimizer state counts) — not wall
times — so the baselines are stable across machines.  A metric fails the
gate when it moves in its *worse* direction by more than the tolerance
(default 25%).  Metrics with no preferred direction fail on movement
either way.

Usage:
    python benchmarks/check_regression.py            # gate (CI)
    python benchmarks/check_regression.py --update   # re-seed baselines
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

HERE = pathlib.Path(__file__).parent
RESULTS_DIR = HERE / "results"
BASELINES = HERE / "baselines.json"

#: which way each metric is allowed to drift beyond tolerance.
#: "higher" = higher is better (only a drop fails), "lower" = lower is
#: better (only a rise fails), "either" = any drift beyond tolerance fails.
DIRECTIONS = {
    "n_affected": "higher",
    "top5_improvement_percent": "higher",
    "overall_improvement_percent": "higher",
    "degraded_query_percent": "lower",
    "optimization_time_increase_percent": "lower",
    "blocks_without_reuse": "either",
    "blocks_with_reuse": "lower",
    "blocks_saved": "higher",
    "states_heuristic": "either",
    "states_two_pass": "either",
    "states_linear": "either",
    "states_exhaustive": "either",
    # row -> vector executor wall-clock speedups (paired same-machine
    # ratios; only a drop beyond tolerance regresses)
    "executor_speedup_scan_filter": "higher",
    "executor_speedup_aggregate": "higher",
    "executor_speedup_projection": "higher",
    "executor_speedup_micro_median": "higher",
    "executor_speedup_paper_q4": "higher",
    "executor_speedup_index_nl": "higher",
    "executor_speedup_hash_join": "higher",
    # serving front end load bench (wall-clock; baselines are recorded
    # conservatively, the gate catches collapses, not machine noise)
    "server_statements_per_sec": "higher",
    "server_p95_latency_ms": "lower",
    # durable-storage recovery throughput (wall-clock, conservative
    # baselines for the same reason)
    "durability_replay_rows_per_sec": "higher",
    "durability_replay_records_per_sec": "higher",
    "durability_checkpoint_load_rows_per_sec": "higher",
    # subplan-memo effectiveness (deterministic counters from the
    # optimizer; a drop means states stopped sharing physical subplans)
    "memo_hit_rate_percent": "higher",
    "memo_join_enumerations_saved": "higher",
}

#: per-metric tolerance overrides (percent), tighter than the blanket
#: default.  optimization_time_increase_percent is the memo's headline
#: win — it is deterministic (fresh join-order enumerations, no wall
#: clock), so any backslide beyond 10% is a real sharing regression,
#: not machine noise.
TOLERANCES = {
    "optimization_time_increase_percent": 10.0,
    "memo_hit_rate_percent": 10.0,
    "memo_join_enumerations_saved": 10.0,
}


def load_results() -> dict[str, dict]:
    results = {}
    for path in sorted(RESULTS_DIR.glob("*.json")):
        payload = json.loads(path.read_text())
        results[path.stem] = payload
    return results


def relative_delta(baseline: float, current: float) -> float:
    """Signed drift of *current* from *baseline*, as a fraction of the
    baseline magnitude (floored so near-zero baselines don't blow up)."""
    scale = max(abs(baseline), 1.0)
    return (current - baseline) / scale


def check(tolerance_percent: float, only: str | None = None) -> int:
    if not BASELINES.exists():
        print(f"error: no baselines at {BASELINES}", file=sys.stderr)
        return 2
    baselines = json.loads(BASELINES.read_text())
    if only is not None:
        baselines = {
            bench: entry for bench, entry in baselines.items()
            if bench.startswith(only)
        }
        if not baselines:
            print(f"error: no baselines match --only {only}", file=sys.stderr)
            return 2
    results = load_results()
    failures: list[str] = []
    checked = 0

    for bench, entry in sorted(baselines.items()):
        current = results.get(bench)
        if current is None:
            failures.append(f"{bench}: no result produced (bench missing?)")
            continue
        if current.get("quick") != entry.get("quick"):
            failures.append(
                f"{bench}: quick-mode mismatch (baseline "
                f"quick={entry.get('quick')}, run quick={current.get('quick')})"
            )
            continue
        for metric, base_value in sorted(entry["metrics"].items()):
            new_value = current["metrics"].get(metric)
            if new_value is None:
                failures.append(f"{bench}.{metric}: missing from results")
                continue
            checked += 1
            drift = relative_delta(base_value, new_value)
            direction = DIRECTIONS.get(metric, "either")
            allowed_percent = min(
                TOLERANCES.get(metric, tolerance_percent), tolerance_percent
            )
            allowed = allowed_percent / 100.0
            worse = (
                (direction == "higher" and drift < -allowed)
                or (direction == "lower" and drift > allowed)
                or (direction == "either" and abs(drift) > allowed)
            )
            marker = "FAIL" if worse else "ok"
            print(
                f"  [{marker:>4}] {bench}.{metric}: "
                f"{base_value} -> {new_value} ({drift * 100:+.1f}%, "
                f"{direction} is better, ±{allowed_percent:.0f}%)"
            )
            if worse:
                failures.append(
                    f"{bench}.{metric}: {base_value} -> {new_value} "
                    f"({drift * 100:+.1f}% beyond {allowed_percent:.0f}%)"
                )

    print(f"\n{checked} metrics checked against {BASELINES.name}")
    if failures:
        print(f"{len(failures)} regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print("no regressions")
    return 0


def update() -> int:
    results = load_results()
    if not results:
        print(f"error: no results under {RESULTS_DIR}", file=sys.stderr)
        return 2
    BASELINES.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {len(results)} baselines to {BASELINES}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="overwrite baselines.json with the current results",
    )
    parser.add_argument(
        "--tolerance", type=float, default=25.0,
        help="allowed drift in the worse direction, percent (default 25)",
    )
    parser.add_argument(
        "--only", default=None, metavar="PREFIX",
        help="gate only baselines whose name starts with PREFIX (lets a "
        "job that ran a single bench skip the others' missing results)",
    )
    args = parser.parse_args(argv)
    if args.update:
        return update()
    return check(args.tolerance, args.only)


if __name__ == "__main__":
    sys.exit(main())
