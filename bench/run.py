#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the repro engine.

One run (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

prints every metric by name with its unit and, as the last line, one
JSON object ``{"correct", "attempted", "failed", "metrics"}`` - the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

The whole set (every workload untraced, then traced, with the
layer-share matrix and the tracing overhead)::

    python3 bench/run.py [--seed N] [--seconds S] [--smoke] [--selfcheck]

``--write-expected`` rebuilds ``bench/expected/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("optimize_deep", "adhoc_mixed", "serve_cached", "serve_write_mix")
#: set-ups (and timed regions) per run; ``setup_s`` is their median
MIN_ROUNDS = 3
DEFAULT_SEED = 11
#: counts that must repeat exactly from pass to pass and run to run
DETERMINISTIC = ("cbqt.states", "optimizer.join_enumerations",
                 "engine.work_units", "engine.rows_out")


def _load_program() -> None:
    """Put the program under test (``src/``) and the harness modules on
    the path; refuse to run against anything else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"bench: no program to measure: {src}/repro is missing")
    # REPRO_* switches change engine, memo and checking defaults; the
    # benchmark always measures the shipped defaults
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path[:0] = [HERE, src]


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _workload(name: str, seed: int, scale: float, tracer):
    import inprocess
    import serving

    classes = {
        "optimize_deep": inprocess.OptimizeDeep,
        "adhoc_mixed": inprocess.AdhocMixed,
        "serve_cached": serving.ServeCached,
        "serve_write_mix": serving.ServeWriteMix,
    }
    return classes[name](seed, scale, tracer)


def run_once(name: str, seed: int, seconds: float, trace: bool,
             smoke: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (contract result, detail)."""
    import serving
    import spans
    from stats import percentile

    tracer = spans.Tracer() if trace else None
    workload = _workload(name, seed, 0.15 if smoke else 1.0, tracer)
    min_rounds = 1 if smoke else MIN_ROUNDS
    rounds = []
    if not trace:
        spans.assert_unwrapped()
    with spans.installed(tracer) if trace else nullcontext():
        while len(rounds) < min_rounds \
                or sum(r.timed_s for r in rounds) < seconds:
            rounds.append(workload.run_round(seconds / min_rounds))
        checked, failures = workload.finish()
    attempted = checked + sum(len(r.latencies) for r in rounds)
    failures = failures + [f for r in rounds for f in r.failures]

    if workload.fixed_list:
        # the rounds repeat one list: a statement's latency is its
        # median over the rounds, which drops one-off stalls
        latencies = [
            statistics.median(r.latencies[i][1] for r in rounds)
            for i in range(len(rounds[0].latencies))
        ]
    else:
        latencies = [s for r in rounds for _kind, s in r.latencies]
    rate = statistics.median(
        (len(r.latencies) - len(r.failures)) / r.timed_s for r in rounds
    )
    detail = {
        "stmts_per_s": rate,
        "workload": name, "seed": seed, "trace": int(trace),
        "rounds": len(rounds), "samples": len(latencies),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": _commit(), "fsync": serving.FSYNC,
        "failures": failures[:5],
    }
    if trace:
        metrics, extra = _layer_metrics(
            spans, tracer, rounds, workload.fixed_list
        )
        detail.update(extra)
    else:
        try:
            p95 = percentile(latencies, 0.95) * 1000.0
        except ValueError:
            if not smoke:  # a real run always has the samples
                raise
            p95 = None
        who = resource.RUSAGE_SELF if workload.peak_rss_of == "self" \
            else resource.RUSAGE_CHILDREN
        metrics = {
            "stmts_per_s": (rate, "1/s"),
            "stmt_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
            "stmt_p95_ms": (p95, "ms"),
            "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
            "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        }
        detail["by_kind"] = _by_kind(rounds)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def _by_kind(rounds: list) -> dict:
    """Ungated per-operation-type rows (pooled over the rounds)."""
    kinds: dict = {}
    for r in rounds:
        for kind, seconds in r.latencies:
            kinds.setdefault(kind, []).append(seconds * 1000.0)
    return {
        kind: {"n": len(ms), "p50_ms": statistics.median(ms),
               "max_ms": max(ms)}
        for kind, ms in sorted(kinds.items())
    }


def _layer_metrics(spans, tracer, rounds: list,
                   fixed_list: bool) -> tuple[dict, dict]:
    by_name = spans.self_time_by_name(tracer.spans)
    statements = sum(1 for s in tracer.spans if s.parent is None)
    counts: dict = {}
    for r in rounds:
        for key, value in r.counters.items():
            counts[key] = counts.get(key, 0) + value
    annotations = list(tracer.watched.values())
    hits = sum(a.hits for a in annotations)
    misses = sum(a.misses for a in annotations)

    def ms(name: str) -> tuple:
        return 1000.0 * by_name.get(name, 0.0) / statements, "ms"

    def per_statement(key: str) -> tuple:
        return counts.get(key, 0) / statements, "1/stmt"

    def ratio(part: float, whole: float) -> tuple:
        return (part / whole if whole else 0.0), "ratio"

    def count(key: str) -> tuple:
        return counts.get(key, 0), "count"

    metrics = {
        "sql.parse_ms": ms("sql.parse"),
        "qtree.build_ms": ms("qtree.build"),
        "transform.heuristic_ms": ms("transform.heuristic"),
        "cbqt.search_ms": ms("cbqt.search"),
        "cbqt.states": per_statement("cbqt.states"),
        "optimizer.physical_ms": ms("optimizer.physical"),
        "optimizer.join_enumerations":
            per_statement("optimizer.join_enumerations"),
        "optimizer.memo_hit_ratio": ratio(
            counts.get("optimizer.memo_hits", 0),
            counts.get("optimizer.memo_lookups", 0)),
        "optimizer.annotation_hit_ratio": ratio(hits, hits + misses),
        "service.lookup_ms": ms("service.lookup"),
        "service.plan_cache_hit_ratio": ratio(
            counts.get("service.plan_cache_hits", 0),
            counts.get("service.plan_cache_lookups", 0)),
        "service.invalidations": count("service.invalidations"),
        "engine.execute_ms": ms("engine.execute"),
        "engine.insert_ms": ms("engine.insert"),
        "engine.work_units": per_statement("engine.work_units"),
        "engine.rows_out": per_statement("engine.rows_out"),
        "engine.vector_fallbacks": count("engine.vector_fallbacks"),
        "server.handle_ms": ms("server.handle"),
        "server.serialize_ms": ms("server.serialize"),
        "server.http_ms": ms("server.http"),
        "server.rejected": count("server.rejected"),
        "server.queue_timeouts": count("server.queue_timeouts"),
        "durability.commit_ms": ms("durability.commit"),
        "durability.fsyncs": count("durability.fsyncs"),
        "durability.wal_bytes_per_user_byte": ratio(
            counts.get("durability.wal_bytes", 0),
            counts.get("durability.user_bytes", 0)),
        "durability.checkpoints": count("durability.checkpoints"),
    }
    shares = spans.layer_shares(by_name)
    for layer, share in shares.items():
        metrics[f"share.{layer}"] = (share, "%")
    # only a fixed list does the same work every pass; counts are per
    # pass, so that two runs of different length compare equal
    per_pass = [
        {k: round(r.counters.get(k, 0), 6) for k in DETERMINISTIC}
        for r in rounds if fixed_list
    ]
    extra = {
        "spans": len(tracer.spans),
        "deterministic": per_pass[0] if per_pass else {},
        "passes_repeat": all(p == per_pass[0] for p in per_pass),
    }
    return metrics, extra


def _commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
            capture_output=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _print_run(result: dict, detail: dict) -> None:
    print(f"workload {detail['workload']}  seed {detail['seed']}  "
          f"trace {detail['trace']}  rounds {detail['rounds']}  "
          f"latency samples {detail['samples']}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "n/a (too few samples)" if value is None else f"{value:.4f}"
        print(f"  {name:<36} {shown:>14} {metric['unit']}")
    for kind, row in detail.get("by_kind", {}).items():
        print(f"  [{kind}] n={row['n']} p50={row['p50_ms']:.3f} ms "
              f"max={row['max_ms']:.3f} ms")
    for failure in detail["failures"]:
        print(f"  FAILED {failure}")
    print("# detail " + json.dumps(detail))
    print(json.dumps(result))


# ---------------------------------------------------------------------------
# the whole set
# ---------------------------------------------------------------------------


def _child(name: str, seed: int, seconds: float, trace: int,
           smoke: bool) -> tuple[dict, dict]:
    """One run in a fresh interpreter, as the driver makes it."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    out = subprocess.run(command, text=True, capture_output=True, cwd=ROOT)
    if out.returncode != 0:
        sys.exit(f"bench: {' '.join(command)} failed:\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2][len("# detail "):])


def run_set(seed: int, seconds: float, smoke: bool) -> dict:
    """Every workload untraced then traced; prints the report and
    returns ``{workload: {"e2e", "layers", "deterministic", ...}}``."""
    report = {}
    for name in WORKLOADS:
        e2e, e2e_detail = _child(name, seed, seconds, 0, smoke)
        layers, layer_detail = _child(name, seed, seconds, 1, smoke)
        untraced, traced = e2e_detail["stmts_per_s"], layer_detail["stmts_per_s"]
        report[name] = {
            "e2e": e2e, "layers": layers,
            "deterministic": layer_detail["deterministic"],
            "passes_repeat": layer_detail["passes_repeat"],
            "trace_overhead_percent": 100.0 * (untraced - traced) / untraced,
            "by_kind": e2e_detail["by_kind"],
            "samples": e2e_detail["samples"],
            "failures": e2e_detail["failures"] + layer_detail["failures"],
        }
    _print_set(report)
    return report


def _print_set(report: dict) -> None:
    import spans

    names = list(report)
    width = 18

    def row(label: str, cells: list) -> None:
        print(f"{label:<38}" + "".join(f"{c:>{width}}" for c in cells))

    def cell(metric: dict) -> str:
        value = metric["value"]
        return "n/a" if value is None else f"{value:.3f} {metric['unit']}"

    print("\nEnd-to-end (untraced runs)")
    row("", names)
    for metric in report[names[0]]["e2e"]["metrics"]:
        row(metric, [cell(report[n]["e2e"]["metrics"][metric]) for n in names])
    row("failed / attempted", [
        f"{report[n]['e2e']['failed']} / {report[n]['e2e']['attempted']}"
        for n in names])
    row("latency samples", [str(report[n]["samples"]) for n in names])
    row("trace_overhead_percent",
        [f"{report[n]['trace_overhead_percent']:.1f} %" for n in names])
    for name in names:
        for kind, stats in report[name]["by_kind"].items():
            if kind != "statement":
                print(f"  {name} [{kind}] n={stats['n']} "
                      f"p50={stats['p50_ms']:.3f} ms max={stats['max_ms']:.3f} ms")

    print("\nPer layer (traced runs; ms and counts are per statement)")
    row("", names)
    for metric in report[names[0]]["layers"]["metrics"]:
        if not metric.startswith("share."):
            row(metric, [cell(report[n]["layers"]["metrics"][metric])
                         for n in names])

    print("\nLayer-share matrix (% of statement time, self time)")
    row("", names)
    for layer in spans.LAYERS:
        row(layer, [
            f"{report[n]['layers']['metrics'][f'share.{layer}']['value']:.1f}"
            for n in names])

    print("\nDeterministic counts per pass (fixed-list workloads)")
    for name in names:
        if report[name]["deterministic"]:
            print(f"  {name}: {report[name]['deterministic']}  "
                  f"passes repeat: {report[name]['passes_repeat']}")
    for name in names:
        for failure in report[name]["failures"]:
            print(f"FAILED {name}: {failure}")


def selfcheck(seed: int, seconds: float) -> int:
    """A/A: two full sets on one checkout must agree within the
    benchmark's own bounds, and repeat every deterministic count."""
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in _benchmark_json()["end_to_end"]}
    first = run_set(seed, seconds, smoke=False)
    second = run_set(seed, seconds, smoke=False)
    problems = []
    print("\nA/A comparison (second set against first)")
    for name in WORKLOADS:
        for metric, (bound, better) in bounds.items():
            a = first[name]["e2e"]["metrics"][metric]["value"]
            b = second[name]["e2e"]["metrics"][metric]["value"]
            worse = (a - b) / a if better == "higher" else (b - a) / a
            verdict = "ok" if worse <= bound else "OUT OF BOUND"
            print(f"  {name:<16} {metric:<12} {a:12.4f} {b:12.4f} "
                  f"{100 * worse:+7.2f}% (bound {100 * bound:.0f}%) {verdict}")
            if worse > bound:
                problems.append(f"{name} {metric}")
        if first[name]["deterministic"] != second[name]["deterministic"] \
                or not first[name]["passes_repeat"]:
            problems.append(f"{name} deterministic counts differ")
        if first[name]["failures"] or second[name]["failures"]:
            problems.append(f"{name} has failed statements")
    print("selfcheck " + ("FAILED: " + ", ".join(problems) if problems
                          else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="short lists, ~2 s per run, oracle on")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run the whole set twice and compare (A/A)")
    parser.add_argument("--write-expected", action="store_true",
                        help="rebuild bench/expected/ (minutes)")
    args = parser.parse_args()
    _load_program()
    seconds = args.seconds
    if seconds is None:
        seconds = 2.0 if args.smoke else _benchmark_json()["run_seconds"]
    if args.write_expected:
        import adhoc_pool

        adhoc_pool.write_pool()
        return 0
    if args.selfcheck:
        return selfcheck(args.seed, seconds)
    if args.workload is None:
        report = run_set(args.seed, seconds, args.smoke)
        return 1 if any(r["failures"] for r in report.values()) else 0
    result, detail = run_once(
        args.workload, args.seed, seconds, bool(args.trace), args.smoke
    )
    _print_run(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
