"""EXPLAIN ANALYZE golden tests over the paper's example queries.

Acceptance criteria: EXPLAIN ANALYZE on every runnable paper query
reports estimated and actual rows with a Q-error for every operator;
``timing=False`` output is deterministic; the profiler fills invocation
and self-time accounting only when armed.
"""

from __future__ import annotations

import re

import pytest

from repro.obs import operator_profiles, qerror

from .paper_queries import ALL_RUNNABLE

OPERATOR_LINE = re.compile(
    r"est=(?P<est>\d+) actual=(?P<actual>\d+) q=(?P<q>[\d.]+|-) "
    r"invocations=(?P<inv>\d+)"
)

#: a LEFT join whose inner index probe runs once per outer row
LEFT = (
    "SELECT e.emp_id, j.job_title FROM employees e "
    "LEFT JOIN job_history j ON j.emp_id = e.emp_id "
    "WHERE e.salary > 29000"
)


class TestQError:
    def test_symmetric(self):
        assert qerror(10, 100) == qerror(100, 10) == 10.0

    def test_exact_estimate_is_one(self):
        assert qerror(42, 42) == 1.0

    def test_floored_at_one_row(self):
        assert qerror(0, 0) == 1.0
        assert qerror(5, 0) == 5.0


class TestExplainAnalyze:
    @pytest.mark.parametrize("name", sorted(ALL_RUNNABLE))
    def test_every_operator_reports_est_actual_qerror(self, hr_db, name):
        text = hr_db.explain_analyze(ALL_RUNNABLE[name])
        lines = text.splitlines()
        operator_lines = [
            line for line in lines
            if not line.startswith("--") and line.strip()
        ]
        assert operator_lines, f"{name}: no operator lines rendered"
        for line in operator_lines:
            match = OPERATOR_LINE.search(line)
            assert match, f"{name}: operator line missing stats: {line!r}"
            if match.group("q") == "-":
                continue  # its consumer stops early: not scored
            est = int(match.group("est"))
            actual = int(match.group("actual"))
            q = float(match.group("q"))
            runs = max(int(match.group("inv")), 1)
            # est is per invocation and rendered rounded; the true
            # estimate lies anywhere in [est - 0.5, est + 0.5], so bound q
            # by the interval endpoints times the invocations (1.0 is
            # reachable whenever actual falls inside the interval)
            low_est, high_est = (est - 0.5) * runs, (est + 0.5) * runs
            endpoints = [
                qerror(low_est, actual),
                qerror(high_est, actual),
            ]
            low = (
                1.0
                if low_est <= actual <= high_est
                else min(endpoints)
            )
            assert low - 0.01 <= q <= max(endpoints) + 0.01, (
                f"{name}: q={q} outside rounding bounds for "
                f"est={est} actual={actual}"
            )
        assert any(line.startswith("-- max q-error:") for line in lines)
        assert any(line.startswith("-- transformed:") for line in lines)

    @pytest.mark.parametrize("name", ["Q1", "Q12", "Q_GBP"])
    def test_untimed_output_is_deterministic(self, hr_db, name):
        sql = ALL_RUNNABLE[name]
        first = hr_db.explain_analyze(sql, timing=False)
        second = hr_db.explain_analyze(sql, timing=False)
        # generated names (vw$N, gbp$N, ...) come from a global counter
        # and so differ between optimizations; all else must be identical
        normalize = lambda text: re.sub(r"\$\d+", "$N", text)  # noqa: E731
        assert normalize(first) == normalize(second)
        assert "self=" not in first

    def test_timing_adds_self_time(self, hr_db):
        text = hr_db.explain_analyze(ALL_RUNNABLE["Q1"])
        assert "self=" in text
        assert "ms" in text

    def test_root_actual_matches_rows_out(self, hr_db):
        result = hr_db.execute(ALL_RUNNABLE["Q_GBP"], analyze=True)
        profiles = operator_profiles(result.plan, result.exec_stats)
        assert profiles[0]["actual"] == len(result.rows)
        assert f"-- actual rows out: {len(result.rows)}" in (
            result.explain_analyze()
        )

    def test_profiles_cover_whole_plan(self, hr_db):
        result = hr_db.execute(ALL_RUNNABLE["Q12"], analyze=True)
        profiles = operator_profiles(result.plan, result.exec_stats)
        assert len(profiles) == result.plan.total_operator_count()
        assert [p["plan"] for p in profiles] == list(result.plan.walk())

    def test_self_time_non_negative_and_filled(self, hr_db):
        result = hr_db.execute(ALL_RUNNABLE["Q1"], analyze=True)
        stats = result.exec_stats
        assert stats.node_seconds, "profiler armed but recorded no timings"
        assert stats.node_invocations
        for profile in operator_profiles(result.plan, stats):
            assert profile["self_seconds"] >= 0.0

    def test_parameterised_inner_counts_invocations(self, hr_db):
        # Q1's transformed plan (or any NLJ with a parameterised inner)
        # re-instantiates the inner generator per outer row; the profiler
        # must count each instantiation.
        result = hr_db.execute(ALL_RUNNABLE["Q1"], analyze=True)
        invocations = result.exec_stats.node_invocations
        assert max(invocations.values()) >= 1

    @pytest.mark.parametrize("executor", ["row", "vector"])
    def test_parameterised_inner_is_scored_per_probe(self, hr_db, executor):
        # ~2.8 history rows per employee: the per-probe estimate is good,
        # and the rows summed over all probes must not make it look bad
        result = hr_db.execute(LEFT, analyze=True, executor=executor)
        (probe,) = [
            p for p in operator_profiles(result.plan, result.exec_stats)
            if p["label"].startswith("INDEX SCAN job_history")
        ]
        assert probe["invocations"] > 1
        assert probe["actual"] > 2 * probe["estimated"]
        assert probe["qerror"] <= 1.2

    @pytest.mark.parametrize("executor", ["row", "vector"])
    def test_semijoin_inner_is_not_scored(self, hr_db, executor):
        # the semijoin stops probing at the first match, so its inner's
        # actual rows say nothing about the estimate
        result = hr_db.execute(
            ALL_RUNNABLE["Q2"], analyze=True, executor=executor
        )
        profiles = operator_profiles(result.plan, result.exec_stats)
        (semi,) = [p for p in profiles if p["label"].startswith("NESTED LOOPS SEMI")]
        inner = semi["plan"].right
        (inner_profile,) = [p for p in profiles if p["plan"] is inner]
        assert inner_profile["qerror"] is None
        text = result.explain_analyze(timing=False)
        assert f"{inner.label()}  (est=" in text
        assert "q=-" in text
        (summary,) = [
            line for line in text.splitlines()
            if line.startswith("-- max q-error:")
        ]
        assert not summary.endswith(inner.label())

    def test_profiler_off_fills_nothing(self, hr_db):
        result = hr_db.execute(ALL_RUNNABLE["Q1"])
        assert result.exec_stats.node_seconds == {}
        assert result.exec_stats.node_invocations == {}
