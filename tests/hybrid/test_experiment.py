"""The tiered_replay experiment end to end: results, attribution, faults.

Covers the acceptance gates of the hybrid subsystem: the policy matrix
produces sane rows deterministically, journeys through a tiered card
tile with zero residual (``tier.*`` spans nested under
``memory.service``), and the ``hybrid.migration_stall`` injector turns
would-be promotions into counted stalls.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.hybrid.experiments import run_tiered_replay
from repro.telemetry import LatencyBreakdown, TraceSession
from repro.telemetry.attribution import journey_record

COLS = {
    name: i for i, name in enumerate(
        ["Policy", "Workload", "Ops", "Fast hits", "Slow hits", "Hit rate",
         "Promotions", "Stalls", "Migrated KiB", "Mean (ns)", "P99 (ns)",
         "Errors"]
    )
}


def cell(table, name):
    return table.rows[0][COLS[name]]


class TestTieredReplayExperiment:
    def test_row_shape_and_zero_errors(self):
        table = run_tiered_replay(policy="clock", workload="kv", ops=64)
        assert list(COLS) == table.columns
        assert cell(table, "Ops") == 64
        assert cell(table, "Errors") == 0
        assert cell(table, "Fast hits") + cell(table, "Slow hits") >= 64

    def test_clock_migrates_static_does_not(self):
        static = run_tiered_replay(policy="static", workload="kv", ops=64)
        clock = run_tiered_replay(policy="clock", workload="kv", ops=64)
        assert cell(static, "Promotions") == 0
        assert cell(clock, "Promotions") > 0

    def test_budget_stalls_promotions_clock_would_run(self):
        budget = run_tiered_replay(policy="budget", workload="kv", ops=96)
        assert cell(budget, "Stalls") > 0

    def test_same_seed_reproduces_the_row(self):
        a = run_tiered_replay(policy="clock", workload="graph", ops=48, seed=5)
        b = run_tiered_replay(policy="clock", workload="graph", ops=48, seed=5)
        assert a.rows == b.rows

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tiered_replay(policy="lru")

    def test_too_few_ops_rejected(self):
        with pytest.raises(ConfigurationError):
            run_tiered_replay(ops=1)


class TestTieredAttribution:
    def _breakdown(self, policy, workload="kv"):
        with TraceSession(spans=False) as session:
            run_tiered_replay(policy=policy, workload=workload, ops=64)
            b = LatencyBreakdown()
            b.add_records(
                journey_record(j) for j in session.journeys.completed
            )
        return b

    def test_tier_stages_tile_with_zero_residual(self):
        b = self._breakdown("clock")
        assert b.check() == []
        stages = b.stages("tiered:clock:kv")
        for stage in ("tier.fast", "tier.slow", "tier.migrate"):
            assert stage in stages, stage

    def test_static_policy_records_no_migrate_stage(self):
        b = self._breakdown("static")
        assert b.check() == []
        assert "tier.migrate" not in b.stages("tiered:static:kv")


class TestMigrationStallInjector:
    def _plan(self, duration_ps):
        return json.dumps({
            "name": "stall",
            "faults": [{
                "injector": "hybrid.migration_stall", "schedule": "once",
                "at_ps": 0, "duration_ps": duration_ps,
            }],
        })

    def test_window_over_whole_replay_freezes_all_promotions(self):
        table = run_tiered_replay(
            policy="clock", workload="kv", ops=64,
            faults=self._plan(10**14),
        )
        assert cell(table, "Promotions") == 0
        assert cell(table, "Stalls") > 0
        assert cell(table, "Errors") == 0

    def test_stalls_exceed_unfaulted_baseline(self):
        clean = run_tiered_replay(policy="clock", workload="kv", ops=64)
        stalled = run_tiered_replay(
            policy="clock", workload="kv", ops=64, faults=self._plan(10**14)
        )
        assert cell(stalled, "Stalls") > cell(clean, "Stalls")
