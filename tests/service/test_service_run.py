"""End-to-end service runs: shard invariance, overload, faults, merging.

The storage-backed schedule keeps these fast (no system boot); the
fault-composition test boots one small Centaur system.
"""

from functools import cache

import pytest

from repro.errors import ConfigurationError
from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    ArrivalSchedule,
    Phase,
    Tenant,
    calibrate,
    demand_stream,
    generate_arrivals,
    merge_shard_demands,
    profiles_from_table,
    profiles_to_json,
    render_run_table_csv,
    rep_seed,
    run_service,
    run_service_calibrate,
    run_service_shard,
    run_table_records,
    window_rows,
)
from repro.telemetry import TraceSession

# one server against a flash crowd of ~21 us storage reads: the crowd
# peak (150 krps) far exceeds the ~47 krps drain rate, so the middle
# windows must shed and queue
SCHED = ArrivalSchedule(
    name="crowd",
    duration_ms=20.0,
    window_ms=5.0,
    servers=1,
    queue_limit=8,
    tenants=(
        Tenant("reader", "storage_read", weight=3.0),
        Tenant("writer", "storage_write", weight=1.0),
    ),
    phases=(
        Phase("constant", 0.0, 20.0, rate_rps=10_000.0),
        Phase("flash", 5.0, 15.0, peak_rps=150_000.0),
    ),
)

SEED = 11


@cache
def shared_profiles() -> str:
    """The one calibration artifact every shard job below draws from."""
    table = run_service_calibrate(
        classes="storage_read,storage_write", calib_samples=6, seed=SEED,
    )
    return profiles_to_json(profiles_from_table(table))


def run_rows(shards: int, repetition: int = 0):
    """The merged run-table rows produced with ``shards`` workers."""
    tables = [
        run_service_shard(
            schedule=SCHED.to_json(), shard=s, shards=shards,
            repetition=repetition, profiles=shared_profiles(), seed=SEED,
        )
        for s in range(shards)
    ]
    arrivals = generate_arrivals(SCHED, rep_seed(SEED, repetition))
    demands = merge_shard_demands(tables)
    outcomes = run_service(SCHED, demand_stream(arrivals, demands))
    return window_rows(SCHED, repetition, outcomes)


class TestShardInvariance:
    def test_one_vs_three_shards_byte_identical(self):
        rows1 = run_rows(shards=1)
        rows3 = run_rows(shards=3)
        assert render_run_table_csv(rows1) == render_run_table_csv(rows3)
        assert (
            run_table_records(SCHED, SEED, 1, rows1)
            == run_table_records(SCHED, SEED, 1, rows3)
        )

    def test_rerun_is_byte_identical(self):
        assert render_run_table_csv(run_rows(1)) == render_run_table_csv(
            run_rows(1)
        )

    def test_artifacts_never_mention_shards(self):
        records = run_table_records(SCHED, SEED, 1, run_rows(2))
        assert not any("shard" in key for r in records for key in r)


class TestOverloadBehavior:
    def test_flash_windows_shed_and_queue(self):
        rows = run_rows(shards=1)
        flash = [r for r in rows if r["shed"] > 0]
        assert flash, "the flash crowd must overflow the queue"
        for row in flash:
            assert row["achieved_rps"] < row["offered_rps"]
            assert row["shed_rate"] > 0
        assert any(r["queue_delay_mean_ms"] > 0 for r in rows)

    def test_calm_windows_keep_up(self):
        rows = run_rows(shards=1)
        assert rows[0]["shed"] == 0
        assert rows[0]["occupancy_mean"] < 1.0

    def test_counts_are_conserved(self):
        rows = run_rows(shards=1)
        offered = sum(r["offered"] for r in rows)
        assert offered == sum(
            r["admitted"] + r["shed"] for r in rows
        )
        # every admitted request completes in some window
        assert sum(r["completed"] for r in rows) == sum(
            r["admitted"] for r in rows
        )


class TestMergeValidation:
    def test_missing_shard_detected(self):
        tables = [
            run_service_shard(schedule=SCHED.to_json(), shard=0, shards=2,
                              profiles=shared_profiles(), seed=SEED)
        ]
        with pytest.raises(ConfigurationError):
            merge_shard_demands(tables)

    def test_duplicate_shard_detected(self):
        table = run_service_shard(schedule=SCHED.to_json(), shard=0, shards=1,
                                  profiles=shared_profiles(), seed=SEED)
        with pytest.raises(ConfigurationError):
            merge_shard_demands([table, table])

    def test_bad_shard_assignment_rejected(self):
        with pytest.raises(ConfigurationError):
            run_service_shard(schedule=SCHED.to_json(), shard=2, shards=2)


class TestFaultComposition:
    def test_faulted_calibration_attributes_fully(self):
        plan = FaultPlan(name="svc", specs=(FaultSpec(
            "dmi.frame_drop", target="0", schedule="periodic",
            start_ps=0, period_ps=500_000, count=4, label="drop"),))
        with TraceSession("svc-faults", max_events=0) as session:
            profile = calibrate("mem_read", 8, seed=3, faults=plan)
        assert len(profile.samples_ps) == 8
        # overload + faults still tile every journey: zero residual
        assert session.breakdown().check() == []

    def test_fault_plan_changes_the_profile(self):
        plan = FaultPlan(name="svc", specs=(FaultSpec(
            "dmi.frame_drop", target="0", schedule="periodic",
            start_ps=0, period_ps=500_000, count=4, label="drop"),))
        clean = calibrate("mem_read", 8, seed=3)
        faulty = calibrate("mem_read", 8, seed=3, faults=plan)
        assert faulty.samples_ps != clean.samples_ps
