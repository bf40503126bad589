"""End-to-end service runs: determinism, overload, faults.

Every run goes through the driver's per-repetition function,
:func:`~repro.service.repetition_rows`.  The storage-backed schedule
keeps these fast (no system boot); the fault-composition test boots one
small Centaur system.
"""

from functools import cache

from repro.faults import FaultPlan, FaultSpec
from repro.service import (
    ArrivalSchedule,
    Phase,
    Tenant,
    calibrate,
    profiles_from_table,
    render_run_table_csv,
    repetition_rows,
    run_service_calibrate,
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
def shared_profiles():
    """The one calibration every repetition below draws from."""
    table = run_service_calibrate(
        classes="storage_read,storage_write", calib_samples=6, seed=SEED,
    )
    return profiles_from_table(table)


def run_rows(repetition: int = 0):
    """One repetition's run-table rows, as the driver computes them."""
    return repetition_rows(SCHED, shared_profiles(), SEED, repetition)


class TestShardInvariance:
    def test_rerun_is_byte_identical(self):
        assert render_run_table_csv(run_rows()) == render_run_table_csv(
            run_rows()
        )


class TestOverloadBehavior:
    def test_flash_windows_shed_and_queue(self):
        rows = run_rows()
        flash = [r for r in rows if r["shed"] > 0]
        assert flash, "the flash crowd must overflow the queue"
        for row in flash:
            assert row["achieved_rps"] < row["offered_rps"]
            assert row["shed_rate"] > 0
        assert any(r["queue_delay_mean_ms"] > 0 for r in rows)

    def test_calm_windows_keep_up(self):
        rows = run_rows()
        assert rows[0]["shed"] == 0
        assert rows[0]["occupancy_mean"] < 1.0

    def test_counts_are_conserved(self):
        rows = run_rows()
        offered = sum(r["offered"] for r in rows)
        assert offered == sum(
            r["admitted"] + r["shed"] for r in rows
        )
        # every admitted request completes in some window
        assert sum(r["completed"] for r in rows) == sum(
            r["admitted"] for r in rows
        )


class TestFaultComposition:
    def test_faulted_calibration_attributes_fully(self):
        plan = FaultPlan(name="svc", specs=(FaultSpec(
            "dmi.frame_drop", target="0", schedule="periodic",
            start_ps=0, period_ps=500_000, count=4, label="drop"),))
        with TraceSession(spans=False) as session:
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
