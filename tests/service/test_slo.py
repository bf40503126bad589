"""Tenant SLO verdicts: column shape, met/missed logic, summaries."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.service import (
    ArrivalSchedule,
    PS_PER_MS,
    Phase,
    RUN_TABLE_COLUMNS,
    Tenant,
    render_run_table_csv,
    render_summary,
    run_table_columns,
    run_table_records,
    window_rows,
)
from repro.service.loop import RequestOutcome


def sched(slo_reader=None, slo_writer=None):
    return ArrivalSchedule(
        name="slo",
        duration_ms=20.0,
        window_ms=10.0,
        servers=1,
        queue_limit=8,
        tenants=(
            Tenant("reader", "storage_read", weight=1.0, slo_p99_ms=slo_reader),
            Tenant("writer", "storage_write", weight=1.0, slo_p99_ms=slo_writer),
        ),
        phases=(Phase("constant", 0.0, 20.0, rate_rps=1000.0),),
    )


def outcome(index, tenant, t_ms, latency_ms, klass="storage_read"):
    t_ps = int(t_ms * PS_PER_MS)
    latency_ps = int(latency_ms * PS_PER_MS)
    return RequestOutcome(
        index=index, t_ps=t_ps, tenant=tenant, klass=klass, status="ok",
        queue_delay_ps=0, service_ps=latency_ps, done_ps=t_ps + latency_ps,
    )


class TestTenantField:
    def test_slo_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            Tenant("t", "storage_read", slo_p99_ms=0.0)

    def test_slo_round_trips_through_json(self):
        schedule = sched(slo_reader=0.25)
        again = ArrivalSchedule.from_json(json.dumps(schedule.to_dict()))
        assert again.tenants[0].slo_p99_ms == 0.25
        assert again.tenants[1].slo_p99_ms is None
        assert again.to_dict() == schedule.to_dict()

    def test_slo_absent_keeps_canonical_dict(self):
        # target-free tenants serialize exactly as before the field existed
        assert "slo_p99_ms" not in Tenant("t", "storage_read").to_dict()


class TestColumns:
    def test_no_targets_keeps_historical_columns(self):
        assert run_table_columns(sched()) == RUN_TABLE_COLUMNS

    def test_targets_append_columns_in_tenant_order(self):
        columns = run_table_columns(sched(slo_reader=1.0, slo_writer=2.0))
        assert columns[: len(RUN_TABLE_COLUMNS)] == RUN_TABLE_COLUMNS
        assert columns[len(RUN_TABLE_COLUMNS):] == ["slo_reader", "slo_writer"]


class TestVerdicts:
    def test_met_missed_and_empty(self):
        schedule = sched(slo_reader=1.0)
        outcomes = [
            # window 0: reader p99 well under 1 ms -> met
            outcome(0, "reader", t_ms=1.0, latency_ms=0.2),
            outcome(1, "reader", t_ms=2.0, latency_ms=0.3),
            # window 1: reader blows the target -> missed
            outcome(2, "reader", t_ms=11.0, latency_ms=5.0),
            # writer has no target: contributes nothing to verdicts
            outcome(3, "writer", t_ms=11.5, latency_ms=9.0,
                    klass="storage_write"),
        ]
        rows = window_rows(schedule, 0, outcomes)
        assert rows[0]["slo_reader"] == "met"
        assert rows[1]["slo_reader"] == "missed"
        assert "slo_writer" not in rows[0]

    def test_window_without_completions_is_blank(self):
        schedule = sched(slo_reader=1.0)
        rows = window_rows(schedule, 0, [outcome(0, "reader", 1.0, 0.1)])
        assert rows[1]["slo_reader"] == ""

    def test_boundary_exactly_met(self):
        # p99 exactly at the target counts as met, not missed
        schedule = sched(slo_reader=1.0)
        rows = window_rows(schedule, 0, [outcome(0, "reader", 1.0, 1.0)])
        assert rows[0]["slo_reader"] == "met"


class TestArtifacts:
    def rows(self):
        schedule = sched(slo_reader=1.0)
        outcomes = [
            outcome(0, "reader", 1.0, 0.2),
            outcome(1, "reader", 11.0, 5.0),
        ]
        return schedule, window_rows(schedule, 0, outcomes)

    def test_csv_has_verdict_column(self):
        schedule, rows = self.rows()
        csv = render_run_table_csv(rows, run_table_columns(schedule))
        header, first, second = csv.strip().split("\n")
        assert header.endswith(",slo_reader")
        assert first.endswith(",met")
        assert second.endswith(",missed")

    def test_records_meta_and_repetition_summary(self):
        schedule, rows = self.rows()
        records = run_table_records(schedule, 0, 1, rows)
        assert records[0]["columns"] == run_table_columns(schedule)
        rep = [r for r in records if r["kind"] == "repetition"][0]
        assert rep["slo_missed_windows"] == 1

    def test_no_targets_means_no_summary_field(self):
        schedule = sched()
        rows = window_rows(schedule, 0, [outcome(0, "reader", 1.0, 0.2)])
        records = run_table_records(schedule, 0, 1, rows)
        assert records[0]["columns"] == RUN_TABLE_COLUMNS
        rep = [r for r in records if r["kind"] == "repetition"][0]
        assert "slo_missed_windows" not in rep

    def test_summary_mentions_slo(self):
        schedule, rows = self.rows()
        text = render_summary(schedule, rows)
        assert "slo reader: 1/2 windows met" in text
