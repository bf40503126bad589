"""TraceSession: span/instant capture, nesting rules, Chrome export."""

import json

import pytest

from repro.campaign import CampaignJob, CampaignReport, JobOutcome
from repro.campaign.worker import run_job
from repro.core.results import ResultTable
from repro.errors import TelemetryError
from repro.report import read_artifact
from repro.telemetry import (
    SCHEMA,
    TraceSession,
    final_snapshot,
    load_chrome_trace,
)
from repro.telemetry import probe

ALLOWED_PH = {"B", "E", "X", "i"}


class TestActivation:
    def test_probe_set_while_active(self):
        assert probe.session is None
        with TraceSession() as s:
            assert probe.session is s
        assert probe.session is None

    def test_nested_sessions_rejected(self):
        with TraceSession():
            with pytest.raises(TelemetryError):
                TraceSession().__enter__()

    def test_exit_takes_final_snapshot(self):
        with TraceSession() as s:
            s.count("x")
        assert s.snapshots[-1]["label"] == "final"
        assert s.snapshots[-1]["metrics"]["x"] == 1


class TestEventCapture:
    def test_span_and_instant_counts(self):
        with TraceSession() as s:
            s.complete("dmi", "frame", 0, 2_000)
            s.complete("buffer", "svc", 500, 900)
            s.instant("dmi", "replay", 700)
        assert s.span_count == 2
        assert s.instant_count == 1
        assert s.categories() == ["buffer", "dmi"]

    def test_nested_spans_preserved(self):
        # outer [0, 10ns] encloses inner [2ns, 5ns]; both survive export
        with TraceSession() as s:
            s.complete("kernel", "outer", 0, 10_000_000)
            s.complete("dmi", "inner", 2_000_000, 5_000_000)
        events = s.chrome_events()
        by_name = {e["name"]: e for e in events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_spans_off_keeps_and_counts_nothing(self):
        # campaign jobs run spans=False: spans and instants vanish without
        # a trace, and no telemetry.* key reports on them
        with TraceSession(spans=False) as s:
            s.complete("dmi", "frame", 0, 2_000)
            s.instant("dmi", "replay", 700)
            s.count("dmi.frames_sent", 3)
            s.snapshot("mid")
        assert s.events == [] and s.chrome_events() == []
        for snap in s.snapshots:
            assert snap["metrics"]["dmi.frames_sent"] == 3
            assert not [k for k in snap["metrics"] if k.startswith("telemetry.")]


class TestChromeExport:
    def test_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        with TraceSession() as s:
            s.complete("dmi", "frame", 1_000, 3_000, {"tag": 4})
            s.instant("buffer", "stall", 2_000)
        s.write_chrome(path)
        events = json.loads(path.read_text())
        assert isinstance(events, list) and events
        for e in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
            assert e["ph"] in ALLOWED_PH
        # ps -> us conversion
        span = next(e for e in events if e["ph"] == "X")
        assert span["ts"] == pytest.approx(0.001)
        assert span["dur"] == pytest.approx(0.002)
        assert span["args"] == {"tag": 4}

    def test_timestamps_sorted(self):
        with TraceSession() as s:
            s.complete("dmi", "late", 9_000, 10_000)
            s.instant("dmi", "early", 1_000)
        ts = [e["ts"] for e in s.chrome_events()]
        assert ts == sorted(ts)

    def test_tid_stable_per_category(self):
        with TraceSession() as s:
            s.complete("dmi", "a", 0, 1)
            s.complete("buffer", "b", 0, 1)
            s.complete("dmi", "c", 2, 3)
        tids = {}
        for e in s.chrome_events():
            tids.setdefault(e["cat"], set()).add(e["tid"])
        assert all(len(v) == 1 for v in tids.values())
        assert tids["dmi"] != tids["buffer"]

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        with TraceSession() as s:
            s.complete("dmi", "frame", 0, 10)
        s.write_chrome(path)
        assert len(load_chrome_trace(path)) == len(s.chrome_events())


class TestMetricsArtifact:
    def test_jsonl_roundtrip(self, tmp_path):
        # a session's metrics reach disk through the campaign writer: one
        # job snapshot (the session's final one), then the merged totals
        def runner(seed):
            probe.session.count("dmi.frames_sent", 7)
            return ResultTable("unit", ["x"])

        job = CampaignJob.make("unit", {}, 0)
        session, payload = run_job(job, runner)
        CampaignReport([JobOutcome(job, "run", payload)], 0.0, 1).write_artifacts(
            tmp_path, {}
        )
        records, _ = read_artifact(tmp_path / "metrics.jsonl")
        assert all(r["schema"] == SCHEMA for r in records)
        assert [r["kind"] for r in records] == ["meta", "result", "snapshot", "snapshot"]
        labels = [r["label"] for r in records if r["kind"] == "snapshot"]
        assert labels == ["job:unit[]#s0", "merged"]
        assert records[2]["metrics"] == session.snapshots[-1]["metrics"]
        final = final_snapshot(records)
        assert final["metrics"]["dmi.frames_sent"] == 7

    def test_core_counters_preseeded(self):
        with TraceSession() as s:
            pass
        snap = s.snapshots[-1]["metrics"]
        assert snap["dmi.frames_sent"] == 0
        assert snap["buffer.cache.hits"] == 0
        assert snap["buffer.cache.misses"] == 0
