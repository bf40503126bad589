"""TraceSession: span/instant capture, nesting rules, Chrome export."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import (
    SCHEMA,
    TraceSession,
    final_snapshot,
    load_chrome_trace,
    read_jsonl,
)
from repro.telemetry import probe

ALLOWED_PH = {"B", "E", "X", "i"}


class TestActivation:
    def test_probe_set_while_active(self):
        assert probe.session is None
        with TraceSession("t") as s:
            assert probe.session is s
        assert probe.session is None

    def test_nested_sessions_rejected(self):
        with TraceSession("outer"):
            with pytest.raises(TelemetryError):
                TraceSession("inner").__enter__()

    def test_exit_takes_final_snapshot(self):
        with TraceSession("t") as s:
            s.count("x")
        assert s.snapshots[-1]["label"] == "final"
        assert s.snapshots[-1]["metrics"]["x"] == 1


class TestEventCapture:
    def test_span_and_instant_counts(self):
        with TraceSession("t") as s:
            s.complete("dmi", "frame", 0, 2_000)
            s.complete("buffer", "svc", 500, 900)
            s.instant("dmi", "replay", 700)
        assert s.span_count == 2
        assert s.instant_count == 1
        assert s.categories() == ["buffer", "dmi"]

    def test_nested_spans_preserved(self):
        # outer [0, 10ns] encloses inner [2ns, 5ns]; both survive export
        with TraceSession("t") as s:
            s.complete("kernel", "outer", 0, 10_000_000)
            s.complete("dmi", "inner", 2_000_000, 5_000_000)
        events = s.chrome_events()
        by_name = {e["name"]: e for e in events}
        outer, inner = by_name["outer"], by_name["inner"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_overflow_drops_and_counts(self):
        with TraceSession("t", max_events=2) as s:
            for i in range(5):
                s.instant("dmi", f"e{i}", i)
        assert len(s.events) == 2
        assert s.counts.dropped_events == 3


class TestTruncation:
    """Hitting the event cap must stay visible: in metrics and in the trace."""

    def test_dropped_events_surface_in_metrics(self):
        # the events are gone, but the loss must survive into snapshots
        # (and through campaign merges, which only see metrics)
        with TraceSession("t", max_events=1) as s:
            s.complete("dmi", "kept", 0, 10)
            s.complete("dmi", "dropped1", 10, 20)
            s.instant("dmi", "dropped2", 30)
        snap = s.snapshots[-1]["metrics"]
        assert snap["telemetry.dropped_events"] == 2
        assert s.counts.dropped_events == 2

    def test_dropped_events_counter_preseeded_at_zero(self):
        with TraceSession("t") as s:
            s.complete("dmi", "a", 0, 1)
        assert s.snapshots[-1]["metrics"]["telemetry.dropped_events"] == 0

    def test_truncation_marker_in_chrome_export(self):
        with TraceSession("t", max_events=2) as s:
            s.complete("dmi", "a", 0, 1_000)
            s.complete("dmi", "b", 500, 2_000)
            s.instant("dmi", "clipped", 5_000)
        events = s.chrome_events()
        marker = events[-1]
        assert marker["name"] == "telemetry.truncated"
        assert marker["ph"] == "i"
        assert marker["cat"] == "telemetry"
        assert marker["args"] == {"dropped_events": 1, "max_events": 2}
        # chronologically last, so no reader can miss that spans are gone
        assert marker["ts"] == max(e["ts"] for e in events)

    def test_no_marker_without_drops(self):
        with TraceSession("t") as s:
            s.complete("dmi", "a", 0, 1_000)
        names = [e["name"] for e in s.chrome_events()]
        assert "telemetry.truncated" not in names


class TestChromeExport:
    def test_schema(self, tmp_path):
        path = tmp_path / "trace.json"
        with TraceSession("t") as s:
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
        with TraceSession("t") as s:
            s.complete("dmi", "late", 9_000, 10_000)
            s.instant("dmi", "early", 1_000)
        ts = [e["ts"] for e in s.chrome_events()]
        assert ts == sorted(ts)

    def test_tid_stable_per_category(self):
        with TraceSession("t") as s:
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
        with TraceSession("t") as s:
            s.complete("dmi", "frame", 0, 10)
        s.write_chrome(path)
        assert len(load_chrome_trace(path)) == len(s.chrome_events())


class TestMetricsArtifact:
    def test_jsonl_roundtrip(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with TraceSession("t") as s:
            s.count("dmi.frames_sent", 7)
            s.snapshot("mid", ts_ps=123)
        s.write_metrics(path)
        records = read_jsonl(path)
        assert all(r["schema"] == SCHEMA for r in records)
        labels = [r["label"] for r in records if r["kind"] == "snapshot"]
        assert labels == ["mid", "final"]
        final = final_snapshot(records)
        assert final["metrics"]["dmi.frames_sent"] == 7

    def test_core_counters_preseeded(self):
        with TraceSession("t") as s:
            pass
        snap = s.snapshots[-1]["metrics"]
        assert snap["dmi.frames_sent"] == 0
        assert snap["buffer.cache.hits"] == 0
        assert snap["buffer.cache.misses"] == 0
