"""Attribution layer: journeys, breakdown, artifact, sampler, chrome flows."""

import pytest

from repro.campaign import CampaignJob, CampaignReport, JobOutcome
from repro.campaign.worker import run_job
from repro.core.results import ResultTable
from repro.report import read_artifact
from repro.telemetry import (
    ATTRIBUTION_SCHEMA,
    JourneyTracker,
    LatencyBreakdown,
    OccupancySampler,
    TraceSession,
    journey_record,
    merge_attribution,
    probe,
    write_jsonl,
)
from repro.telemetry.attribution import (
    journey_chrome_extras,
    journey_records,
)


def make_journey(tracker, scenario="run", start=0):
    """One canonical journey: tag wait, down, nested memory, buffer, up."""
    tracker.set_scenario(scenario)
    jid = tracker.begin("read", 0x80, "dmi0", start)
    tracker.stage_to(jid, "host.tag_wait", start + 100, kind="queue")
    tracker.stage_to(jid, "dmi.down", start + 400)
    tracker.stage_span(jid, "memory.queue", start + 450, start + 500, kind="queue")
    tracker.stage_span(jid, "memory.service", start + 500, start + 700)
    tracker.stage_to(jid, "buffer", start + 800)
    tracker.stage_to(jid, "dmi.up", start + 1000)
    tracker.finish(jid, start + 1000)
    return jid


class TestJourneyTracker:
    def test_stages_partition_the_journey(self):
        tracker = JourneyTracker()
        make_journey(tracker)
        journey = tracker.completed[0]
        assert journey.total_ps == 1000
        assert journey.attributed_ps() == 1000      # top-level stages tile
        assert journey.unattributed_ps() == 0
        top = [v for v in journey.stages if not v.nested]
        assert [v.stage for v in top] == [
            "host.tag_wait", "dmi.down", "buffer", "dmi.up"
        ]
        # each stage starts where the previous ended
        for prev, nxt in zip(top, top[1:]):
            assert nxt.start_ps == prev.end_ps

    def test_zero_length_stage_skipped_but_cursor_advances(self):
        tracker = JourneyTracker()
        jid = tracker.begin("read", 0, "dmi0", 0)
        tracker.stage_to(jid, "host.tag_wait", 0, kind="queue")  # no wait
        tracker.stage_to(jid, "dmi.down", 300)
        tracker.finish(jid, 300)
        journey = tracker.completed[0]
        assert [v.stage for v in journey.stages] == ["dmi.down"]
        assert journey.stages[0].start_ps == 0   # cursor stayed put
        assert journey.unattributed_ps() == 0

    def test_queue_vs_service_classification(self):
        tracker = JourneyTracker()
        make_journey(tracker)
        kinds = {v.stage: v.kind for v in tracker.completed[0].stages}
        assert kinds["host.tag_wait"] == "queue"
        assert kinds["memory.queue"] == "queue"
        assert kinds["dmi.down"] == "service"
        assert kinds["memory.service"] == "service"

    def test_nested_spans_do_not_move_cursor(self):
        tracker = JourneyTracker()
        jid = tracker.begin("read", 0, "dmi0", 0)
        tracker.stage_to(jid, "dmi.down", 100)
        tracker.stage_span(jid, "memory.service", 120, 180)
        tracker.stage_to(jid, "buffer", 200)
        tracker.finish(jid, 200)
        buffer = next(
            v for v in tracker.completed[0].stages if v.stage == "buffer"
        )
        assert (buffer.start_ps, buffer.end_ps) == (100, 200)

    def test_binding_round_trip(self):
        tracker = JourneyTracker()
        jid = tracker.begin("read", 0, "dmi0", 0)
        tracker.bind("dmi0", 7, jid)
        assert tracker.bound("dmi0", 7) == jid
        assert tracker.bound("dmi1", 7) is None
        tracker.unbind("dmi0", 7)
        assert tracker.bound("dmi0", 7) is None

    def test_max_journeys_drops_and_counts(self):
        tracker = JourneyTracker(max_journeys=2)
        for start in (0, 100):
            jid = tracker.begin("read", 0, "dmi0", start)
            tracker.finish(jid, start + 10)
        assert tracker.begin("read", 0, "dmi0", 200) is None
        assert tracker.begin("write", 0, "dmi0", 300) is None
        assert len(tracker.completed) == 2
        assert tracker.dropped == 2

    def test_stage_calls_with_none_or_unknown_jid_are_noops(self):
        tracker = JourneyTracker()
        tracker.stage_to(999, "dmi.down", 100)     # never begun
        tracker.stage_span(999, "memory.service", 0, 100)
        assert tracker.finish(999, 100) is None
        assert tracker.completed == []

    def test_abandoned_journeys_counted_as_active(self):
        tracker = JourneyTracker()
        tracker.begin("read", 0, "dmi0", 0)        # never finished
        make_journey(tracker)
        assert tracker.active_count == 1
        assert len(tracker.completed) == 1


class TestLatencyBreakdown:
    def _folded(self, scenario="run"):
        tracker = JourneyTracker()
        make_journey(tracker, scenario=scenario)
        breakdown = LatencyBreakdown()
        breakdown.add_record(journey_record(tracker.completed[0]))
        return breakdown

    def test_buffer_stage_reported_exclusive_of_memory(self):
        breakdown = self._folded()
        rows = {r["stage"]: r for r in breakdown.stage_table("run")}
        # raw buffer window is 400ps (400..800); nested memory takes 250
        assert rows["buffer"]["mean_ps"] == 150
        assert rows["memory.queue"]["mean_ps"] == 50
        assert rows["memory.service"]["mean_ps"] == 200

    def test_stage_means_tile_the_end_to_end_latency(self):
        breakdown = self._folded()
        total = sum(r["mean_ps"] for r in breakdown.stage_table("run"))
        assert total == breakdown.end_to_end("run")["mean"] == 1000
        assert breakdown.residual("run")["mean"] == 0
        assert breakdown.check() == []

    def test_shares_sum_to_one(self):
        breakdown = self._folded()
        assert sum(r["share"] for r in breakdown.stage_table("run")) == pytest.approx(1.0)

    def test_critical_path_ordering(self):
        breakdown = self._folded()
        path = [r["stage"] for r in breakdown.critical_path("run")]
        assert path[0] == "dmi.down"               # 300ps, the largest
        assert set(path) == {
            "host.tag_wait", "dmi.down", "buffer",
            "memory.queue", "memory.service", "dmi.up",
        }

    def test_delta_between_scenarios(self):
        tracker = JourneyTracker()
        make_journey(tracker, scenario="base")
        tracker.set_scenario("slow")
        jid = tracker.begin("read", 0, "dmi0", 0)
        tracker.stage_to(jid, "dmi.down", 500)     # +200 vs base's 300
        tracker.finish(jid, 500)
        breakdown = LatencyBreakdown()
        breakdown.add_records(journey_record(j) for j in tracker.completed)
        delta = {r["stage"]: r["delta_ps"] for r in breakdown.delta("slow", "base")}
        # base dmi.down covers 100..400 = 300ps; slow covers 0..500 = 500ps
        assert delta["dmi.down"] == 200
        assert delta["buffer"] == -150             # slow has no buffer stage

    def test_missing_hook_trips_the_residual_check(self):
        tracker = JourneyTracker()
        jid = tracker.begin("read", 0, "dmi0", 0)
        tracker.stage_to(jid, "dmi.down", 100)
        tracker.finish(jid, 1000)                  # 900ps unattributed
        breakdown = LatencyBreakdown()
        breakdown.add_record(journey_record(tracker.completed[0]))
        warnings = breakdown.check()
        assert len(warnings) == 1
        assert "unattributed" in warnings[0]

    def test_empty_breakdown_warns(self):
        warnings = LatencyBreakdown().check()
        assert warnings and "no journeys" in warnings[0]

    def test_incomplete_journeys_ignored(self):
        tracker = JourneyTracker()
        tracker.begin("read", 0, "dmi0", 0)        # never finished
        breakdown = LatencyBreakdown()
        for journey in list(tracker._active.values()):
            breakdown.add_record(journey_record(journey))
        assert breakdown.scenarios() == []


class TestArtifact:
    def test_round_trip(self, tmp_path):
        # a session's journeys reach disk through the campaign writer,
        # tagged with their job as source
        def runner(seed):
            make_journey(probe.tracker(), scenario="t3")
            return ResultTable("unit", ["x"])

        job = CampaignJob.make("unit", {}, 0)
        _, payload = run_job(job, runner)
        CampaignReport([JobOutcome(job, "run", payload)], 0.0, 1).write_artifacts(
            tmp_path, {}
        )
        records, _ = read_artifact(tmp_path / "attribution.jsonl")
        assert all(r["schema"] == ATTRIBUTION_SCHEMA for r in records)
        assert records[0]["kind"] == "meta"
        assert records[0]["journeys"] == 1
        assert records[0]["scenarios"] == ["t3"]
        assert records[0]["sources"] == ["job:unit[]#s0"]
        kinds = {r["kind"] for r in records}
        assert {"meta", "journey", "end_to_end", "stage_summary"} <= kinds
        journeys = journey_records(records)
        assert len(journeys) == 1
        # the loaded records refold into the identical breakdown
        breakdown = LatencyBreakdown()
        breakdown.add_records(journeys)
        assert breakdown.end_to_end("t3")["mean"] == 1000
        assert breakdown.check() == []

    def test_merge_is_order_insensitive(self):
        def source(label, scenario, start):
            tracker = JourneyTracker()
            make_journey(tracker, scenario=scenario, start=start)
            return (label, [journey_record(j) for j in tracker.completed])

        a = source("job:a", "s1", 0)
        b = source("job:b", "s2", 5000)
        c = source("job:c", "s1", 9000)
        merged_fwd = merge_attribution([a, b, c])
        merged_rev = merge_attribution([c, b, a])
        assert merged_fwd == merged_rev
        meta = merged_fwd[0]
        assert meta["sources"] == ["job:a", "job:b", "job:c"]
        assert meta["journeys"] == 3
        tagged = journey_records(merged_fwd)
        assert [r["source"] for r in tagged] == ["job:a", "job:b", "job:c"]

    def test_merged_artifact_writes_and_reloads(self, tmp_path):
        tracker = JourneyTracker()
        make_journey(tracker)
        records = merge_attribution(
            [("w0", [journey_record(j) for j in tracker.completed])]
        )
        path = tmp_path / "merged.jsonl"
        write_jsonl(path, records)
        assert read_artifact(path) == (records, [])


class TestChromeFlows:
    def test_flow_chain_links_stage_spans(self):
        tracker = JourneyTracker()
        make_journey(tracker)
        extras = journey_chrome_extras(tracker.completed)
        spans = [e for e in extras if e["ph"] == "X"]
        flows = [e for e in extras if e["ph"] in ("s", "t", "f")]
        assert len(spans) == 6                     # 4 top-level + 2 nested
        assert len(flows) == 6
        assert all(e["cat"] == "journey" for e in extras)
        jid = tracker.completed[0].jid
        assert all(f["id"] == jid for f in flows)
        phases = [f["ph"] for f in flows]
        assert phases[0] == "s" and phases[-1] == "f"
        assert set(phases[1:-1]) == {"t"}
        assert flows[-1]["bp"] == "e"

    def test_session_export_carries_journeys(self):
        with TraceSession() as session:
            session.complete("dmi", "frame", 0, 500)
            make_journey(session.journeys)
        events = session.chrome_events()
        cats = {e["cat"] for e in events}
        assert "journey" in cats
        flow_ids = {e["id"] for e in events if e["ph"] in ("s", "t", "f")}
        assert len(flow_ids) == 1
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)                    # flows don't break order

    def test_journeys_without_stages_emit_nothing(self):
        tracker = JourneyTracker()
        jid = tracker.begin("read", 0, "dmi0", 0)
        tracker.finish(jid, 0)
        assert journey_chrome_extras(tracker.completed) == []


class TestOccupancySampler:
    def test_period_gating(self):
        with TraceSession() as session:
            sampler = OccupancySampler(period_ps=100)
            sampler.set_sources({"q": lambda: 3})
            assert sampler.maybe_sample(session, 0)
            assert not sampler.maybe_sample(session, 50)    # inside period
            assert sampler.maybe_sample(session, 100)
            assert session.counts.occupancy_samples == 2
        snap = session.snapshots[-1]["metrics"]
        assert snap["occupancy.samples"] == 2
        assert snap["occupancy.q.count"] == 2
        assert snap["occupancy.q.mean"] == 3

    def test_no_sources_means_no_samples(self):
        with TraceSession() as session:
            sampler = OccupancySampler(period_ps=100)
            assert not sampler.maybe_sample(session, 0)
        assert session.counts.occupancy_samples == 0

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            OccupancySampler(period_ps=0)

    def test_session_wires_sampler_and_tracker(self):
        with TraceSession() as session:
            assert session.journeys is not None
            assert session.occupancy is not None
