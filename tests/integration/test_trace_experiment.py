"""End-to-end telemetry: a traced experiment produces coherent artifacts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import run_table3
from repro.processor import SocketConfig
from repro.report import read_artifact
from repro.telemetry import TraceSession, final_snapshot

REPO = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
if "PYTHONDONTWRITEBYTECODE" in os.environ:
    # a run told to write no bytecode keeps its subprocesses from it too
    ENV["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]

#: spans, instants, and the journey flow chain (s/t/f)
ALLOWED_PH = {"B", "E", "X", "i", "s", "t", "f"}


def run_script(script, *args):
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=ENV,
    )


@pytest.fixture(scope="module")
def traced_table3():
    with TraceSession() as session:
        table = run_table3(samples=4)
    return session, table


class TestTracedRun:
    def test_dmi_round_trip_spans_emitted(self, traced_table3):
        session, _ = traced_table3
        cmd_spans = [
            e for e in session.events
            if e.ph == "X" and e.category == "dmi" and e.name.startswith("cmd.")
        ]
        assert cmd_spans, "no DMI command round-trip spans"
        assert all(e.dur_ps > 0 for e in cmd_spans)

    def test_component_coverage(self, traced_table3):
        session, _ = traced_table3
        assert {"kernel", "dmi", "buffer", "memory"} <= set(session.categories())

    def test_chrome_timestamps_monotonic(self, traced_table3):
        session, _ = traced_table3
        events = session.chrome_events()
        assert len(events) > 100
        ts = [e["ts"] for e in events]
        assert ts == sorted(ts)

    def test_counters_match_run_scale(self, traced_table3):
        session, table = traced_table3
        snap = session.snapshots[-1]["metrics"]
        # table3 measures 6 configurations x 4 samples = 24 reads; every
        # read is one host command with a frame each way plus command misc
        assert snap["dmi.frames_sent"] >= 24
        assert snap["dmi.frames_accepted"] >= 24
        assert snap["buffer.cache.hits"] + snap["buffer.cache.misses"] >= 4
        assert snap["kernel.events"] > 0
        assert len(table.rows) == 6

    def test_kernel_events_cover_signal_driven_runs(self):
        # experiments drive the kernel through run_until_signal, which must
        # honour kernel_events just like run() does
        with TraceSession(kernel_events=True) as session:
            run_table3(samples=2)
        kernel_instants = [
            e for e in session.events if e.ph == "i" and e.category == "kernel"
        ]
        assert len(kernel_instants) > 100

    def test_tracing_leaves_results_unchanged(self, traced_table3):
        _, traced = traced_table3
        plain = run_table3(samples=4)
        assert [row[:2] for row in plain.rows] == [
            row[:2] for row in traced.rows
        ]


class TestAttribution:
    """The tentpole acceptance: journeys explain the measured latency."""

    def test_journeys_tile_the_measured_latency(self, traced_table3):
        session, table = traced_table3
        breakdown = session.breakdown()
        assert breakdown.check(tolerance=0.01) == []
        host_path_ps = SocketConfig().host_path_ps
        for label in ("centaur", "contutto_base", "contutto_knob7"):
            measured_ns = table.cell("Configuration", label, "Latency (ns)")
            # stage means must sum to the end-to-end journey mean, and the
            # journey mean plus the fixed host path must reproduce the
            # measured latency within 1%
            stage_sum = sum(
                r["mean_ps"] for r in breakdown.stage_table(label)
            )
            e2e = breakdown.end_to_end(label)["mean"]
            assert stage_sum == pytest.approx(e2e, rel=0.01)
            journey_ns = (e2e + host_path_ps) / 1000
            assert journey_ns == pytest.approx(measured_ns, rel=0.01)

    def test_stage_deltas_explain_table3(self, traced_table3):
        session, table = traced_table3
        breakdown = session.breakdown()
        # the per-stage deltas must account for the whole ConTutto-minus-
        # Centaur difference (the Table 3 decomposition), and the latency
        # knob must land in the buffer stage, not in memory or the link
        measured_delta_ps = 1000 * (
            table.cell("Configuration", "contutto_base", "Latency (ns)")
            - table.cell("Configuration", "centaur_function_matched", "Latency (ns)")
        )
        rows = breakdown.delta("contutto_base", "function_matched")
        assert sum(r["delta_ps"] for r in rows) == pytest.approx(
            measured_delta_ps, rel=0.01
        )
        knob = {r["stage"]: r["delta_ps"]
                for r in breakdown.delta("contutto_knob7", "contutto_base")}
        assert knob["buffer"] > 0
        assert knob.get("memory.service", 0) == pytest.approx(0, abs=1)

    def test_boot_traffic_kept_out_of_measurement_scenarios(self, traced_table3):
        session, _ = traced_table3
        per_scenario = {}
        for journey in session.journeys.completed:
            per_scenario.setdefault(journey.scenario, []).append(journey)
        measured = set(per_scenario)
        assert measured == {
            "centaur", "function_matched", "contutto_base",
            "contutto_knob2", "contutto_knob6", "contutto_knob7",
        }
        # exactly the measurement reads land in each configuration's bucket
        for scenario in measured:
            journeys = per_scenario[scenario]
            assert len(journeys) == 4              # the fixture's samples=4
            assert all(j.op == "read" for j in journeys)

    def test_occupancy_sampled_during_runs(self, traced_table3):
        session, _ = traced_table3
        snap = session.snapshots[-1]["metrics"]
        assert snap["occupancy.samples"] > 0
        assert any(k.startswith("occupancy.dmi.") for k in snap)
        assert any(k.startswith("occupancy.memory.") for k in snap)
        # per-bank busy sources ride along with the aggregate banks_busy
        assert any(".bank0_busy" in k for k in snap)

    def test_journeys_carry_queue_depth_at_issue(self, traced_table3):
        from repro.telemetry.attribution.artifact import journey_record

        session, _ = traced_table3
        journeys = session.journeys.completed
        # every line command passes the host MC, which stamps the tag
        # window's in-flight count (this command excluded) at issue time
        assert journeys and all(j.depth is not None for j in journeys)
        assert all(0 <= j.depth < 64 for j in journeys)
        records = [journey_record(j) for j in journeys]
        assert all("depth" in r for r in records)


class TestCli:
    def test_trace_experiment_bundle(self, tmp_path):
        out = tmp_path / "t3"
        proc = run_script(
            "trace_experiment.py", "table3", "--out", str(out), "--samples", "4"
        )
        assert proc.returncode == 0, proc.stderr

        events = json.loads((out / "trace.json").read_text())
        assert isinstance(events, list) and events
        for e in events:
            assert {"name", "ph", "ts", "pid", "tid"} <= set(e)
            assert e["ph"] in ALLOWED_PH
        assert len({e["cat"] for e in events}) >= 4

        # journey stage spans linked by flow events sharing a journey id
        flows = [e for e in events if e["ph"] in {"s", "t", "f"}]
        assert flows, "no journey flow events in the trace"
        ids = {e["id"] for e in flows}
        starts = {e["id"] for e in flows if e["ph"] == "s"}
        finishes = {e["id"] for e in flows if e["ph"] == "f"}
        assert starts == finishes == ids
        assert any(e["cat"] == "journey" and e["ph"] == "X" for e in events)

        records, _ = read_artifact(out / "metrics.jsonl")
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta"
        assert "result" in kinds
        snap = final_snapshot(records)["metrics"]
        assert snap["dmi.frames_sent"] > 0
        assert "buffer.cache.misses" in snap

        attribution, _ = read_artifact(out / "attribution.jsonl")
        assert attribution[0]["kind"] == "meta"
        assert attribution[0]["journeys"] >= 24
        assert any(r["kind"] == "journey" for r in attribution)
        assert any(r["kind"] == "stage_summary" for r in attribution)

    def test_analyzer_round_trips_cleanly(self, tmp_path):
        out = tmp_path / "t3"
        proc = run_script(
            "trace_experiment.py", "table3", "--out", str(out), "--samples", "4"
        )
        assert proc.returncode == 0, proc.stderr
        check = run_script("analyze_latency.py", str(out), "--check")
        assert check.returncode == 0, check.stderr
        assert "warning" not in check.stderr
        assert "Latency breakdown: contutto_base" in check.stdout
        assert "Stage deltas" in check.stdout
        # centaur is auto-picked as the delta baseline
        assert "- centaur (" in check.stdout
        # depth-annotated DMI journeys unlock the contention tables
        assert "DRAM bank contention: contutto_base" in check.stdout
        assert "hottest bank holds" in check.stdout
        assert "Queue depth vs latency: contutto_base" in check.stdout
        # table3 issues serially, so depth is constant and r is undefined
        assert "correlation undefined" in check.stdout

    def test_unknown_experiment_is_a_clean_error(self):
        proc = run_script("trace_experiment.py", "table99")
        assert proc.returncode == 2
        assert "unknown experiment 'table99'" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "table3" in proc.stderr          # lists the known names

    def test_help_documents_seed_semantics(self):
        proc = run_script("trace_experiment.py", "--help")
        assert proc.returncode == 0
        assert "--seed" in proc.stdout
        # the help must explain how --seed composes with each experiment's
        # historical base seeds, not just restate the flag name
        assert "historical base seeds" in " ".join(proc.stdout.split())
        assert "known experiments:" in proc.stdout
