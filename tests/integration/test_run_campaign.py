"""End-to-end campaign CLI: parallel run, cache re-run, serial parity."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
if "PYTHONDONTWRITEBYTECODE" in os.environ:
    # a run told to write no bytecode keeps its subprocesses from it too
    ENV["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]


def run_cli(script, *args):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture(scope="module")
def campaign_dirs(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign")
    out1, out2, cache = root / "out1", root / "out2", root / "cache"
    run_cli(
        "run_campaign.py", "--jobs", "2", "--only", "table3", "--only", "table1",
        "--out", str(out1), "--cache-dir", str(cache),
    )
    run_cli(
        "run_campaign.py", "--jobs", "2", "--only", "table3", "--only", "table1",
        "--out", str(out2), "--cache-dir", str(cache),
    )
    return out1, out2


def job_records(out_dir):
    records = []
    for line in (out_dir / "manifest.jsonl").read_text().splitlines():
        record = json.loads(line)
        if record["kind"] == "job":
            records.append(record)
    return records


class TestCampaignCli:
    def test_first_run_executes_everything(self, campaign_dirs):
        out1, _ = campaign_dirs
        records = job_records(out1)
        assert {r["experiment"] for r in records} == {"table1", "table3"}
        assert all(r["status"] == "ok" and r["source"] == "run" for r in records)

    def test_second_run_is_all_cache_hits(self, campaign_dirs):
        _, out2 = campaign_dirs
        records = job_records(out2)
        assert records, "manifest empty on re-run"
        assert all(r["source"] == "cache" for r in records)

    def test_cached_tables_identical(self, campaign_dirs):
        out1, out2 = campaign_dirs
        first = (out1 / "experiments.md").read_text()
        assert first == (out2 / "experiments.md").read_text()
        assert first.count("###") == 2  # one block per table

    def test_serial_run_matches_parallel_byte_for_byte(self, campaign_dirs, tmp_path):
        out1, _ = campaign_dirs
        serial = tmp_path / "serial"
        run_cli(
            "run_campaign.py", "--jobs", "1", "--no-cache", "--only", "table3",
            "--only", "table1", "--out", str(serial),
        )
        assert (serial / "experiments.md").read_bytes() == (
            out1 / "experiments.md").read_bytes()

    def test_telemetry_artifact_merges_jobs(self, campaign_dirs):
        out1, _ = campaign_dirs
        records = [
            json.loads(line)
            for line in (out1 / "metrics.jsonl").read_text().splitlines()
        ]
        assert records[0]["kind"] == "meta"
        assert records[0]["experiment"] == "campaign"
        snapshots = [r for r in records if r["kind"] == "snapshot"]
        assert snapshots[-1]["label"] == "merged"
        assert snapshots[-1]["metrics"]["dmi.frames_sent"] > 0
