"""CampaignRunner semantics: parallel=serial, faults, retries, resume.

Failure-path tests use the hidden ``_selftest_*`` registry fixtures —
real experiments that misbehave on demand and are importable inside
worker processes.
"""

import json

import pytest

from repro.campaign import (
    CampaignRunner,
    ResultCache,
    ScenarioMatrix,
    completed_job_ids,
    read_manifest,
)
from repro.telemetry import MetricsRegistry, read_jsonl


def echo_matrix(values, base_seed=0):
    matrix = ScenarioMatrix(base_seed=base_seed)
    matrix.add("_selftest_echo", value=list(values))
    return matrix


class TestExecution:
    def test_parallel_tables_equal_serial_tables(self):
        jobs = ScenarioMatrix.paper(only=["table1", "fig8"]).expand()
        serial = CampaignRunner(jobs, workers=1).run()
        parallel = CampaignRunner(jobs, workers=2).run()
        assert serial.tables() == parallel.tables()
        assert [o.job for o in parallel.outcomes] == jobs  # matrix order kept

    def test_worker_runs_experiment_with_job_seed(self):
        jobs = echo_matrix([7], base_seed=3).expand()
        report = CampaignRunner(jobs, workers=2).run()
        (table,) = report.tables()
        assert table.rows[0] == [7, jobs[0].seed]

    def test_outcomes_carry_worker_metrics(self):
        jobs = ScenarioMatrix.paper(only=["table3"]).expand()
        report = CampaignRunner(jobs, workers=2).run()
        metrics = report.outcomes[0].metrics
        assert metrics["dmi.frames_sent"] > 0

    def test_failed_job_does_not_sink_the_campaign(self):
        matrix = echo_matrix([1, 2])
        matrix.add("_selftest_fail")
        report = CampaignRunner(matrix.expand(), workers=2, retries=0).run()
        assert len(report.succeeded) == 2
        (failed,) = report.failed
        assert failed.job.experiment == "_selftest_fail"
        assert "RuntimeError" in failed.error
        assert "selftest failure" in failed.traceback
        assert report.tables() == CampaignRunner(
            echo_matrix([1, 2]).expand(), workers=1
        ).run().tables()

    def test_bounded_retry_with_backoff(self):
        matrix = ScenarioMatrix()
        matrix.add("_selftest_fail")
        report = CampaignRunner(
            matrix.expand(), workers=2, retries=2, backoff_s=0.01
        ).run()
        assert report.failed[0].attempts == 3

    def test_timeout_marks_job_failed(self):
        matrix = echo_matrix([1])
        matrix.add("_selftest_sleep", seconds=2.0)
        report = CampaignRunner(
            matrix.expand(), workers=2, retries=0, timeout_s=0.3
        ).run()
        assert len(report.succeeded) == 1
        (failed,) = report.failed
        assert failed.job.experiment == "_selftest_sleep"
        assert "TimeoutError" in failed.error

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            CampaignRunner([], workers=0)
        with pytest.raises(ValueError):
            CampaignRunner([], retries=-1)
        with pytest.raises(ValueError):
            CampaignRunner([], resume=True, cache=None)


class TestCacheIntegration:
    def test_second_run_served_entirely_from_cache(self, tmp_path):
        jobs = echo_matrix([1, 2, 3]).expand()
        cold = CampaignRunner(jobs, workers=2, cache=ResultCache(tmp_path)).run()
        warm = CampaignRunner(jobs, workers=2, cache=ResultCache(tmp_path)).run()
        assert cold.cache_hits == 0
        assert warm.cache_hits == len(jobs)
        assert warm.tables() == cold.tables()

    def test_failed_jobs_are_not_cached(self, tmp_path):
        matrix = ScenarioMatrix()
        matrix.add("_selftest_fail")
        cache = ResultCache(tmp_path)
        CampaignRunner(matrix.expand(), workers=1, retries=0, cache=cache).run()
        assert cache.entry_count() == 0


class TestManifestAndResume:
    def test_manifest_journals_every_job(self, tmp_path):
        matrix = echo_matrix([1, 2])
        matrix.add("_selftest_fail")
        manifest = tmp_path / "manifest.jsonl"
        CampaignRunner(
            matrix.expand(), workers=2, retries=0,
            cache=ResultCache(tmp_path / "cache"),
            manifest_path=str(manifest),
        ).run()
        records = read_manifest(str(manifest))
        assert records[0]["kind"] == "campaign"
        jobs = [r for r in records if r["kind"] == "job"]
        assert len(jobs) == 3
        by_id = {r["job_id"]: r for r in jobs}
        statuses = sorted(r["status"] for r in jobs)
        assert statuses == ["failed", "ok", "ok"]
        failed = next(r for r in jobs if r["status"] == "failed")
        assert "selftest failure" in failed["traceback"]
        for r in jobs:
            assert r["key"] and r["attempts"] >= 1
        assert set(by_id) == {j.job_id for j in matrix.expand()}

    def test_resume_completes_artificially_failed_job(self, tmp_path):
        # satellite: --resume finishes a manifest holding one failed job
        jobs = echo_matrix([1, 2]).expand()
        manifest = tmp_path / "manifest.jsonl"
        cache_dir = tmp_path / "cache"
        CampaignRunner(
            jobs, workers=1, cache=ResultCache(cache_dir),
            manifest_path=str(manifest),
        ).run()

        # artificially fail the second job: journal a failed record and
        # evict its cached result, as if the worker died mid-campaign
        victim = jobs[1]
        key = ResultCache(cache_dir).key_for(victim)
        with open(manifest, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "schema": "repro.campaign/v1", "kind": "job",
                "job_id": victim.job_id, "status": "failed",
                "source": "run", "attempts": 1,
            }) + "\n")
        (cache_dir / key[:2] / f"{key}.pkl").unlink()

        report = CampaignRunner(
            jobs, workers=1, cache=ResultCache(cache_dir),
            manifest_path=str(manifest), resume=True,
        ).run()
        assert not report.failed
        sources = {o.job.job_id: o.source for o in report.outcomes}
        assert sources[jobs[0].job_id] == "resume"   # replayed, not re-run
        assert sources[victim.job_id] == "run"       # actually re-executed
        done = completed_job_ids(read_manifest(str(manifest)))
        assert set(done) == {j.job_id for j in jobs}

    def test_resume_ignores_stale_manifest_entries(self, tmp_path):
        # ok in the manifest but evicted from cache ⇒ must re-run
        jobs = echo_matrix([5]).expand()
        manifest = tmp_path / "manifest.jsonl"
        CampaignRunner(
            jobs, workers=1, cache=ResultCache(tmp_path / "cache"),
            manifest_path=str(manifest),
        ).run()
        key = ResultCache(tmp_path / "cache").key_for(jobs[0])
        (tmp_path / "cache" / key[:2] / f"{key}.pkl").unlink()
        report = CampaignRunner(
            jobs, workers=1, cache=ResultCache(tmp_path / "cache"),
            manifest_path=str(manifest), resume=True,
        ).run()
        assert report.outcomes[0].source == "run"
        assert report.outcomes[0].ok


class TestTelemetryMerge:
    def test_merged_artifact_aggregates_worker_snapshots(self, tmp_path):
        jobs = ScenarioMatrix.paper(only=["table3", "table2"]).expand()
        report = CampaignRunner(jobs, workers=2).run()
        report.write_artifacts(tmp_path, params={"jobs": 2})

        records = read_jsonl(str(tmp_path / "metrics.jsonl"))
        kinds = [r["kind"] for r in records]
        assert kinds[0] == "meta"
        assert kinds.count("result") == len(report.tables())
        snapshots = [r for r in records if r["kind"] == "snapshot"]
        assert snapshots[-1]["label"] == "merged"
        per_job = [s for s in snapshots if s["label"].startswith("job:")]
        assert len(per_job) == 2
        merged = snapshots[-1]["metrics"]
        total_frames = sum(s["metrics"]["dmi.frames_sent"] for s in per_job)
        assert merged["dmi.frames_sent"] == total_frames

    def test_attribution_merges_deterministically_across_workers(self, tmp_path):
        # two journey-producing jobs; worker count and completion order
        # must not leak into the merged attribution artifact
        matrix = ScenarioMatrix()
        matrix.add("table3", samples=[2, 3])
        jobs = matrix.expand()
        serial = CampaignRunner(jobs, workers=1).run()
        parallel = CampaignRunner(jobs, workers=2).run()
        (tmp_path / "serial").mkdir()
        (tmp_path / "parallel").mkdir()
        serial.write_artifacts(tmp_path / "serial", params={})
        parallel.write_artifacts(tmp_path / "parallel", params={})
        a = tmp_path / "serial" / "attribution.jsonl"
        assert a.read_bytes() == (tmp_path / "parallel" / "attribution.jsonl").read_bytes()

        records = read_jsonl(str(a))
        meta = records[0]
        assert meta["kind"] == "meta"
        assert meta["sources"] == sorted(f"job:{j.job_id}" for j in jobs)
        journeys = [r for r in records if r["kind"] == "journey"]
        # 6 configurations x (2 + 3) samples, each tagged with its job
        assert len(journeys) == meta["journeys"] == 30
        assert {j["source"] for j in journeys} == set(meta["sources"])
        assert any(r["kind"] == "stage_summary" for r in records)

    def test_merge_snapshot_rules(self):
        merged = MetricsRegistry.merge_snapshots([
            {"a.count": 2, "a.min": 1.0, "a.max": 5.0, "a.mean": 3.0, "c": 7},
            {"a.count": 3, "a.min": 0.5, "a.max": 9.0, "a.mean": 4.0, "c": 1},
        ])
        assert merged["a.count"] == 5
        assert merged["a.min"] == 0.5
        assert merged["a.max"] == 9.0
        assert merged["a.mean"] == 4.0   # last wins: per-run statistic
        assert merged["c"] == 8          # counters sum
