"""CampaignRunner semantics: parallel=serial, faults, retries, re-runs.

Failure-path tests use the hidden ``_selftest_*`` registry fixtures —
real experiments that misbehave on demand and are importable inside
worker processes.
"""

import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import (
    CampaignJob,
    CampaignReport,
    CampaignRunner,
    JobOutcome,
    ResultCache,
    ScenarioMatrix,
    execute_job,
    read_manifest,
    run_campaign,
    run_experiment,
)
from repro.report import read_artifact
from repro.telemetry import MetricsRegistry

#: one metric event of a job: a count, a histogram sample or a gauge level
EVENT = st.one_of(
    st.tuples(st.just("count"), st.sampled_from(["c.a", "c.shared"]), st.integers(0, 9)),
    st.tuples(st.just("sample"), st.sampled_from(["h.a", "h.b"]),
              st.integers(-10**6, 10**6) | st.floats(-1e6, 1e6)),
    st.tuples(st.just("gauge"), st.sampled_from(["g.a", "c.a.level"]), st.floats(0, 1e3)),
)


class Pulled:
    """A component's kept counts, one of them also pushed (``c.shared``)."""

    METRICS = {"hits": "p.hits", "shared": "c.shared"}

    def __init__(self, hits, shared):
        self.hits = hits
        self.shared = shared


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

    def test_every_job_returns_one_payload_shape(self):
        (job,) = echo_matrix([1]).expand()
        payload = execute_job((job.experiment, job.kwargs, job.seed))
        assert set(payload) == {
            "status", "job_id", "result", "metrics", "amounts", "attribution",
            "journeys_dropped", "journeys_abandoned", "fault_windows",
            "duration_s",
        }

    def test_outcomes_carry_worker_metrics(self):
        jobs = ScenarioMatrix.paper(only=["table3"]).expand()
        report = CampaignRunner(jobs, workers=2).run()
        metrics = report.outcomes[0].payload["metrics"]
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
        # one rule on both paths: the pool abandons the stuck worker, the
        # inline path judges the job's duration when it returns
        matrix = echo_matrix([1])
        matrix.add("_selftest_sleep", seconds=2.0)
        for workers in (2, 1):
            report = CampaignRunner(
                matrix.expand(), workers=workers, retries=0, timeout_s=0.3
            ).run()
            assert len(report.succeeded) == 1, workers
            (failed,) = report.failed
            assert failed.job.experiment == "_selftest_sleep"
            assert "TimeoutError" in failed.error

    def test_validates_configuration(self):
        with pytest.raises(ValueError):
            CampaignRunner([], workers=0)
        with pytest.raises(ValueError):
            CampaignRunner([], retries=-1)
        for timeout_s in (0, -1.0):
            with pytest.raises(ValueError):
                CampaignRunner([], timeout_s=timeout_s)


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
        # re-running with the same cache finishes a campaign whose second
        # job failed: the first replays, only the failed one runs again
        matrix = echo_matrix([1])
        matrix.add("_selftest_fail")
        jobs = matrix.expand()
        manifest = tmp_path / "manifest.jsonl"
        cache_dir = tmp_path / "cache"
        first = CampaignRunner(
            jobs, workers=1, retries=0, cache=ResultCache(cache_dir),
            manifest_path=str(manifest),
        ).run()
        assert [o.ok for o in first.outcomes] == [True, False]

        report = CampaignRunner(
            jobs, workers=1, retries=0, cache=ResultCache(cache_dir),
            manifest_path=str(manifest),
        ).run()
        sources = {o.job.job_id: o.source for o in report.outcomes}
        assert sources[jobs[0].job_id] == "cache"   # replayed, not re-run
        assert sources[jobs[1].job_id] == "run"     # actually re-executed
        records = read_manifest(str(manifest))
        # each run writes its own manifest: one header, one record per job
        assert [r["kind"] for r in records] == ["campaign", "job", "job"]
        assert [r["source"] for r in records[1:]] == ["cache", "run"]

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
            manifest_path=str(manifest),
        ).run()
        assert report.outcomes[0].source == "run"
        assert report.outcomes[0].ok


class TestOneOffRun:
    def test_run_experiment_is_a_one_job_campaign(self, tmp_path):
        # the one-off path runs the job a matrix gives the same cell and
        # writes through the campaign writer: the same attribution bytes,
        # and metrics that differ only in the meta record
        _, report = run_experiment("table3", tmp_path / "one", samples=2)
        matrix = ScenarioMatrix()
        matrix.add("table3", samples=[2], seed=[0])
        jobs = matrix.expand()
        assert [o.job for o in report.outcomes] == jobs
        run_campaign(jobs, tmp_path / "campaign", params={})
        one, campaign = tmp_path / "one", tmp_path / "campaign"
        assert (one / "attribution.jsonl").read_bytes() == (
            campaign / "attribution.jsonl").read_bytes()
        a = (one / "metrics.jsonl").read_text().splitlines()
        b = (campaign / "metrics.jsonl").read_text().splitlines()
        assert a[1:] == b[1:]


class TestTelemetryMerge:
    def test_merged_artifact_aggregates_worker_snapshots(self, tmp_path):
        jobs = ScenarioMatrix.paper(only=["table3", "table2"]).expand()
        report = CampaignRunner(jobs, workers=2).run()
        report.write_artifacts(tmp_path, params={"jobs": 2})

        records, _ = read_artifact(tmp_path / "metrics.jsonl")
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

    def test_merged_snapshot_pools_job_samples(self, tmp_path):
        # real jobs: counts sum, means weigh by count, no gauge merges,
        # and a warm cache at another worker count merges the same
        jobs = ScenarioMatrix.paper(only=["table3", "table2"]).expand()
        cold = CampaignRunner(jobs, workers=2, cache=ResultCache(tmp_path)).run()
        warm = CampaignRunner(jobs, workers=1, cache=ResultCache(tmp_path)).run()
        assert warm.cache_hits == len(jobs)
        merged = cold.merged_metrics()
        assert warm.merged_metrics() == merged
        snapshots = [o.payload["metrics"] for o in cold.outcomes]
        hists = {name for o in cold.outcomes
                 for name, amount in o.payload["amounts"].items() if isinstance(amount, list)}
        assert "buffer.service_ps" in hists
        for name in hists:
            n = sum(s.get(f"{name}.count", 0) for s in snapshots)
            total = sum(s.get(f"{name}.mean", 0) * s.get(f"{name}.count", 0) for s in snapshots)
            assert merged[f"{name}.count"] == n
            assert merged[f"{name}.mean"] == pytest.approx(total / n if n else 0.0, rel=1e-9)
        assert any(k.endswith(".high_water") for s in snapshots for k in s)
        assert not [k for k in merged if k.endswith(".high_water")]

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

        records, _ = read_artifact(a)
        meta = records[0]
        assert meta["kind"] == "meta"
        assert meta["sources"] == sorted(f"job:{j.job_id}" for j in jobs)
        journeys = [r for r in records if r["kind"] == "journey"]
        # 6 configurations x (2 + 3) samples, each tagged with its job
        assert len(journeys) == meta["journeys"] == 30
        assert {j["source"] for j in journeys} == set(meta["sources"])
        assert any(r["kind"] == "stage_summary" for r in records)

    @settings(deadline=None)  # cache writes make example times vary
    @given(
        events=st.lists(EVENT, max_size=40),
        cuts=st.lists(st.integers(0, 40), max_size=5),
        pulled=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=6,
                        max_size=6),
        cached=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    def test_merge_pools_like_one_registry(self, events, cuts, pulled, cached):
        # the events split across jobs (some empty, some replayed from the
        # cache) merge to the snapshot of one registry that saw them all,
        # its gauges excepted
        bounds = [0] + sorted(min(c, len(events)) for c in cuts) + [len(events)]
        seen = MetricsRegistry()
        outcomes = []
        with tempfile.TemporaryDirectory() as tmp:
            cache = ResultCache(tmp, fingerprint="fp")
            for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
                counts = Pulled(*pulled[i])
                registry = MetricsRegistry()
                registry.add_counts(counts)
                seen.add_counts(counts)
                for kind, name, value in events[lo:hi]:
                    if kind == "gauge":
                        registry.gauge(name).set(value)
                        continue
                    for target in (registry, seen):
                        if kind == "count":
                            target.counter(name).add(value)
                        else:
                            target.histogram(name).record(value)
                job = CampaignJob.make("_selftest_echo", {"value": i}, 0)
                payload = {"status": "ok", "result": None, "amounts": registry.amounts()}
                if cached[i]:
                    cache.put(job, payload)
                    outcomes.append(JobOutcome(job, "cache", payload=cache.get(job)))
                else:
                    outcomes.append(JobOutcome(job, "run", attempts=1, payload=payload))
        merged = CampaignReport(outcomes, 0.0, 1).merged_metrics()
        assert merged == seen.snapshot()
        assert list(merged) == sorted(merged)
