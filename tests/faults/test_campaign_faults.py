"""Fault campaigns are deterministic: same plan + seed -> identical
artifacts regardless of worker count (the ISSUE's byte-identity bar)."""

import json

from repro.campaign import (
    ScenarioMatrix,
    apply_fault_plan,
    canonical_manifest,
    execute_job,
    get_experiment,
    read_manifest,
    run_campaign,
)
from repro.faults import FaultPlan, FaultSpec
from repro.report import SuiteRunner, SuiteSpec
from repro.telemetry import fault_window_record, read_attribution
from repro.telemetry.attribution import fault_window_records

PLAN = FaultPlan(name="smoke", specs=(FaultSpec(
    "dmi.frame_drop", target="0", schedule="periodic",
    start_ps=0, period_ps=2_000_000, count=3, label="drop"),))


def fault_jobs(plan_json):
    """The tiny fixed-seed fault matrix the CI chaos smoke also runs."""
    matrix = ScenarioMatrix(base_seed=0)
    matrix.add("ber_sweep", samples=[2], rates=[(0.0, 0.05)])
    return apply_fault_plan(matrix.expand(), plan_json)


class TestFaultPlanThreading:
    def test_plan_lands_only_in_fault_capable_jobs(self):
        matrix = ScenarioMatrix(base_seed=0)
        matrix.add("ber_sweep", samples=[2])
        matrix.add("table1")
        jobs = apply_fault_plan(matrix.expand(), PLAN.to_json())
        by_exp = {j.experiment: j for j in jobs}
        assert by_exp["ber_sweep"].kwargs_dict["faults"] == PLAN.to_json()
        assert "faults" not in by_exp["table1"].kwargs_dict
        assert get_experiment("table1").supports_faults is False

    def test_plan_is_part_of_the_job_identity(self):
        plain = fault_jobs(PLAN.to_json())[0]
        other = FaultPlan(name="other", specs=PLAN.specs)
        assert plain.job_id != fault_jobs(other.to_json())[0].job_id


class TestWorkerCountInvariance:
    def run_campaign(self, tmp_path, tag, workers, plan_json):
        out = tmp_path / tag
        report = run_campaign(fault_jobs(plan_json), out, params={}, workers=workers)
        assert not report.failed
        return out

    def test_artifacts_byte_identical_across_jobs(self, tmp_path):
        plan_json = PLAN.to_json()
        serial = self.run_campaign(tmp_path, "serial", 1, plan_json)
        parallel = self.run_campaign(tmp_path, "parallel", 2, plan_json)
        a = (serial / "attribution.jsonl").read_bytes()
        b = (parallel / "attribution.jsonl").read_bytes()
        assert a == b
        assert canonical_manifest(
            read_manifest(str(serial / "manifest.jsonl"))
        ) == canonical_manifest(
            read_manifest(str(parallel / "manifest.jsonl"))
        )

    def test_artifact_carries_every_job_fault_window(self, tmp_path):
        plan_json = PLAN.to_json()
        serial = self.run_campaign(tmp_path, "serial", 1, plan_json)
        parallel = self.run_campaign(tmp_path, "parallel", 2, plan_json)
        a = (serial / "attribution.jsonl").read_bytes()
        assert a == (parallel / "attribution.jsonl").read_bytes()
        (job,) = fault_jobs(plan_json)
        own = execute_job((job.experiment, job.kwargs, job.seed))["fault_windows"]
        assert own
        windows = fault_window_records(read_attribution(serial / "attribution.jsonl"))
        assert windows == [
            {**fault_window_record(w), "source": f"job:{job.job_id}"} for w in own
        ]


class TestSuiteFaultBuckets:
    def test_faulted_suite_campaign_reports_fault_buckets(self, tmp_path):
        spec = SuiteSpec.from_dict({
            "schema": "repro.suite/v1", "name": "faulted", "seed": 0,
            "campaigns": [{
                "name": "chaos",
                "scenarios": [{"experiment": "ber_sweep",
                               "axes": {"samples": [2], "rates": [[0.0, 0.05]]}}],
                "faults": json.loads(PLAN.to_json()),
            }],
            "services": [], "tunes": [], "kernel_profile": False,
        })
        result = SuiteRunner(spec, tmp_path / "out", cache=None).run()
        assert result.ok, result.failures
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        buckets = report["campaigns"][0]["fault_buckets"]
        assert sum(b["injections"] for b in buckets) > 0
        assert sum(b["fault_journeys"] for b in buckets) > 0
