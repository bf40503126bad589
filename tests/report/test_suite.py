"""Suite spec validation and the end-to-end report pipeline.

The expensive piece — running a tiny suite at ``--jobs 1`` and
``--jobs 2`` — happens once per module; every invariant (byte-identical
report.json, self-diff PASS, artifact layout, kernel profile) asserts
against those two shared runs.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.report import (
    SuiteRunner,
    SuiteSpec,
    diff_reports,
    load_report,
)


def spec_dict(**overrides):
    base = {
        "schema": "repro.suite/v1",
        "name": "tiny",
        "seed": 3,
        "campaigns": [
            {"name": "micro",
             "scenarios": [{"experiment": "table3", "axes": {"samples": [6]}}]},
        ],
        "services": [
            {"name": "svc",
             "schedule": {
                 "name": "tiny_svc",
                 "duration_ms": 4.0,
                 "window_ms": 2.0,
                 "servers": 1,
                 "queue_limit": 8,
                 "tenants": [
                     {"name": "reader", "klass": "storage_read",
                      "weight": 1.0, "slo_p99_ms": 2.0},
                 ],
                 "phases": [
                     {"kind": "constant", "start_ms": 0.0, "end_ms": 4.0,
                      "rate_rps": 3000.0},
                 ],
             },
             "calib_samples": 4},
        ],
        "tunes": [
            {"name": "grid",
             "spec": {
                 "schema": "repro.tune/v1",
                 "name": "tiny-grid",
                 "workload": "mem_read",
                 "space": {"centaur.extra_delay_ns": [0, 4]},
                 "objectives": ["min:p99_ns"],
                 "searcher": "grid",
                 "budget": {"base_samples": 3, "rungs": 1, "eta": 2},
                 "depth": 3,
             }},
        ],
    }
    base.update(overrides)
    return base


class TestSpecValidation:
    def test_valid_spec_parses(self):
        spec = SuiteSpec.from_dict(spec_dict())
        assert spec.name == "tiny"
        assert [c.name for c in spec.campaigns] == ["micro"]
        assert spec.services[0].schedule.tenants[0].slo_p99_ms == 2.0
        assert spec.tunes[0].spec.workload == "mem_read"

    def test_schema_field_required(self):
        with pytest.raises(ConfigurationError, match="schema"):
            SuiteSpec.from_dict(spec_dict(schema="repro.suite/v0"))

    def test_unknown_top_level_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown suite fields"):
            SuiteSpec.from_dict(spec_dict(extra=1))

    def test_empty_suite_rejected(self):
        with pytest.raises(ConfigurationError, match="nothing to run"):
            SuiteSpec.from_dict(spec_dict(campaigns=[], services=[], tunes=[]))

    def test_entry_names_must_be_directory_safe(self):
        bad = spec_dict()
        bad["campaigns"][0]["name"] = "Bad Name"
        with pytest.raises(ConfigurationError, match="lowercase"):
            SuiteSpec.from_dict(bad)

    def test_duplicate_entry_names_rejected(self):
        bad = spec_dict()
        bad["campaigns"].append(dict(bad["campaigns"][0]))
        with pytest.raises(ConfigurationError, match="unique"):
            SuiteSpec.from_dict(bad)

    def test_campaign_needs_exactly_one_of_only_scenarios(self):
        bad = spec_dict()
        bad["campaigns"][0]["only"] = ["table3"]
        with pytest.raises(ConfigurationError, match="exactly one"):
            SuiteSpec.from_dict(bad)

    def test_unknown_experiment_rejected(self):
        bad = spec_dict()
        bad["campaigns"][0] = {"name": "micro", "only": ["table99"]}
        with pytest.raises(ConfigurationError, match="unknown experiments"):
            SuiteSpec.from_dict(bad)

    def test_unknown_axis_rejected(self):
        # checked as the spec loads, before the run makes any directory
        bad = spec_dict()
        bad["campaigns"][0]["scenarios"][0]["axes"] = {"sample": [6]}
        with pytest.raises(ConfigurationError, match="no axis 'sample'"):
            SuiteSpec.from_dict(bad)

    def test_campaign_attribution_field_rejected(self):
        # a campaign has one attribution form; the old switch is refused
        # by name rather than silently ignored
        bad = spec_dict()
        bad["campaigns"][0]["fold_attribution"] = True
        with pytest.raises(ConfigurationError,
                           match="unknown campaign fields: fold_attribution"):
            SuiteSpec.from_dict(bad)

    def test_unknown_request_class_rejected(self):
        bad = spec_dict()
        bad["services"][0]["schedule"]["tenants"][0]["klass"] = "http_get"
        with pytest.raises(ConfigurationError, match="unknown request class"):
            SuiteSpec.from_dict(bad)

    def test_kernel_profile_false_disables_pass(self):
        spec = SuiteSpec.from_dict(spec_dict(kernel_profile=False))
        assert spec.profile_job() is None

    def test_kernel_profile_defaults_to_first_campaign_job(self):
        spec = SuiteSpec.from_dict(spec_dict())
        experiment, kwargs, seed = spec.profile_job()
        assert experiment == "table3"
        assert kwargs["samples"] == 6

    def test_kernel_profile_unknown_experiment_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel_profile"):
            SuiteSpec.from_dict(
                spec_dict(kernel_profile={"experiment": "nope"})
            )

    def test_schedule_path_resolves_relative_to_spec(self, tmp_path):
        schedule = spec_dict()["services"][0]["schedule"]
        (tmp_path / "sched.json").write_text(
            json.dumps(schedule), encoding="utf-8"
        )
        spec = spec_dict()
        spec["services"][0]["schedule"] = "sched.json"
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        loaded = SuiteSpec.load(path)
        assert loaded.services[0].schedule.name == "tiny_svc"

    def test_missing_schedule_path_reports_context(self, tmp_path):
        spec = spec_dict()
        spec["services"][0]["schedule"] = "nope.json"
        path = tmp_path / "suite.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="cannot read schedule"):
            SuiteSpec.load(path)


@pytest.fixture(scope="module")
def suite_runs(tmp_path_factory):
    """The same tiny suite at jobs=2 (cold cache) and jobs=1 (warm).

    This is the CI shape: the second run replays campaign jobs from the
    content-addressed cache, so byte-identity across the two runs also
    proves cache entries carry the full artifact payload.
    """
    from repro.campaign import ResultCache

    spec = SuiteSpec.from_dict(spec_dict())
    cache_dir = tmp_path_factory.mktemp("suite-cache")
    outs = {}
    for jobs in (2, 1):
        out = tmp_path_factory.mktemp(f"suite-j{jobs}")
        result = SuiteRunner(
            spec, out, jobs=jobs, cache=ResultCache(cache_dir)
        ).run()
        assert result.ok, result.failures
        outs[jobs] = out
    return outs


class TestSuiteRun:
    def test_artifact_layout(self, suite_runs):
        out = suite_runs[1]
        for name in ("report.json", "report.html", "kernel_profile.json",
                     "campaign-micro", "service-svc", "tune-grid"):
            assert (out / name).exists(), name
        assert (out / "campaign-micro" / "attribution.jsonl").exists()
        assert (out / "service-svc" / "run_table.jsonl").exists()
        assert (out / "tune-grid" / "pareto.jsonl").exists()

    def test_report_json_byte_identical_across_jobs(self, suite_runs):
        a = (suite_runs[1] / "report.json").read_bytes()
        b = (suite_runs[2] / "report.json").read_bytes()
        assert a == b

    def test_self_diff_passes_with_no_findings(self, suite_runs):
        baseline = load_report(suite_runs[1])
        new = load_report(suite_runs[2])
        result = diff_reports(baseline, new)
        assert result.verdict == "PASS"
        assert result.findings == []
        assert result.compared > 0

    def test_report_covers_every_section(self, suite_runs):
        report = load_report(suite_runs[1])
        assert report["schema"] == "repro.report/v1"
        assert [c["name"] for c in report["campaigns"]] == ["micro"]
        assert [s["name"] for s in report["services"]] == ["svc"]
        assert [t["name"] for t in report["tunes"]] == ["grid"]
        assert report["kernel"]["experiment"] == "table3"

    def test_slo_verdicts_in_report(self, suite_runs):
        report = load_report(suite_runs[1])
        slo = report["services"][0]["slo"]
        assert set(slo) == {"reader"}
        assert slo["reader"]["target_p99_ms"] == 2.0
        assert slo["reader"]["windows_judged"] >= 1

    def test_report_json_carries_no_wall_clock(self, suite_runs):
        # kernel wall times live in kernel_profile.json only; report.json
        # must stay a pure function of the simulated work
        report = load_report(suite_runs[1])
        text = json.dumps(report)
        assert "wall" not in text
        assert "total_s" not in text
        profile = json.loads(
            (suite_runs[1] / "kernel_profile.json").read_text(encoding="utf-8")
        )
        assert any("total_s" in str(k) or "wall" in str(k)
                   for k in json.dumps(profile).split('"'))

    def test_html_is_self_contained(self, suite_runs):
        html = (suite_runs[1] / "report.html").read_text(encoding="utf-8")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert html.count("<svg") >= 3

    def test_service_calibration_takes_the_suite_retries(self, tmp_path):
        # a job that always times out is attempted retries + 1 times
        spec = SuiteSpec.from_dict(spec_dict(
            campaigns=[], tunes=[], kernel_profile=False,
        ))
        result = SuiteRunner(
            spec, tmp_path / "out", cache=None, retries=0, timeout_s=1e-6,
        ).run()
        assert not result.ok
        records = [
            json.loads(line) for line in
            (tmp_path / "out" / "service-svc" / "manifest.jsonl").open()
        ]
        (job,) = [r for r in records if r["kind"] == "job"]
        assert job["experiment"] == "service_calibrate"
        assert job["status"] == "failed" and job["attempts"] == 1

    def test_no_profile_run_omits_kernel_section(self, tmp_path):
        spec = SuiteSpec.from_dict(spec_dict(
            services=[], tunes=[], kernel_profile=False,
        ))
        result = SuiteRunner(spec, tmp_path / "out", cache=None).run()
        assert result.ok
        report = load_report(tmp_path / "out")
        assert report.get("kernel") is None
        assert not (tmp_path / "out" / "kernel_profile.json").exists()
