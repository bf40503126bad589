"""Bad CLI input: exit 2 with one line on stderr, before anything is made.

Each case is a flag value or file the CLI must refuse up front.  It must
not raise a traceback, and it must not create its output path (nor run a
job) before refusing.
"""

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
SPEC = str(REPO / "tunespecs" / "buffer_latency.json")
SCHEDULE = str(REPO / "schedules" / "diurnal.json")
SUITE = str(REPO / "suites" / "ci_smoke.json")


def unknown_class_schedule() -> str:
    schedule = json.loads(Path(SCHEDULE).read_text(encoding="utf-8"))
    schedule["tenants"][0]["klass"] = "http_get"
    return json.dumps(schedule)


#: bad input files the cases name, written into the working directory
FILES = {
    "not-json.json": "{",
    "no-scenarios.json": '{"base_seed": 0}',
    "unknown-experiment.json": '{"scenarios": [{"experiment": "table99"}]}',
    "unknown-axis.json": '{"scenarios": [{"experiment": "table3", "axes": {"sample": [4]}}]}',
    "unknown-class.json": unknown_class_schedule(),
}

CASES = {
    "campaign-missing-faults": ["run_campaign.py", "--faults", "missing.json"],
    "tune-missing-faults": ["run_tune.py", SPEC, "--faults", "missing.json"],
    "service-missing-faults": ["run_service.py", "--schedule", SCHEDULE,
                               "--faults", "missing.json"],
    "chaos-missing-plan": ["run_chaos.py", "--plan", "missing.json"],
    "campaign-jobs-0": ["run_campaign.py", "--jobs", "0"],
    "tune-jobs-0": ["run_tune.py", SPEC, "--jobs", "0"],
    "suite-jobs-0": ["run_suite.py", SUITE, "--jobs", "0"],
    "service-calib-samples-0": ["run_service.py", "--schedule", SCHEDULE,
                                "--calib-samples", "0"],
    "service-repetitions-0": ["run_service.py", "--schedule", SCHEDULE,
                              "--repetitions", "0"],
    "campaign-retries-negative": ["run_campaign.py", "--retries", "-1"],
    "tune-retries-negative": ["run_tune.py", SPEC, "--retries", "-1"],
    "suite-retries-negative": ["run_suite.py", SUITE, "--retries", "-1"],
    "campaign-matrix-missing": ["run_campaign.py", "--matrix", "missing.json"],
    "campaign-matrix-not-json": ["run_campaign.py", "--matrix", "not-json.json"],
    "campaign-matrix-no-scenarios": ["run_campaign.py", "--matrix",
                                     "no-scenarios.json"],
    "campaign-matrix-unknown-experiment": ["run_campaign.py", "--matrix",
                                           "unknown-experiment.json"],
    "campaign-matrix-unknown-axis": ["run_campaign.py", "--no-cache", "--matrix",
                                     "unknown-axis.json"],
    "campaign-timeout-negative": ["run_campaign.py", "--timeout", "-1"],
    "campaign-timeout-0": ["run_campaign.py", "--timeout", "0"],
    "tune-timeout-negative": ["run_tune.py", SPEC, "--timeout", "-1"],
    "tune-timeout-0": ["run_tune.py", SPEC, "--timeout", "0"],
    "suite-timeout-negative": ["run_suite.py", SUITE, "--timeout", "-1"],
    "suite-timeout-0": ["run_suite.py", SUITE, "--timeout", "0"],
    "service-timeout-negative": ["run_service.py", "--schedule", SCHEDULE,
                                 "--timeout", "-1"],
    "service-timeout-0": ["run_service.py", "--schedule", SCHEDULE,
                          "--timeout", "0"],
    "service-unknown-class": ["run_service.py", "--schedule",
                              "unknown-class.json", "--no-cache"],
    "trace-samples-0": ["trace_experiment.py", "table3", "--samples", "0"],
    "chaos-samples-negative": ["run_chaos.py", "ber_sweep", "--samples", "-1"],
    "chaos-buckets-0": ["run_chaos.py", "ber_sweep", "--buckets", "0"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_exits_2_with_one_line(case, tmp_path):
    script, *args = CASES[case]
    for name, text in FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=ENV, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert not out.exists()
