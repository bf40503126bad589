"""Bad CLI input: exit 2 with one line on stderr, before anything is made.

Each case is a flag value or file the CLI must refuse up front.  It must
not raise a traceback, and it must not create its output path (nor run a
job) before refusing.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ENV = {"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"}
SPEC = str(REPO / "tunespecs" / "buffer_latency.json")
SCHEDULE = str(REPO / "schedules" / "diurnal.json")
SUITE = str(REPO / "suites" / "ci_smoke.json")

CASES = {
    "campaign-missing-faults": ["run_campaign.py", "--faults", "missing.json"],
    "tune-missing-faults": ["run_tune.py", SPEC, "--faults", "missing.json"],
    "service-missing-faults": ["run_service.py", "--schedule", SCHEDULE,
                               "--faults", "missing.json"],
    "chaos-missing-plan": ["run_chaos.py", "--plan", "missing.json"],
    "campaign-jobs-0": ["run_campaign.py", "--jobs", "0"],
    "tune-jobs-0": ["run_tune.py", SPEC, "--jobs", "0"],
    "regenerate-jobs-0": ["regenerate_experiments.py", "--jobs", "0"],
    "suite-jobs-0": ["run_suite.py", SUITE, "--jobs", "0"],
    "service-calib-samples-0": ["run_service.py", "--schedule", SCHEDULE,
                                "--calib-samples", "0"],
    "service-repetitions-0": ["run_service.py", "--schedule", SCHEDULE,
                              "--repetitions", "0"],
    "campaign-retries-negative": ["run_campaign.py", "--retries", "-1"],
    "tune-retries-negative": ["run_tune.py", SPEC, "--retries", "-1"],
    "suite-retries-negative": ["run_suite.py", SUITE, "--retries", "-1"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_exits_2_with_one_line(case, tmp_path):
    script, *args = CASES[case]
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args, "--out", str(out)],
        capture_output=True, text=True, env=ENV, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
    assert not out.exists()
