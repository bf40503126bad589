"""ServiceDriver end to end: pinned run tables, one job, warm reruns.

The golden run tables were recorded with ``scripts/run_service.py
--schedule schedules/<name>.json --repetitions 2`` at seed 0 by an
implementation that drew the demands in separate campaign jobs and
merged them; the driver must reproduce them byte for byte.
"""

from pathlib import Path

import pytest

from repro.campaign import ResultCache
from repro.report import read_artifact
from repro.service import ArrivalSchedule, Phase, ServiceDriver, Tenant

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).with_name("golden")

#: storage-backed classes only: calibration boots no system
SCHED = ArrivalSchedule(
    name="tiny",
    duration_ms=6.0,
    window_ms=2.0,
    tenants=(
        Tenant("reader", "storage_read", weight=2.0),
        Tenant("writer", "storage_write", weight=1.0),
    ),
    phases=(Phase("constant", 0.0, 6.0, rate_rps=20_000.0),),
)

ARTIFACTS = ("run_table.csv", "run_table.jsonl")


@pytest.mark.parametrize("name", ["diurnal", "slo_mix"])
def test_run_table_matches_golden(name, tmp_path):
    schedule = ArrivalSchedule.from_json(
        (REPO / "schedules" / f"{name}.json").read_text(encoding="utf-8")
    )
    result = ServiceDriver(schedule, out_dir=tmp_path, repetitions=2).run()
    assert not result.failed
    for artifact in ARTIFACTS:
        assert (tmp_path / artifact).read_bytes() == \
            (GOLDEN / name / artifact).read_bytes(), artifact


def test_run_is_one_job_and_a_warm_rerun_replays_it(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    sources = {}
    for state in ("cold", "warm"):
        out = tmp_path / state
        result = ServiceDriver(
            SCHED, out_dir=out, seed=3, repetitions=3, calib_samples=4,
            cache=cache,
        ).run()
        assert not result.failed
        assert {row["repetition"] for row in result.rows} == {0, 1, 2}
        jobs = [r for r in read_artifact(out / "manifest.jsonl")[0]
                if r["kind"] == "job"]
        assert len(jobs) == 1
        assert jobs[0]["experiment"] == "service_calibrate"
        sources[state] = jobs[0]["source"]
    assert sources == {"cold": "run", "warm": "cache"}
    for artifact in ARTIFACTS:
        assert (tmp_path / "cold" / artifact).read_bytes() == \
            (tmp_path / "warm" / artifact).read_bytes(), artifact
