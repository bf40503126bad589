"""The tune driver end to end: determinism, caching, cached re-runs.

These boot real (small) simulated systems per trial, so the spec is kept
tiny: five configs at rung 0, two survivors at rung 1.
"""

import json
from collections import Counter

from repro.campaign import ResultCache
from repro.report import read_artifact
from repro.telemetry.attribution import journey_records
from repro.tune import TuneDriver, TuneSpec

SPEC_RAW = {
    "name": "unit",
    "workload": "mem_read",
    "space": {
        "centaur.extra_delay_ns": [0, 8],
        "dmi.num_tags": [4, 16],
    },
    "objectives": ["min:p99_ns", "max:throughput_ops_s"],
    "searcher": "halving",
    "budget": {"base_samples": 4, "rungs": 2, "eta": 2},
    "depth": 2,
}

SEED = 7


def run(tmp_path, sub, workers, cache=None, raw=SPEC_RAW):
    out = tmp_path / sub
    report = TuneDriver(
        TuneSpec.from_dict(raw), seed=SEED, workers=workers,
        cache=cache, out_dir=str(out),
    ).run()
    return report, out


class TestDriver:
    def test_front_and_artifacts_identical_across_worker_counts(self, tmp_path):
        r1, out1 = run(tmp_path, "w1", workers=1)
        r3, out3 = run(tmp_path, "w3", workers=3)
        assert (out1 / "pareto.jsonl").read_bytes() == \
            (out3 / "pareto.jsonl").read_bytes()
        assert (out1 / "tune_report.csv").read_bytes() == \
            (out3 / "tune_report.csv").read_bytes()
        assert r1.front == r3.front
        assert r1.winner.key == r3.winner.key

    def test_rerun_is_a_total_cache_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        cold, _ = run(tmp_path, "cold", workers=2, cache=cache)
        warm, out = run(tmp_path, "warm", workers=1, cache=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == warm.jobs == cold.jobs
        assert warm.front == cold.front

    def test_half_finished_halving_resumes_from_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        # "interrupted" run: same spec cut down to rung 0 only
        half_raw = dict(SPEC_RAW, budget=dict(SPEC_RAW["budget"], rungs=1))
        half, _ = run(tmp_path, "half", workers=2, cache=cache, raw=half_raw)
        # the full run replays rung 0 from the cache, executes only rung 1
        full, out = run(tmp_path, "full", workers=2, cache=cache)
        assert full.cache_hits == half.jobs == 5
        assert full.jobs == 7
        # and matches a from-scratch run of the full spec byte for byte
        _, fresh_out = run(tmp_path, "fresh", workers=1)
        assert (out / "pareto.jsonl").read_bytes() == \
            (fresh_out / "pareto.jsonl").read_bytes()

    def test_attribution_holds_every_trial_journey(self, tmp_path):
        # the exact merge of every trial's journeys, whatever the worker
        # count or cache state
        cache = ResultCache(str(tmp_path / "cache"))
        cold, out1 = run(tmp_path, "w1", workers=1, cache=cache)
        _, out3 = run(tmp_path, "w3", workers=3)
        warm, out_warm = run(tmp_path, "warm", workers=1, cache=cache)
        assert warm.cache_hits == warm.jobs
        artifact = (out1 / "attribution.jsonl").read_bytes()
        assert artifact == (out3 / "attribution.jsonl").read_bytes()
        assert artifact == (out_warm / "attribution.jsonl").read_bytes()

        records, _ = read_artifact(out1 / "attribution.jsonl")
        meta = records[0]
        per_trial = {f"job:{o.job.job_id}": len(o.payload["attribution"])
                     for o in cold.campaign.outcomes}
        assert meta["sources"] == sorted(per_trial)
        assert all(per_trial.values())
        journeys = journey_records(records)
        assert len(journeys) == meta["journeys"] == sum(per_trial.values())
        assert Counter(j["source"] for j in journeys) == per_trial

    def test_attribution_has_one_scenario_per_trial_key(self, tmp_path):
        report, out = run(tmp_path, "scenarios", workers=1)
        keys = [
            json.loads(line)["key"]
            for line in (out / "pareto.jsonl").read_text().splitlines()[1:]
        ]
        records, _ = read_artifact(out / "attribution.jsonl")
        assert records[0]["scenarios"] == sorted(
            f"tune:mem_read:{key}" for key in keys
        )
        # every journey sits in its own trial's scenario
        config_of = {f"job:{o.job.job_id}": o.job.kwargs_dict["config"]
                     for o in report.campaign.outcomes}
        for journey in journey_records(records):
            assert journey["scenario"] == \
                f"tune:mem_read:{config_of[journey['source']]}"

    def test_report_fields(self, tmp_path):
        report, out = run(tmp_path, "fields", workers=2)
        assert report.winner is not None
        assert report.baseline is not None  # implicit {} joined rung 0
        assert report.baseline.key == "{}"
        assert report.matched_comparison() is not None
        assert "winner" in report.render()
        records = [
            json.loads(line)
            for line in (out / "pareto.jsonl").read_text().splitlines()
        ]
        assert records[0]["kind"] == "meta"
        assert records[0]["trials"] == 5
        assert all(r["kind"] == "trial" for r in records[1:])
        keys = [r["key"] for r in records[1:]]
        assert keys == sorted(keys)
