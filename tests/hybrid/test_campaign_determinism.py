"""Tiered-replay campaign determinism at any worker count.

The hybrid acceptance gate: sweeping policy x workload as campaign axes
must produce byte-identical merged artifacts whether the cells run
serially or across a process pool — worker count, scheduling order, and
completion order cannot leak into attribution.jsonl or the result
tables.
"""

from repro.campaign import CampaignRunner, ScenarioMatrix
from repro.report import read_artifact


def tiered_matrix():
    matrix = ScenarioMatrix(base_seed=11)
    matrix.add(
        "tiered_replay",
        policy=["static", "clock"],
        workload=["kv", "graph"],
        ops=[48],
    )
    return matrix


class TestTieredCampaign:
    def test_axes_expand_to_the_policy_workload_grid(self):
        jobs = tiered_matrix().expand()
        cells = {(j.kwargs_dict["policy"], j.kwargs_dict["workload"])
                 for j in jobs}
        assert len(jobs) == 4 and len(cells) == 4

    def test_parallel_artifacts_match_serial_byte_for_byte(self, tmp_path):
        jobs = tiered_matrix().expand()
        serial = CampaignRunner(jobs, workers=1).run()
        parallel = CampaignRunner(jobs, workers=2).run()
        assert [r.rows for r in serial.tables()] == \
            [r.rows for r in parallel.tables()]
        (tmp_path / "serial").mkdir()
        (tmp_path / "parallel").mkdir()
        serial.write_artifacts(tmp_path / "serial", params={})
        parallel.write_artifacts(tmp_path / "parallel", params={})
        a = tmp_path / "serial" / "attribution.jsonl"
        assert a.read_bytes() == (tmp_path / "parallel" / "attribution.jsonl").read_bytes()

        records, _ = read_artifact(a)
        scenarios = {r["scenario"] for r in records
                     if r["kind"] == "end_to_end"}
        assert scenarios == {
            "tiered:static:kv", "tiered:static:graph",
            "tiered:clock:kv", "tiered:clock:graph",
        }
        tier_stages = {r["stage"] for r in records
                       if r["kind"] == "stage_summary"
                       and r["stage"].startswith("tier.")}
        assert {"tier.fast", "tier.slow", "tier.migrate"} <= tier_stages

    def test_tier_counters_land_in_the_merged_snapshot(self, tmp_path):
        report = CampaignRunner(tiered_matrix().expand(), workers=2).run()
        report.write_artifacts(tmp_path, params={"jobs": 2})
        snapshots = [r for r in read_artifact(tmp_path / "metrics.jsonl")[0]
                     if r["kind"] == "snapshot"]
        merged = snapshots[-1]["metrics"]
        assert snapshots[-1]["label"] == "merged"
        assert merged["tier.promotions"] > 0
        assert merged["tier.migrated_bytes"] == \
            merged["tier.promotions"] * 2 * 4096
        assert any(k.startswith("occupancy.tier.") for k in merged)
