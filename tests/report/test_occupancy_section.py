"""Occupancy-histogram and tiering sections of the suite report.

The campaign section lifts both from the merged metrics snapshot:
``occupancy.<source>.<stat>`` keys pivot into one row per source, and
``tier.*`` counters/gauges surface verbatim.  Neither section may leak
wall-clock-dependent values into report.json — the snapshot is the
merged (deterministic) one, and a missing metrics artifact degrades to
empty sections, not an error.
"""

import json

from repro.report import render_html
from repro.report.summary import _merged_snapshot, _occupancy_rows


class TestOccupancyRows:
    def test_pivots_stats_into_one_row_per_source(self):
        metrics = {
            "occupancy.tier.s0.d0.hot_slow_pages.count": 12,
            "occupancy.tier.s0.d0.hot_slow_pages.mean": 1.5,
            "occupancy.tier.s0.d0.hot_slow_pages.p99": 3,
            "occupancy.dmi.tags.count": 40,
            "occupancy.dmi.tags.mean": 6.25,
            "tier.promotions": 7,          # not an occupancy key
            "occupancy.dmi.tags.stddev": 1,  # not a published stat
        }
        rows = _occupancy_rows(metrics)
        assert [r["source"] for r in rows] == [
            "dmi.tags", "tier.s0.d0.hot_slow_pages",
        ]
        assert rows[0]["count"] == 40 and rows[0]["mean"] == 6.25
        assert "stddev" not in rows[0]
        assert rows[1]["p99"] == 3

    def test_empty_metrics_give_no_rows(self):
        assert _occupancy_rows({}) == []


class TestMergedSnapshot:
    def test_missing_artifact_degrades_to_empty(self, tmp_path):
        assert _merged_snapshot(tmp_path, "nope") == {}

    def test_last_merged_snapshot_wins(self, tmp_path):
        out = tmp_path / "campaign-c"
        out.mkdir()
        records = [
            {"kind": "meta", "schema": "repro.metrics/v1"},
            {"kind": "snapshot", "label": "worker0",
             "metrics": {"tier.promotions": 1}},
            {"kind": "snapshot", "label": "merged",
             "metrics": {"tier.promotions": 3}},
            {"kind": "snapshot", "label": "merged",
             "metrics": {"tier.promotions": 5, "other": 1}},
        ]
        (out / "metrics.jsonl").write_text(
            "\n".join(json.dumps(r) for r in records) + "\n"
        )
        assert _merged_snapshot(tmp_path, "c") == {
            "tier.promotions": 5, "other": 1,
        }


class TestHtmlSections:
    def _campaign(self, **extra):
        campaign = {
            "name": "c", "journeys": 4, "scenarios": ["s"],
            "end_to_end": [], "stages": [], "fault_buckets": [],
        }
        campaign.update(extra)
        return {"schema": "repro.report/v1", "suite": "t", "seed": 0,
                "campaigns": [campaign], "services": [], "tunes": []}

    def test_sections_render_when_data_present(self):
        html = render_html(self._campaign(
            occupancy=[{"source": "tier.s0.d0.hot_slow_pages", "count": 12,
                        "mean": 1.5, "min": 0, "p50": 1, "p95": 3,
                        "p99": 3, "max": 3}],
            tier_metrics={"tier.promotions": 7, "tier.fast_hit_rate": 0.42},
        ))
        assert "Occupancy histograms" in html
        assert "tier.s0.d0.hot_slow_pages" in html
        assert "Hybrid-memory tiering" in html
        assert "tier.fast_hit_rate" in html and "0.42" in html

    def test_sections_omitted_when_absent(self):
        html = render_html(self._campaign())
        assert "Occupancy histograms" not in html
        assert "Hybrid-memory tiering" not in html
