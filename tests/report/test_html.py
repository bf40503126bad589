"""HTML rendering: self-containment, sections, verdict cells, escaping."""

from repro.report import render_html
from repro.report.svg import hbar_svg, scatter_svg, sparkline_svg


def report():
    return {
        "schema": "repro.report/v1",
        "suite": "t<&>",  # must be escaped in the title and heading
        "seed": 0,
        "campaigns": [{
            "name": "c",
            "journeys": 10,
            "scenarios": ["table3"],
            "end_to_end": [{
                "scenario": "table3", "journeys": 10, "mean_ps": 1000.0,
                "p50_ps": 900.0, "p95_ps": 1800.0, "p99_ps": 2000.0,
                "max_ps": 2500.0, "min_ps": 500.0,
            }],
            "stages": [{
                "scenario": "table3", "stage": "dram", "stage_kind": "sim",
                "count": 10, "mean_ps": 400.0, "p50_ps": 350.0,
                "p95_ps": 700.0, "p99_ps": 800.0, "max_ps": 900.0,
                "share": 0.4,
            }],
            "fault_buckets": [],
        }],
        "services": [{
            "name": "s",
            "schedule": {"name": "sched", "servers": 1, "queue_limit": 8},
            "columns": ["window", "slo_reader"],
            "repetitions": [{
                "repetition": 0, "offered": 12, "completed": 11, "shed": 1,
                "failed": 0, "overloaded_windows": 0,
                "slo_missed_windows": 1,
            }],
            "windows": [
                {"repetition": 0, "window": 0, "offered": 6, "offered_rps": 600.0,
                 "completed": 6, "achieved_rps": 600.0, "shed": 0,
                 "latency_p50_ms": 0.2, "latency_p99_ms": 0.8,
                 "queue_delay_mean_ms": 0.05, "occupancy_mean": 0.5,
                 "slo_reader": "met"},
                {"repetition": 0, "window": 1, "offered": 6, "offered_rps": 600.0,
                 "completed": 5, "achieved_rps": 500.0, "shed": 1,
                 "latency_p50_ms": 0.4, "latency_p99_ms": 2.4,
                 "queue_delay_mean_ms": 0.30, "occupancy_mean": 0.9,
                 "slo_reader": "missed"},
            ],
            "slo": {"reader": {"target_p99_ms": 1.0,
                               "windows_judged": 2, "windows_met": 1}},
        }],
        "tunes": [{
            "name": "u", "workload": "mem_read",
            "objectives": [{"metric": "p99_ns", "goal": "min"},
                           {"metric": "mean_ns", "goal": "min"}],
            "trials_run": 2, "front_size": 1,
            "winner": '{"delay":0}',
            "trials": [
                {"key": '{"delay":0}', "config": {"delay": 0},
                 "status": "completed", "rung": 0, "samples": 4,
                 "objectives": {"p99_ns": 100.0, "mean_ns": 60.0},
                 "dominated": False},
                {"key": '{"delay":8}', "config": {"delay": 8},
                 "status": "completed", "rung": 0, "samples": 4,
                 "objectives": {"p99_ns": 140.0, "mean_ns": 90.0},
                 "dominated": True},
            ],
        }],
        "kernel": {
            "experiment": "table3", "events": 50, "runs": 1,
            "counts": {"mem.read": 30, "mem.write": 20},
        },
    }


class TestDocument:
    def test_self_contained(self):
        html = render_html(report())
        assert html.startswith("<!DOCTYPE html>")
        assert "<script" not in html
        assert "http://" not in html and "https://" not in html
        assert html.count("<style>") == 1

    def test_every_section_rendered(self):
        html = render_html(report())
        assert "Campaign: c" in html
        assert "Service: s" in html
        assert "Tune: u" in html
        assert "Kernel hotspots" in html

    def test_suite_name_escaped(self):
        html = render_html(report())
        assert "t&lt;&amp;&gt;" in html
        assert "t<&>" not in html

    def test_slo_cells_carry_verdict_classes(self):
        html = render_html(report())
        assert '<td class="met">met</td>' in html
        assert '<td class="missed">missed</td>' in html
        assert "SLO <b>reader</b>: 1/2 windows met" in html

    def test_slo_missed_column_only_when_present(self):
        rep = report()
        html = render_html(rep)
        assert "SLO-missed windows" in html
        del rep["services"][0]["repetitions"][0]["slo_missed_windows"]
        assert "SLO-missed windows" not in render_html(rep)

    def test_kernel_wall_times_need_live_profile(self):
        rep = report()
        plain = render_html(rep)
        assert "mem.read" in plain       # counts always render
        profile = {
            "experiment": "table3", "events": 50, "runs": 1,
            "hotspots": [
                {"key": "mem.read", "count": 30, "wall_s": 0.006,
                 "mean_us": 0.2, "wall_share": 0.6},
            ],
        }
        with_times = render_html(rep, profile=profile)
        assert "Wall (ms)" in with_times
        assert "Wall (ms)" not in plain
        assert "vary machine to machine" in with_times

    def test_empty_report_still_renders(self):
        html = render_html({"schema": "repro.report/v1", "suite": "e",
                            "seed": 0})
        assert "Suite report: e" in html
        assert "</html>" in html


class TestSvg:
    def test_hbar_renders_one_rect_per_row(self):
        svg = hbar_svg([("dram", 0.6), ("link", 0.4)])
        assert svg.count("<rect") >= 2
        assert "dram" in svg and "60.0%" in svg

    def test_sparkline_handles_flat_series(self):
        svg = sparkline_svg([5.0, 5.0, 5.0])
        assert svg.startswith("<svg") and "<polyline" in svg

    def test_sparkline_empty_series_renders_nothing(self):
        assert sparkline_svg([]) == ""

    def test_scatter_highlights_front(self):
        svg = scatter_svg(
            [(1.0, 2.0), (3.0, 1.0), (2.0, 3.0)],
            highlight=[True, True, False],
            x_label="a", y_label="b",
        )
        assert svg.count("<circle") == 3
        assert svg.count('r="4"') == 2      # highlighted, larger
        assert svg.count('r="2.5"') == 1    # muted background point

    def test_svg_coordinates_are_fixed_precision(self):
        # repr() floats like 0.30000000000000004 must never leak in
        svg = sparkline_svg([0.1, 0.2, 0.3])
        assert "000000" not in svg
