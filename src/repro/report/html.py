"""Render a suite report as one self-contained HTML page.

The page is generated from the same deterministic report dict that
becomes ``report.json`` (plus, optionally, the wall-time kernel profile
— which may vary run to run and is exactly why it is *not* part of
report.json).  Everything is inline: one ``<style>`` block, hand-built
SVG charts, no scripts, no fonts, no network requests.  Opening the
file from disk anywhere shows the full report.

Sections, in order: suite header, campaign latency breakdowns (stage
tables + share bars + end-to-end grid), fault injections-vs-latency
buckets, service run tables (offered/achieved sparklines, SLO verdict
coloring), tune Pareto scatter + trial grid, kernel hotspots.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .svg import ACCENT_COLOR, BAR_COLOR, hbar_svg, scatter_svg, sparkline_svg

_CSS = """
body { font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
       max-width: 72em; padding: 0 1em; color: #1c2530; }
h1 { border-bottom: 2px solid #4878a8; padding-bottom: .2em; }
h2 { margin-top: 2em; border-bottom: 1px solid #d5dbe2; }
h3 { margin-bottom: .4em; }
table { border-collapse: collapse; margin: .6em 0 1.2em; }
th, td { border: 1px solid #d5dbe2; padding: .25em .6em;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #eef2f6; }
td.l, th.l { text-align: left; }
td.met { background: #e4f2e4; }
td.missed { background: #f6dddd; }
.muted { color: #68758a; }
.chart { margin: .4em 0 1em; }
.kv { display: inline-block; margin-right: 1.6em; }
.kv b { font-variant-numeric: tabular-nums; }
"""


def _esc(text) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def _ns(ps) -> str:
    return f"{ps / 1000:.2f}"


def _table(headers: Sequence[str], rows: Sequence[Sequence],
           left: int = 1) -> str:
    """A plain table; the first ``left`` columns are left-aligned."""
    def cells(tag: str, values, classes=None) -> str:
        out = []
        for i, value in enumerate(values):
            klass = [] if i >= left else ["l"]
            if classes and classes[i]:
                klass.append(classes[i])
            attr = f' class="{" ".join(klass)}"' if klass else ""
            out.append(f"<{tag}{attr}>{_esc(value)}</{tag}>")
        return "".join(out)

    body = []
    for row in rows:
        classes = [
            str(v) if str(v) in ("met", "missed") else "" for v in row
        ]
        body.append(f"<tr>{cells('td', row, classes)}</tr>")
    return (f"<table><thead><tr>{cells('th', headers)}</tr></thead>"
            f"<tbody>{''.join(body)}</tbody></table>")


def _campaign_html(campaign: dict) -> List[str]:
    parts = [f"<h2>Campaign: {_esc(campaign['name'])}</h2>"]
    parts.append(
        f'<p class="muted">{campaign["journeys"]} journeys across '
        f'{len(campaign["scenarios"])} scenario(s)</p>'
    )
    if campaign["end_to_end"]:
        parts.append("<h3>End-to-end latency (ns)</h3>")
        parts.append(_table(
            ["Scenario", "Journeys", "Mean", "p50", "p95", "p99", "Max"],
            [
                [r["scenario"], r["journeys"], _ns(r["mean_ps"]),
                 _ns(r["p50_ps"]), _ns(r["p95_ps"]), _ns(r["p99_ps"]),
                 _ns(r["max_ps"])]
                for r in campaign["end_to_end"]
            ],
        ))
    scenarios = sorted({r["scenario"] for r in campaign["stages"]})
    for scenario in scenarios:
        stages = [r for r in campaign["stages"] if r["scenario"] == scenario]
        parts.append(f"<h3>Stage breakdown: {_esc(scenario)}</h3>")
        parts.append(_table(
            ["Stage", "Kind", "Count", "Mean (ns)", "p50", "p95", "p99",
             "Max", "Share"],
            [
                [r["stage"], r["stage_kind"], r["count"], _ns(r["mean_ps"]),
                 _ns(r["p50_ps"]), _ns(r["p95_ps"]), _ns(r["p99_ps"]),
                 _ns(r["max_ps"]), f"{r['share']:.1%}"]
                for r in stages
            ],
            left=2,
        ))
        share_rows = [(r["stage"], r["share"]) for r in stages]
        parts.append(f'<div class="chart">{hbar_svg(share_rows)}</div>')
    if campaign.get("occupancy"):
        parts.append("<h3>Occupancy histograms</h3>")
        parts.append(_table(
            ["Source", "Samples", "Mean", "Min", "p50", "p95", "p99", "Max"],
            [
                [r["source"], int(r.get("count", 0)),
                 f"{r.get('mean', 0.0):.2f}", f"{r.get('min', 0.0):.0f}",
                 f"{r.get('p50', 0.0):.0f}", f"{r.get('p95', 0.0):.0f}",
                 f"{r.get('p99', 0.0):.0f}", f"{r.get('max', 0.0):.0f}"]
                for r in campaign["occupancy"]
            ],
        ))
        peak = max(r.get("max", 0.0) for r in campaign["occupancy"]) or 1.0
        parts.append('<div class="chart">' + hbar_svg(
            [(r["source"], r.get("mean", 0.0) / peak)
             for r in campaign["occupancy"]],
            color=BAR_COLOR,
        ) + "</div>")
    if campaign.get("tier_metrics"):
        parts.append("<h3>Hybrid-memory tiering</h3>")
        parts.append(_table(
            ["Metric", "Value"],
            [[k, f"{v:g}"] for k, v in sorted(
                campaign["tier_metrics"].items())],
        ))
    if campaign["fault_buckets"]:
        parts.append("<h3>Fault injections vs latency over sim time</h3>")
        buckets = campaign["fault_buckets"]
        parts.append(_table(
            ["Bucket", "Start (us)", "End (us)", "Injections", "Open",
             "Journeys", "Faulted", "Clean mean (us)", "Fault mean (us)"],
            [
                [b["bucket"], f"{b['start_ps'] / 1e6:.0f}",
                 f"{b['end_ps'] / 1e6:.0f}", b["injections"],
                 b["open_windows"], b["journeys"], b["fault_journeys"],
                 f"{b['clean_mean_ps'] / 1e6:.1f}",
                 f"{b['fault_mean_ps'] / 1e6:.1f}"]
                for b in buckets
            ],
        ))
        parts.append(
            '<div class="chart">injections '
            + sparkline_svg([b["injections"] for b in buckets],
                            color=ACCENT_COLOR)
            + " fault mean "
            + sparkline_svg([b["fault_mean_ps"] for b in buckets])
            + "</div>"
        )
    return parts


def _service_html(service: dict) -> List[str]:
    parts = [f"<h2>Service: {_esc(service['name'])}</h2>"]
    schedule = service.get("schedule", {})
    parts.append(
        f'<p class="muted">schedule {_esc(schedule.get("name", "?"))}: '
        f'{schedule.get("servers", "?")} server(s), '
        f'queue&le;{schedule.get("queue_limit", "?")}, '
        f'{len(service["repetitions"])} repetition(s)</p>'
    )
    if service["repetitions"]:
        headers = ["Rep", "Offered", "Completed", "Shed", "Failed",
                   "Overloaded windows"]
        has_slo = any("slo_missed_windows" in r for r in service["repetitions"])
        if has_slo:
            headers.append("SLO-missed windows")
        parts.append(_table(headers, [
            [r["repetition"], r["offered"], r["completed"], r["shed"],
             r["failed"], r["overloaded_windows"]]
            + ([r.get("slo_missed_windows", 0)] if has_slo else [])
            for r in service["repetitions"]
        ]))
    for tenant, row in sorted(service.get("slo", {}).items()):
        parts.append(
            f'<p><span class="kv">SLO <b>{_esc(tenant)}</b>: '
            f'{row["windows_met"]}/{row["windows_judged"]} windows met '
            f'(p99 &le; {row["target_p99_ms"]:g} ms)</span></p>'
        )
    reps = sorted({w["repetition"] for w in service["windows"]})
    for rep in reps:
        mine = [w for w in service["windows"] if w["repetition"] == rep]
        parts.append(f"<h3>Windows, repetition {rep}</h3>")
        parts.append(
            '<div class="chart">offered '
            + sparkline_svg([w["offered_rps"] for w in mine])
            + " achieved "
            + sparkline_svg([w["achieved_rps"] for w in mine])
            + " queue ms "
            + sparkline_svg([w["queue_delay_mean_ms"] for w in mine],
                            color=ACCENT_COLOR)
            + "</div>"
        )
        slo_cols = [c for c in service.get("columns", [])
                    if c.startswith("slo_")]
        headers = (["W", "Offered", "Completed", "Shed", "p50 ms", "p99 ms",
                    "Occupancy"] + [c[4:] for c in slo_cols])
        parts.append(_table(headers, [
            [w["window"], w["offered"], w["completed"], w["shed"],
             f"{w['latency_p50_ms']:.3f}", f"{w['latency_p99_ms']:.3f}",
             f"{w['occupancy_mean']:.2f}"]
            + [w.get(c, "") for c in slo_cols]
            for w in mine
        ], left=0))
    return parts


def _tune_html(tune: dict) -> List[str]:
    parts = [f"<h2>Tune: {_esc(tune['name'])}</h2>"]
    objectives = tune.get("objectives", [])
    names = ", ".join(
        f"{o['metric']} ({o['goal']})" for o in objectives
    )
    parts.append(
        f'<p class="muted">workload {_esc(tune.get("workload"))}; '
        f'objectives: {_esc(names)}; {tune["trials_run"]} trial(s), '
        f'front size {tune["front_size"]}; '
        f'winner <code>{_esc(tune.get("winner"))}</code></p>'
    )
    trials = [t for t in tune.get("trials", []) if t.get("objectives")]
    if len(objectives) >= 2 and trials:
        mx, my = objectives[0]["metric"], objectives[1]["metric"]
        pts = [(t["objectives"][mx], t["objectives"][my]) for t in trials]
        hot = [not t.get("dominated", True) for t in trials]
        parts.append(
            f'<div class="chart">'
            f'{scatter_svg(pts, hot, x_label=mx, y_label=my)}</div>'
        )
    if trials:
        metrics = sorted(trials[0]["objectives"])
        parts.append(_table(
            ["Config", "Status", "Rung", "Samples"] + metrics + ["Front"],
            [
                [t["key"], t["status"], t["rung"], t["samples"]]
                + [f"{t['objectives'].get(m, float('nan')):.4g}"
                   for m in metrics]
                + ["front" if not t.get("dominated", True) else ""]
                for t in tune["trials"] if t.get("objectives")
            ],
        ))
    return parts


def _kernel_html(kernel: Optional[dict],
                 profile: Optional[dict]) -> List[str]:
    if not kernel and not profile:
        return []
    parts = ["<h2>Kernel hotspots</h2>"]
    source = profile or kernel or {}
    parts.append(
        f'<p class="muted">profiled experiment '
        f'<code>{_esc(source.get("experiment"))}</code>: '
        f'{source.get("events", 0)} events over '
        f'{source.get("runs", 0)} run() call(s)</p>'
    )
    if profile and profile.get("hotspots"):
        rows = profile["hotspots"]
        parts.append(_table(
            ["Event handler", "Count", "Wall (ms)", "Mean (us)", "Share"],
            [
                [r["key"], r["count"], f"{r['wall_s'] * 1e3:.2f}",
                 f"{r['mean_us']:.2f}", f"{r['wall_share']:.1%}"]
                for r in rows
            ],
        ))
        parts.append('<div class="chart">' + hbar_svg(
            [(r["key"], r["wall_share"]) for r in rows[:12]],
            color=BAR_COLOR,
        ) + "</div>")
        parts.append(
            '<p class="muted">Wall times come from this run\'s '
            "kernel_profile.json and vary machine to machine; only the "
            "event counts below are part of report.json.</p>"
        )
    counts = (kernel or {}).get("counts") or (profile or {}).get("counts", {})
    if counts:
        ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        parts.append(_table(
            ["Event handler", "Count"],
            [[key, count] for key, count in ordered],
        ))
    return parts


def render_html(report: dict, profile: Optional[dict] = None) -> str:
    """The whole suite report as one standalone HTML document."""
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>Suite report: {_esc(report.get('suite'))}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>Suite report: {_esc(report.get('suite'))}</h1>",
        f'<p class="muted">seed {report.get("seed")}; '
        f'{len(report.get("campaigns", []))} campaign(s), '
        f'{len(report.get("services", []))} service(s), '
        f'{len(report.get("tunes", []))} tune(s)</p>',
    ]
    for campaign in report.get("campaigns", []):
        parts.extend(_campaign_html(campaign))
    for service in report.get("services", []):
        parts.extend(_service_html(service))
    for tune in report.get("tunes", []):
        parts.extend(_tune_html(tune))
    parts.extend(_kernel_html(report.get("kernel"), profile))
    parts.append("</body></html>")
    return "\n".join(parts)
