"""Fold one suite run's artifacts into the ``repro.report/v1`` summary.

``report.json`` is the machine-readable face of a suite run and the
input to :mod:`repro.report.diff` — so its bytes must be a pure function
of (suite spec, code version, seed).  Everything folded here already
carries that guarantee upstream: merged attribution artifacts, run
tables, and Pareto streams are byte-identical at any worker count.  The
one artifact that is *not* deterministic — the kernel profiler's wall
times — contributes only its event **counts**; the timings stay in
``kernel_profile.json`` and the HTML page, which are never
byte-compared.

Record provenance per section:

* campaigns — ``campaign-<name>/attribution.jsonl`` (``end_to_end`` +
  ``stage_summary`` records, plus ``fault_window`` records bucketed
  against the journeys when the campaign injected faults) and
  ``campaign-<name>/metrics.jsonl`` (the final ``merged`` snapshot:
  occupancy histograms and ``tier.*`` hybrid-memory counters, pooled
  over every job's samples and counts; it holds no gauges);
* services — ``service-<name>/run_table.jsonl`` (window + repetition
  records, SLO verdict columns included);
* tunes — ``tune-<name>/pareto.jsonl`` (meta + trial records);
* kernel — ``kernel_profile.json`` (counts only).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from ..faults import time_buckets
from .artifacts import first_meta, read_artifact, records_of_kind

#: the schema identifier stamped on every report.json
REPORT_SCHEMA = "repro.report/v1"

#: end-to-end metrics carried per scenario (artifact field names)
E2E_METRICS = ("mean_ps", "min_ps", "max_ps", "p50_ps", "p95_ps", "p99_ps")

#: per-stage metrics carried per (scenario, stage)
STAGE_METRICS = ("count", "mean_ps", "p50_ps", "p95_ps", "p99_ps", "max_ps",
                 "share")

#: time slices in the fault injections-vs-latency view
FAULT_BUCKETS = 10

#: the stat suffixes a histogram expands into in a metrics snapshot
HIST_STATS = ("count", "mean", "min", "max", "p50", "p95", "p99")


def _merged_snapshot(out_dir: Path, name: str) -> dict:
    """The campaign's final ``merged`` metrics snapshot (last one wins)."""
    path = out_dir / f"campaign-{name}" / "metrics.jsonl"
    if not path.exists():
        return {}
    records, _ = read_artifact(path)
    merged: dict = {}
    for record in records:
        if record.get("kind") == "snapshot" and record.get("label") == "merged":
            merged = record.get("metrics", {})
    return merged


def _occupancy_rows(metrics: dict) -> list:
    """``occupancy.<source>.<stat>`` snapshot keys, one row per source."""
    rows: dict = {}
    for key, value in metrics.items():
        if not key.startswith("occupancy."):
            continue
        prefix, _, stat = key.rpartition(".")
        if stat not in HIST_STATS:
            continue
        rows.setdefault(prefix[len("occupancy."):], {})[stat] = value
    return [{"source": source, **stats} for source, stats in sorted(rows.items())]


def _campaign_section(out_dir: Path, entry) -> dict:
    records, _ = read_artifact(out_dir / f"campaign-{entry.name}"
                               / "attribution.jsonl")
    meta = first_meta(records) or {}
    end_to_end = [
        {"scenario": r["scenario"], "journeys": r["journeys"],
         **{m: r[m] for m in E2E_METRICS if m in r}}
        for r in sorted(records_of_kind(records, "end_to_end"),
                        key=lambda r: r["scenario"])
    ]
    stages = [
        {"scenario": r["scenario"], "stage": r["stage"],
         "stage_kind": r.get("stage_kind", ""),
         **{m: r[m] for m in STAGE_METRICS if m in r}}
        for r in sorted(records_of_kind(records, "stage_summary"),
                        key=lambda r: (r["scenario"], r["stage"]))
    ]
    windows = records_of_kind(records, "fault_window")
    journeys = records_of_kind(records, "journey")
    buckets = (
        time_buckets(windows, journeys, buckets=FAULT_BUCKETS)
        if windows and journeys else []
    )
    merged = _merged_snapshot(out_dir, entry.name)
    return {
        "name": entry.name,
        "journeys": meta.get("journeys", 0),
        "scenarios": meta.get("scenarios", []),
        "folded": bool(meta.get("folded", False)),
        "end_to_end": end_to_end,
        "stages": stages,
        "fault_buckets": buckets,
        "occupancy": _occupancy_rows(merged),
        "tier_metrics": {
            k: v for k, v in sorted(merged.items()) if k.startswith("tier.")
        },
    }


def _service_section(out_dir: Path, entry) -> dict:
    records, _ = read_artifact(out_dir / f"service-{entry.name}"
                               / "run_table.jsonl")
    meta = first_meta(records) or {}
    windows = [
        {k: v for k, v in r.items() if k != "kind"}
        for r in records_of_kind(records, "window")
    ]
    repetitions = [
        {k: v for k, v in r.items() if k != "kind"}
        for r in records_of_kind(records, "repetition")
    ]
    slo = {}
    for tenant in entry.schedule.tenants:
        if tenant.slo_p99_ms is None:
            continue
        col = f"slo_{tenant.name}"
        judged = sum(1 for w in windows if w.get(col))
        slo[tenant.name] = {
            "target_p99_ms": tenant.slo_p99_ms,
            "windows_judged": judged,
            "windows_met": sum(1 for w in windows if w.get(col) == "met"),
        }
    return {
        "name": entry.name,
        "schedule": meta.get("schedule", {}),
        "columns": meta.get("columns", []),
        "windows": windows,
        "repetitions": repetitions,
        "slo": slo,
    }


def _tune_section(out_dir: Path, entry) -> dict:
    records, _ = read_artifact(out_dir / f"tune-{entry.name}" / "pareto.jsonl")
    meta = first_meta(records) or {}
    trials = [
        {k: v for k, v in r.items() if k not in ("kind", "schema")}
        for r in records_of_kind(records, "trial")
    ]
    return {
        "name": entry.name,
        "workload": meta.get("workload"),
        "objectives": meta.get("objectives", []),
        "trials_run": meta.get("trials", 0),
        "front_size": meta.get("front_size", 0),
        "winner": meta.get("winner"),
        "trials": trials,
    }


def _kernel_section(out_dir: Path) -> Optional[dict]:
    """The deterministic slice of the kernel profile, if one was taken.

    Wall times are excluded by construction: only event counts — a pure
    function of the profiled experiment — may enter report.json.
    """
    path = out_dir / "kernel_profile.json"
    if not path.exists():
        return None
    profile = json.loads(path.read_text(encoding="utf-8"))
    return {
        "experiment": profile.get("experiment"),
        "events": profile.get("events", 0),
        "runs": profile.get("runs", 0),
        "counts": profile.get("counts", {}),
    }


def build_report(out_dir, spec) -> dict:
    """Fold a finished suite run's artifacts into the report dict."""
    out_dir = Path(out_dir)
    return {
        "schema": REPORT_SCHEMA,
        "suite": spec.name,
        "seed": spec.seed,
        "campaigns": [_campaign_section(out_dir, e) for e in spec.campaigns],
        "services": [_service_section(out_dir, e) for e in spec.services],
        "tunes": [_tune_section(out_dir, e) for e in spec.tunes],
        "kernel": _kernel_section(out_dir),
    }


def write_report_json(path, report: dict) -> None:
    """Write the canonical form: sorted keys, 2-space indent, newline."""
    Path(path).write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
