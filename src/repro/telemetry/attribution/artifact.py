"""The ``repro.attribution/v1`` artifact: journeys on disk, mergeable.

Record stream (JSON Lines, one object per line):

``meta``
    First record: schema, session/source name, journey counts (completed,
    dropped, abandoned in flight), the scenario labels seen.
``journey``
    One per completed journey: identity, scenario, bounds, and the stage
    visits with their queue/service classification.
``stage_summary``
    One per (scenario, stage): the aggregated statistics the breakdown
    computes — so a reader can grep headline numbers without re-folding
    every journey.
``fault_window``
    One per closed fault-injection window the session observed (label,
    injector, bounds) — the raw material of the time-bucketed
    injections-vs-latency view.

Per-worker artifacts merge into one campaign artifact deterministically —
sources sorted by label, journeys and fault windows kept in per-source
order and tagged with their source, summaries recomputed over the union —
so the merged file is byte-identical regardless of worker count or
completion order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from ..artifact import read_jsonl, write_jsonl
from .breakdown import LatencyBreakdown
from .journey import Journey

#: bump when attribution record shapes change incompatibly
ATTRIBUTION_SCHEMA_VERSION = 1

#: the schema identifier stamped on every attribution record
ATTRIBUTION_SCHEMA = f"repro.attribution/v{ATTRIBUTION_SCHEMA_VERSION}"


def journey_record(journey: Journey) -> dict:
    """Serialize one journey to its plain-dict artifact form."""
    return {
        "schema": ATTRIBUTION_SCHEMA,
        "kind": "journey",
        "jid": journey.jid,
        "op": journey.op,
        "addr": journey.addr,
        "channel": journey.channel,
        "scenario": journey.scenario,
        "start_ps": journey.start_ps,
        "end_ps": journey.end_ps,
        "stages": [
            {
                "stage": v.stage,
                "kind": v.kind,
                "nested": v.nested,
                "start_ps": v.start_ps,
                "end_ps": v.end_ps,
            }
            for v in journey.stages
        ],
        **({"faults": list(journey.faults)} if journey.faults else {}),
        **({"parent": journey.parent} if journey.parent is not None else {}),
        **({"depth": journey.depth} if journey.depth is not None else {}),
    }


def attribution_meta(
    name: str,
    journeys: int,
    dropped: int,
    abandoned: int,
    scenarios: List[str],
    **extra,
) -> dict:
    record = {
        "schema": ATTRIBUTION_SCHEMA,
        "schema_version": ATTRIBUTION_SCHEMA_VERSION,
        "kind": "meta",
        "name": name,
        "journeys": journeys,
        "dropped": dropped,
        "abandoned": abandoned,
        "scenarios": sorted(scenarios),
    }
    record.update(extra)
    return record


def stage_summary_records(breakdown: LatencyBreakdown) -> List[dict]:
    """One ``stage_summary`` record per (scenario, stage), plus one
    ``end_to_end`` summary per scenario."""
    out: List[dict] = []
    for scenario in breakdown.scenarios():
        e2e = breakdown.end_to_end(scenario)
        out.append({
            "schema": ATTRIBUTION_SCHEMA,
            "kind": "end_to_end",
            "scenario": scenario,
            "journeys": breakdown.journey_count(scenario),
            **{f"{k}_ps": v for k, v in e2e.items() if k != "count"},
        })
        for row in breakdown.stage_table(scenario):
            fields = dict(row)
            # the row's queue/service classification must not clobber the
            # record-kind discriminator
            fields["stage_kind"] = fields.pop("kind")
            out.append({
                "schema": ATTRIBUTION_SCHEMA,
                "kind": "stage_summary",
                "scenario": scenario,
                **fields,
            })
    return out


def session_attribution_records(session) -> List[dict]:
    """The full record stream for one :class:`TraceSession`'s journeys."""
    tracker = session.journeys
    breakdown = LatencyBreakdown()
    journeys = session.journey_records()
    breakdown.add_records(journeys)
    records = [
        attribution_meta(
            session.name,
            len(tracker.completed),
            tracker.dropped,
            tracker.active_count,
            tracker.scenarios(),
        )
    ]
    records.extend(journeys)
    records.extend(fault_window_record(w) for w in session.fault_windows)
    records.extend(stage_summary_records(breakdown))
    return records


def fault_window_record(window: dict) -> dict:
    """The artifact form of one closed fault window (a
    ``TraceSession.fault_windows`` entry)."""
    return {"schema": ATTRIBUTION_SCHEMA, "kind": "fault_window", **window}


def read_attribution(path: str) -> List[dict]:
    """Load an attribution artifact (same JSONL framing as telemetry)."""
    return read_jsonl(path)


def journey_records(records: Iterable[dict]) -> List[dict]:
    """The journey records of an artifact stream, in file order."""
    return [r for r in records if r.get("kind") == "journey"]


def fault_window_records(records: Iterable[dict]) -> List[dict]:
    """The fault-window records of an artifact stream, in file order."""
    return [r for r in records if r.get("kind") == "fault_window"]


def merge_attribution(
    sources: Iterable[Tuple[str, List[dict]]], name: str = "merged"
) -> List[dict]:
    """Merge per-source journey and fault-window records into one stream.

    ``sources`` is ``(label, records)`` pairs — e.g. one per campaign
    job.  Output is deterministic for a given set of sources: sources
    sort by label, each journey and ``fault_window`` record gains a
    ``source`` field (windows follow every journey, in source order), and
    summaries are recomputed over the union.
    """
    ordered: List[Tuple[str, List[dict]]] = sorted(sources, key=lambda s: s[0])
    merged: List[dict] = []
    windows: List[dict] = []
    scenarios: Dict[str, bool] = {}
    for label, records in ordered:
        for record in records:
            kind = record.get("kind")
            if kind == "fault_window":
                windows.append({**record, "source": label})
            elif kind in (None, "journey"):
                tagged = dict(record)
                tagged["kind"] = "journey"
                tagged["source"] = label
                merged.append(tagged)
                scenarios[tagged.get("scenario", "")] = True
    breakdown = LatencyBreakdown()
    breakdown.add_records(merged)
    out = [
        attribution_meta(
            name, len(merged), 0, 0, sorted(scenarios),
            sources=[label for label, _ in ordered],
        )
    ]
    out.extend(merged)
    out.extend(windows)
    out.extend(stage_summary_records(breakdown))
    return out


def fold_stage_summaries(
    sources: Iterable[Tuple[str, List[dict]]], name: str = "merged"
) -> List[dict]:
    """Merge per-source ``stage_summary``/``end_to_end`` records directly.

    The bounded-memory alternative to :func:`merge_attribution` for very
    large sweeps: each worker reduces its journeys to summary records
    in-process, and the campaign merge folds those — O(scenarios × stages)
    per source — instead of retaining every journey record until the end.

    Counts, means, minima/maxima, and shares merge exactly (weighted by
    journey counts).  Percentiles are **not** mergeable from summaries, so
    the folded ``p50/p95/p99`` are journey-count-weighted means of the
    per-source percentiles — a documented approximation, flagged with
    ``"folded": true`` on every output record.  The fold is deterministic:
    sources sort by label, scenarios and stages sort lexically.
    """
    ordered = sorted(sources, key=lambda s: s[0])
    e2e: Dict[str, dict] = {}
    stages: Dict[Tuple[str, str], dict] = {}
    for _, records in ordered:
        by_scenario = {
            r["scenario"]: r for r in records if r.get("kind") == "end_to_end"
        }
        for record in records:
            scenario = record.get("scenario", "")
            if record.get("kind") == "end_to_end":
                n = record["journeys"]
                acc = e2e.setdefault(scenario, {
                    "journeys": 0, "mean": 0.0, "min": None, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0,
                })
                acc["journeys"] += n
                acc["mean"] += record["mean_ps"] * n
                low = record["min_ps"]
                acc["min"] = low if acc["min"] is None else min(acc["min"], low)
                acc["max"] = max(acc["max"], record["max_ps"])
                for q in ("p50", "p95", "p99"):
                    acc[q] += record[f"{q}_ps"] * n
            elif record.get("kind") == "stage_summary":
                # mean_ps is per-scenario-journey (zero-filled), so the
                # stage's total time is mean × the source's journey count
                n = by_scenario[scenario]["journeys"]
                acc = stages.setdefault((scenario, record["stage"]), {
                    "stage_kind": record["stage_kind"], "count": 0,
                    "journeys": 0, "total": 0.0, "max": 0.0,
                    "p50": 0.0, "p95": 0.0, "p99": 0.0,
                })
                acc["count"] += record["count"]
                acc["journeys"] += n
                acc["total"] += record["mean_ps"] * n
                acc["max"] = max(acc["max"], record["max_ps"])
                for q in ("p50", "p95", "p99"):
                    acc[q] += record[f"{q}_ps"] * record["count"]

    out = [
        attribution_meta(
            name,
            sum(acc["journeys"] for acc in e2e.values()),
            0, 0, sorted(e2e),
            sources=[label for label, _ in ordered],
            folded=True,
        )
    ]
    for scenario in sorted(e2e):
        acc = e2e[scenario]
        n = acc["journeys"] or 1
        out.append({
            "schema": ATTRIBUTION_SCHEMA,
            "kind": "end_to_end",
            "scenario": scenario,
            "folded": True,
            "journeys": acc["journeys"],
            "mean_ps": acc["mean"] / n,
            "min_ps": acc["min"] or 0.0,
            "max_ps": acc["max"],
            **{f"{q}_ps": acc[q] / n for q in ("p50", "p95", "p99")},
        })
    for scenario, stage in sorted(stages):
        acc = stages[(scenario, stage)]
        scenario_total = e2e[scenario]["mean"]  # already Σ mean×journeys
        out.append({
            "schema": ATTRIBUTION_SCHEMA,
            "kind": "stage_summary",
            "scenario": scenario,
            "folded": True,
            "stage": stage,
            "stage_kind": acc["stage_kind"],
            "count": acc["count"],
            "mean_ps": acc["total"] / (acc["journeys"] or 1),
            **{f"{q}_ps": acc[q] / (acc["count"] or 1) for q in ("p50", "p95", "p99")},
            "max_ps": acc["max"],
            "share": acc["total"] / scenario_total if scenario_total else 0.0,
        })
    return out


def write_attribution(path: str, records: List[dict]) -> int:
    """Write an attribution record stream; returns the record count."""
    return write_jsonl(path, records)
