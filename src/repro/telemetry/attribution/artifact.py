"""The ``repro.attribution/v1`` artifact: journeys on disk, mergeable.

Record stream (JSON Lines, one object per line):

``meta``
    First record: schema, artifact name, journey counts (completed,
    dropped, abandoned in flight), the scenario labels seen and the
    sources merged.
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

Every artifact is a merge of campaign jobs' records (a one-off run is a
one-job campaign): sources sorted by label, journeys and fault windows
kept in per-source order and tagged with their source, summaries
recomputed over the union — so the file is byte-identical regardless of
worker count or completion order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

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


def fault_window_record(window: dict) -> dict:
    """The artifact form of one closed fault window (a
    ``TraceSession.fault_windows`` entry)."""
    return {"schema": ATTRIBUTION_SCHEMA, "kind": "fault_window", **window}


def journey_records(records: Iterable[dict]) -> List[dict]:
    """The journey records of an artifact stream, in file order."""
    return [r for r in records if r.get("kind") == "journey"]


def fault_window_records(records: Iterable[dict]) -> List[dict]:
    """The fault-window records of an artifact stream, in file order."""
    return [r for r in records if r.get("kind") == "fault_window"]


def merge_attribution(
    sources: Iterable[Tuple[str, List[dict]]], name: str = "merged",
    dropped: int = 0, abandoned: int = 0,
) -> List[dict]:
    """Merge per-source journey and fault-window records into one stream.

    ``sources`` is ``(label, records)`` pairs — e.g. one per campaign
    job.  Output is deterministic for a given set of sources: sources
    sort by label, each journey and ``fault_window`` record gains a
    ``source`` field (windows follow every journey, in source order), and
    summaries are recomputed over the union.  ``dropped`` and
    ``abandoned`` are the sources' journey totals the records cannot
    show (refused past a tracker's cap, still in flight at its end); the
    meta record carries them.
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
            name, len(merged), dropped, abandoned, sorted(scenarios),
            sources=[label for label, _ in ordered],
        )
    ]
    out.extend(merged)
    out.extend(windows)
    out.extend(stage_summary_records(breakdown))
    return out
