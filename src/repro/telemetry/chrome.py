"""Chrome ``trace_event`` exporter.

Produces the JSON array flavour of the Trace Event Format — loadable
directly in ``chrome://tracing`` and in Perfetto's legacy importer.  Every
emitted dict carries the required keys ``name``/``ph``/``ts``/``pid``/
``tid`` with ``ph`` restricted to ``X`` (complete span, with ``dur``),
``i`` (instant), and the flow phases ``s``/``t``/``f`` that link a
journey's stage spans; categories ride in ``cat``.

Timestamp convention: the simulator counts integer picoseconds, the trace
format wants microseconds — we divide by 1e6 and keep six decimals, so one
picosecond of simulated time is still distinguishable in the viewer.

Tracks: one ``tid`` per component category (kernel, dmi, buffer, memory,
processor, storage, accel, workload, journey), assigned in sorted-category
order so the mapping is deterministic for a deterministic simulation.

Besides recorded :class:`TraceEvent` objects, exporters accept *extras*:
pre-built picosecond-keyed dicts (``name``/``cat``/``ph``/``ts_ps`` plus
optional ``dur_ps``/``args``/``id``/``bp``).  The attribution layer uses
them for journey stage spans and flow links.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .session import TraceEvent

#: single simulated machine: everything shares one pid
TRACE_PID = 1

#: phases carrying a flow id (journey links between stage spans)
FLOW_PHASES = ("s", "t", "f")

PS_PER_US = 1_000_000


def _ts_us(ts_ps: int) -> float:
    return round(ts_ps / PS_PER_US, 6)


def to_chrome_events(
    events: Iterable["TraceEvent"], extras: Optional[List[dict]] = None
) -> List[dict]:
    """Convert recorded events (plus any extras) into trace_event dicts.

    Sorting makes the stream's timestamps monotonic, which both the viewer
    and downstream diff tooling rely on; ties keep span-before-instant
    order so an instant emitted at a span boundary nests visually inside.
    """
    raw: List[dict] = [
        {
            "name": e.name,
            "cat": e.category,
            "ph": e.ph,
            "ts_ps": e.ts_ps,
            "dur_ps": e.dur_ps,
            "args": e.args,
        }
        for e in events
    ]
    raw.extend(extras or [])
    tids: Dict[str, int] = {
        cat: i + 1 for i, cat in enumerate(sorted({r["cat"] for r in raw}))
    }
    out: List[dict] = []
    for event in sorted(raw, key=lambda r: (r["ts_ps"], r["ph"] != "X", r["name"])):
        record = {
            "name": event["name"],
            "cat": event["cat"],
            "ph": event["ph"],
            "ts": _ts_us(event["ts_ps"]),
            "pid": TRACE_PID,
            "tid": tids[event["cat"]],
        }
        if event["ph"] == "X":
            record["dur"] = _ts_us(event.get("dur_ps") or 0)
        if event["ph"] in FLOW_PHASES:
            record["id"] = event["id"]
            if "bp" in event:
                record["bp"] = event["bp"]
        if event.get("args"):
            record["args"] = event["args"]
        out.append(record)
    return out


def write_chrome_trace(
    path: str, events: Iterable["TraceEvent"], extras: Optional[List[dict]] = None
) -> int:
    """Write the JSON-array trace file; returns the number of events."""
    records = to_chrome_events(events, extras)
    with open(path, "w", encoding="utf-8") as fh:
        # hand-rolled array framing: one event per line keeps multi-hundred-
        # MB traces diffable and streamable without json.dump buffering
        fh.write("[\n")
        for i, record in enumerate(records):
            fh.write(json.dumps(record, separators=(",", ":")))
            fh.write(",\n" if i + 1 < len(records) else "\n")
        fh.write("]\n")
    return len(records)


def load_chrome_trace(path: str) -> List[dict]:
    """Read a trace written by :func:`write_chrome_trace` (or compatible)."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):  # object-form traces keep events under this key
        data = data.get("traceEvents", [])
    return data
