"""Unified tracing, metrics, and run-artifact subsystem.

The observability layer for the simulated memory stack: every component —
the event kernel, the DMI link and channel, the buffer pipelines, the
memory controllers, the storage stack, the accelerators — carries
lightweight probes that are inert (one ``is None`` test) until a
:class:`TraceSession` is entered:

    from repro.telemetry import TraceSession

    with TraceSession() as session:
        table = run_table3(samples=8)
    session.write_chrome("/tmp/t3/trace.json")      # chrome://tracing
    session.snapshots[-1]["metrics"]                # the final counters

A session keeps every span; campaign jobs run ``spans=False`` and keep
metrics and journeys only.  Run artifacts (``metrics.jsonl``,
``attribution.jsonl``) have one writer, the campaign's
(:func:`repro.campaign.run_experiment` runs a one-off experiment as a
one-job campaign).  See ``docs/telemetry.md`` for the artifact schema and
``scripts/trace_experiment.py`` for the CLI that wraps any named
experiment with a session.
"""

from .artifact import (
    SCHEMA,
    SCHEMA_VERSION,
    final_snapshot,
    meta_record,
    result_record,
    snapshot_record,
    write_jsonl,
)
from .attribution import (
    ATTRIBUTION_SCHEMA,
    Journey,
    JourneyTracker,
    LatencyBreakdown,
    OccupancySampler,
    fault_window_record,
    journey_record,
    merge_attribution,
    occupancy_sources,
)
from .buckets import bucket_of, slice_width, sparkline
from .chrome import load_chrome_trace, to_chrome_events, write_chrome_trace
from .metrics import Counter, Gauge, Histogram, Metric, nearest_rank
from .registry import MetricsRegistry
from .session import TraceEvent, TraceSession

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "Counter",
    "Gauge",
    "Histogram",
    "Journey",
    "JourneyTracker",
    "LatencyBreakdown",
    "Metric",
    "MetricsRegistry",
    "OccupancySampler",
    "SCHEMA",
    "SCHEMA_VERSION",
    "TraceEvent",
    "TraceSession",
    "bucket_of",
    "fault_window_record",
    "final_snapshot",
    "journey_record",
    "load_chrome_trace",
    "merge_attribution",
    "meta_record",
    "nearest_rank",
    "occupancy_sources",
    "result_record",
    "slice_width",
    "snapshot_record",
    "sparkline",
    "to_chrome_events",
    "write_chrome_trace",
    "write_jsonl",
]
