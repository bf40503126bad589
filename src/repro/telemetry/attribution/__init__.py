"""Per-transaction latency attribution: journeys, sampling, breakdowns.

The layer that answers "where did this read's 320 ns go?" against the
simulated platform:

* :mod:`~repro.telemetry.attribution.journey` — request journeys with
  queue/service-classified stage visits, threaded host -> DMI -> buffer
  -> memory -> host;
* :mod:`~repro.telemetry.attribution.sampler` — arrival-driven occupancy
  sampling of every queue on the path;
* :mod:`~repro.telemetry.attribution.breakdown` — per-stage percentile
  tables and the critical-path summary (the Table 3 decomposition);
* :mod:`~repro.telemetry.attribution.artifact` — the
  ``repro.attribution/v1`` JSONL artifact and its deterministic
  multi-worker merge.

See the "Attribution" section of ``docs/telemetry.md``.
"""

from .artifact import (
    ATTRIBUTION_SCHEMA,
    ATTRIBUTION_SCHEMA_VERSION,
    attribution_meta,
    fault_window_record,
    fault_window_records,
    journey_record,
    journey_records,
    merge_attribution,
    stage_summary_records,
)
from .breakdown import LatencyBreakdown
from .journey import (
    QUEUE,
    QUEUE_STAGES,
    SERVICE,
    STAGE_ORDER,
    Journey,
    JourneyTracker,
    StageVisit,
    journey_chrome_extras,
)
from .sampler import OccupancySampler, occupancy_sources

__all__ = [
    "ATTRIBUTION_SCHEMA",
    "ATTRIBUTION_SCHEMA_VERSION",
    "Journey",
    "JourneyTracker",
    "LatencyBreakdown",
    "OccupancySampler",
    "QUEUE",
    "QUEUE_STAGES",
    "SERVICE",
    "STAGE_ORDER",
    "StageVisit",
    "attribution_meta",
    "fault_window_record",
    "fault_window_records",
    "journey_chrome_extras",
    "journey_record",
    "journey_records",
    "merge_attribution",
    "occupancy_sources",
    "stage_summary_records",
]
