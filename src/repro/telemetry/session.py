"""Trace sessions: span/instant collection plus a metrics registry.

A :class:`TraceSession` is the opt-in switch for all telemetry.  While one
is active (it is a context manager), instrumented components emit:

* **spans** — `complete(category, name, start_ps, end_ps)` records one
  bounded piece of work (a frame on the wire, a DMI command round trip, a
  buffer service, a DRAM access) carrying simulated-time picosecond stamps;
* **instants** — point events (a replay trigger, a CRC drop, a write-cache
  stall);
* **metrics** — named counters/gauges/histograms in the session's
  :class:`~repro.telemetry.registry.MetricsRegistry`.

A session stores at most ``max_events`` spans and instants; past the cap
each one is only counted, inline, so a dropped span costs the one call
that emitted it (campaign workers run ``max_events=0``).

Nothing here touches the simulator: call sites pass ``sim.now_ps``
explicitly, which keeps this package import-safe from every layer
(``repro.sim`` imports telemetry, never the other way around).

Timestamps are picoseconds throughout; exporters convert to the Chrome
``trace_event`` microsecond convention at write time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from . import probe
from .artifact import snapshot_record, write_jsonl
from .attribution import (
    DEFAULT_MAX_JOURNEYS,
    DEFAULT_OCCUPANCY_PERIOD_PS,
    JourneyTracker,
    LatencyBreakdown,
    OccupancySampler,
    journey_chrome_extras,
    session_attribution_records,
)
from .chrome import to_chrome_events, truncation_marker, write_chrome_trace
from .metrics import Counter, Histogram
from .registry import MetricsRegistry

#: default cap on stored trace events; beyond it events are counted but
#: dropped (metrics keep accumulating — they are O(1) in space)
DEFAULT_MAX_EVENTS = 2_000_000

#: counters pre-registered at zero in every session so artifact snapshots
#: have a stable core schema regardless of which paths a run exercises
CORE_COUNTERS = (
    "kernel.events",
    "dmi.frames_sent",
    "dmi.frames_accepted",
    "dmi.replays",
    "buffer.cache.hits",
    "buffer.cache.misses",
    "telemetry.dropped_events",
)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event.  ``dur_ps`` is None for instants."""

    ph: str                      # "X" (complete span) | "i" (instant)
    category: str                # component: kernel/dmi/buffer/memory/...
    name: str
    ts_ps: int
    dur_ps: Optional[int] = None
    args: Optional[dict] = None


class TraceSession:
    """Context-managed telemetry collection for one run."""

    def __init__(
        self,
        name: str = "trace",
        kernel_events: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
        registry: Optional[MetricsRegistry] = None,
        journeys: bool = True,
        max_journeys: int = DEFAULT_MAX_JOURNEYS,
        occupancy_period_ps: Optional[int] = DEFAULT_OCCUPANCY_PERIOD_PS,
    ):
        self.name = name
        #: when True, the simulator kernel emits one instant per dispatched
        #: event — enormous traces, useful only for microscopic debugging
        self.kernel_events = kernel_events
        self.max_events = max_events
        self.registry = registry or MetricsRegistry()
        for core in CORE_COUNTERS:
            self.registry.counter(core)
        # An over-cap span or instant is counted inline in two places:
        # locally for the exporter's truncation marker, and in the registry
        # so the loss survives into snapshots (and campaign merges).  Bound
        # once: span-capped sessions (campaign workers run max_events=0)
        # drop EVERY span.
        self._dropped_counter = self.registry.counter("telemetry.dropped_events")
        self.events: List[TraceEvent] = []
        self.dropped_events = 0
        self.snapshots: List[dict] = []
        #: request-journey tracker (None when attribution is disabled);
        #: journeys are metric-like — small, bounded — so they stay on even
        #: for span-capped sessions (the campaign workers run max_events=0)
        self.journeys: Optional[JourneyTracker] = (
            JourneyTracker(max_journeys) if journeys else None
        )
        #: arrival-driven queue-depth sampler (None disables sampling)
        self.occupancy: Optional[OccupancySampler] = (
            OccupancySampler(occupancy_period_ps) if occupancy_period_ps else None
        )
        #: closed fault-injection windows (plain dicts: label, injector,
        #: target, start_ps, end_ps), published by FaultController.stop()
        #: so the attribution artifact and the time-bucketed resilience
        #: view can line injections up against latency
        self.fault_windows: List[dict] = []
        self._closed = False

    # -- context management -------------------------------------------------

    def __enter__(self) -> "TraceSession":
        probe.activate(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        probe.deactivate(self)
        self._closed = True
        # always leave a final snapshot so artifacts are complete even when
        # the caller never snapshotted explicitly (or the run raised)
        self.snapshot("final")

    # -- event emission -----------------------------------------------------

    def complete(
        self,
        category: str,
        name: str,
        start_ps: int,
        end_ps: int,
        args: Optional[dict] = None,
    ) -> None:
        """Record a bounded span [start_ps, end_ps] in simulated time."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            self._dropped_counter.count += 1
            return
        self.events.append(
            TraceEvent("X", category, name, start_ps, max(0, end_ps - start_ps), args)
        )

    def instant(
        self,
        category: str,
        name: str,
        ts_ps: int,
        args: Optional[dict] = None,
    ) -> None:
        """Record a point event at ``ts_ps``."""
        if len(self.events) >= self.max_events:
            self.dropped_events += 1
            self._dropped_counter.count += 1
            return
        self.events.append(TraceEvent("i", category, name, ts_ps, None, args))

    # -- metric shortcuts ---------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        # Fast path: the hot DMI/buffer counters hit this tens of thousands
        # of times per run — skip the registry's get-or-create/type-check
        # machinery once the counter exists.
        metric = self.registry._metrics.get(name)
        if metric is not None and metric.__class__ is Counter and n >= 0:
            metric.count += n
        else:
            self.registry.counter(name).add(n)

    def gauge_set(self, name: str, value: float) -> None:
        self.registry.gauge(name).set(value)

    def record(self, name: str, value: float) -> None:
        # the same dict-hit fast path as count()
        metric = self.registry._metrics.get(name)
        if metric is not None and metric.__class__ is Histogram:
            metric.record(value)
        else:
            self.registry.histogram(name).record(value)

    # -- snapshots ----------------------------------------------------------

    def snapshot(self, label: str, ts_ps: Optional[int] = None) -> Dict[str, float]:
        """Snapshot the registry; stored (with the label) for the artifact."""
        values = self.registry.snapshot()
        self.snapshots.append({"label": label, "ts_ps": ts_ps, "metrics": values})
        return values

    # -- accounting ---------------------------------------------------------

    @property
    def span_count(self) -> int:
        return sum(1 for e in self.events if e.ph == "X")

    @property
    def instant_count(self) -> int:
        return sum(1 for e in self.events if e.ph == "i")

    def categories(self) -> List[str]:
        """Distinct component categories seen, sorted."""
        return sorted({e.category for e in self.events})

    # -- export -------------------------------------------------------------

    def _chrome_extras(self) -> List[dict]:
        """Journey spans/flow links, plus the truncation marker when the
        event cap clipped the trace."""
        extras: List[dict] = []
        if self.journeys is not None:
            extras.extend(journey_chrome_extras(self.journeys.completed))
        if self.dropped_events:
            last_ps = max(
                [e.ts_ps + (e.dur_ps or 0) for e in self.events]
                + [x["ts_ps"] + (x.get("dur_ps") or 0) for x in extras]
                + [0]
            )
            extras.append(
                truncation_marker(self.dropped_events, self.max_events, last_ps)
            )
        return extras

    def chrome_events(self) -> List[dict]:
        """Chrome ``trace_event`` dicts (sorted by timestamp)."""
        return to_chrome_events(self.events, self._chrome_extras())

    def write_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the number of events."""
        return write_chrome_trace(path, self.events, self._chrome_extras())

    def write_metrics(self, path: str, extra_records: Optional[List[dict]] = None) -> int:
        """Write the JSONL metrics artifact; returns the number of records.

        The record stream is: any ``extra_records`` the caller prepends
        (meta, results), then one snapshot record per :meth:`snapshot` call
        in emission order — the last snapshot is the run's final state.
        """
        records = list(extra_records or [])
        for snap in self.snapshots:
            records.append(
                snapshot_record(snap["label"], snap["ts_ps"], snap["metrics"])
            )
        return write_jsonl(path, records)

    # -- attribution --------------------------------------------------------

    def breakdown(self) -> LatencyBreakdown:
        """Fold this session's completed journeys into a breakdown."""
        from .attribution import journey_record

        folded = LatencyBreakdown()
        if self.journeys is not None:
            for journey in self.journeys.completed:
                folded.add_record(journey_record(journey))
        return folded

    def write_attribution(self, path: str) -> int:
        """Write the ``repro.attribution/v1`` journey artifact; returns the
        record count (a meta record is written even with journeys off)."""
        return write_jsonl(path, session_attribution_records(self))
