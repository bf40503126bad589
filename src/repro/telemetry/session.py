"""Trace sessions: span/instant collection plus a metrics registry.

A :class:`TraceSession` is the opt-in switch for all telemetry.  While one
is active (it is a context manager), instrumented components emit:

* **spans** — `complete(category, name, start_ps, end_ps)` records one
  bounded piece of work (a frame on the wire, a DMI command round trip, a
  buffer service, a DRAM access) carrying simulated-time picosecond stamps;
* **instants** — point events (a replay trigger, a CRC drop, a write-cache
  stall);
* **metrics** — named counters/gauges/histograms in the session's
  :class:`~repro.telemetry.registry.MetricsRegistry`.  Counts that a
  component keeps anyway are not pushed: the component's
  :class:`~repro.telemetry.probe.Counts` object joins the session it is
  built in, and snapshots read it in place.

A session stores at most ``max_events`` spans and instants; past the cap
each one is only counted, with one increment, so a dropped span costs the
one call that emitted it (campaign workers run ``max_events=0``).

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
    JourneyTracker,
    LatencyBreakdown,
    OccupancySampler,
    journey_chrome_extras,
    journey_record,
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
#: (most are pulled: snapshots add the components' counts to these zeros)
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


class SessionCounts:
    """Spans and instants a session dropped past ``max_events``, and the
    occupancy samples it took.  Read by its own registry only (a
    :class:`~repro.telemetry.probe.Counts` would also join any session
    active when this one was made)."""

    METRICS = {
        "dropped_events": "telemetry.dropped_events",
        "occupancy_samples": "occupancy.samples",
    }

    def __init__(self) -> None:
        self.dropped_events = 0
        self.occupancy_samples = 0


class TraceSession:
    """Context-managed telemetry collection for one run."""

    def __init__(
        self,
        name: str = "trace",
        kernel_events: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
    ):
        self.name = name
        #: when True, the simulator kernel emits one instant per dispatched
        #: event — enormous traces, useful only for microscopic debugging
        self.kernel_events = kernel_events
        self.max_events = max_events
        self.registry = MetricsRegistry()
        for core in CORE_COUNTERS:
            self.registry.counter(core)
        self.events: List[TraceEvent] = []
        # span-capped sessions (campaign workers run max_events=0) drop
        # EVERY span: one increment each
        self.counts = SessionCounts()
        self.registry.add_counts(self.counts)
        self.snapshots: List[dict] = []
        #: request-journey tracker; journeys are metric-like — small,
        #: bounded — so they stay on even for span-capped sessions (the
        #: campaign workers run max_events=0)
        self.journeys = JourneyTracker()
        #: arrival-driven queue-depth sampler
        self.occupancy = OccupancySampler()
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
            self.counts.dropped_events += 1
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
            self.counts.dropped_events += 1
            return
        self.events.append(TraceEvent("i", category, name, ts_ps, None, args))

    # -- metric shortcuts ---------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        # Fast path: per-call counts (buffer commands, processor commands,
        # kernel runs) hit this thousands of times per run — skip the
        # registry's get-or-create/type-check machinery once the counter
        # exists.
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
        extras = journey_chrome_extras(self.journeys.completed)
        dropped = self.counts.dropped_events
        if dropped:
            last_ps = max(
                [e.ts_ps + (e.dur_ps or 0) for e in self.events]
                + [x["ts_ps"] + (x.get("dur_ps") or 0) for x in extras]
                + [0]
            )
            extras.append(
                truncation_marker(dropped, self.max_events, last_ps)
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

    def journey_records(self) -> List[dict]:
        """One ``journey`` record per completed journey, in completion
        order."""
        return [journey_record(j) for j in self.journeys.completed]

    def breakdown(self) -> LatencyBreakdown:
        """Fold this session's completed journeys into a breakdown."""
        folded = LatencyBreakdown()
        folded.add_records(self.journey_records())
        return folded

    def write_attribution(self, path: str) -> int:
        """Write the ``repro.attribution/v1`` journey artifact; returns the
        record count."""
        return write_jsonl(path, session_attribution_records(self))
