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

A session keeps every span and instant, or, with ``spans=False``, none:
campaign jobs ship metrics and journeys, so their sessions keep no span.
Span sites test ``trace.spans`` before they format a name or build an
args dict, so a ``spans=False`` session costs them one attribute test.

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
from .attribution import (
    JourneyTracker,
    LatencyBreakdown,
    OccupancySampler,
    journey_chrome_extras,
    journey_record,
)
from .chrome import to_chrome_events, write_chrome_trace
from .metrics import Counter, Histogram
from .registry import MetricsRegistry

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
    """The occupancy samples a session took.  Read by its own registry
    only (a :class:`~repro.telemetry.probe.Counts` would also join any
    session active when this one was made)."""

    METRICS = {"occupancy_samples": "occupancy.samples"}

    def __init__(self) -> None:
        self.occupancy_samples = 0


class TraceSession:
    """Context-managed telemetry collection for one run."""

    def __init__(self, *, kernel_events: bool = False, spans: bool = True):
        #: when True, the simulator kernel emits one instant per dispatched
        #: event — enormous traces, useful only for microscopic debugging
        self.kernel_events = kernel_events
        #: when False, spans and instants are neither kept nor counted
        #: (campaign jobs run ``spans=False``)
        self.spans = spans
        self.registry = MetricsRegistry()
        for core in CORE_COUNTERS:
            self.registry.counter(core)
        self.events: List[TraceEvent] = []
        self.counts = SessionCounts()
        self.registry.add_counts(self.counts)
        self.snapshots: List[dict] = []
        #: request-journey tracker; journeys are metric-like — small,
        #: bounded — so they stay on in ``spans=False`` sessions too
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
        # the sampler's sources read the newest system's queues: drop
        # them, so a closed session holds no system alive
        self.occupancy.set_sources({})
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
        if self.spans:
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
        if self.spans:
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

    def chrome_events(self) -> List[dict]:
        """Chrome ``trace_event`` dicts (sorted by timestamp), journey
        spans and flow links included."""
        return to_chrome_events(
            self.events, journey_chrome_extras(self.journeys.completed)
        )

    def write_chrome(self, path: str) -> int:
        """Write the Chrome trace JSON; returns the number of events."""
        return write_chrome_trace(
            path, self.events, journey_chrome_extras(self.journeys.completed)
        )

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
