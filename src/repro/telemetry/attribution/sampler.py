"""Arrival-driven occupancy sampling: queue depths without sim events.

The simulator's :meth:`run` drains its event queue, so a self-rescheduling
periodic sampler would either never let the run terminate or artificially
extend simulated time past the last real event — corrupting every
time-derived measurement.  Instead, sampling is *arrival driven*: the
host memory controller (the one point every transaction passes) calls
:meth:`OccupancySampler.maybe_sample` from inside its existing
ambient-probe nil-check, and the sampler takes at most one sample per
``period_ps`` of simulated time.  Idle systems take no samples (nothing
arrives), which is exactly right — there is no occupancy to observe.

Sources are plain callables returning the current depth of one queue:
DMI tag windows, replay buffers, the buffer write cache, memory
controller queues, DRAM banks, MBS command engines.  They are registered
per system build (:func:`occupancy_sources`) and recorded as
``occupancy.<name>`` histograms, so snapshots report p50/p95/max depth.
The sampler looks its histograms up once per source set, on the first
sample after :meth:`~OccupancySampler.set_sources` and in source order,
and then appends each reading straight to its histogram.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..metrics import Histogram

#: default sampling period: 100 ns of simulated time
DEFAULT_OCCUPANCY_PERIOD_PS = 100_000


class OccupancySampler:
    """Periodic (in simulated time) sampling of registered depth sources."""

    def __init__(self, period_ps: int = DEFAULT_OCCUPANCY_PERIOD_PS):
        if period_ps <= 0:
            raise ValueError("occupancy sampling period must be positive")
        self.period_ps = period_ps
        self.sources: Dict[str, Callable[[], float]] = {}
        #: (histogram, reader) pairs, looked up on the first sample of
        #: the current source set (None until then)
        self._items: Optional[List[Tuple[Histogram, Callable[[], float]]]] = None
        self._next_due_ps = 0

    def set_sources(self, sources: Dict[str, Callable[[], float]]) -> None:
        """Replace the source set (one system build owns the sampler at a
        time — experiments that build several systems re-register)."""
        self.sources = dict(sources)
        self._items = None

    def maybe_sample(self, trace, now_ps: int) -> bool:
        """Sample every source into ``trace`` if the period has elapsed;
        returns whether a sample was taken.  Call sites are already under
        the ambient probe nil-check, so the disabled cost stays one
        attribute load."""
        if now_ps < self._next_due_ps or not self.sources:
            return False
        items = self._items
        if items is None:
            # made on the first sample, in source order, so a histogram
            # never reports an empty "count: 0" and the registry keeps
            # the order the sources were first sampled in
            histogram = trace.registry.histogram
            items = self._items = [
                (histogram(f"occupancy.{name}"), read)
                for name, read in self.sources.items()
            ]
        self._next_due_ps = now_ps + self.period_ps
        trace.counts.occupancy_samples += 1
        for hist, read in items:
            hist.samples.append(read())
        return True


def occupancy_sources(socket) -> Dict[str, Callable[[], float]]:
    """Depth sources for every queue behind a :class:`Power8Socket`.

    Covers, per populated channel: the host tag window, both replay
    buffers (unacknowledged frames in flight), the buffer cache line
    count, each memory controller's request queue, busy DRAM banks, and
    — on ConTutto — the MBS command-engine pool.
    """
    sources: Dict[str, Callable[[], float]] = {}
    sim = socket.sim
    for index in sorted(socket.slots):
        slot = socket.slots[index]
        ch = f"ch{index}"
        tags = slot.host_mc.tags
        sources[f"dmi.{ch}.tags_in_flight"] = lambda t=tags: t.in_flight_count
        host_ep = slot.channel.host_endpoint
        buf_ep = slot.channel.buffer_endpoint
        sources[f"dmi.{ch}.host_unacked"] = lambda e=host_ep: e._replay.outstanding
        sources[f"dmi.{ch}.buffer_unacked"] = lambda e=buf_ep: e._replay.outstanding

        buffer = slot.buffer
        cache = getattr(buffer, "cache", None)
        if cache is not None:
            sources[f"buffer.{buffer.name}.cache_lines"] = (
                lambda c=cache: c.lines_held
            )
        mbs = getattr(buffer, "mbs", None)
        if mbs is not None:
            sources[f"buffer.{buffer.name}.engines_busy"] = (
                lambda m=mbs: m.engines.busy_count
            )
        for mc in getattr(buffer, "ports", []):
            sources[f"memory.{mc.name}.in_flight"] = lambda m=mc: m.in_flight
            device = mc.device
            if hasattr(device, "hot_slow_pages"):
                # tiered hybrid memory: slow-tier pages currently over
                # the promotion threshold — the migration backlog
                sources[f"tier.{device.name}.hot_slow_pages"] = (
                    lambda d=device: float(d.hot_slow_pages)
                )
            if hasattr(device, "banks_busy"):
                sources[f"memory.{device.name}.banks_busy"] = (
                    lambda d=device, s=sim: d.banks_busy(s.now_ps)
                )
                # per-bank busy flags: the contention histogram shows how
                # evenly an address stream spreads across the rank
                for bank in range(device.NUM_BANKS):
                    sources[f"memory.{device.name}.bank{bank}_busy"] = (
                        lambda d=device, b=bank, s=sim: float(
                            d.bank_busy(b, s.now_ps)
                        )
                    )
    return sources
