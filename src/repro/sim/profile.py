"""Kernel self-profiling: where does the simulator's wall clock go?

The pure-Python DES kernel is the wall for every hot experiment (see
``benchmarks/BENCH_campaign.json``), so before attacking it the repo
needs a map: which event callbacks burn the time, and how many of each
fire.  A :class:`KernelProfiler` attributes **wall-clock time and event
counts per callback qualname** — the event-type granularity a
calendar-queue/batching overhaul would be judged against.

Design constraints, in order:

1. **Zero cost when disabled.**  The dispatch loop in
   :class:`~repro.sim.kernel.Simulator` checks ``profile.active`` once
   per ``run()``/``run_until_signal()`` drive — never per event — and,
   when no profiler is installed, times nothing: the profiler is one
   half of the per-event hook chosen for the drive.
   ``benchmarks/bench_kernel_hotspots.py`` guards exactly this.
2. **Deterministic counts.**  Event *counts* per callback are a pure
   function of the simulation (same code, same seed, same counts), so
   they may ride in byte-compared artifacts.  Wall times are measured
   and vary run to run; keep them out of anything byte-compared
   (``report.json``) and in ``kernel_profile.json`` instead.
3. **Stdlib only.**  ``time.perf_counter`` around each dispatch; no
   tracing hooks, no ``sys.setprofile`` (which would time the whole
   interpreter, not the kernel).

Usage::

    from repro.sim import profile

    with profile.profiled() as prof:
        run_table3(samples=8)
    for row in prof.hotspots()[:5]:
        print(row["key"], row["count"], row["wall_s"])

Profilers do not nest: installing over an active profiler raises, the
same discipline :class:`~repro.telemetry.TraceSession` enforces.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, List, Optional

from ..errors import SimulationError

#: bump when the profile record shape changes incompatibly
PROFILE_SCHEMA_VERSION = 1

#: the schema identifier stamped on profile artifacts
PROFILE_SCHEMA = f"repro.profile/v{PROFILE_SCHEMA_VERSION}"

#: the ambient profiler the kernel dispatch loop consults (one per
#: process, like ``telemetry.probe.session``)
active: Optional["KernelProfiler"] = None


def event_key(fn) -> str:
    """The attribution key of one scheduled callable.

    Functions and (bound) methods report their ``__qualname__`` —
    ``Signal.trigger``, ``DmiChannel._dispatch`` — which is exactly the
    "event type" granularity the hotspot table wants.  Exotic callables
    (partials, callable instances) fall back to their type name.
    """
    return getattr(fn, "__qualname__", None) or type(fn).__name__


class KernelProfiler:
    """Accumulates per-event-type wall time and counts for one session."""

    __slots__ = ("counts", "wall_s", "runs")

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self.wall_s: Dict[str, float] = {}
        self.runs = 0

    # -- recording (called from the kernel dispatch loop) -------------------

    def record(self, key: str, elapsed_s: float) -> None:
        """Attribute one dispatched event to its callback key."""
        self.counts[key] = self.counts.get(key, 0) + 1
        self.wall_s[key] = self.wall_s.get(key, 0.0) + elapsed_s

    # -- views --------------------------------------------------------------

    @property
    def events(self) -> int:
        """Total events dispatched under this profiler."""
        return sum(self.counts.values())

    @property
    def total_wall_s(self) -> float:
        """Total wall-clock seconds spent inside event callbacks."""
        return sum(self.wall_s.values())

    def hotspots(self) -> List[dict]:
        """Per-event-type rows, hottest (by wall time) first.

        Ties break on the key so the ordering is reproducible even when
        two event types measure identically (e.g. both at 0.0 on a
        coarse timer).
        """
        total_wall = self.total_wall_s
        total_count = self.events
        rows = []
        for key in self.counts:
            wall = self.wall_s[key]
            count = self.counts[key]
            rows.append({
                "key": key,
                "count": count,
                "wall_s": wall,
                "wall_share": wall / total_wall if total_wall else 0.0,
                "count_share": count / total_count if total_count else 0.0,
                "mean_us": 1e6 * wall / count if count else 0.0,
            })
        rows.sort(key=lambda r: (-r["wall_s"], r["key"]))
        return rows

    def counts_by_key(self) -> Dict[str, int]:
        """Deterministic view: ``{key: count}`` sorted by key.

        This is the only part of a profile safe to embed in
        byte-compared artifacts — counts repeat across runs, wall times
        do not.
        """
        return {key: self.counts[key] for key in sorted(self.counts)}

    def to_record(self, **extra) -> dict:
        """The full profile as one JSON-serializable record."""
        record = {
            "schema": PROFILE_SCHEMA,
            "schema_version": PROFILE_SCHEMA_VERSION,
            "kind": "kernel_profile",
            "events": self.events,
            "event_types": len(self.counts),
            "runs": self.runs,
            "total_wall_s": self.total_wall_s,
            "hotspots": self.hotspots(),
            "counts": self.counts_by_key(),
        }
        record.update(extra)
        return record


# -- installation -----------------------------------------------------------


def install(profiler: KernelProfiler) -> KernelProfiler:
    """Make ``profiler`` the ambient kernel profiler of this process."""
    global active
    if active is not None:
        raise SimulationError(
            "a kernel profiler is already installed (profilers do not nest)"
        )
    active = profiler
    return profiler


def uninstall() -> None:
    """Remove the ambient profiler (idempotent)."""
    global active
    active = None


@contextmanager
def profiled():
    """Context manager: profile every kernel run inside the block."""
    profiler = install(KernelProfiler())
    try:
        yield profiler
    finally:
        uninstall()


def write_profile(path: str, profiler: KernelProfiler, **extra) -> dict:
    """Write one profile record as pretty JSON; returns the record."""
    record = profiler.to_record(**extra)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return record
