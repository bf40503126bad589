"""Declarative arrival schedules for the open-loop service twin.

A schedule describes *offered load over time* — independent of how fast
the twin can drain it, which is the defining property of open-loop
evaluation: arrivals keep coming whether or not the service keeps up.
The shapes cover the scenarios the run table is meant to chart:

* ``constant`` — a flat plateau (steady-state capacity measurement);
* ``ramp`` — linear growth between two rates (a diurnal rise, a
  find-the-knee sweep);
* ``flash`` — a triangular spike to a peak and back (the flash crowd
  that pushes the service past saturation and into shedding).

Phases are *additive*: the offered rate at time ``t`` is the sum of
every phase active at ``t``, so a diurnal baseline with a flash crowd on
top is two phases, not a new shape.  Tenants split the offered rate by
weight and map it onto a request class (see
:mod:`repro.service.classes`), giving a multi-tenant mix in one stream.

Arrival generation is a thinned Poisson process per tenant, seeded from
``(schedule, seed)`` only — never from shard count or worker identity —
so every shard of a sharded run derives the identical stream and a
merged run table is byte-for-byte reproducible for any shard count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim import Rng
from ..sim.rng import derive_seed

#: schema identifier stamped on schedules and run-table records
SERVICE_SCHEMA = "repro.service/v1"

#: arrival-rate shapes a phase may take
PHASE_KINDS = ("constant", "ramp", "flash")

#: picoseconds per millisecond (schedules are written in ms, the sim
#: kernel and the service loop run in ps)
PS_PER_MS = 1_000_000_000


@dataclass(frozen=True)
class Tenant:
    """One load source: a share of the offered rate bound to a class."""

    name: str
    klass: str
    weight: float = 1.0
    #: sim-kernel operations one request performs (its service time is
    #: the sum of this many calibrated-class draws)
    ops_per_request: int = 1
    #: optional latency objective: this tenant's per-window p99 must stay
    #: at or under this many milliseconds for the window to count as met
    slo_p99_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant needs a name")
        if self.weight <= 0:
            raise ConfigurationError(f"tenant {self.name!r}: weight must be > 0")
        if self.ops_per_request < 1:
            raise ConfigurationError(
                f"tenant {self.name!r}: ops_per_request must be >= 1"
            )
        if self.slo_p99_ms is not None and self.slo_p99_ms <= 0:
            raise ConfigurationError(
                f"tenant {self.name!r}: slo_p99_ms must be > 0 when set"
            )

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "klass": self.klass,
            "weight": self.weight,
            "ops_per_request": self.ops_per_request,
        }
        if self.slo_p99_ms is not None:
            out["slo_p99_ms"] = self.slo_p99_ms
        return out


@dataclass(frozen=True)
class Phase:
    """One additive contribution to the offered arrival rate."""

    kind: str
    start_ms: float
    end_ms: float
    #: constant plateau rate (``constant``)
    rate_rps: float = 0.0
    #: linear endpoints (``ramp``)
    from_rps: float = 0.0
    to_rps: float = 0.0
    #: triangular apex, reached at the phase midpoint (``flash``)
    peak_rps: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in PHASE_KINDS:
            raise ConfigurationError(
                f"unknown phase kind {self.kind!r} (known: {', '.join(PHASE_KINDS)})"
            )
        if self.end_ms <= self.start_ms:
            raise ConfigurationError(
                f"{self.kind} phase: end_ms must be after start_ms"
            )
        rates = (self.rate_rps, self.from_rps, self.to_rps, self.peak_rps)
        if any(r < 0 for r in rates):
            raise ConfigurationError(f"{self.kind} phase: rates must be >= 0")

    def rate_at(self, t_ms: float) -> float:
        """This phase's offered rate at ``t_ms`` (0 outside its bounds)."""
        if t_ms < self.start_ms or t_ms >= self.end_ms:
            return 0.0
        if self.kind == "constant":
            return self.rate_rps
        span = self.end_ms - self.start_ms
        if self.kind == "ramp":
            frac = (t_ms - self.start_ms) / span
            return self.from_rps + (self.to_rps - self.from_rps) * frac
        # flash: triangular spike, apex at the midpoint
        mid = self.start_ms + span / 2
        return self.peak_rps * (1.0 - abs(t_ms - mid) / (span / 2))

    def peak(self) -> float:
        """An upper bound of this phase's rate (exact for all shapes)."""
        if self.kind == "constant":
            return self.rate_rps
        if self.kind == "ramp":
            return max(self.from_rps, self.to_rps)
        return self.peak_rps

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "start_ms": self.start_ms, "end_ms": self.end_ms}
        if self.kind == "constant":
            out["rate_rps"] = self.rate_rps
        elif self.kind == "ramp":
            out["from_rps"] = self.from_rps
            out["to_rps"] = self.to_rps
        else:
            out["peak_rps"] = self.peak_rps
        return out


@dataclass(frozen=True)
class ArrivalSchedule:
    """A complete open-loop scenario: load shape, tenants, service knobs."""

    name: str
    duration_ms: float
    tenants: Tuple[Tenant, ...]
    phases: Tuple[Phase, ...]
    #: run-table window width; rows aggregate per window
    window_ms: float = 10.0
    #: parallel service channels the loop models (the twin's drain rate
    #: is ``servers / mean service time``)
    servers: int = 1
    #: admitted-but-not-started requests the queue holds; arrivals past
    #: it are shed
    queue_limit: int = 64
    #: optional shed-on-wait bound: arrivals whose projected queue delay
    #: exceeds this are shed even when the queue has room
    max_queue_delay_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("schedule needs a name")
        if self.duration_ms <= 0:
            raise ConfigurationError("duration_ms must be > 0")
        if self.window_ms <= 0 or self.window_ms > self.duration_ms:
            raise ConfigurationError(
                "window_ms must be in (0, duration_ms]"
            )
        if self.servers < 1:
            raise ConfigurationError("servers must be >= 1")
        if self.queue_limit < 1:
            raise ConfigurationError("queue_limit must be >= 1")
        if self.max_queue_delay_ms is not None and self.max_queue_delay_ms <= 0:
            raise ConfigurationError("max_queue_delay_ms must be > 0 when set")
        if not self.tenants:
            raise ConfigurationError("schedule needs at least one tenant")
        if not self.phases:
            raise ConfigurationError("schedule needs at least one phase")
        names = [t.name for t in self.tenants]
        if len(set(names)) != len(names):
            raise ConfigurationError("tenant names must be unique")

    # -- rate queries -------------------------------------------------------

    def rate_rps(self, t_ms: float) -> float:
        """Total offered arrival rate at ``t_ms`` (all phases, all tenants)."""
        return sum(p.rate_at(t_ms) for p in self.phases)

    def peak_rps(self) -> float:
        """An upper bound of the total offered rate (thinning envelope)."""
        return sum(p.peak() for p in self.phases)

    def windows(self) -> int:
        """Run-table windows covering ``[0, duration_ms)`` (ceil)."""
        return max(1, -(-int(self.duration_ms * PS_PER_MS)
                        // int(self.window_ms * PS_PER_MS)))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "schema": SERVICE_SCHEMA,
            "name": self.name,
            "duration_ms": self.duration_ms,
            "window_ms": self.window_ms,
            "servers": self.servers,
            "queue_limit": self.queue_limit,
            "tenants": [t.to_dict() for t in self.tenants],
            "phases": [p.to_dict() for p in self.phases],
        }
        if self.max_queue_delay_ms is not None:
            out["max_queue_delay_ms"] = self.max_queue_delay_ms
        return out

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — the form that
        rides in shard-job kwargs (hashable, cache-key stable)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(spec: Dict) -> "ArrivalSchedule":
        known = {"schema", "name", "duration_ms", "window_ms", "servers",
                 "queue_limit", "max_queue_delay_ms", "tenants", "phases"}
        unknown = set(spec) - known
        if unknown:
            raise ConfigurationError(
                f"unknown schedule fields: {', '.join(sorted(unknown))}"
            )
        try:
            tenants = tuple(Tenant(**t) for t in spec.get("tenants", []))
            phases = tuple(Phase(**p) for p in spec.get("phases", []))
        except TypeError as exc:
            raise ConfigurationError(f"bad schedule entry: {exc}") from exc
        return ArrivalSchedule(
            name=spec.get("name", ""),
            duration_ms=spec.get("duration_ms", 0.0),
            window_ms=spec.get("window_ms", 10.0),
            servers=spec.get("servers", 1),
            queue_limit=spec.get("queue_limit", 64),
            max_queue_delay_ms=spec.get("max_queue_delay_ms"),
            tenants=tenants,
            phases=phases,
        )

    @staticmethod
    def from_json(text: str) -> "ArrivalSchedule":
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"schedule is not valid JSON: {exc}") from exc
        if not isinstance(spec, dict):
            raise ConfigurationError("schedule JSON must be an object")
        return ArrivalSchedule.from_dict(spec)

    @staticmethod
    def load(source) -> "ArrivalSchedule":
        """Normalize a schedule from any accepted form."""
        if isinstance(source, ArrivalSchedule):
            return source
        if isinstance(source, dict):
            return ArrivalSchedule.from_dict(source)
        if isinstance(source, str):
            return ArrivalSchedule.from_json(source)
        raise ConfigurationError(
            f"cannot load a schedule from {type(source).__name__}"
        )


@dataclass(frozen=True)
class Arrival:
    """One generated request: global index, arrival time, and identity."""

    index: int
    t_ps: int
    tenant: str
    klass: str
    ops: int


def rep_seed(seed: int, repetition: int) -> int:
    """The seed one repetition's arrivals and calibrations derive from."""
    return derive_seed(seed, f"rep{repetition}")


def generate_arrivals(schedule: ArrivalSchedule, seed: int) -> List[Arrival]:
    """The full deterministic arrival stream of one repetition.

    Per-tenant non-homogeneous Poisson processes via thinning: candidate
    gaps are drawn at the tenant's peak rate and accepted with probability
    ``rate(t)/peak``.  Each tenant's stream is seeded from
    ``(seed, tenant name)`` and the merged stream is sorted by
    ``(arrival time, tenant, draw order)`` — a pure function of
    ``(schedule, seed)``, so every shard regenerates it identically.
    """
    total_weight = sum(t.weight for t in schedule.tenants)
    merged: List[Tuple[int, str, int, Tenant]] = []
    for tenant in schedule.tenants:
        rng = Rng(derive_seed(seed, f"tenant.{tenant.name}"), name=tenant.name)
        share = tenant.weight / total_weight
        peak = schedule.peak_rps() * share
        if peak <= 0:
            continue
        t_ms = 0.0
        order = 0
        while True:
            # candidate gaps at the peak rate, expressed per millisecond
            t_ms += rng.expovariate(peak / 1e3)
            if t_ms >= schedule.duration_ms:
                break
            accept = schedule.rate_rps(t_ms) * share / peak
            if rng.chance(accept):
                merged.append((int(t_ms * PS_PER_MS), tenant.name, order, tenant))
                order += 1
    merged.sort(key=lambda m: (m[0], m[1], m[2]))
    return [
        Arrival(index, t_ps, tenant.name, tenant.klass, tenant.ops_per_request)
        for index, (t_ps, _, _, tenant) in enumerate(merged)
    ]
