"""Fault plans: declarative, seeded, compilable chaos schedules.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each naming
a registered injector (see :mod:`repro.faults.injectors`), a target, a
schedule, and injector parameters.  Plans load from a plain dict or JSON
(``scripts/run_campaign.py --faults plan.json`` ships the canonical JSON
form across the worker process boundary) and **compile** into a flat,
sorted list of :class:`FaultEvent` fire times.

Three schedule kinds:

``once``
    A single event at ``at_ps``.
``periodic``
    ``count`` events starting at ``start_ps``, every ``period_ps``.
``bernoulli``
    One trial per ``period_ps`` tick from ``start_ps`` to ``until_ps``;
    each fires with probability ``rate``.  The trial stream is seeded via
    :func:`repro.sim.rng.derive_seed` from the plan seed and the entry's
    label, so the same (plan, seed) pair compiles to the same schedule on
    any platform, worker count, or Python build.

All times are **relative to the controller's start**, not absolute sim
time — a plan is reusable across runs whose boot phases take different
amounts of simulated time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..sim.rng import Rng, derive_seed

#: the accepted ``schedule`` values
SCHEDULES = ("once", "periodic", "bernoulli")


@dataclass(frozen=True)
class FaultSpec:
    """One plan entry: what to inject, where, and when."""

    #: registered injector name, e.g. ``"dmi.bit_errors"``
    injector: str
    #: injector-specific target selector (e.g. a channel number); empty
    #: string means "every eligible target"
    target: str = ""
    schedule: str = "once"
    #: ``once``: fire time (relative to controller start)
    at_ps: int = 0
    #: ``periodic``/``bernoulli``: first tick
    start_ps: int = 0
    #: ``periodic``/``bernoulli``: tick spacing
    period_ps: int = 0
    #: ``periodic``: number of ticks
    count: int = 1
    #: ``bernoulli``: per-tick fire probability
    rate: float = 0.0
    #: ``bernoulli``: last tick bound (exclusive)
    until_ps: int = 0
    #: fault window length; the injector's ``recover`` runs at window end
    #: (0 = a point fault with no recovery action)
    duration_ps: int = 0
    #: injector parameters as sorted (key, value) pairs — tuple form keeps
    #: the spec hashable and its canonical JSON stable
    params: Tuple[Tuple[str, object], ...] = ()
    #: unique label; auto-assigned by the plan when empty
    label: str = ""

    def __post_init__(self) -> None:
        if self.schedule not in SCHEDULES:
            raise ConfigurationError(
                f"fault {self.injector!r}: unknown schedule {self.schedule!r} "
                f"(one of {', '.join(SCHEDULES)})"
            )
        if self.schedule == "periodic" and (self.period_ps <= 0 or self.count <= 0):
            raise ConfigurationError(
                f"fault {self.injector!r}: periodic schedule needs "
                "period_ps > 0 and count > 0"
            )
        if self.schedule == "bernoulli":
            if self.period_ps <= 0 or self.until_ps <= self.start_ps:
                raise ConfigurationError(
                    f"fault {self.injector!r}: bernoulli schedule needs "
                    "period_ps > 0 and until_ps > start_ps"
                )
            if not 0.0 <= self.rate <= 1.0:
                raise ConfigurationError(
                    f"fault {self.injector!r}: rate {self.rate} outside [0, 1]"
                )
        if self.duration_ps < 0:
            raise ConfigurationError(
                f"fault {self.injector!r}: negative duration_ps"
            )

    def param(self, key: str, default: object = None) -> object:
        for k, v in self.params:
            if k == key:
                return v
        return default

    def fire_times(self, seed: int) -> List[int]:
        """The relative fire times this spec's schedule compiles to."""
        if self.schedule == "once":
            return [self.at_ps]
        if self.schedule == "periodic":
            return [self.start_ps + i * self.period_ps for i in range(self.count)]
        rng = Rng(derive_seed(seed, f"fault.{self.label}"), self.label)
        times: List[int] = []
        tick = self.start_ps
        while tick < self.until_ps:
            if rng.chance(self.rate):
                times.append(tick)
            tick += self.period_ps
        return times

    def to_dict(self) -> dict:
        out: Dict[str, object] = {"injector": self.injector}
        if self.target:
            out["target"] = self.target
        out["schedule"] = self.schedule
        if self.schedule == "once":
            out["at_ps"] = self.at_ps
        else:
            out["start_ps"] = self.start_ps
            out["period_ps"] = self.period_ps
            if self.schedule == "periodic":
                out["count"] = self.count
            else:
                out["rate"] = self.rate
                out["until_ps"] = self.until_ps
        if self.duration_ps:
            out["duration_ps"] = self.duration_ps
        if self.params:
            out["params"] = dict(self.params)
        if self.label:
            out["label"] = self.label
        return out

    @staticmethod
    def from_dict(entry: dict) -> "FaultSpec":
        if "injector" not in entry:
            raise ConfigurationError(f"fault entry missing 'injector': {entry}")
        known = {
            "injector", "target", "schedule", "at_ps", "start_ps", "period_ps",
            "count", "rate", "until_ps", "duration_ps", "params", "label",
        }
        unknown = set(entry) - known
        if unknown:
            raise ConfigurationError(
                f"fault {entry['injector']!r}: unknown keys {sorted(unknown)}"
            )
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigurationError(
                f"fault {entry['injector']!r}: params must be an object"
            )
        fields = {k: entry[k] for k in known - {"params"} if k in entry}
        fields["params"] = tuple(sorted(params.items()))
        return FaultSpec(**fields)


@dataclass(frozen=True)
class FaultEvent:
    """One compiled firing: when, which spec, and the spec's plan index."""

    at_ps: int
    index: int
    spec: FaultSpec


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, labelled collection of fault specs."""

    name: str = "faults"
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # auto-label so every spec has a stable, unique identity (the
        # Bernoulli seed and the journey fault tags both key off it)
        labelled: List[FaultSpec] = []
        seen: Dict[str, int] = {}
        for i, spec in enumerate(self.specs):
            label = spec.label or (
                f"{spec.injector}[{spec.target}]#{i}" if spec.target
                else f"{spec.injector}#{i}"
            )
            if label in seen:
                raise ConfigurationError(
                    f"plan {self.name!r}: duplicate fault label {label!r}"
                )
            seen[label] = i
            labelled.append(replace(spec, label=label))
        object.__setattr__(self, "specs", tuple(labelled))

    def __len__(self) -> int:
        return len(self.specs)

    # -- compilation --------------------------------------------------------

    def compile(self, seed: int = 0) -> List[FaultEvent]:
        """Flatten every spec's schedule into one sorted event list.

        Ordering is (fire time, plan index): deterministic for a given
        (plan, seed), independent of anything about the run executing it.
        """
        events: List[FaultEvent] = []
        for index, spec in enumerate(self.specs):
            for at_ps in spec.fire_times(seed):
                events.append(FaultEvent(at_ps, index, spec))
        events.sort(key=lambda e: (e.at_ps, e.index))
        return events

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {"name": self.name, "faults": [s.to_dict() for s in self.specs]}

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, compact separators.  The form that
        rides in campaign job kwargs (hashable, cache-key stable)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_dict(data: dict) -> "FaultPlan":
        if "faults" not in data or not isinstance(data["faults"], list):
            raise ConfigurationError("fault plan needs a 'faults' list")
        return FaultPlan(
            name=data.get("name", "faults"),
            specs=tuple(FaultSpec.from_dict(e) for e in data["faults"]),
        )

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"fault plan is not valid JSON: {exc}") from exc
        return FaultPlan.from_dict(data)

    @staticmethod
    def load(source: Optional[object]) -> Optional["FaultPlan"]:
        """Coerce a plan from whatever an experiment kwarg carries.

        Accepts ``None`` (no plan), an existing plan, a dict, or a JSON
        string — the last is how ``--faults`` crosses the campaign's
        process boundary (job kwargs must stay hashable).
        """
        if source is None or isinstance(source, FaultPlan):
            return source
        if isinstance(source, dict):
            return FaultPlan.from_dict(source)
        if isinstance(source, str):
            return FaultPlan.from_json(source)
        raise ConfigurationError(
            f"cannot load a fault plan from {type(source).__name__}"
        )
