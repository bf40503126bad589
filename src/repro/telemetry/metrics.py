"""Metric primitives: counters, gauges, and sample histograms.

These are the building blocks the :class:`~repro.telemetry.registry.
MetricsRegistry` hands out.  They are deliberately simulator-agnostic —
no clocks, no events — so every layer of the library can share one set of
measurement semantics:

* every summary is **well-defined on an empty metric** (no ``ValueError``,
  no ``nan``): an unexercised code path reports zeros, not a crash;
* percentiles use the nearest-rank method on exact samples — experiment
  scales here are small enough that exactness beats streaming sketches.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Union

from ..errors import TelemetryError

Number = Union[int, float]

#: the percentile set reported by default summaries
DEFAULT_PERCENTILES = (50.0, 95.0, 99.0)


class Metric:
    """Base class: a named measurement with a resettable value."""

    kind = "metric"

    def __init__(self, name: str = ""):
        self.name = name

    def reset(self) -> None:
        raise NotImplementedError

    def snapshot_into(self, out: Dict[str, float], prefix: str) -> None:
        """Write this metric's current values into a flat snapshot dict."""
        raise NotImplementedError


class Counter(Metric):
    """A named monotonic event counter."""

    kind = "counter"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.count = 0

    def add(self, n: int = 1) -> None:
        if n < 0:
            raise TelemetryError(
                f"counter {self.name!r}: cannot add negative {n}"
            )
        self.count += n

    def reset(self) -> None:
        self.count = 0

    def snapshot_into(self, out: Dict[str, float], prefix: str) -> None:
        out[prefix] = self.count

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Counter {self.name}={self.count}>"


class Gauge(Metric):
    """A named point-in-time value (queue depth, occupancy, knob position)."""

    kind = "gauge"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.value: float = 0.0
        self.high_water: float = 0.0
        self.updates = 0

    def set(self, value: Number) -> None:
        self.value = value
        self.updates += 1
        if value > self.high_water:
            self.high_water = value

    def reset(self) -> None:
        self.value = 0.0
        self.high_water = 0.0
        self.updates = 0

    def snapshot_into(self, out: Dict[str, float], prefix: str) -> None:
        out[prefix] = self.value
        out[f"{prefix}.high_water"] = self.high_water

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Gauge {self.name}={self.value}>"


class Histogram(Metric):
    """Collects numeric samples and summarizes them.

    Keeps every sample (exact percentiles).  All summaries are lenient:
    an empty histogram reports zeros rather than raising, so downstream
    artifact writers never have to special-case idle components.
    """

    kind = "histogram"

    def __init__(self, name: str = ""):
        super().__init__(name)
        self.samples: List[Number] = []

    def record(self, value: Number) -> None:
        self.samples.append(value)

    def reset(self) -> None:
        self.samples = []

    @property
    def count(self) -> int:
        return len(self.samples)

    def mean(self) -> float:
        if not self.samples:
            return 0.0
        return sum(self.samples) / len(self.samples)

    def min(self) -> Number:
        return min(self.samples) if self.samples else 0

    def max(self) -> Number:
        return max(self.samples) if self.samples else 0

    def total(self) -> Number:
        return sum(self.samples)

    def percentile(self, pct: float) -> Number:
        """Nearest-rank percentile, ``pct`` in [0, 100]; 0 when empty."""
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if not self.samples:
            return 0
        ordered = sorted(self.samples)
        rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
        return ordered[rank]

    def percentiles(
        self, pcts: Iterable[float] = DEFAULT_PERCENTILES
    ) -> Dict[str, Number]:
        """``{"p50": ..., "p95": ..., "p99": ...}`` — zeros when empty.

        One sort serves every requested percentile, so callers ask for the
        whole set instead of re-sorting per percentile.
        """
        ordered = sorted(self.samples)
        out: Dict[str, Number] = {}
        for pct in pcts:
            if not 0 <= pct <= 100:
                raise ValueError(f"percentile must be in [0, 100], got {pct}")
            if not ordered:
                out[_pct_key(pct)] = 0
                continue
            rank = max(0, math.ceil(pct / 100 * len(ordered)) - 1)
            out[_pct_key(pct)] = ordered[rank]
        return out

    def summary(self) -> Dict[str, float]:
        """Count/mean/min/max plus the default percentiles; never raises."""
        out: Dict[str, float] = {
            "count": float(self.count),
            "mean": float(self.mean()),
            "min": float(self.min()),
            "max": float(self.max()),
        }
        for key, value in self.percentiles().items():
            out[key] = float(value)
        return out

    def snapshot_into(self, out: Dict[str, float], prefix: str) -> None:
        for key, value in self.summary().items():
            out[f"{prefix}.{key}"] = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Histogram {self.name} n={self.count}>"


def _pct_key(pct: float) -> str:
    """50.0 -> "p50", 99.9 -> "p99.9"."""
    if float(pct).is_integer():
        return f"p{int(pct)}"
    return f"p{pct:g}"
