"""The hierarchical metrics registry.

One :class:`MetricsRegistry` holds every named metric of a run.  Names are
dot-separated paths (``"dmi.frames_sent"``, ``"buffer.cache.hits"``); the
registry is flat internally but :meth:`tree` folds the namespace back into
nested dicts for humans.

Counts reach the registry two ways.  A count a component keeps anyway
is *pulled*: the component's :class:`~repro.telemetry.probe.Counts`
object registers here when it is built under a session
(:meth:`add_counts`), and :meth:`snapshot` adds each of its fields under
its metric name.  Every other metric is *pushed* through the active
:class:`~repro.telemetry.session.TraceSession`, which creates it on first
use.  Registering the *same* name as two different kinds is a bug and is
rejected, as is explicitly re-registering an existing name.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Type

from ..errors import TelemetryError
from .metrics import Counter, Gauge, Histogram, Metric


class MetricsRegistry:
    """Named registration of counters/gauges/histograms with snapshot/diff."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}
        #: pulled sources: components' counts objects, never the components
        self._counts: list = []

    # -- registration -------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        """Explicitly register a pre-built metric; rejects duplicate names."""
        if not metric.name:
            raise TelemetryError("metrics must be named to be registered")
        if metric.name in self._metrics:
            raise TelemetryError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

    def add_counts(self, counts) -> None:
        """Read ``counts`` (its ``METRICS`` map field to metric name, as a
        :class:`~repro.telemetry.probe.Counts`' do) in every snapshot."""
        self._counts.append(counts)

    def _get_or_create(self, name: str, cls: Type[Metric]) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TelemetryError(
                f"metric {name!r} is a {metric.kind}, requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        """The pushed counter ``name``, created at 0 on first use (for a
        pulled name, snapshots add the pulled total to it)."""
        return self._get_or_create(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, Histogram)  # type: ignore[return-value]

    # -- lookup -------------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    # -- snapshot / diff / reset --------------------------------------------

    def _pulled(self) -> Dict[str, int]:
        """Each pulled name's sum over every registered counts object."""
        pulled: Dict[str, int] = {}
        for counts in self._counts:
            for field, name in counts.METRICS.items():
                pulled[name] = pulled.get(name, 0) + getattr(counts, field)
        return pulled

    def snapshot(self) -> Dict[str, float]:
        """A flat ``{name: value}`` view of every metric, sorted by name.

        Histograms expand into ``name.count`` / ``name.mean`` / ``name.min``
        / ``name.max`` / ``name.p50`` / ``name.p95`` / ``name.p99``; gauges
        into ``name`` and ``name.high_water``.  A pulled name reports the
        sum of its fields over every registered counts object, plus any
        pushed count of the same name; it appears when that sum is
        nonzero or the name is registered (the session's core counters).
        """
        pulled = self._pulled()
        names = set(self._metrics)
        names.update(name for name, value in pulled.items() if value)
        out: Dict[str, float] = {}
        for name in sorted(names):
            if name in self._metrics:
                self._metrics[name].snapshot_into(out, name)
            if name in pulled:
                out[name] = out.get(name, 0) + pulled[name]
        return out

    def amounts(self) -> Dict[str, object]:
        """What pools across runs, by name: each counter's total as
        :meth:`snapshot` reports it, and each histogram's sample list
        itself, not a copy.  Gauges are left out: a gauge is one run's
        level, not an amount."""
        out: Dict[str, object] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Counter):
                out[name] = metric.count
            elif isinstance(metric, Histogram):
                out[name] = metric.samples
        for name, value in self._pulled().items():
            if value or name in out:
                out[name] = out.get(name, 0) + value
        return out

    @classmethod
    def pooled(cls, runs: Iterable[Dict[str, object]]) -> "MetricsRegistry":
        """One registry holding every run's :meth:`amounts`: counters
        summed, samples pooled in run order, so its :meth:`snapshot`
        summarizes all runs the way one run's snapshot summarizes it."""
        registry = cls()
        for amounts in runs:
            for name, amount in amounts.items():
                if isinstance(amount, list):
                    registry.histogram(name).samples.extend(amount)
                else:
                    registry.counter(name).add(amount)
        return registry

    @staticmethod
    def diff(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
        """``after - before`` per key; keys missing from ``before`` count as 0.

        Keys that vanished between snapshots are reported with the negated
        ``before`` value so a diff always accounts for every key seen.
        """
        out: Dict[str, float] = {}
        for key, value in after.items():
            delta = value - before.get(key, 0)
            if delta:
                out[key] = delta
        for key, value in before.items():
            if key not in after and value:
                out[key] = -value
        return out

    def reset(self) -> None:
        """Zero every pushed metric (registrations survive); pulled counts
        belong to their components and keep their values."""
        for metric in self._metrics.values():
            metric.reset()

    # -- presentation -------------------------------------------------------

    def tree(self) -> Dict[str, object]:
        """Fold the dot-separated namespace into nested dicts."""
        root: Dict[str, object] = {}
        for key, value in self.snapshot().items():
            node = root
            parts = key.split(".")
            for part in parts[:-1]:
                nxt = node.get(part)
                if not isinstance(nxt, dict):
                    nxt = {} if nxt is None else {"": nxt}
                    node[part] = nxt
                node = nxt
            leaf = node.get(parts[-1])
            if isinstance(leaf, dict):
                leaf[""] = value
            else:
                node[parts[-1]] = value
        return root
