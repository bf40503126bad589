"""The hierarchical metrics registry.

One :class:`MetricsRegistry` holds every named metric of a run.  Names are
dot-separated paths (``"dmi.frames_sent"``, ``"buffer.cache.hits"``); the
registry is flat internally but :meth:`tree` folds the namespace back into
nested dicts for humans.

Components never allocate metrics eagerly — they call ``counter(name)`` /
``gauge(name)`` / ``histogram(name)`` through an active
:class:`~repro.telemetry.session.TraceSession`, which creates on first use.
Registering the *same* name as two different kinds is a bug and is
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

    # -- registration -------------------------------------------------------

    def register(self, metric: Metric) -> Metric:
        """Explicitly register a pre-built metric; rejects duplicate names."""
        if not metric.name:
            raise TelemetryError("metrics must be named to be registered")
        if metric.name in self._metrics:
            raise TelemetryError(f"metric {metric.name!r} already registered")
        self._metrics[metric.name] = metric
        return metric

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

    def snapshot(self) -> Dict[str, float]:
        """A flat ``{name: value}`` view of every metric, sorted by name.

        Histograms expand into ``name.count`` / ``name.mean`` / ``name.min``
        / ``name.max`` / ``name.p50`` / ``name.p95`` / ``name.p99``; gauges
        into ``name`` and ``name.high_water``.
        """
        out: Dict[str, float] = {}
        for name in sorted(self._metrics):
            self._metrics[name].snapshot_into(out, name)
        return out

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

    #: snapshot-key suffixes that aggregate non-additively when merging
    _MERGE_MIN = (".min",)
    _MERGE_MAX = (".max", ".high_water")
    _MERGE_LAST = (".mean", ".p50", ".p95", ".p99")

    @classmethod
    def merge_snapshots(cls, snapshots: Iterable[Dict[str, float]]) -> Dict[str, float]:
        """Fold per-run flat snapshots into one aggregate view.

        The campaign runner uses this to merge worker telemetry: additive
        keys (counters, histogram ``.count``, gauge values) sum; ``.min``
        takes the minimum, ``.max``/``.high_water`` the maximum; per-run
        distribution statistics (``.mean``/percentiles) keep the last
        value seen — they don't aggregate linearly, and each run's own
        values stay in its individual snapshot record.
        """
        merged: Dict[str, float] = {}
        for snap in snapshots:
            for key, value in snap.items():
                if key not in merged:
                    merged[key] = value
                elif key.endswith(cls._MERGE_MIN):
                    merged[key] = min(merged[key], value)
                elif key.endswith(cls._MERGE_MAX):
                    merged[key] = max(merged[key], value)
                elif key.endswith(cls._MERGE_LAST):
                    merged[key] = value
                else:
                    merged[key] += value
        return dict(sorted(merged.items()))

    def reset(self) -> None:
        """Zero every registered metric (registrations survive)."""
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
