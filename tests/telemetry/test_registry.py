"""MetricsRegistry: registration, snapshots, diff, reset."""

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Counter, Gauge, Histogram, MetricsRegistry


class TestRegistration:
    def test_counter_get_or_create(self):
        reg = MetricsRegistry()
        c = reg.counter("dmi.frames")
        assert reg.counter("dmi.frames") is c
        assert "dmi.frames" in reg
        assert len(reg) == 1

    def test_register_rejects_duplicate_name(self):
        reg = MetricsRegistry()
        reg.register(Counter("x"))
        with pytest.raises(TelemetryError):
            reg.register(Counter("x"))

    def test_register_rejects_unnamed(self):
        reg = MetricsRegistry()
        with pytest.raises(TelemetryError):
            reg.register(Counter(""))

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]


class TestCounterSemantics:
    def test_add_zero_is_well_defined(self):
        c = Counter("c")
        c.add(0)
        assert c.count == 0

    def test_add_negative_rejected(self):
        c = Counter("c")
        with pytest.raises(TelemetryError):
            c.add(-1)


class TestSnapshotDiffReset:
    def test_snapshot_flat_keys(self):
        reg = MetricsRegistry()
        reg.counter("dmi.frames").add(3)
        reg.gauge("mbs.busy").set(7)
        reg.histogram("svc").record(100)
        snap = reg.snapshot()
        assert snap["dmi.frames"] == 3
        assert snap["mbs.busy"] == 7
        assert snap["svc.count"] == 1
        assert snap["svc.p50"] == 100

    def test_empty_histogram_snapshot_is_finite(self):
        reg = MetricsRegistry()
        reg.histogram("empty")
        snap = reg.snapshot()
        assert snap["empty.count"] == 0
        assert snap["empty.mean"] == 0.0  # no nan, no raise

    def test_diff(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.add(2)
        before = reg.snapshot()
        c.add(5)
        delta = MetricsRegistry.diff(before, reg.snapshot())
        assert delta["c"] == 5

    def test_diff_handles_new_and_vanished_keys(self):
        delta = MetricsRegistry.diff({"gone": 4}, {"new": 3})
        assert delta["new"] == 3
        assert delta["gone"] == -4

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("c").add(9)
        reg.histogram("h").record(5)
        reg.reset()
        snap = reg.snapshot()
        assert snap["c"] == 0
        assert snap["h.count"] == 0


class TestViews:
    def test_tree(self):
        reg = MetricsRegistry()
        reg.counter("dmi.frames_sent").add(1)
        reg.counter("dmi.replays")
        tree = reg.tree()
        assert tree["dmi"]["frames_sent"] == 1


class TestHistogramPercentiles:
    def test_percentiles_helper(self):
        h = Histogram("h")
        for v in range(1, 101):
            h.record(v)
        p = h.percentiles()
        assert p["p50"] == 50
        assert p["p95"] == 95
        assert p["p99"] == 99

    def test_percentiles_empty_is_zero(self):
        assert Histogram("h").percentiles() == {"p50": 0, "p95": 0, "p99": 0}

    def test_gauge_high_water(self):
        g = Gauge("g")
        g.set(5)
        g.set(2)
        assert g.value == 2
        assert g.high_water == 5
