"""Tests for clock domains, the metric counter, and the RNG wrapper."""

import pytest

from repro.errors import ConfigurationError
from repro.sim import (
    ClockDomain,
    Rng,
    centaur_core_clock,
    dmi_link_clock,
    fabric_clock,
    nest_clock,
)
from repro.telemetry.metrics import Counter
from repro.units import MHZ


class TestClockDomain:
    def test_fabric_period_is_4ns(self):
        assert fabric_clock().period_ps == 4_000

    def test_dmi_link_period_at_8ghz(self):
        assert dmi_link_clock(8.0).period_ps == 125

    def test_nest_clock_2ghz(self):
        assert nest_clock().period_ps == 500

    def test_centaur_core_clock(self):
        assert centaur_core_clock().period_ps == 417  # 1/2.4GHz rounded

    def test_cycles_roundtrip(self):
        clk = ClockDomain("t", 250 * MHZ)
        assert clk.cycles_to_ps(6) == 24_000

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ConfigurationError):
            ClockDomain("bad", 0)


class TestCounter:
    def test_add(self):
        c = Counter("x")
        c.add()
        c.add(4)
        assert c.count == 5

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            Counter("x").add(-1)

    def test_reset(self):
        c = Counter("x")
        c.add(3)
        c.reset()
        assert c.count == 0


class TestRng:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert [a.randint(0, 100) for _ in range(10)] == [
            b.randint(0, 100) for _ in range(10)
        ]

    def test_fork_is_deterministic(self):
        a = Rng(42).fork("lane0")
        b = Rng(42).fork("lane0")
        assert a.random() == b.random()

    def test_fork_different_labels_differ(self):
        root = Rng(42)
        a, b = root.fork("x"), root.fork("y")
        assert [a.randint(0, 10**9) for _ in range(4)] != [
            b.randint(0, 10**9) for _ in range(4)
        ]

    def test_chance_extremes(self):
        rng = Rng(1)
        assert rng.chance(0) is False
        assert rng.chance(1) is True

    def test_chance_probability_rough(self):
        rng = Rng(7)
        hits = sum(rng.chance(0.3) for _ in range(10_000))
        assert 2_700 < hits < 3_300
