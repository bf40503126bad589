"""Tests for the memory controller front end."""

import pytest

from repro.errors import ConfigurationError
from repro.memory import (
    DdrDram,
    MemoryController,
    MemoryControllerConfig,
    SttMram,
)
from repro.sim import Simulator
from repro.units import MIB


def make(sim, device=None, **cfg):
    device = device or DdrDram(64 * MIB, refresh_enabled=False)
    return MemoryController(sim, device, MemoryControllerConfig(**cfg))


class TestController:
    def test_read_returns_written_data(self):
        sim = Simulator()
        mc = make(sim)
        sim.run_until_signal(mc.submit_write(0x1000, bytes([9] * 128)))
        data = sim.run_until_signal(mc.submit_read(0x1000, 128))
        assert data == bytes([9] * 128)

    def test_latency_includes_overheads(self):
        sim = Simulator()
        mc = make(sim, command_overhead_ps=10_000, response_overhead_ps=8_000)
        done = mc.submit_read(0, 128)
        sim.run_until_signal(done)
        # device cold read ~ tRCD + CAS + burst = 13.5+13.5+12 = 39 ns
        assert sim.now_ps >= 10_000 + 8_000 + 39_000

    def test_queue_depth_stalls_excess(self):
        sim = Simulator()
        mc = make(sim, queue_depth=2)
        sigs = [mc.submit_read(128 * i, 128) for i in range(5)]
        assert mc.queue_full_stalls == 3
        for sig in sigs:
            sim.run_until_signal(sig)
        assert mc.in_flight == 0

    def test_completion_order_preserved_per_device(self):
        sim = Simulator()
        mc = make(sim)
        order = []
        for i in range(4):
            sig = mc.submit_read(128 * i, 128)
            sig.add_waiter(lambda _v, i=i: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3]

    def test_works_over_mram(self):
        sim = Simulator()
        mc = make(sim, device=SttMram(256 * MIB))
        sim.run_until_signal(mc.submit_write(0, b"m" * 128))
        data = sim.run_until_signal(mc.submit_read(0, 128))
        assert data == b"m" * 128

    def test_unloaded_latency_estimate_positive(self):
        sim = Simulator()
        mc = make(sim)
        assert mc.unloaded_read_latency_ps() > 0

    def test_zero_queue_depth_rejected(self):
        with pytest.raises(ConfigurationError):
            make(Simulator(), queue_depth=0)

    def test_stats_count_submissions(self):
        sim = Simulator()
        mc = make(sim)
        mc.submit_read(0, 128)
        mc.submit_write(128, bytes(128))
        sim.run()
        assert mc.counts.reads_submitted == 1
        assert mc.counts.writes_submitted == 1
