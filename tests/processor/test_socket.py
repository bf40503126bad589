"""Tests for the POWER8 socket and host memory controller."""

import pytest

from repro.buffer import Centaur, LATENCY_OPTIMIZED, RELAXED
from repro.dmi import Command, Opcode
from repro.errors import ConfigurationError, FirmwareError
from repro.fpga import ConTuttoBuffer
from repro.memory import DdrDram
from repro.processor import Power8Socket
from repro.sim import Rng, Signal, Simulator
from repro.units import GIB, MIB


def build_system(sim, centaur_config=LATENCY_OPTIMIZED, capacity=1 * GIB):
    socket = Power8Socket(sim, rng=Rng(3))
    centaur = Centaur(
        sim,
        [DdrDram(capacity, name=f"c{i}") for i in range(4)],
        centaur_config,
    )
    socket.attach_buffer(0, centaur)
    socket.memory_map.build(
        [{"memory_type": "dram", "capacity_bytes": centaur.capacity_bytes, "channel": 0}]
    )
    socket.train_all()
    return socket, centaur


class TestSocketAssembly:
    def test_attach_and_train(self):
        sim = Simulator()
        socket, _ = build_system(sim)
        assert socket.slots[0].trained
        assert socket.slots[0].frtl_ps > 0

    def test_invalid_channel_rejected(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        centaur = Centaur(sim, [DdrDram(1 * MIB)])
        with pytest.raises(ConfigurationError):
            socket.attach_buffer(9, centaur)

    def test_double_populate_rejected(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        socket.attach_buffer(0, Centaur(sim, [DdrDram(1 * MIB)]))
        with pytest.raises(ConfigurationError):
            socket.attach_buffer(0, Centaur(sim, [DdrDram(1 * MIB)]))

    def test_contutto_gets_8ghz_cdr_link(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        ct = ConTuttoBuffer(sim, [DdrDram(64 * MIB, refresh_enabled=False)])
        slot = socket.attach_buffer(0, ct)
        assert slot.channel.down_link.cdr_capture
        assert slot.channel.down_link.link_clock.period_ps == 125  # 8 GHz

    def test_centaur_gets_9p6ghz_forwarded_clock_link(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        slot = socket.attach_buffer(0, Centaur(sim, [DdrDram(1 * MIB)]))
        assert not slot.channel.down_link.cdr_capture
        assert slot.channel.down_link.link_clock.period_ps == 104  # ~9.6 GHz

    def test_access_before_training_raises(self):
        sim = Simulator()
        socket = Power8Socket(sim)
        centaur = Centaur(sim, [DdrDram(1 * GIB)])
        socket.attach_buffer(0, centaur)
        socket.memory_map.build(
            [{"memory_type": "dram", "capacity_bytes": centaur.capacity_bytes, "channel": 0}]
        )
        with pytest.raises(FirmwareError):
            socket.read_line(0)


class TestMemoryAccess:
    def test_write_read_through_full_path(self):
        sim = Simulator()
        socket, _ = build_system(sim)
        payload = bytes(range(128))
        sim.run_until_signal(socket.write_line(0x10_000, payload))
        data = sim.run_until_signal(socket.read_line(0x10_000))
        assert data == payload

    def test_routing_across_channels(self):
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(5))
        buffers = []
        for ch in (0, 1):
            centaur = Centaur(
                sim, [DdrDram(256 * MIB, name=f"ch{ch}d{i}") for i in range(4)]
            )
            socket.attach_buffer(ch, centaur)
            buffers.append(centaur)
        socket.memory_map.build(
            [
                {"memory_type": "dram", "capacity_bytes": 1 * GIB, "channel": 0},
                {"memory_type": "dram", "capacity_bytes": 1 * GIB, "channel": 1},
            ]
        )
        socket.train_all()
        sim.run_until_signal(socket.write_line(0, bytes([1] * 128)))
        sim.run_until_signal(socket.write_line(1 * GIB, bytes([2] * 128)))
        # both lines sit at local address 0 of their own channel's buffer
        for centaur, fill in zip(buffers, (1, 2)):
            done = Signal("readback")
            centaur.handle_command(Command(Opcode.READ, 0, 0), done.trigger)
            assert sim.run_until_signal(done).data == bytes([fill] * 128)

    def test_tag_window_tracked(self):
        sim = Simulator()
        socket, _ = build_system(sim)
        signals = [socket.read_line(128 * i) for i in range(40)]
        # more requests than tags: the window must have stalled at least once
        for sig in signals:
            sim.run_until_signal(sig, timeout_ps=10**12)
        host_mc = socket.slots[0].host_mc
        assert host_mc.tags.total_acquired == 40
        assert host_mc.in_flight == 0


class TestLatencyMeasurement:
    def test_relaxed_config_measures_slower(self):
        sim1 = Simulator()
        fast, _ = build_system(sim1, LATENCY_OPTIMIZED)
        lat_fast = fast.measure_memory_latency_ns(0, 1 * GIB, samples=16)

        sim2 = Simulator()
        slow, _ = build_system(sim2, RELAXED)
        lat_slow = slow.measure_memory_latency_ns(0, 1 * GIB, samples=16)
        delta_ns = (RELAXED.extra_delay_ps - LATENCY_OPTIMIZED.extra_delay_ps) / 1000
        assert lat_slow - lat_fast == pytest.approx(delta_ns, rel=0.1)

    def test_centaur_optimized_near_97ns(self):
        # Table 3: the most latency-optimized Centaur measures 97 ns
        sim = Simulator()
        socket, _ = build_system(sim)
        lat = socket.measure_memory_latency_ns(0, 1 * GIB, samples=32)
        assert 85 <= lat <= 110

    def test_contutto_base_near_390ns(self):
        # Table 3: base ConTutto measures 390 ns
        sim = Simulator()
        socket = Power8Socket(sim, rng=Rng(3))
        ct = ConTuttoBuffer(sim, [DdrDram(4 * GIB, name=f"d{i}") for i in range(2)])
        socket.attach_buffer(0, ct)
        socket.memory_map.build(
            [{"memory_type": "dram", "capacity_bytes": ct.capacity_bytes, "channel": 0}]
        )
        socket.train_all()
        lat = socket.measure_memory_latency_ns(0, ct.capacity_bytes, samples=32)
        assert 370 <= lat <= 410
