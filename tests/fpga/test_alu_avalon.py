"""Tests for the RMW ALU and the Avalon bus."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dmi import Opcode
from repro.errors import AccelError, AddressRangeError, ConfigurationError
from repro.fpga import AvalonBus, RmwAlu, conditional_swap, max_store, merge_partial, min_store
from repro.memory import DdrDram, MemoryController
from repro.sim import Simulator
from repro.units import MIB


def pack32(values):
    return struct.pack("<32i", *values)


def unpack32(line):
    return list(struct.unpack("<32i", line))


lane_values = st.lists(
    st.integers(-(2**31), 2**31 - 1), min_size=32, max_size=32
)


class TestAluOps:
    @given(lane_values, lane_values)
    def test_min_store_property(self, a, b):
        result = unpack32(min_store(pack32(a), pack32(b)))
        assert result == [min(x, y) for x, y in zip(a, b)]

    @given(lane_values, lane_values)
    def test_max_store_property(self, a, b):
        result = unpack32(max_store(pack32(a), pack32(b)))
        assert result == [max(x, y) for x, y in zip(a, b)]

    def test_cswap_match_swaps(self):
        old = pack32([42] + [0] * 31)
        new = pack32([42] + [7] * 31)
        stored, returned = conditional_swap(old, new)
        assert stored == new
        assert returned == old

    def test_cswap_mismatch_keeps_old(self):
        old = pack32([1] + [0] * 31)
        new = pack32([42] + [7] * 31)
        stored, returned = conditional_swap(old, new)
        assert stored == old
        assert returned == old

    @given(st.binary(min_size=128, max_size=128), st.binary(min_size=128, max_size=128))
    def test_merge_partial_all_enabled_is_new(self, old, new):
        assert merge_partial(old, new, bytes([1] * 128)) == new

    @given(st.binary(min_size=128, max_size=128), st.binary(min_size=128, max_size=128))
    def test_merge_partial_none_enabled_is_old(self, old, new):
        assert merge_partial(old, new, bytes(128)) == old

    def test_merge_partial_wrong_size_rejected(self):
        with pytest.raises(AccelError):
            merge_partial(b"a", b"b", b"c")


class TestRmwAluUnit:
    def test_write_is_nop_passthrough(self):
        sim = Simulator()
        alu = RmwAlu(sim, "alu")
        stored, returned, ready = alu.issue(Opcode.WRITE, b"", b"data")
        assert stored == b"data"
        assert returned is None
        assert ready == sim.now_ps + 4_000

    def test_back_to_back_ops_serialize(self):
        sim = Simulator()
        alu = RmwAlu(sim, "alu")
        _, _, first = alu.issue(Opcode.WRITE, b"", b"x")
        _, _, second = alu.issue(Opcode.WRITE, b"", b"y")
        assert second == first + 4_000
        assert alu.contended_ps == 4_000

    def test_read_opcode_rejected(self):
        sim = Simulator()
        with pytest.raises(AccelError):
            RmwAlu(sim, "alu").issue(Opcode.READ, b"", b"")

    def test_partial_requires_byte_enable(self):
        sim = Simulator()
        with pytest.raises(AccelError):
            RmwAlu(sim, "alu").issue(Opcode.PARTIAL_WRITE, bytes(128), bytes(128))


class TestAvalonBus:
    def make_bus(self, sim, capacities=(1 * MIB, 1 * MIB)):
        bus = AvalonBus(sim)
        controllers = []
        base = 0
        for i, cap in enumerate(capacities):
            mc = MemoryController(sim, DdrDram(cap, refresh_enabled=False))
            bus.add_slave(base, cap, mc, name=f"mc{i}")
            controllers.append(mc)
            base += cap
        return bus, controllers

    def test_routes_by_address(self):
        sim = Simulator()
        bus, (mc0, mc1) = self.make_bus(sim)
        sim.run_until_signal(bus.write(0, 0x100, bytes(128)))
        sim.run_until_signal(bus.write(1, 1 * MIB + 0x100, bytes(128)))
        assert mc0.counts.writes_submitted == 1
        assert mc1.counts.writes_submitted == 1

    def test_slave_local_address_translation(self):
        sim = Simulator()
        bus, (mc0, mc1) = self.make_bus(sim)
        sim.run_until_signal(bus.write(0, 1 * MIB + 0x300, bytes([5] * 128)))
        data = sim.run_until_signal(bus.read(0, 1 * MIB + 0x300, 128))
        assert data == bytes([5] * 128)
        # and the device saw the local address
        assert mc1.device.backing.read(0x300, 1) == b"\x05"

    def test_unmapped_address_raises(self):
        sim = Simulator()
        bus, _ = self.make_bus(sim)
        with pytest.raises(AddressRangeError):
            bus.read(0, 100 * MIB, 128)

    def test_overlapping_windows_rejected(self):
        sim = Simulator()
        bus = AvalonBus(sim)
        mc = MemoryController(sim, DdrDram(1 * MIB, refresh_enabled=False))
        bus.add_slave(0, 1 * MIB, mc)
        with pytest.raises(ConfigurationError):
            bus.add_slave(512 * 1024, 1 * MIB, mc)

    def test_cdc_latency_added_both_ways(self):
        sim = Simulator()
        bus, (mc0, _) = self.make_bus(sim)
        direct = mc0.unloaded_read_latency_ps()
        t0 = sim.now_ps
        sim.run_until_signal(bus.read(0, 0, 128))
        through_bus = sim.now_ps - t0
        assert through_bus >= direct + 2 * bus.cdc_latency_ps

    def test_port_issues_once_per_cycle(self):
        sim = Simulator()
        bus, _ = self.make_bus(sim)
        bus.read(0, 0, 128)
        bus.read(0, 128, 128)
        assert bus.read_ports[0].wait_ps == 4_000

    def test_ports_independent(self):
        sim = Simulator()
        bus, _ = self.make_bus(sim)
        bus.read(0, 0, 128)
        bus.read(1, 128, 128)
        assert bus.read_ports[1].wait_ps == 0

    def test_zero_ports_rejected(self):
        with pytest.raises(ConfigurationError):
            AvalonBus(Simulator(), num_read_ports=0)
