"""End-to-end integration tests across the whole stack."""

import pytest

from repro import CardSpec, ContuttoSystem
from repro.accel import InlineAccelClient, pack_lanes, unpack_lanes
from repro.memory import NvdimmState
from repro.processor import SocketConfig
from repro.units import GIB, MIB, CACHE_LINE_BYTES


class TestPmemOverDmi:
    @pytest.fixture(scope="class")
    def system(self):
        return ContuttoSystem.build(
            [
                CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
                CardSpec(slot=0, kind="contutto", memory="mram",
                         capacity_per_dimm=128 * MIB),
            ]
        )

    def test_byte_level_roundtrip(self, system):
        pmem = system.pmem_region()
        payload = bytes(range(256)) * 8  # 2 KiB
        write = pmem.write(1_000, payload)
        system.sim.run_until_signal(write.done, timeout_ps=10**12)
        read = pmem.read(1_000, len(payload))
        data = system.sim.run_until_signal(read.done, timeout_ps=10**12)
        assert data == payload

    def test_unaligned_write_preserves_neighbours(self, system):
        pmem = system.pmem_region()
        base = 64 * 1024
        system.sim.run_until_signal(
            pmem.write(base, bytes([0xAA]) * 384).done, timeout_ps=10**12
        )
        # overwrite 10 bytes in the middle, not line-aligned
        system.sim.run_until_signal(
            pmem.write(base + 130, b"0123456789").done, timeout_ps=10**12
        )
        data = system.sim.run_until_signal(
            pmem.read(base, 384).done, timeout_ps=10**12
        )
        assert data[:130] == bytes([0xAA]) * 130
        assert data[130:140] == b"0123456789"
        assert data[140:] == bytes([0xAA]) * 244

    def test_persist_issues_flush(self, system):
        pmem = system.pmem_region()
        contutto = system.buffer_in_slot(0)
        before = contutto.mbs.flushes
        system.sim.run_until_signal(pmem.persist(), timeout_ps=10**12)
        assert contutto.mbs.flushes == before + 1

    def test_4k_read_latency_in_microseconds(self, system):
        pmem = system.pmem_region()
        t0 = system.sim.now_ps
        system.sim.run_until_signal(pmem.read(0, 4096).done, timeout_ps=10**12)
        latency_us = (system.sim.now_ps - t0) / 1e6
        assert 1.5 <= latency_us <= 5.0  # the DMI-attach advantage


class TestNvdimmPowerCycle:
    def test_contents_survive_power_loss(self):
        system = ContuttoSystem.build(
            [
                CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
                CardSpec(slot=0, kind="contutto", memory="nvdimm",
                         capacity_per_dimm=64 * MIB),
            ]
        )
        pmem = system.pmem_region()
        system.sim.run_until_signal(
            pmem.write(0, b"survive the outage").done, timeout_ps=10**12
        )
        system.sim.run_until_signal(pmem.persist(), timeout_ps=10**12)

        # power-cycle the NVDIMMs (the module saves itself on supercap)
        nvdimms = [port.device for port in system.buffer_in_slot(0).ports]
        now = system.sim.now_ps
        for dimm in nvdimms:
            t = dimm.power_loss(now)
            assert dimm.state is NvdimmState.SAVED
            dimm.power_restore(t)
        data = system.sim.run_until_signal(
            pmem.read(0, 18).done, timeout_ps=10**12
        )
        assert data == b"survive the outage"


class TestInlineAccelerationEndToEnd:
    @pytest.fixture(scope="class")
    def system(self):
        return ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB,
                      inline_accel=True)]
        )

    def test_min_store_through_dmi(self, system):
        host_mc = system.socket.slots[0].host_mc
        client = InlineAccelClient(system.sim, host_mc)
        system.sim.run_until_signal(
            host_mc.write_line(0, pack_lanes(list(range(32)))), timeout_ps=10**12
        )
        system.sim.run_until_signal(
            client.min_store(0, [10] * 32), timeout_ps=10**12
        )
        data = system.sim.run_until_signal(host_mc.read_line(0), timeout_ps=10**12)
        assert unpack_lanes(data) == [min(i, 10) for i in range(32)]

    def test_cswap_reports_success_without_polling(self, system):
        host_mc = system.socket.slots[0].host_mc
        client = InlineAccelClient(system.sim, host_mc)
        line = [77] + [0] * 31
        system.sim.run_until_signal(
            host_mc.write_line(128, pack_lanes(line)), timeout_ps=10**12
        )
        swapped, old = system.sim.run_until_signal(
            client.cswap(128, 77, [77] + [5] * 31), timeout_ps=10**12
        )
        assert swapped
        assert old == line

    def test_inline_op_faster_than_software_rmw(self, system):
        host_mc = system.socket.slots[0].host_mc
        client = InlineAccelClient(system.sim, host_mc)
        addr = 4096
        system.sim.run_until_signal(
            host_mc.write_line(addr, pack_lanes([100] * 32)), timeout_ps=10**12
        )
        t0 = system.sim.now_ps
        system.sim.run_until_signal(client.min_store(addr, [1] * 32), timeout_ps=10**12)
        inline_time = system.sim.now_ps - t0
        t0 = system.sim.now_ps
        system.sim.run_until_signal(
            client.software_min_store(addr, [2] * 32), timeout_ps=10**12
        )
        software_time = system.sim.now_ps - t0
        # one round trip beats load + dependent store
        assert inline_time < software_time


class TestSystemUnderLinkErrors:
    def test_traffic_survives_injected_bit_errors(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)],
            socket_config=SocketConfig(frame_error_rate=0.03),
            seed=5,
        )
        for i in range(20):
            payload = bytes([(i * 7 + j) % 256 for j in range(CACHE_LINE_BYTES)])
            system.sim.run_until_signal(
                system.socket.write_line(i * CACHE_LINE_BYTES, payload),
                timeout_ps=10**13,
            )
            data = system.sim.run_until_signal(
                system.socket.read_line(i * CACHE_LINE_BYTES), timeout_ps=10**13
            )
            assert data == payload
        channel = system.socket.slots[0].channel
        assert channel.operational
        drops = channel.host_endpoint.crc_drops + channel.buffer_endpoint.crc_drops
        assert drops > 0  # errors actually happened and were recovered
