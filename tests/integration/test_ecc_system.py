"""ECC end to end: corrected cells are invisible to the full DMI path."""

from repro import CardSpec, ContuttoSystem
from repro.units import CACHE_LINE_BYTES, GIB


class TestEccThroughTheStack:
    def test_correctable_error_invisible_to_software(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB, ecc=True)]
        )
        payload = bytes(range(128))
        system.sim.run_until_signal(system.socket.write_line(0, payload))

        # a bit flips in the cell array behind the buffer
        dimm = system.buffer_in_slot(0).ports[0].device
        dimm.inject_bit_error(0, bit=42)

        data = system.sim.run_until_signal(system.socket.read_line(0))
        assert data == payload  # corrected on the fly
        assert dimm.ecc_corrections == 1

    def test_correction_counters_feed_health_reporting(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB, ecc=True)]
        )
        dimm = system.buffer_in_slot(0).ports[0].device
        for line in range(4):
            addr = line * 2 * CACHE_LINE_BYTES  # even lines -> port 0
            system.sim.run_until_signal(
                system.socket.write_line(addr, bytes(CACHE_LINE_BYTES))
            )
            dimm.inject_bit_error(system.buffer_in_slot(0)._route(addr) % dimm.capacity_bytes, bit=1)
            system.sim.run_until_signal(system.socket.read_line(addr))
        assert dimm.ecc_corrections == 4

    def test_ecc_off_by_default(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)]
        )
        dimm = system.buffer_in_slot(0).ports[0].device
        assert not dimm.ecc_enabled
