"""Tests for the pmem driver over a booted system."""

import pytest

from repro import CardSpec, ContuttoSystem
from repro.errors import StorageError
from repro.storage import PmemBlockDevice, PmemConfig, PmemRegion
from repro.units import CACHE_LINE_BYTES, GIB, MIB


@pytest.fixture(scope="module")
def mram_system():
    return ContuttoSystem.build(
        [
            CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
            CardSpec(slot=0, kind="contutto", memory="mram",
                     capacity_per_dimm=128 * MIB),
        ]
    )


class TestPmemRegion:
    def test_rejects_volatile_region(self, mram_system):
        dram = mram_system.socket.memory_map.dram_regions()[0]
        with pytest.raises(StorageError):
            PmemRegion(mram_system.sim, mram_system.socket, dram.base, 4096)

    def test_rejects_oversized_window(self, mram_system):
        nvm = mram_system.socket.memory_map.nvm_regions()[0]
        with pytest.raises(StorageError):
            PmemRegion(
                mram_system.sim, mram_system.socket, nvm.base, nvm.os_size + 4096
            )

    def test_out_of_window_access_rejected(self, mram_system):
        pmem = mram_system.pmem_region()
        with pytest.raises(StorageError):
            pmem.read(pmem.size, 16)

    def test_line_aligned_write_fast_path(self, mram_system):
        pmem = mram_system.pmem_region()
        payload = bytes([0x3C]) * (4 * CACHE_LINE_BYTES)
        proc = pmem.write(0, payload)
        mram_system.sim.run_until_signal(proc.done, timeout_ps=10**12)
        read = pmem.read(0, len(payload))
        data = mram_system.sim.run_until_signal(read.done, timeout_ps=10**12)
        assert data == payload

    def test_read_window_bounds_concurrency(self, mram_system):
        # deeper read window -> lower 4K latency (more MLP)
        def latency(window):
            pmem = mram_system.pmem_region(config=PmemConfig(read_window=window))
            t0 = mram_system.sim.now_ps
            proc = pmem.read(0, 4096)
            mram_system.sim.run_until_signal(proc.done, timeout_ps=10**12)
            return mram_system.sim.now_ps - t0

        assert latency(8) < latency(1)

    def test_block_device_adapter(self, mram_system):
        blk = PmemBlockDevice(mram_system.pmem_region())
        mram_system.sim.run_until_signal(blk.submit_write(0, 4096), timeout_ps=10**12)
        mram_system.sim.run_until_signal(blk.submit_read(0, 4096), timeout_ps=10**12)
        assert blk.counts.writes == 1
        assert blk.counts.reads == 1

    def test_block_device_persists_by_default(self, mram_system):
        pmem = mram_system.pmem_region()
        blk = PmemBlockDevice(pmem)
        before = pmem.persists
        mram_system.sim.run_until_signal(blk.submit_write(0, 4096), timeout_ps=10**12)
        assert pmem.persists == before + 1

    def test_block_device_no_persist_mode(self, mram_system):
        pmem = mram_system.pmem_region()
        blk = PmemBlockDevice(pmem, persist_writes=False)
        before = pmem.persists
        mram_system.sim.run_until_signal(blk.submit_write(0, 4096), timeout_ps=10**12)
        assert pmem.persists == before
