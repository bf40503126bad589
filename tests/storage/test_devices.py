"""Tests for HDD, SSD, PCIe store models, and the write cache."""

import pytest

from repro.errors import StorageError
from repro.sim import Simulator
from repro.storage import (
    FLASH_X4_PCIE,
    HardDiskDrive,
    MRAM_PCIE,
    NVRAM_PCIE,
    NvWriteCache,
    PcieAttachedStore,
    SolidStateDrive,
    WriteCacheConfig,
)
from repro.units import GIB, MIB, S, us_to_ps


class TestHdd:
    def test_random_write_pays_seek(self):
        sim = Simulator()
        hdd = HardDiskDrive(sim, 1 * GIB)
        sim.run_until_signal(hdd.submit_write(0, 4096))
        first = sim.now_ps
        sim.run_until_signal(hdd.submit_write(500 * MIB, 4096))
        second = sim.now_ps - first
        geometry = hdd.geometry
        assert second >= (geometry.avg_seek_ms + geometry.half_rotation_ms) * 1e9

    def test_sequential_write_skips_seek(self):
        sim = Simulator()
        hdd = HardDiskDrive(sim, 1 * GIB)
        sim.run_until_signal(hdd.submit_write(0, 4096))
        t0 = sim.now_ps
        sim.run_until_signal(hdd.submit_write(4096, 4096))
        assert sim.now_ps - t0 < us_to_ps(1_000)
        assert hdd.sequential_hits == 1

    def test_random_iops_near_75(self):
        sim = Simulator()
        hdd = HardDiskDrive(sim, 1 * GIB)
        t0 = sim.now_ps
        n = 16
        for i in range(n):
            offset = (i * 37 + 11) % (1 * GIB // 4096) * 4096
            sim.run_until_signal(hdd.submit_write(offset, 4096))
        iops = n / ((sim.now_ps - t0) / S)
        assert 55 <= iops <= 100  # Table 4: 75 IOPS

    def test_out_of_range_rejected(self):
        sim = Simulator()
        hdd = HardDiskDrive(sim, 1 * MIB)
        with pytest.raises(StorageError):
            hdd.submit_read(2 * MIB, 4096)

    def test_unaligned_rejected(self):
        sim = Simulator()
        hdd = HardDiskDrive(sim, 1 * MIB)
        with pytest.raises(StorageError):
            hdd.submit_read(100, 4096)


class TestSsd:
    def test_sync_write_iops_near_15k(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        t0 = sim.now_ps
        n = 32
        for i in range(n):
            offset = (i * 1237) % (1 * GIB // 4096) * 4096
            sim.run_until_signal(ssd.submit_write(offset, 4096))
        iops = n / ((sim.now_ps - t0) / S)
        assert 10_000 <= iops <= 20_000  # Table 4: 15K IOPS

    def test_much_faster_than_hdd(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        t0 = sim.now_ps
        sim.run_until_signal(ssd.submit_write(500 * MIB, 4096))
        ssd_time = sim.now_ps - t0
        t0 = sim.now_ps
        sim.run_until_signal(hdd.submit_write(500 * MIB, 4096))
        hdd_time = sim.now_ps - t0
        assert hdd_time > 50 * ssd_time

    def test_channels_parallelize_under_depth(self):
        sim = Simulator()
        ssd = SolidStateDrive(sim, 1 * GIB)
        signals = [ssd.submit_read(i * 4096, 4096) for i in range(8)]
        for sig in signals:
            sim.run_until_signal(sig)
        serial_estimate = 8 * (25 + 60)  # us
        assert sim.now_ps < us_to_ps(serial_estimate)


class TestPcieStores:
    def test_latency_ordering_flash_nvram_mram(self):
        def read_latency(profile):
            sim = Simulator()
            store = PcieAttachedStore(sim, 1 * GIB, profile)
            t0 = sim.now_ps
            sim.run_until_signal(store.submit_read(0, 4096))
            return sim.now_ps - t0

        flash = read_latency(FLASH_X4_PCIE)
        nvram = read_latency(NVRAM_PCIE)
        mram = read_latency(MRAM_PCIE)
        assert flash > nvram > mram

    def test_nvram_read_latency_near_21us(self):
        sim = Simulator()
        store = PcieAttachedStore(sim, 1 * GIB, NVRAM_PCIE)
        t0 = sim.now_ps
        sim.run_until_signal(store.submit_read(0, 4096))
        latency_us = (sim.now_ps - t0) / 1e6
        assert 17 <= latency_us <= 25

    def test_every_io_pays_protocol_overhead(self):
        sim = Simulator()
        store = PcieAttachedStore(sim, 1 * GIB, MRAM_PCIE)
        t0 = sim.now_ps
        sim.run_until_signal(store.submit_read(0, 4096))
        assert sim.now_ps - t0 >= us_to_ps(MRAM_PCIE.protocol_overhead_us)


class FastLog:
    """A block-device stub with fixed 2 us writes (stands in for pmem)."""

    def __init__(self, sim, capacity_bytes):
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.writes = 0

    def submit_write(self, offset, nbytes):
        from repro.sim import Signal

        self.writes += 1
        done = Signal("log.w")
        self.sim.call_after(us_to_ps(2), done.trigger)
        return done


class TestWriteCache:
    def test_writes_ack_at_log_speed(self):
        sim = Simulator()
        log = FastLog(sim, 256 * MIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        cache = NvWriteCache(sim, log, hdd)
        t0 = sim.now_ps
        sim.run_until_signal(cache.write(500 * MIB % hdd.capacity_bytes, 4096))
        assert sim.now_ps - t0 < us_to_ps(10)

    def test_destage_aggregates_into_large_sequential_ios(self):
        sim = Simulator()
        log = FastLog(sim, 256 * MIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        config = WriteCacheConfig(segment_bytes=64 * 1024, segments=8, destage_threshold=1)
        cache = NvWriteCache(sim, log, hdd, config)
        for i in range(32):  # 128 KiB staged -> 2 segments
            sim.run_until_signal(cache.write((i * 977) % (1 * GIB // 4096) * 4096, 4096))
        sim.run()
        assert cache.destages >= 1
        # each destage is one 64K disk write, not 16 random 4K writes
        assert hdd.writes == cache.destages
        assert hdd.bytes_written == cache.destages * 64 * 1024

    def test_log_overflow_stalls_writers(self):
        sim = Simulator()
        log = FastLog(sim, 256 * MIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        config = WriteCacheConfig(segment_bytes=8 * 1024, segments=3, destage_threshold=2)
        cache = NvWriteCache(sim, log, hdd, config)
        signals = [cache.write(i * 4096, 4096) for i in range(24)]
        for sig in signals:
            sim.run_until_signal(sig, timeout_ps=10**14)
        assert cache.stalls > 0

    def test_log_must_fit_device(self):
        sim = Simulator()
        log = FastLog(sim, 1 * MIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        with pytest.raises(StorageError):
            NvWriteCache(sim, log, hdd, WriteCacheConfig(segment_bytes=1 * MIB, segments=16))
