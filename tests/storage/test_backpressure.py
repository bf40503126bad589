"""Write-cache backpressure regressions: strict admission, FIFO wake-up,
wrap-around splitting, config validation, and Table 4 invariance.

The two historical bugs these tests pin down:

* a destage completion used to re-admit *every* stalled writer, and the
  woken writers staged directly without re-running the admission check —
  a stall storm could over-fill the log past ``segment_bytes * segments``;
* a write whose log cursor wrapped the circular log was submitted as one
  unsplit IO past the log end.
"""

import pytest

from repro.errors import StorageError
from repro.sim import Signal, Simulator
from repro.storage import HardDiskDrive, NvWriteCache, WriteCacheConfig
from repro.units import GIB, MIB, us_to_ps
from repro.workloads import GpfsJob, GpfsWriter


class StrictLog:
    """Block-device stub that *rejects* IOs outside its capacity — the
    strict bound the unsplit wrap-around write used to violate."""

    def __init__(self, sim, capacity_bytes, write_us=2.0):
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.write_us = write_us
        self.writes = []

    def submit_write(self, offset, nbytes):
        if offset < 0 or offset + nbytes > self.capacity_bytes:
            raise StorageError(
                f"log write [{offset}, {offset + nbytes}) outside "
                f"[0, {self.capacity_bytes})"
            )
        self.writes.append((offset, nbytes))
        done = Signal("log.w")
        self.sim.call_after(us_to_ps(self.write_us), done.trigger)
        return done


class TestStrictAdmission:
    def _storm(self, writes=24):
        """24 concurrent 4 KiB writes against a 3x8 KiB log over a slow
        HDD: most writers stall behind destages."""
        sim = Simulator()
        log = StrictLog(sim, 256 * MIB)
        hdd = HardDiskDrive(sim, 1 * GIB)
        config = WriteCacheConfig(
            segment_bytes=8 * 1024, segments=3, destage_threshold=2
        )
        cache = NvWriteCache(sim, log, hdd, config)
        acks = []
        signals = []
        for i in range(writes):
            sig = cache.write(i * 4096, 4096)
            sig.add_waiter(lambda _v, i=i: acks.append(i))
            signals.append(sig)
        for sig in signals:
            sim.run_until_signal(sig, timeout_ps=10**14)
        return cache, config, acks

    def test_stall_storm_never_overfills_log(self):
        cache, config, _ = self._storm()
        assert cache.counts.stalls > 0  # the storm really did hit backpressure
        # the old bug: waking every stalled writer at once pushed staged
        # bytes past the log capacity
        assert cache.max_occupancy_bytes <= config.segment_bytes * config.segments
        assert cache.counts.writes_staged == 24

    def test_stalled_writers_acknowledged_fifo(self):
        _, _, acks = self._storm()
        assert len(acks) == 24
        assert acks == sorted(acks)

    def test_freeze_blocks_destage_until_unfreeze(self):
        sim = Simulator()
        log = StrictLog(sim, 256 * MIB)
        disk = StrictLog(sim, 1 * GIB, write_us=5.0)
        config = WriteCacheConfig(
            segment_bytes=8 * 1024, segments=3, destage_threshold=1
        )
        cache = NvWriteCache(sim, log, disk, config)
        cache.freeze_destage()
        signals = [cache.write(i * 4096, 4096) for i in range(8)]
        for sig in signals[:4]:  # the log holds 2 full segments + cursor
            sim.run_until_signal(sig, timeout_ps=10**12)
        assert cache.counts.destages == 0 and cache.counts.stalls > 0
        sim.call_after(us_to_ps(50), cache.unfreeze_destage)
        for sig in signals:
            sim.run_until_signal(sig, timeout_ps=10**14)
        assert cache.counts.destages > 0 and cache.counts.writes_staged == 8
        assert cache.max_occupancy_bytes <= config.segment_bytes * config.segments


class TestWrapSplit:
    def test_wraparound_write_is_split_and_in_bounds(self):
        sim = Simulator()
        config = WriteCacheConfig(
            segment_bytes=8 * 1024, segments=4, destage_threshold=1
        )
        log_size = config.segment_bytes * config.segments
        # log device exactly log-sized: no slack past the end, so an
        # unsplit wrap-around IO raises instead of landing out of bounds
        log = StrictLog(sim, log_size)
        disk = StrictLog(sim, 1 * GIB, write_us=1.0)
        cache = NvWriteCache(sim, log, disk, config)
        nbytes = 6144  # does not divide the log size -> cursor wraps mid-write
        for i in range(6):
            sim.run_until_signal(cache.write(i * nbytes, nbytes),
                                 timeout_ps=10**12)
        sim.run()
        assert cache.counts.wrap_splits == 1
        assert cache.counts.writes_staged == 6
        # the split halves stay inside the log and preserve the byte count
        assert sum(n for _, n in log.writes) == 6 * nbytes
        assert log.writes[-2:] == [(30720, 2048), (0, 4096)]

    def test_wrap_ack_waits_for_both_halves(self):
        sim = Simulator()
        config = WriteCacheConfig(
            segment_bytes=8 * 1024, segments=4, destage_threshold=1
        )
        log = StrictLog(sim, config.segment_bytes * config.segments)
        disk = StrictLog(sim, 1 * GIB, write_us=1.0)
        cache = NvWriteCache(sim, log, disk, config)
        for i in range(5):
            sim.run_until_signal(cache.write(i * 6144, 6144),
                                 timeout_ps=10**12)
        t0 = sim.now_ps
        sim.run_until_signal(cache.write(6 * 6144, 6144), timeout_ps=10**12)
        # both log IOs run concurrently; the ack pays one full log write
        assert sim.now_ps - t0 >= us_to_ps(2)
        assert cache.counts.wrap_splits == 1


class TestConfigValidation:
    def test_rejects_nonpositive_segment_bytes(self):
        with pytest.raises(StorageError):
            WriteCacheConfig(segment_bytes=0)

    def test_rejects_single_segment(self):
        # one segment cannot destage and admit at the same time
        with pytest.raises(StorageError):
            WriteCacheConfig(segments=1)

    def test_rejects_nonpositive_destage_threshold(self):
        with pytest.raises(StorageError):
            WriteCacheConfig(destage_threshold=0)


class TestTable4Invariance:
    """The fixes must not disturb Table 4: with the published geometry
    (many large segments) a drill's worth of 4 KiB writes never fills a
    segment, so the stall, wake, and wrap-split paths never run and the
    published IOPS are byte-identical to the pre-fix code."""

    def test_default_geometry_never_hits_fixed_paths(self):
        sim = Simulator()
        log = StrictLog(sim, 256 * MIB)
        hdd = HardDiskDrive(sim, 4 * GIB)
        cache = NvWriteCache(
            sim, log, hdd,
            WriteCacheConfig(segment_bytes=4 * MIB, segments=16),
        )
        result = GpfsWriter(sim).run(cache, GpfsJob(total_writes=24, seed=99))
        assert cache.counts.stalls == 0
        assert cache.counts.wrap_splits == 0
        assert cache.counts.destages == 0
        assert result.errors == 0
        assert cache.counts.writes_staged == 24
