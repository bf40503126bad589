"""Write-cache read path: log-resident hits, disk misses, FIFO retire.

The residency index must mirror the log exactly: a read of staged data
is served from the NVM log (``wcache.read_hit``), anything destaged or
never written goes to the backing disk (``wcache.read_miss``), and the
destager retires residency oldest-first so a hit can never land on log
space already recycled for new writes.
"""

from repro.errors import StorageError
from repro.sim import Signal, Simulator
from repro.storage import (
    DirectStore,
    HardDiskDrive,
    NvWriteCache,
    SolidStateDrive,
    WriteCacheConfig,
)
from repro.telemetry import LatencyBreakdown, TraceSession
from repro.telemetry.attribution import journey_record
from repro.units import GIB, MIB, us_to_ps


class RecordingDevice:
    """Block-device stub that records IOs (with their journey stage) and
    rejects out-of-bounds ones, StrictLog-style."""

    def __init__(self, sim, capacity_bytes, io_us=2.0):
        self.sim = sim
        self.capacity_bytes = capacity_bytes
        self.io_us = io_us
        self.reads = []
        self.writes = []

    def _io(self, log, entry, nbytes_end):
        if nbytes_end > self.capacity_bytes or entry[0] < 0:
            raise StorageError(f"IO {entry} outside [0, {self.capacity_bytes})")
        log.append(entry)
        done = Signal("dev.io")
        self.sim.call_after(us_to_ps(self.io_us), done.trigger)
        return done

    def submit_read(self, offset, nbytes, stage=None):
        return self._io(self.reads, (offset, nbytes, stage), offset + nbytes)

    def submit_write(self, offset, nbytes, stage=None):
        return self._io(self.writes, (offset, nbytes, stage), offset + nbytes)


def small_cache(sim, segments=4, threshold=3):
    config = WriteCacheConfig(
        segment_bytes=8 * 1024, segments=segments,
        destage_threshold=threshold,
    )
    log = RecordingDevice(sim, config.segment_bytes * config.segments,
                          io_us=1.0)
    disk = RecordingDevice(sim, 1 * GIB, io_us=20.0)
    return NvWriteCache(sim, log, disk, config), log, disk


def run(sim, signal):
    sim.run_until_signal(signal, timeout_ps=10**14)


class TestHitAndMiss:
    def test_staged_extent_is_served_from_the_log(self):
        sim = Simulator()
        cache, log, disk = small_cache(sim)
        run(sim, cache.write(4096, 4096))
        run(sim, cache.read(4096, 4096))
        assert cache.counts.read_hits == 1 and cache.counts.read_misses == 0
        assert log.reads == [(0, 4096, "wcache.read_hit")]
        assert disk.reads == []

    def test_inner_subrange_of_an_extent_hits_at_the_right_log_offset(self):
        sim = Simulator()
        cache, log, _ = small_cache(sim)
        run(sim, cache.write(4096, 4096))
        run(sim, cache.read(4096 + 512, 1024))
        assert cache.counts.read_hits == 1
        assert log.reads == [(512, 1024, "wcache.read_hit")]

    def test_unstaged_read_misses_to_the_backing_disk(self):
        sim = Simulator()
        cache, log, disk = small_cache(sim)
        run(sim, cache.write(0, 4096))
        run(sim, cache.read(1 * MIB, 4096))
        assert cache.counts.read_misses == 1 and cache.counts.read_hits == 0
        assert disk.reads == [(1 * MIB, 4096, "wcache.read_miss")]
        assert log.reads == []

    def test_read_spanning_two_staged_writes_is_a_miss(self):
        # full containment in ONE extent is required: the two writes are
        # adjacent in app space but need not be adjacent in the log
        sim = Simulator()
        cache, _, disk = small_cache(sim)
        run(sim, cache.write(0, 4096))
        run(sim, cache.write(4096, 4096))
        run(sim, cache.read(2048, 4096))
        assert cache.counts.read_misses == 1
        assert disk.reads[0][:2] == (2048, 4096)

    def test_rewrite_hits_the_newest_staged_copy(self):
        sim = Simulator()
        cache, log, _ = small_cache(sim)
        run(sim, cache.write(4096, 4096))   # log offset 0
        run(sim, cache.write(4096, 4096))   # log offset 4096
        run(sim, cache.read(4096, 4096))
        assert log.reads == [(4096, 4096, "wcache.read_hit")]


class TestRetireAndWrap:
    def test_destaged_extents_stop_hitting(self):
        sim = Simulator()
        cache, _, disk = small_cache(sim, segments=3, threshold=1)
        for i in range(3):  # fills 1.5 segments -> one destage (8 KiB)
            run(sim, cache.write(i * 4096, 4096))
        sim.run()
        assert cache.counts.destages >= 1
        run(sim, cache.read(0, 4096))       # oldest extent: retired
        assert cache.counts.read_misses == 1
        assert disk.reads[-1][:2] == (0, 4096)
        run(sim, cache.read(2 * 4096, 4096))  # newest: still resident
        assert cache.counts.read_hits == 1

    def test_partially_retired_head_extent_still_hits_its_tail(self):
        sim = Simulator()
        cache, log, _ = small_cache(sim, segments=3, threshold=1)
        # one 12 KiB write straddles the 8 KiB segment boundary; the
        # destage retires the first 8 KiB of it, leaving a 4 KiB tail
        run(sim, cache.write(0, 12 * 1024))
        sim.run()
        assert cache.counts.destages == 1
        run(sim, cache.read(8 * 1024, 4096))
        assert cache.counts.read_hits == 1
        assert log.reads == [(8 * 1024, 4096, "wcache.read_hit")]

    def test_wrapped_staged_copy_is_read_in_two_parts(self):
        sim = Simulator()
        cache, log, _ = small_cache(sim)  # 32 KiB log
        nbytes = 6144
        for i in range(6):  # the 6th write wraps the log end
            run(sim, cache.write(i * nbytes, nbytes))
        assert cache.counts.wrap_splits == 1
        run(sim, cache.read(5 * nbytes, nbytes))
        assert cache.counts.read_hits == 1
        assert log.reads == [(30720, 2048, "wcache.read_hit"),
                             (0, 4096, "wcache.read_hit")]


class TestDirectStore:
    def test_reads_and_writes_pass_straight_through(self):
        sim = Simulator()
        dev = RecordingDevice(sim, 1 * GIB)
        store = DirectStore(dev)
        run(sim, store.write(0, 4096))
        run(sim, store.read(4096, 512))
        assert dev.writes == [(0, 4096, None)]
        assert dev.reads == [(4096, 512, None)]


class TestReadAttribution:
    def test_hit_and_miss_stages_tile_with_zero_residual(self):
        with TraceSession(spans=False) as session:
            session.journeys.set_scenario("gpfs:read")
            sim = Simulator()
            log = SolidStateDrive(sim, 256 * MIB)
            hdd = HardDiskDrive(sim, 4 * GIB)
            cache = NvWriteCache(
                sim, log, hdd,
                WriteCacheConfig(segment_bytes=64 * 1024, segments=4),
            )
            run(sim, cache.write(0, 4096))
            run(sim, cache.read(0, 4096))        # log hit
            run(sim, cache.read(1 * MIB, 4096))  # disk miss
            b = LatencyBreakdown()
            b.add_records(
                journey_record(j) for j in session.journeys.completed
            )
        assert cache.counts.read_hits == 1 and cache.counts.read_misses == 1
        assert b.check() == []
        stages = b.stages("gpfs:read")
        assert "wcache.read_hit" in stages
        assert "wcache.read_miss" in stages
        # the stage *replaces* storage.service inside these journeys, it
        # does not nest under it — reads split cleanly by where they hit
        reads = [j for j in session.journeys.completed
                 if j.op == "storage.read"]
        assert len(reads) == 2

    def test_hit_is_cheaper_than_miss(self):
        sim = Simulator()
        cache, _, _ = small_cache(sim)  # log 1 us vs disk 20 us
        run(sim, cache.write(0, 4096))
        t0 = sim.now_ps
        run(sim, cache.read(0, 4096))
        hit_ps = sim.now_ps - t0
        t0 = sim.now_ps
        run(sim, cache.read(1 * MIB, 4096))
        miss_ps = sim.now_ps - t0
        assert hit_ps < miss_ps
