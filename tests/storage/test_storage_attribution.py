"""End-to-end journey attribution through the storage stack.

The load-bearing property: the stages a storage journey records tile its
end-to-end latency exactly — ``LatencyBreakdown.check()`` finds no
unattributed residual for FIO over a bare device, nor for GPFS over the
pmem-backed write cache, where the pmem driver decomposes 4 KiB
transfers into driver / line-command stages and the DMI line journeys
link back to their parent via the ``:lines`` lane.
"""

from repro.core.system import CardSpec, ContuttoSystem
from repro.sim import Simulator
from repro.storage import (
    HardDiskDrive,
    NvWriteCache,
    PmemBlockDevice,
    SolidStateDrive,
    WriteCacheConfig,
)
from repro.telemetry import LatencyBreakdown, TraceSession
from repro.telemetry.attribution import journey_record
from repro.units import GIB, MIB
from repro.workloads import FioJob, FioRunner, GpfsJob, GpfsWriter


def breakdown_of(session) -> LatencyBreakdown:
    b = LatencyBreakdown()
    b.add_records(journey_record(j) for j in session.journeys.completed)
    return b


class TestFioAttribution:
    def test_ssd_journeys_have_zero_residual(self):
        with TraceSession(spans=False) as session:
            session.journeys.set_scenario("fio:ssd")
            sim = Simulator()
            ssd = SolidStateDrive(sim, 1 * GIB)
            FioRunner(sim).run(ssd, FioJob(rw="randread", total_ios=16))
            b = breakdown_of(session)
        assert b.check() == []
        assert b.journey_count("fio:ssd") == 16
        assert "storage.service" in b.stages("fio:ssd")

    def test_queue_depth_shows_up_as_storage_queue(self):
        with TraceSession(spans=False) as session:
            session.journeys.set_scenario("fio:ssd")
            sim = Simulator()
            ssd = SolidStateDrive(sim, 1 * GIB)
            # iodepth > channels: IOs wait for an internal flash channel
            FioRunner(sim).run(
                ssd, FioJob(rw="randread", iodepth=16, total_ios=48)
            )
            b = breakdown_of(session)
        assert b.check() == []
        assert "storage.queue" in b.stages("fio:ssd")

    def test_bare_submit_opens_owned_journey(self):
        with TraceSession(spans=False) as session:
            session.journeys.set_scenario("bare")
            sim = Simulator()
            ssd = SolidStateDrive(sim, 1 * GIB)
            sim.run_until_signal(ssd.submit_read(0, 4096))
            completed = list(session.journeys.completed)
        assert [j.op for j in completed] == ["storage.read"]
        assert completed[0].end_ps is not None


class TestGpfsWriteCacheAttribution:
    def _run(self):
        """GPFS over the pmem-logged write cache with a geometry tiny
        enough that the single-threaded writer stalls behind destages."""
        with TraceSession(spans=False) as session:
            session.journeys.set_scenario("gpfs:wcache")
            system = ContuttoSystem.build(
                [CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
                 CardSpec(slot=0, kind="contutto", memory="mram",
                          capacity_per_dimm=128 * MIB)],
                seed=0,
            )
            log = PmemBlockDevice(system.pmem_region())
            hdd = HardDiskDrive(system.sim, 4 * GIB)
            cache = NvWriteCache(
                system.sim, log, hdd,
                WriteCacheConfig(segment_bytes=8 * 1024, segments=3,
                                 destage_threshold=2),
            )
            GpfsWriter(system.sim).run(
                cache, GpfsJob(total_writes=12, seed=99)
            )
            journeys = list(session.journeys.completed)
            b = breakdown_of(session)
        return cache, journeys, b

    def test_zero_residual_and_full_decomposition(self):
        cache, _, b = self._run()
        assert cache.counts.stalls > 0  # the tiny geometry really backpressured
        assert b.check() == []
        stages = b.stages("gpfs:wcache")
        for stage in ("gpfs.software", "wcache.admit", "storage.driver",
                      "storage.lines", "storage.persist"):
            assert stage in stages, stage

    def test_line_journeys_link_to_parent_via_lines_lane(self):
        _, journeys, _ = self._run()
        parents = {j.jid for j in journeys if j.scenario == "gpfs:wcache"}
        children = [j for j in journeys
                    if j.scenario == "gpfs:wcache:lines"]
        assert children
        assert all(j.parent in parents for j in children)

    def test_destages_run_in_their_own_lane(self):
        _, journeys, _ = self._run()
        destages = [j for j in journeys
                    if j.scenario == "gpfs:wcache:destage"]
        assert destages
        assert all(j.op == "storage.destage" for j in destages)
