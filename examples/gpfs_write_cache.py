"""GPFS write-cache scenario: the Table 4 experiment as an application.

A filesystem issuing small synchronous random writes compares three
persistent stores: the bare disk (every write seeks), a SAS SSD, and
STT-MRAM on the memory bus used as a write cache in front of the disk —
the configuration that gave the paper its 8.3x-over-SSD headline.

Run:  python examples/gpfs_write_cache.py
"""

from repro import CardSpec, ContuttoSystem
from repro.sim import Simulator
from repro.storage import (
    DirectStore,
    HardDiskDrive,
    NvWriteCache,
    PmemBlockDevice,
    SolidStateDrive,
    WriteCacheConfig,
)
from repro.units import GIB, MIB
from repro.workloads import GpfsJob, GpfsWriter


def main() -> None:
    job = GpfsJob(total_writes=24)

    print("GPFS-style single-threaded synchronous 4K random writes\n")

    sim = Simulator()
    hdd = HardDiskDrive(sim, 1 * GIB)
    hdd_result = GpfsWriter(sim).run(DirectStore(hdd), job)
    print(f"  HDD (SAS)               : {hdd_result.iops:10,.0f} IOPS "
          f"({hdd_result.mean_latency_us:8.0f} us/write, {hdd.seeks} seeks)")

    sim = Simulator()
    ssd = SolidStateDrive(sim, 1 * GIB)
    ssd_result = GpfsWriter(sim).run(DirectStore(ssd), job)
    print(f"  SSD (SAS)               : {ssd_result.iops:10,.0f} IOPS "
          f"({ssd_result.mean_latency_us:8.1f} us/write)")

    system = ContuttoSystem.build(
        [
            CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
            CardSpec(slot=0, kind="contutto", memory="mram",
                     capacity_per_dimm=128 * MIB),
        ]
    )
    pmem_blk = PmemBlockDevice(system.pmem_region())
    backing_hdd = HardDiskDrive(system.sim, 4 * GIB)
    cache = NvWriteCache(
        system.sim, pmem_blk, backing_hdd,
        WriteCacheConfig(segment_bytes=4 * MIB, segments=16),
    )
    mram_result = GpfsWriter(system.sim).run(cache, job)
    print(f"  STT-MRAM on DMI + cache : {mram_result.iops:10,.0f} IOPS "
          f"({mram_result.mean_latency_us:8.1f} us/write)")

    print(f"\n  MRAM over SSD : {mram_result.iops / ssd_result.iops:6.1f}x "
          f"(paper: 8.3x)")
    print(f"  MRAM over HDD : {mram_result.iops / hdd_result.iops:6.0f}x")
    print(f"\n  writes staged in the NVM log: {cache.counts.writes_staged}; "
          f"destages to disk so far: {cache.counts.destages} "
          f"(each one large sequential write instead of many seeks)")


if __name__ == "__main__":
    main()
