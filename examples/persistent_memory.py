"""Storage-class memory on the memory bus: the Section 4.2 experiments.

Attaches STT-MRAM behind a ConTutto card, drives it through the pmem-style
driver (with real flush/sync through the FPGA's added flush command),
demonstrates NVDIMM-N save/restore across a power cycle, and compares the
DMI attach point against PCIe with the FIO workload.

Run:  python examples/persistent_memory.py
"""

from repro import CardSpec, ContuttoSystem
from repro.sim import Simulator
from repro.storage import MRAM_PCIE, NVRAM_PCIE, PcieAttachedStore, PmemBlockDevice
from repro.units import GIB, MIB
from repro.workloads import FioJob, FioRunner


def mram_on_the_memory_bus() -> None:
    print("=== STT-MRAM behind ConTutto (pmem driver) ===")
    system = ContuttoSystem.build(
        [
            CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
            CardSpec(slot=0, kind="contutto", memory="mram",
                     capacity_per_dimm=128 * MIB),
        ]
    )
    region = system.socket.memory_map.nvm_regions()[0]
    print(f"firmware placed {region.os_size / MIB:.0f} MB of MRAM at "
          f"{region.base:#x} (hardware window {region.hw_size / GIB:.0f} GB — "
          f"the 4 GB 'lie' to the processor)")

    pmem = system.pmem_region()
    system.sim.run_until_signal(pmem.write(0, b"persistent payload").done,
                                timeout_ps=10**12)
    system.sim.run_until_signal(pmem.persist())
    print("wrote and persisted (flush command drained the FPGA write queue)")

    data = system.sim.run_until_signal(pmem.read(0, 18).done, timeout_ps=10**12)
    print(f"read back: {data!r}")


def nvdimm_power_cycle() -> None:
    print("\n=== NVDIMM-N power-loss save/restore ===")
    system = ContuttoSystem.build(
        [
            CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
            CardSpec(slot=0, kind="contutto", memory="nvdimm",
                     capacity_per_dimm=64 * MIB),
        ]
    )
    pmem = system.pmem_region()
    system.sim.run_until_signal(pmem.write(0, b"do not lose me").done,
                                timeout_ps=10**12)
    system.sim.run_until_signal(pmem.persist())

    nvdimms = [port.device for port in system.buffer_in_slot(0).ports]
    now = system.sim.now_ps
    for dimm in nvdimms:
        t = dimm.power_loss(now)
        print(f"  {dimm.name}: power lost -> {dimm.state.value} "
              f"(supercap-powered DRAM->flash save)")
        dimm.power_restore(t)
        print(f"  {dimm.name}: power restored -> {dimm.state.value}")
    data = system.sim.run_until_signal(pmem.read(0, 14).done, timeout_ps=10**12)
    print(f"after the power cycle: {data!r}")
    assert data == b"do not lose me"


def attach_point_comparison() -> None:
    print("\n=== FIO: the same technologies, different attach points ===")
    rows = []

    for label, profile in (("NVRAM on PCIe", NVRAM_PCIE), ("MRAM on PCIe", MRAM_PCIE)):
        sim = Simulator()
        store = PcieAttachedStore(sim, 1 * GIB, profile)
        result = FioRunner(sim).run(store, FioJob(rw="randread", total_ios=16))
        rows.append((label, result.mean_latency_us))

    system = ContuttoSystem.build(
        [
            CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB),
            CardSpec(slot=0, kind="contutto", memory="mram",
                     capacity_per_dimm=128 * MIB),
        ]
    )
    store = PmemBlockDevice(system.pmem_region())
    result = FioRunner(system.sim).run(store, FioJob(rw="randread", total_ios=16))
    rows.append(("MRAM on ConTutto (DMI)", result.mean_latency_us))

    for label, latency in rows:
        print(f"  {label:24s} 4K read latency {latency:6.2f} us")
    pcie = rows[0][1]
    dmi = rows[-1][1]
    print(f"\nthe memory-bus attach point is {pcie / dmi:.1f}x lower latency "
          f"than NVRAM-on-PCIe (paper: 6.6x)")


if __name__ == "__main__":
    mram_on_the_memory_bus()
    nvdimm_power_cycle()
    attach_point_comparison()
