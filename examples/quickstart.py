"""Quickstart: build a POWER8 system with a ConTutto card and measure it.

Builds the paper's basic configuration — a ConTutto FPGA card replacing a
CDIMM — boots it through the firmware flow (power sequencing, presence
detect, link training with retries, memory-map construction), then runs
simple traffic and the latency measurement of Tables 2/3.

Run:  python examples/quickstart.py
"""

from repro import CardSpec, ContuttoSystem
from repro.buffer import LATENCY_OPTIMIZED
from repro.units import GIB


def main() -> None:
    print("Building a system: 1x ConTutto (8 GB DDR3) + 1x Centaur CDIMM...")
    system = ContuttoSystem.build(
        [
            CardSpec(slot=0, kind="contutto", capacity_per_dimm=4 * GIB),
            CardSpec(slot=2, kind="centaur", capacity_per_dimm=1 * GIB,
                     centaur_config=LATENCY_OPTIMIZED),
        ]
    )
    report = system.boot_report
    print(f"booted: channels {report.trained_channels}, "
          f"training attempts {report.training_attempts}")
    print(f"memory map: {system.total_memory_bytes / GIB:.0f} GiB total")
    for region in system.socket.memory_map.regions:
        print(f"  [{region.base:#014x}) {region.os_size / GIB:5.2f} GiB "
              f"{region.memory_type:6s} via DMI channel {region.channel}")

    # plain loads and stores through the full DMI machinery
    print("\nWriting and reading a cache line through the DMI channel...")
    payload = bytes(range(128))
    system.sim.run_until_signal(system.socket.write_line(0x10_000, payload))
    data = system.sim.run_until_signal(system.socket.read_line(0x10_000))
    assert data == payload
    print("  roundtrip OK")

    # the paper's latency measurement (Tables 2/3 methodology)
    print("\nMeasured latency to memory (single-command average):")
    centaur_ns = system.measure_latency_ns("centaur", samples=24)
    contutto_ns = system.measure_latency_ns("contutto", samples=24)
    print(f"  Centaur CDIMM : {centaur_ns:6.1f} ns   (paper: ~97 ns)")
    print(f"  ConTutto      : {contutto_ns:6.1f} ns   (paper: ~390 ns)")
    print(f"  FPGA overhead : {contutto_ns / centaur_ns:.1f}x")

    # link-level statistics from the run
    slot = system.socket.slots[0]
    print(f"\nDMI channel 0: FRTL {slot.frtl_ps / 1000:.1f} ns, "
          f"host frames accepted "
          f"{slot.channel.host_endpoint.counts.frames_accepted}")


if __name__ == "__main__":
    main()
