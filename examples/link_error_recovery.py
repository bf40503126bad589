"""DMI link error recovery: CRC, replay, and the freeze workaround.

The protocol machinery of Sections 2.3 and 3.3 in action: bit errors are
injected on the physical lanes, corrupted frames fail CRC and are silently
dropped, the transmitter notices missing ACKs after the trained FRTL, and
replays — with ConTutto re-transmitting its last upstream frame ("freezing"
the flow) while its fabric fences MBS and switches to the replay buffer.

Also demonstrates the firmware's training-retry path: training "often does
not complete successfully in a single try", and the FSP retries with an
FPGA-only reset rather than bringing the system down.

Run:  python examples/link_error_recovery.py
"""

from repro import CardSpec, ContuttoSystem
from repro.dmi import TrainingConfig
from repro.processor import SocketConfig
from repro.units import CACHE_LINE_BYTES, GIB


def noisy_traffic() -> None:
    print("=== Traffic over a noisy DMI link (3% frame error rate) ===")
    system = ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)],
        socket_config=SocketConfig(frame_error_rate=0.03),
        seed=11,
    )
    for i in range(30):
        payload = bytes([(i + j) % 256 for j in range(CACHE_LINE_BYTES)])
        system.sim.run_until_signal(
            system.socket.write_line(i * CACHE_LINE_BYTES, payload),
            timeout_ps=10**13,
        )
        data = system.sim.run_until_signal(
            system.socket.read_line(i * CACHE_LINE_BYTES), timeout_ps=10**13
        )
        assert data == payload, f"data corruption at line {i}!"

    channel = system.socket.slots[0].channel
    host, buffer = channel.host_endpoint, channel.buffer_endpoint
    print("  30 write+read pairs completed correctly")
    print(f"  frames dropped by CRC: host={host.crc_drops} buffer={buffer.crc_drops}")
    print(f"  replays triggered:     host={host.replays_triggered} "
          f"buffer={buffer.replays_triggered}")
    print(f"  freeze frames sent by the FPGA while preparing replay: "
          f"{buffer.freeze_frames_sent}")
    print(f"  duplicates discarded:  host={host.duplicates_seen} "
          f"buffer={buffer.duplicates_seen}")
    print(f"  channel still operational: {channel.operational}")


def training_retries() -> None:
    print("\n=== Link training with low per-attempt lock probability ===")
    system = ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)],
        training=TrainingConfig(phase_lock_probability=0.35, max_phase_attempts=4),
        seed=23,
    )
    report = system.boot_report
    card = system.cards[0]
    attempts = report.training_attempts.get(0, 0)
    print(f"  training attempts: {attempts}")
    print(f"  FPGA-only resets between attempts (system never went down): "
          f"{card.fsi_slave.fpga_resets}")
    print(f"  booted: {report.booted}")
    for entry in system.fsp.error_log:
        print(f"  FSP log [{entry.severity:5s}] {entry.component}: {entry.message}")


if __name__ == "__main__":
    noisy_traffic()
    training_retries()
