"""Channel throughput and multi-channel scaling.

The platform's bandwidth story: each DMI channel carries 35 signals at
8 Gb/s (35 GB/s raw aggregate, Section 1's headline), frame/protocol
overheads take their cut, and a fully configured socket scales across
channels (Figure 1: 8 channels for 410 GB/s peak).
"""

from repro import CardSpec, ContuttoSystem
from repro.buffer import LATENCY_OPTIMIZED
from repro.units import CACHE_LINE_BYTES, GIB, S


def pipelined_read_throughput(system, region_base, lines=192):
    """Pipelined line reads (tag window keeps the channel busy)."""
    sim = system.sim
    t0 = sim.now_ps
    signals = [
        system.socket.read_line(region_base + i * CACHE_LINE_BYTES)
        for i in range(lines)
    ]
    for sig in signals:
        sim.run_until_signal(sig, timeout_ps=10**13)
    return lines * CACHE_LINE_BYTES / ((sim.now_ps - t0) / S) / 1e9


class TestChannelBandwidth:
    def test_single_channel_read_throughput(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="centaur", capacity_per_dimm=1 * GIB,
                      centaur_config=LATENCY_OPTIMIZED)]
        )
        gbps = pipelined_read_throughput(system, 0)
        # upstream data path: 32B chunks in 42B frames at 9.6 Gb/s x 21 lanes
        # = 25.2 GB/s raw; payload efficiency and dones land it lower
        assert 8.0 <= gbps <= 22.0

    def test_two_channels_scale(self):
        one = ContuttoSystem.build(
            [CardSpec(slot=0, kind="centaur", capacity_per_dimm=1 * GIB)]
        )
        single = pipelined_read_throughput(one, 0, lines=128)

        two = ContuttoSystem.build(
            [
                CardSpec(slot=0, kind="centaur", capacity_per_dimm=1 * GIB),
                CardSpec(slot=1, kind="centaur", capacity_per_dimm=1 * GIB),
            ]
        )
        # interleave requests across both channels' regions
        sim = two.sim
        lines = 64
        t0 = sim.now_ps
        signals = []
        for i in range(lines):
            signals.append(two.socket.read_line(i * CACHE_LINE_BYTES))
            signals.append(two.socket.read_line(4 * GIB + i * CACHE_LINE_BYTES))
        for sig in signals:
            sim.run_until_signal(sig, timeout_ps=10**13)
        dual = 2 * lines * CACHE_LINE_BYTES / ((sim.now_ps - t0) / S) / 1e9

        assert dual > 1.6 * single  # near-linear channel scaling

    def test_contutto_channel_slower_but_comparable(self):
        # ConTutto runs links at 8 vs 9.6 Gb/s and adds fabric latency, but
        # the widened datapath keeps pipelined throughput in the same class
        centaur = ContuttoSystem.build(
            [CardSpec(slot=0, kind="centaur", capacity_per_dimm=1 * GIB)]
        )
        contutto = ContuttoSystem.build(
            [CardSpec(slot=0, kind="contutto", capacity_per_dimm=4 * GIB)]
        )
        c_gbps = pipelined_read_throughput(centaur, 0, lines=128)
        ct_gbps = pipelined_read_throughput(contutto, 0, lines=128)
        assert ct_gbps < c_gbps
        assert ct_gbps > 0.3 * c_gbps

    def test_throughput_collapses_without_pipelining(self):
        system = ContuttoSystem.build(
            [CardSpec(slot=0, kind="centaur", capacity_per_dimm=1 * GIB)]
        )
        sim = system.sim
        lines = 48
        t0 = sim.now_ps
        for i in range(lines):  # strictly dependent reads
            sim.run_until_signal(
                system.socket.read_line(i * CACHE_LINE_BYTES), timeout_ps=10**13
            )
        serial = lines * CACHE_LINE_BYTES / ((sim.now_ps - t0) / S) / 1e9
        pipelined = pipelined_read_throughput(system, 0, lines=lines)
        assert pipelined > 5 * serial
