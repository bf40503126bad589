"""Ablation: the 32-tag command window vs buffer latency (Section 2.3).

"Since the number of tags maintained by the processor is fixed, for the
FPGA-based design to not throttle the processor, the latency of response
from the FPGA must not be so high that the processor cycles through all
the tags" — this ablation sweeps the window size against a
ConTutto-latency buffer and shows throughput collapsing once the window
no longer covers the bandwidth-delay product.
"""

from ablation_util import make_test_channel, train_channel
from bench_util import run_once

from repro.processor import HostMemoryController
from repro.sim import Simulator
from repro.units import S


def _throughput(num_tags: int, reads: int = 96) -> float:
    """Pipelined read throughput (GB/s) with a given tag-window size."""
    sim = Simulator()
    channel = make_test_channel(sim, service_delay_ps=300_000)  # ~ConTutto-slow
    train_channel(sim, channel)
    host_mc = HostMemoryController(sim, channel, num_tags=num_tags)
    t0 = sim.now_ps

    signals = [host_mc.read_line(128 * i) for i in range(reads)]
    for sig in signals:
        sim.run_until_signal(sig, timeout_ps=10**13)
    elapsed = sim.now_ps - t0
    return reads * 128 / (elapsed / S) / 1e9


def test_tag_window_ablation(benchmark):
    def experiment():
        return {tags: _throughput(tags) for tags in (1, 2, 4, 8, 16, 32)}

    results = run_once(benchmark, experiment)
    print()
    for tags, gbps in results.items():
        print(f"  {tags:2d} tags: {gbps:6.2f} GB/s  {'#' * int(gbps * 10)}")

    # throughput grows with the window until another resource saturates
    assert results[2] > 1.5 * results[1]
    assert results[8] > 2.5 * results[1]
    assert results[32] >= results[8] * 0.95
    # a one-tag window is fully serialized: one line per round trip
    assert results[1] < 0.6
    benchmark.extra_info.update({f"tags_{k}": round(v, 2) for k, v in results.items()})
