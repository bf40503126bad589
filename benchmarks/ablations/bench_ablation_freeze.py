"""Ablation: the replay 'freeze' workaround (Section 3.3).

The FPGA cannot fence MBS and switch to its replay buffer within the
POWER8's replay-start window.  The shipping design cheats by re-sending the
last upstream frame until ready.  This ablation disables the cheat and
shows the channel failing under the same error injection the shipping
design survives.
"""

from ablation_util import make_test_channel, train_channel
from bench_util import run_once

from repro.dmi import Command, EndpointConfig, Opcode
from repro.sim import Simulator


def _run(freeze: bool, ops: int = 120):
    sim = Simulator()
    config = EndpointConfig(
        tx_overhead_ps=20_000, rx_overhead_ps=20_000,
        replay_prep_ps=40_000, freeze_workaround=freeze,
        max_replay_start_ps=24_000,
    )
    channel = make_test_channel(sim, error_rate=0.06, buffer_config=config, seed=31)
    train_channel(sim, channel)
    completed = 0
    for i in range(ops):
        if not channel.operational:
            break
        sig = channel.host.issue(Command(Opcode.READ, 128 * i, i % 32))
        try:
            sim.run_until_signal(sig, timeout_ps=10**11)
        except Exception:
            break
        completed += 1
    return channel, completed


def test_freeze_workaround_ablation(benchmark):
    def experiment():
        with_freeze, ops_with = _run(freeze=True)
        without_freeze, ops_without = _run(freeze=False)
        return with_freeze, ops_with, without_freeze, ops_without

    with_freeze, ops_with, without_freeze, ops_without = run_once(benchmark, experiment)

    print(f"\nfreeze ON : {ops_with} ops, operational={with_freeze.operational}, "
          f"freeze frames={with_freeze.buffer_endpoint.counts.freeze_frames_sent}")
    print(f"freeze OFF: {ops_without} ops, operational={without_freeze.operational}, "
          f"failure={without_freeze.failure}")

    # shipping design: survives; ablated design: channel goes down
    assert with_freeze.operational
    assert ops_with == 120
    assert not without_freeze.operational
    assert "freeze workaround is disabled" in str(without_freeze.failure)
    benchmark.extra_info.update(ops_with_freeze=ops_with, ops_without=ops_without)
