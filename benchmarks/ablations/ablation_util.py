"""Ablation benchmark helpers: DMI channel factory."""

from repro.dmi import (
    DmiChannel,
    EndpointConfig,
    LinkErrorModel,
    LinkTrainer,
    Opcode,
    Response,
    SerialLink,
    TrainingConfig,
)
from repro.sim import Rng, dmi_link_clock


def make_test_channel(sim, error_rate=0.0, buffer_config=None, seed=0,
                      service_delay_ps=50_000):
    """A DMI channel over a simple in-memory store (for protocol ablations)."""
    clock = dmi_link_clock(8.0)
    down = SerialLink(
        sim, "down", 14, clock, cdr_capture=True,
        error_model=LinkErrorModel(frame_error_rate=error_rate),
        rng=Rng(1000 + seed, "down"),
    )
    up = SerialLink(
        sim, "up", 21, clock,
        error_model=LinkErrorModel(frame_error_rate=error_rate),
        rng=Rng(2000 + seed, "up"),
    )
    store = {}

    def handler(cmd, respond):
        if cmd.opcode is Opcode.WRITE:
            store[cmd.address] = cmd.data
            sim.call_after(service_delay_ps, respond, Response(cmd.tag, cmd.opcode))
        elif cmd.opcode is Opcode.READ:
            data = store.get(cmd.address, bytes(128))
            sim.call_after(service_delay_ps, respond, Response(cmd.tag, cmd.opcode, data))

    buffer_config = buffer_config or EndpointConfig(
        tx_overhead_ps=2_000, rx_overhead_ps=2_000,
        replay_prep_ps=30_000, freeze_workaround=True,
        max_replay_start_ps=10_000,
    )
    return DmiChannel(sim, down, up, EndpointConfig(), buffer_config, handler)


def train_channel(sim, channel, seed=7):
    trainer = LinkTrainer(sim, TrainingConfig(), Rng(seed, "train"))
    proc = trainer.train(channel)
    sim.run_until_signal(proc.done, timeout_ps=10**12)
    return proc.result
