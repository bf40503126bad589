"""Replay edge cases: limit exhaustion kills the channel, a full replay
buffer backpressures transmit without losing frames, and the endpoint
error counters surface as ``dmi.*`` metrics."""

import pytest

from repro.dmi import (
    Command,
    DmiChannel,
    EndpointConfig,
    LinkErrorModel,
    LinkTrainer,
    Opcode,
    Response,
    SerialLink,
    TrainingConfig,
)
from repro.errors import ProtocolError, ReplayError
from repro.sim import Rng, Simulator, dmi_link_clock
from repro.telemetry import TraceSession


def make_channel(sim, host_config=None, buffer_config=None, seed=0):
    """A channel over clean links against an in-memory backing store."""
    clock = dmi_link_clock(8.0)
    down = SerialLink(
        sim, "down", 14, clock, cdr_capture=True,
        error_model=LinkErrorModel(), rng=Rng(1000 + seed, "down"),
    )
    up = SerialLink(
        sim, "up", 21, clock,
        error_model=LinkErrorModel(), rng=Rng(2000 + seed, "up"),
    )
    store = {}

    def handler(cmd, respond):
        if cmd.opcode is Opcode.WRITE:
            store[cmd.address] = cmd.data
            sim.call_after(50_000, respond, Response(cmd.tag, cmd.opcode))
        elif cmd.opcode is Opcode.READ:
            data = store.get(cmd.address, bytes(128))
            sim.call_after(50_000, respond, Response(cmd.tag, cmd.opcode, data))

    channel = DmiChannel(
        sim, down, up,
        host_config or EndpointConfig(),
        buffer_config or EndpointConfig(
            tx_overhead_ps=2_000, rx_overhead_ps=2_000,
            replay_prep_ps=30_000, freeze_workaround=True,
            max_replay_start_ps=10_000,
        ),
        handler,
    )
    return channel, store


def train(sim, channel, seed=7):
    trainer = LinkTrainer(sim, TrainingConfig(), Rng(seed, "train"))
    proc = trainer.train(channel)
    sim.run_until_signal(proc.done, timeout_ps=10**10)
    return proc.result


class TestReplayLimitExhaustion:
    def run_to_failure(self, sim, channel):
        channel.down_link.error_model.frame_error_rate = 1.0
        channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes(128)))
        sim.run()

    def test_exhaustion_fails_the_channel(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        self.run_to_failure(sim, channel)
        assert not channel.operational
        host = channel.host_endpoint
        assert host.failed
        assert isinstance(host.failure, ReplayError)
        # the final trigger crosses the limit and fails the channel
        assert host.counts.replays_triggered == host.config.replay_limit + 1

    def test_send_after_failure_raises_replay_error(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        self.run_to_failure(sim, channel)
        with pytest.raises(ReplayError):
            channel.host.issue(Command(Opcode.WRITE, 128, 1, bytes(128)))

    def test_replay_error_is_a_protocol_error(self):
        # callers that predate fault injection catch ProtocolError
        assert issubclass(ReplayError, ProtocolError)

    def test_reset_clears_the_failure(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        train(sim, channel)
        self.run_to_failure(sim, channel)
        channel.down_link.error_model.frame_error_rate = 0.0
        channel.reset()
        train(sim, channel)
        assert channel.operational
        assert channel.host_endpoint.failure is None
        sim.run_until_signal(
            channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes([1] * 128))),
            timeout_ps=10**10,
        )


class TestReplayBufferBackpressure:
    def patient(self):
        # a tiny replay window and a replay limit far beyond what the
        # error window can burn through: the endpoint stalls, never fails
        return EndpointConfig(replay_depth=4, replay_limit=10_000)

    def test_full_buffer_stalls_tx_without_frame_loss(self):
        sim = Simulator()
        channel, store = make_channel(
            sim,
            host_config=self.patient(),
            buffer_config=EndpointConfig(
                tx_overhead_ps=2_000, rx_overhead_ps=2_000,
                replay_prep_ps=30_000, freeze_workaround=True,
                replay_limit=10_000,
            ),
        )
        train(sim, channel)
        # kill the up link: no ACK ever reaches the host
        channel.up_link.error_model.frame_error_rate = 1.0
        payloads = {128 * i: bytes([i + 1] * 128) for i in range(8)}
        signals = [
            channel.host.issue(Command(Opcode.WRITE, addr, tag, data))
            for tag, (addr, data) in enumerate(payloads.items())
        ]
        sim.run(until_ps=sim.now_ps + 2_000_000)
        host = channel.host_endpoint
        assert channel.operational          # stalled, not dead
        assert host._replay.is_full         # window full of unacked frames
        assert host._tx_queue               # the rest backpressured
        assert not any(s.triggered for s in signals)

        # heal the link: everything drains, no write was lost
        channel.up_link.error_model.frame_error_rate = 0.0
        for signal in signals:
            sim.run_until_signal(signal, timeout_ps=10**10)
        assert store == payloads
        assert host.counts.replays_triggered > 0   # the stall went through replay


class TestDmiMetricCounters:
    def test_error_counters_surface_in_registry(self):
        with TraceSession() as session:
            sim = Simulator()
            channel, _ = make_channel(sim)
            train(sim, channel)
            channel.down_link.error_model.frame_error_rate = 1.0
            channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes(128)))
            sim.run()
        snapshot = session.registry.snapshot()
        assert snapshot["dmi.crc_drops"] > 0
        assert snapshot["dmi.replays"] == channel.host_endpoint.counts.replays_triggered
        assert snapshot["dmi.ack_timeouts"] > 0
        assert snapshot["dmi.channel_failed"] == 1

    def test_clean_run_reports_no_error_counters(self):
        with TraceSession() as session:
            sim = Simulator()
            channel, _ = make_channel(sim)
            train(sim, channel)
            sim.run_until_signal(
                channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes(128))),
                timeout_ps=10**10,
            )
        snapshot = session.registry.snapshot()
        assert snapshot["dmi.commands_completed"] == 1
        for counter in ("dmi.crc_drops", "dmi.replays", "dmi.ack_timeouts",
                        "dmi.channel_failed", "dmi.seq_drops"):
            assert snapshot.get(counter, 0) == 0
