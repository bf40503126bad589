"""White-box tests for FrameEndpoint internals: timers, idle ACKs, repack."""

import pytest

from repro.dmi import Command, DownstreamFrame, Opcode
from repro.sim import Simulator

from .test_channel import make_channel, train


def quiet_channel(sim):
    channel, store = make_channel(sim)
    train(sim, channel)
    return channel


class TestAckTimeoutMath:
    def test_timeout_includes_frtl_margin_and_burst(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.host_endpoint
        base = ep.frtl_ps + ep.config.ack_timeout_margin_ps
        assert ep._ack_timeout_ps == base  # nothing outstanding
        # enqueue a write: 8 frames outstanding extend the timeout
        channel.host.issue(Command(Opcode.WRITE, 0, 0, bytes(128)))
        sim.run(until_ps=sim.now_ps + 5_000)
        outstanding = ep._replay.outstanding
        assert outstanding > 0
        assert ep._ack_timeout_ps == base + outstanding * ep.tx_link.frame_wire_ps

    def test_no_replays_or_ack_checks_leak_after_quiesce(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 0)))
        sim.run()
        assert channel.host_endpoint._replay.outstanding == 0
        assert channel.buffer_endpoint._replay.outstanding == 0
        assert sim.pending_events == 0  # the system fully quiesces


class TestIdleAckBehaviour:
    def test_idle_ack_reuses_acknowledged_seq(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 1)))
        sim.run()
        buffer_ep = channel.buffer_endpoint
        accepted_before = buffer_ep.counts.frames_accepted
        dups_before = buffer_ep.counts.duplicates_seen
        # force the host to send a pure idle ACK now
        channel.host_endpoint._note_ack_owed()
        sim.run()
        # the idle frame must be classified as a duplicate, never as new
        assert buffer_ep.counts.frames_accepted == accepted_before
        assert buffer_ep.counts.duplicates_seen >= dups_before

    def test_idle_acks_rate_limited(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 1)))
        sim.run()
        ep = channel.host_endpoint
        sent_before = ep.tx_link.counts.frames_sent
        for _ in range(10):
            ep._note_ack_owed()  # storm of ack-owed notes coalesces
        sim.run()
        assert ep.tx_link.counts.frames_sent - sent_before <= 2


class TestRepack:
    def test_repack_refreshes_ack_field(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.host_endpoint
        frame = DownstreamFrame(seq_id=5, ack_seq=None)
        ep._last_accepted = 9
        out = ep._repack(frame)
        assert (out.seq_id, out.ack_seq) == (5, 9)
        ep._last_accepted = 23
        assert ep._repack(frame).ack_seq == 23
        # a copy each time: the original keeps the ACK it was built with
        assert frame.ack_seq is None

    def test_replayed_frames_carry_current_ack(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        ep = channel.host_endpoint
        # hold a frame manually, advance last_accepted, then replay
        frame = DownstreamFrame(seq_id=0, ack_seq=None)
        ep._replay.hold(0, frame, sim.now_ps)
        ep._last_accepted = 42
        sent = []
        original_send = ep.tx_link.send
        ep.tx_link.send = lambda f: (sent.append(f), original_send(f))[1]
        ep._do_replay()
        assert sent, "replay sent nothing"
        assert sent[0].ack_seq == 42
        # the frame held for replay is the one the peer may already hold:
        # it keeps its original ACK
        _, held, _ = ep._replay.oldest_unacked()
        assert held is frame and held.ack_seq is None

    def test_frames_are_immutable(self):
        frame = DownstreamFrame(seq_id=1, ack_seq=2)
        with pytest.raises(AttributeError):
            frame.ack_seq = 3
        with pytest.raises(AttributeError):
            del frame.seq_id
        assert frame.ack_seq == 2


class TestEndpointStatsExposure:
    def test_frames_accepted_counts_only_payload_frames(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        before = channel.buffer_endpoint.counts.frames_accepted
        sim.run_until_signal(
            channel.host.issue(Command(Opcode.WRITE, 0, 2, bytes(128)))
        )
        sim.run()
        # a 128B write is exactly 8 downstream frames
        assert channel.buffer_endpoint.counts.frames_accepted - before == 8

    def test_read_response_is_four_data_frames_plus_done(self):
        sim = Simulator()
        channel = quiet_channel(sim)
        before = channel.host_endpoint.counts.frames_accepted
        sim.run_until_signal(channel.host.issue(Command(Opcode.READ, 0, 3)))
        sim.run()
        # 4 chunks, done riding in the final one
        assert channel.host_endpoint.counts.frames_accepted - before == 4
