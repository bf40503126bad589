"""Tests for the tag window and the replay buffer."""

import pytest

from repro.dmi import NUM_TAGS, ReplayBuffer, TagPool
from repro.errors import ProtocolError, ReplayError
from repro.sim import Process, Simulator


class TestTagPool:
    def test_default_window_is_32(self):
        assert NUM_TAGS == 32
        assert TagPool(Simulator()).free_count == 32

    def test_acquire_release_cycle(self):
        pool = TagPool(Simulator())
        tag = pool.try_acquire()
        assert tag is not None
        assert pool.in_flight_count == 1
        pool.release(tag)
        assert pool.free_count == 32

    def test_exhaustion_returns_none(self):
        pool = TagPool(Simulator())
        for _ in range(32):
            assert pool.try_acquire() is not None
        assert pool.try_acquire() is None

    def test_release_unheld_tag_raises(self):
        with pytest.raises(ProtocolError):
            TagPool(Simulator()).release(5)

    def test_release_reports_hold_time(self):
        sim = Simulator()
        pool = TagPool(sim)
        tag = pool.try_acquire()
        sim.call_after(5_000, lambda: None)
        sim.run()
        assert pool.release(tag) == 5_000

    def test_process_blocks_until_tag_free(self):
        sim = Simulator()
        pool = TagPool(sim, num_tags=1)
        held = pool.try_acquire()
        got = []

        def waiter():
            tag = yield from pool.acquire()
            got.append((tag, sim.now_ps))

        Process(sim, waiter())
        sim.call_after(7_000, pool.release, held)
        sim.run()
        assert got == [(held, 7_000)]
        assert pool.stall_events == 1
        assert pool.stall_ps == 7_000

    def test_stall_accounting_zero_when_free(self):
        sim = Simulator()
        pool = TagPool(sim)
        done = []

        def worker():
            tag = yield from pool.acquire()
            done.append(tag)

        Process(sim, worker())
        sim.run()
        assert done and pool.stall_events == 0


class TestReplayBuffer:
    def test_hold_and_cumulative_ack(self):
        buf = ReplayBuffer(8)
        for seq in range(5):
            buf.hold(seq, bytes([seq]), 0)
        assert buf.ack(2) == 3
        assert buf.outstanding == 2

    def test_ack_of_retired_frame_is_noop(self):
        buf = ReplayBuffer(8)
        buf.hold(0, b"a", 0)
        buf.ack(0)
        assert buf.ack(0) == 0

    def test_ack_with_wrap(self):
        buf = ReplayBuffer(16)
        for seq in [62, 63, 0, 1]:
            buf.hold(seq, b"x", 0)
        assert buf.ack(0) == 3
        assert buf.outstanding == 1

    def test_overflow_raises(self):
        buf = ReplayBuffer(2)
        buf.hold(0, b"a", 0)
        buf.hold(1, b"b", 0)
        with pytest.raises(ReplayError):
            buf.hold(2, b"c", 0)

    def test_duplicate_seq_rejected(self):
        buf = ReplayBuffer(4)
        buf.hold(0, b"a", 0)
        with pytest.raises(ProtocolError):
            buf.hold(0, b"a", 0)

    def test_frames_for_replay_in_order(self):
        buf = ReplayBuffer(8)
        for seq in (3, 4, 5):
            buf.hold(seq, bytes([seq]), 100)
        assert buf.frames_for_replay() == [(3, b"\x03"), (4, b"\x04"), (5, b"\x05")]

    def test_mark_resent_updates_timestamps(self):
        buf = ReplayBuffer(8)
        buf.hold(0, b"a", 100)
        buf.mark_resent(900)
        assert buf.oldest_unacked() == (0, b"a", 900)

    def test_oldest_unacked_empty(self):
        assert ReplayBuffer(4).oldest_unacked() is None

    def test_invalid_depth_rejected(self):
        with pytest.raises(ProtocolError):
            ReplayBuffer(0)
        with pytest.raises(ProtocolError):
            ReplayBuffer(64)

    def test_span(self):
        buf = ReplayBuffer(8)
        buf.hold(62, b"x", 0)
        buf.hold(63, b"x", 0)
        buf.hold(0, b"x", 0)
        assert buf.span() == 3
