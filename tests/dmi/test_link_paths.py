"""Differential tests of the link's two delivery paths.

A link with no error model armed hands the receiver the sent frame object;
any armed model sends packed, scrambled bytes that the receiver CRC-checks
and unpacks.  A frame error rate of ``1e-18`` arms the byte path without
ever corrupting a frame, and the link's RNG is private to the link, so the
two runs below must agree on everything the simulation produces: timing,
data, frame counts and lane keystream state.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dmi import Command, Opcode
from repro.sim import Simulator
from repro.units import CACHE_LINE_BYTES

from .test_channel import make_channel, train
from .test_channel_fuzz import op_strategy

OBJECT_PATH = 0.0
BYTE_PATH = 1e-18

_MASK = bytes(1 if i % 2 == 0 else 0 for i in range(CACHE_LINE_BYTES))


def make_command(kind, line, fill, tag):
    addr = line * CACHE_LINE_BYTES
    data = bytes([fill]) * CACHE_LINE_BYTES
    if kind == "write":
        return Command(Opcode.WRITE, addr, tag, data)
    if kind == "partial":
        return Command(Opcode.PARTIAL_WRITE, addr, tag, data, _MASK)
    return Command(Opcode.READ, addr, tag)


def counters(channel):
    links = (channel.down_link, channel.up_link)
    endpoints = (channel.host_endpoint, channel.buffer_endpoint)
    return (
        [(link.frames_sent, link.frames_corrupted, link.busy_ps) for link in links],
        [
            (ep.frames_accepted, ep.crc_drops, ep.seq_drops, ep.duplicates_seen,
             ep.replays_triggered, ep.ack_timeouts, ep.freeze_frames_sent)
            for ep in endpoints
        ],
    )


def drive(rate, waves, arm_drops=None):
    """Run ``waves`` of concurrent commands; returns everything observable.

    ``arm_drops=(delay_ps, count)`` arms ``force_drops`` on both links
    ``delay_ps`` after the first wave is issued, with its frames in flight.
    """
    sim = Simulator()
    channel, _ = make_channel(sim, error_rate=rate)
    train(sim, channel)
    log = []
    armed_in_flight = None
    for index, wave in enumerate(waves):
        signals = [
            channel.host.issue(make_command(kind, line, fill, tag))
            for tag, (kind, line, fill) in enumerate(wave)
        ]
        if index == 0 and arm_drops is not None:
            delay_ps, count = arm_drops
            sim.run(until_ps=sim.now_ps + delay_ps)
            armed_in_flight = channel.down_link._in_flight
            channel.down_link.error_model.force_drops = count
            channel.up_link.error_model.force_drops = count
        for sig in signals:
            resp = sim.run_until_signal(sig, timeout_ps=10**12)
            log.append((sim.now_ps, resp.tag, resp.data))
    sim.run()
    assert channel.operational
    return {
        "log": log,
        "counters": counters(channel),
        "now_ps": sim.now_ps,
        "armed_in_flight": armed_in_flight,
        "channel": channel,
    }


def lane_state(link):
    """The next keystream bytes of every transmit lane, after settling
    lazily tallied skips into lane state."""
    bundle = link._tx_scrambler
    bundle._reify_skips()
    return [lane.keystream(64) for lane in bundle._lanes]


def assert_same_run(obj, raw):
    assert obj["log"] == raw["log"]
    assert obj["counters"] == raw["counters"]
    assert obj["now_ps"] == raw["now_ps"]


wave_strategy = st.lists(op_strategy, min_size=1, max_size=8)


class TestObjectVsBytePath:
    @given(waves=st.lists(wave_strategy, min_size=1, max_size=4))
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_sequences_agree(self, waves):
        obj = drive(OBJECT_PATH, waves)
        raw = drive(BYTE_PATH, waves)
        assert_same_run(obj, raw)
        for name in ("down_link", "up_link"):
            assert lane_state(getattr(obj["channel"], name)) == lane_state(
                getattr(raw["channel"], name)
            )

    @pytest.mark.parametrize("delay_ps", [3_000, 7_000, 12_000])
    @pytest.mark.parametrize("drops", [1, 3])
    def test_force_drops_armed_with_object_frames_in_flight(self, delay_ps, drops):
        waves = [
            [("write", tag, tag + 1) for tag in range(8)],
            [("read", tag, 0) for tag in range(8)],
        ]
        obj = drive(OBJECT_PATH, waves, arm_drops=(delay_ps, drops))
        raw = drive(BYTE_PATH, waves, arm_drops=(delay_ps, drops))
        assert obj["armed_in_flight"] > 0, "no object frame was in flight"
        assert_same_run(obj, raw)
        # the drops happened and replay recovered them
        assert sum(c[1] for c in obj["counters"][0]) == 2 * drops
        for name in ("down_link", "up_link"):
            obj_link = getattr(obj["channel"], name)
            raw_link = getattr(raw["channel"], name)
            # back on the object path after the drops: skips are pending
            assert obj_link._tx_scrambler._pending_skips
            assert not raw_link._tx_scrambler._pending_skips
            assert lane_state(obj_link) == lane_state(raw_link)
        # the reads return what the first wave wrote, replays and all
        for line, (_, _, data) in enumerate(obj["log"][8:]):
            assert data == bytes([line + 1]) * CACHE_LINE_BYTES
