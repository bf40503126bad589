"""Runtime channel-failure recovery without a system reboot."""

import pytest

from repro import CardSpec, ContuttoSystem
from repro.errors import ReplayError
from repro.units import CACHE_LINE_BYTES, GIB


def make_system(seed=3):
    return ContuttoSystem.build(
        [CardSpec(slot=0, kind="contutto", capacity_per_dimm=1 * GIB)],
        seed=seed,
    )


def force_channel_failure(system, slot=0):
    """Drive the channel into the failed state through its own machinery."""
    channel = system.socket.slots[slot].channel
    channel._on_fail(ReplayError("induced for the recovery test"))
    assert not channel.operational


class TestChannelRecovery:
    def test_recover_restores_traffic(self):
        system = make_system()
        payload = bytes([0x42] * CACHE_LINE_BYTES)
        system.sim.run_until_signal(system.socket.write_line(0, payload))

        force_channel_failure(system)
        recovered = system.socket.recover_channel(0)
        assert recovered
        assert system.socket.slots[0].channel.operational

        # new traffic flows; previously written memory is still there
        data = system.sim.run_until_signal(system.socket.read_line(0))
        assert data == payload
        system.sim.run_until_signal(
            system.socket.write_line(CACHE_LINE_BYTES, payload)
        )

    def test_recovery_releases_stuck_tags(self):
        system = make_system()
        host_mc = system.socket.slots[0].host_mc
        # strand some commands: issue then kill the channel before completion
        for tag in range(5):
            host_mc.tags.try_acquire()
        force_channel_failure(system)
        system.socket.recover_channel(0)
        assert host_mc.tags.free_count == host_mc.tags.num_tags

    def test_recovery_measures_fresh_frtl(self):
        system = make_system()
        frtl_before = system.socket.slots[0].frtl_ps
        force_channel_failure(system)
        system.socket.recover_channel(0)
        assert system.socket.slots[0].frtl_ps > 0
        assert system.socket.slots[0].frtl_ps == pytest.approx(frtl_before, rel=0.2)

    def test_repeated_failures_recoverable(self):
        system = make_system()
        for round_no in range(3):
            force_channel_failure(system)
            assert system.socket.recover_channel(0), f"round {round_no}"
            data = system.sim.run_until_signal(system.socket.read_line(0))
            assert data == bytes(CACHE_LINE_BYTES)

    def test_channel_reset_clears_protocol_state(self):
        system = make_system()
        channel = system.socket.slots[0].channel
        system.sim.run_until_signal(system.socket.read_line(0))
        assert channel.host_endpoint._last_accepted is not None
        channel.reset()
        assert channel.host_endpoint._last_accepted is None
        assert channel.host_endpoint._next_tx_seq == 0
        assert channel.buffer_endpoint._replay.outstanding == 0
        assert not channel.host.in_flight
